"""The config loader: json's own parse, with lists of numbers as arrays.

`cli.load_config` holds each nonempty list of numbers of one type as a
`formats.NumberList`. These tests pin that the result is json.loads's,
number for number and bit for bit, that malformed text keeps json's
message, and that every reader takes a NumberList as the list it came from.
"""

import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosym import AtomicMeasureSpace, InputError, cli, formats
from ergosym.formats import NumberList


def assert_same(got, want):
    """got is want: the same types, keys in order, and float bits."""
    if isinstance(got, NumberList):
        # held exactly when _held would hold the list json gives
        assert isinstance(formats._held(want), NumberList)
        assert got.array.dtype == (np.int64 if type(want[0]) is int else np.float64)
        got = got.tolist()
    elif isinstance(want, list):
        assert not isinstance(formats._held(want), NumberList)
    assert type(got) is type(want)
    if isinstance(want, float):
        assert float.hex(got) == float.hex(want)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            assert_same(got[k], want[k])
    else:
        assert got == want


def loads_without_fallback(text):
    """formats.loads(text), failing if it hands valid text to json.loads."""
    with mock.patch.object(formats.json, "loads", side_effect=AssertionError):
        return formats.loads(text)


# ----------------------------------------------------------- JSON text

WS = st.text(alphabet=" \t\n\r", max_size=3)
NUMBER_TOKENS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.sampled_from([
        "-0", "-0.0", "0.0", "1e400", "-1e400", "1E5", "2.5e-3", "NaN",
        "Infinity", "-Infinity", str(2**63 - 1), str(-2**63), str(2**63),
        str(-2**63 - 1), str(2**64), str(10**30),
    ]),
)
STRINGS = st.text(alphabet="ab],[\"\\ {}:tfn.1", max_size=6).map(json.dumps)
SCALARS = st.one_of(NUMBER_TOKENS, STRINGS, st.sampled_from(["true", "false", "null"]))


def _list_text(items):
    return st.tuples(WS, st.lists(st.tuples(items, WS, WS), max_size=8)).map(
        lambda t: "[" + t[0] + ",".join(f"{a}{v}{b}" for v, a, b in t[1]) + "]"
    )


def _object_text(values):
    return st.lists(st.tuples(STRINGS, WS, values, WS), max_size=4).map(
        lambda pairs: "{" + ",".join(f"{k}{a}:{v}{b}" for k, a, v, b in pairs) + "}"
    )


DOCUMENTS = st.recursive(
    st.one_of(SCALARS, _list_text(NUMBER_TOKENS), _list_text(NUMBER_TOKENS.filter(
        lambda t: "." in t))),
    lambda inner: st.one_of(_list_text(inner), _object_text(inner)),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=DOCUMENTS, lead=WS, trail=WS, slice_chars=st.sampled_from([1, 7, 32768]))
def test_loaded_document_is_json_loads_bit_for_bit(doc, lead, trail, slice_chars):
    # a small slice reads each list of numbers across many slices
    text = lead + doc + trail
    want = json.loads(text)
    with mock.patch.object(formats, "_SLICE", slice_chars):
        got = loads_without_fallback(text)
    assert_same(got, want)


@pytest.mark.parametrize("slice_chars", [3, 32768])
@pytest.mark.parametrize("text, dtype", [
    ("[1, 2, 3]", np.int64),
    ("[-0, 9223372036854775807, -9223372036854775808]", np.int64),
    ("[1.5, -0.0, 1e400, 2.0E-3]", np.float64),
    ("[1e5, NaN, 2.5]", np.float64),
    ("[NaN, NaN]", np.float64),
    ("[1, NaN]", None),
    ("[1, 2.5]", None),
    ("[9223372036854775808, 1]", None),
    ("[-9223372036854775809]", None),
    ("[1, true]", None),
    ("[1, null]", None),
    ("[1, Infinity]", None),
    ("[1.0, -Infinity]", np.float64),
    ("[-Infinity, 1.0]", np.float64),
    ("[1, \"]\"]", None),
    ("[]", None),
])
def test_which_lists_are_held_as_arrays(text, dtype, slice_chars):
    with mock.patch.object(formats, "_SLICE", slice_chars):
        got = loads_without_fallback(text)
    if dtype is None:
        assert type(got) is list
    else:
        assert isinstance(got, NumberList) and got.array.dtype == dtype
        assert not got.array.flags.writeable
    assert_same(got, json.loads(text))


# ------------------------------------------------------- malformed text

def _json_message(text):
    """The message of the parent loader, which called json.loads."""
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        return f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}"
    except RecursionError:
        return "config nests too deeply to parse"
    raise AssertionError(f"{text!r} parses")


VALID = '{"schema": 1, "space": {"weights": [1.0, 2.5]}, "map": [2, 0, 1], "x": ["a]"]}'
MALFORMED = [
    '{"a": [1,,2]}', '{"a": [1 2]}', '{"a": [1, 2.]}', '{"a": 1١}',
    '{"a": [1١]}', '{"a": "x\x01y"}', '{"a": [1, 2,]}', '{"a": [,1]}',
    '{"a": [1, 2]}]', '{"a": 1} x', '{"a": [1.0, 2.0] , }', '[1, 2', "",
    "﻿{}", '{"a": [-]}', '{"a": [01]}', '{"a": [1.5e]}', '{"a": [1, 2] ]',
    "[" * 100_000, '{"a":' * 100_000,
    *(VALID[:i] for i in range(len(VALID))),
]


@pytest.mark.parametrize("slice_chars", [2, 32768])
@pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_text_keeps_the_message_of_json_loads(tmp_path, text, slice_chars):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with mock.patch.object(formats, "_SLICE", slice_chars), \
            pytest.raises(InputError) as e:
        cli.load_config(path)
    assert str(e.value) == _json_message(text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on integer digits")
def test_an_integer_past_the_digit_limit_is_an_input_error(tmp_path):
    # json.loads raises a plain ValueError here, which once escaped as a
    # traceback
    path = tmp_path / "long.json"
    path.write_text('{"seed": ' + "1" * 5000 + "}")
    with pytest.raises(InputError, match="^config parse error: Exceeds the limit"):
        cli.load_config(path)


# --------------------------------------------------- readers of the lists

@pytest.mark.parametrize("command, cfg", [
    ("rearrange", {"schema": [1], "space": {"atoms": 2}, "function": {"ones": True}}),
    ("average", {"schema": 1, "space": {"atoms": 2}, "mode": [1, 2],
                 "operator": {"kind": "composition", "map": [1, 0]},
                 "function": {"ones": True}, "checkpoints": [1, 2]}),
    ("ds-check", {"schema": 1, "space": {"atoms": 2},
                  "operator": {"kind": "kernel", "matrix_re": [0.5, 0.5]}}),
    ("ds-check", {"schema": 1, "space": {"atoms": 2},
                  "operator": {"kind": "kernel", "matrix_re": [[0.5, 0.5], [1, 0]],
                               "matrix_im": [[0.0, 0.0]]}}),
    ("weighted-average", {"schema": 1, "space": {"atoms": 2}, "seed": [7],
                          "operator": {"kind": "composition", "map": [1.0, 0.0]},
                          "function": {"constant": [1.0]}, "checkpoints": [1, 2],
                          "weight": {"kind": "trig_poly", "terms": [1, 2]}}),
])
def test_diagnostics_are_those_of_the_json_lists(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    loaded = cli.load_config(path)
    diags = cli.validate(loaded, command)
    assert diags and diags == cli.validate(json.loads(path.read_text()), command)


def test_mode_and_schema_name_the_list_they_got(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"schema": [1], "mode": [1, 2]}')
    cfg = cli.load_config(path)
    assert isinstance(cfg["schema"], NumberList)
    with pytest.raises(InputError, match=r"^schema must be 1, got \[1\]$"):
        formats.schema_from_json(cfg["schema"])
    with pytest.raises(InputError) as e:
        formats.mode_from_json(cfg["mode"])
    assert str(e.value) == "mode must be 'full' or 'probes', got [1, 2]"


def _outcome(read, x):
    """(dtype, bytes, shape) of read(x), or its InputError message."""
    try:
        a = read(x)
    except InputError as e:
        return str(e)
    return a.dtype, a.shape, a.tobytes()


def _held_rows(x):
    """x as the loader holds it."""
    if isinstance(x, list) and all(isinstance(r, list) for r in x):
        return [formats._held(r) for r in x]
    return formats._held(x) if isinstance(x, list) else x


NUMBERS = st.one_of(
    st.integers(-3, 3), st.floats(),
    st.sampled_from([2**53 + 1, 2**63 - 1, -2**63, -2**63 + 1, 2**63, -2**64, 10**400]),
)
ROW = st.lists(NUMBERS, max_size=4)
VALUES = st.one_of(
    ROW, st.lists(ROW, max_size=3),
    st.lists(st.one_of(NUMBERS, st.booleans(), st.none(), ROW), max_size=3),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(x=VALUES, kind=st.sampled_from(["array", "int_array", "matrix", "int_matrix"]))
def test_value_reads_a_number_list_as_its_list(x, kind):
    assert _outcome(lambda v: formats.value(v, kind), _held_rows(x)) == \
        _outcome(lambda v: formats.value(v, kind), x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.one_of(st.integers(-2, 2), st.floats(-2, 2),
                                        st.sampled_from([math.inf, 2**63, 10**400])),
                              min_size=3, max_size=3), min_size=3, max_size=3),
       with_im=st.booleans())
def test_dense_kernel_reads_number_lists_as_their_lists(rows, with_im):
    space = AtomicMeasureSpace.uniform(3)

    def read(spec):
        T = formats.operator_from_json(spec, space)
        return np.concatenate([T.indptr.astype(float), T.indices.astype(float),
                               T.data.view(float)])

    spec = {"kind": "kernel", "matrix_re": rows}
    if with_im:
        spec["matrix_im"] = rows[::-1]
    held = {k: _held_rows(v) for k, v in spec.items()}
    assert _outcome(read, held) == _outcome(read, spec)


@pytest.mark.parametrize("x, kind", [
    ([-2**63], "int_array"), ([[1, -2**63]], "int_matrix"),
    ([float(-2**63)], "int_array"), ([2**63 - 1, -2**63], "int_array"),
])
def test_integer_arrays_reject_minus_two_to_the_63(x, kind):
    for given_x in (x, _held_rows(x)):
        with pytest.raises(InputError, match="below 2\\^63 in magnitude"):
            formats.value(given_x, kind)


def test_integer_arrays_keep_the_int64_extremes_within_2_to_the_63():
    x = [2**63 - 1, -2**63 + 1]
    for given_x in (x, formats.loads(json.dumps(x))):
        assert formats.value(given_x, "int_array").tolist() == x
    with pytest.raises(InputError, match="below 2\\^63 in magnitude"):
        formats.value(-2**63, "int")


# ------------------------------------------------------------- memory

def test_a_dense_kernel_config_loads_in_under_4_mib(tmp_path):
    # 512 x 512 floats: as Python floats in lists the parse held 8 MiB and
    # peaked at 9.3 MiB; as arrays it holds 2 MiB beside the 1.3 MB text
    n = 512
    rng = np.random.default_rng(5)
    kernel = np.zeros((n, n))
    for c in rng.dirichlet(np.ones(4)):
        kernel[np.arange(n), rng.permutation(n)] += c
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"schema": 1, "space": {"atoms": n}, "operator": {
        "kind": "kernel", "matrix_re": kernel.tolist()}}))
    tracemalloc.start()
    try:
        cfg = cli.load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    rows = cfg["operator"]["matrix_re"]
    assert all(isinstance(r, NumberList) for r in rows)
    assert np.array_equal(np.array([r.array for r in rows]), kernel)


def test_long_number_lists_load_one_block_of_text_at_a_time():
    # 2^16 ints, 2^16 signs as floats and 2^16 uniforms. Beyond the text
    # and the three arrays the scan holds one slice at a time: about _BLOCK
    # characters of text (and its bracketed copy) and the Python numbers
    # they hold: 35 KB here, where 32 768-character slices would hold 135 KB
    n = 2**16
    rng = np.random.default_rng(5)
    text = json.dumps({"ints": rng.integers(-10**6, 10**6, n).tolist(),
                       "signs": rng.choice([-1.0, 1.0], n).tolist(),
                       "uniform": rng.random(n).tolist()})
    tracemalloc.start()
    try:
        got = formats.loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(v.array.nbytes for v in got.values())
    assert arrays == 3 * 8 * n
    assert peak - arrays <= 8 * formats._BLOCK, peak - arrays
    assert_same(got, json.loads(text))
