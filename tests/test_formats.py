"""JSON decoding, CSV emission, and atomic file writes."""

import functools
import json
import math
import os
import stat
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ergosym import (
    AtomicMeasureSpace,
    CompositionOperator,
    InputError,
    KernelOperator,
    MeasurableFunction,
    Rearrangement,
    WeightSequence,
    cesaro,
    construct_certificate,
    ds_certificate,
    verify_certificate,
    weighted,
)
from ergosym import formats
from ergosym.formats import (
    atomic_write_chunks,
    atomic_write_text,
    averaging_csv,
    certificate_payload,
    ds_report_payload,
    function_from_json,
    json_report,
    operator_from_json,
    product_csv,
    rearrangement_csv,
    space_from_json,
    sweep_csv,
    traces_csv,
    weight_from_json,
)
from ergosym.rng import SplitMix64
from ergosym.spaces import _BLOCK
from dense import dense
from oracles import (
    averaging_csv_reference,
    product_csv_reference,
    random_function_reference,
    rearrangement_csv_reference,
    row_sum_layout_reference,
    sweep_csv_reference,
    traces_csv_reference,
)

# ---------------------------------------------------------------- decoders


def test_space_from_json_weights_and_atoms():
    s = space_from_json({"weights": [1.0, 2.0, 0.5]})
    assert s.n_atoms == 3 and s.weights[1] == 2.0 and not s.truncated
    u = space_from_json({"atoms": 4, "weight": 0.25, "truncated": True})
    assert u.n_atoms == 4 and np.all(u.weights == 0.25) and u.truncated


def test_space_from_json_errors():
    with pytest.raises(InputError):
        space_from_json([1, 2])
    with pytest.raises(InputError):
        space_from_json({"size": 3})


def test_function_from_json_explicit_and_ones():
    sp = AtomicMeasureSpace.uniform(3)
    f = function_from_json({"re": [1, 2, 3], "im": [0, -1, 0]}, sp)
    assert np.allclose(f.values, [1, 2 - 1j, 3])
    g = function_from_json({"ones": True}, sp)
    assert np.all(g.values == 1.0)
    h = function_from_json({"constant": {"re": 0.5, "im": 2.0}}, sp)
    assert np.all(h.values == 0.5 + 2j)


def test_function_from_json_character():
    sp = AtomicMeasureSpace.uniform(4)
    f = function_from_json({"character": 1}, sp)
    assert np.allclose(f.values, [1, 1j, -1, -1j], atol=1e-15)


def test_function_from_json_random_is_seed_deterministic():
    sp = AtomicMeasureSpace.uniform(8)
    a = function_from_json({"random": {"kind": "complex"}}, sp, SplitMix64(7))
    b = function_from_json({"random": {"kind": "complex"}}, sp, SplitMix64(7))
    assert np.array_equal(a.values, b.values)
    c = function_from_json({"random": {"kind": "real", "scale": 3.0}}, sp,
                           SplitMix64(7))
    assert np.all(c.values.imag == 0.0) and np.max(np.abs(c.values)) <= 3.0
    d = function_from_json({"random": {"kind": "nonnegative"}}, sp, SplitMix64(7))
    assert np.all(d.values.real >= 0.0)


@pytest.mark.parametrize("n", [1, 5, _BLOCK, _BLOCK + 1, 2**14, 2**14 + 1, 100_003])
@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0, -2.0])
@pytest.mark.parametrize("kind", ["complex", "real", "nonnegative"])
def test_random_function_keeps_the_one_shot_bits(kind, scale, n):
    # drawn a block at a time: the values and the generator's next state are
    # those of all 2n draws at once; a real kind is held as float64, whose
    # x + 0j has the bits of the complex reference
    seed = 2**64 - 12345
    want, state = random_function_reference(seed, n, kind, scale)
    dtype = complex if kind == "complex" else float
    rng = SplitMix64(seed)
    got = formats._random_values(rng, n, kind, scale)
    assert got.dtype == dtype
    assert got.astype(complex).tobytes() == want.tobytes() and rng.state == state
    if scale >= 0 or kind != "nonnegative":
        rng = SplitMix64(seed)
        f = function_from_json({"random": {"kind": kind, "scale": scale}},
                               AtomicMeasureSpace.uniform(n), rng)
        assert f.values.dtype == dtype
        assert f.values.astype(complex).tobytes() == want.tobytes()
        assert rng.state == state


@pytest.mark.parametrize("kind", ["real", "nonnegative"])
def test_real_random_function_skips_the_draws_it_does_not_read(monkeypatch, kind):
    # the imaginary part's n draws are skipped, not drawn: the generator
    # ends in the state of 2n draws after n of them
    n = 2**14 + 3
    drawn = []
    uniforms = SplitMix64.uniforms
    monkeypatch.setattr(SplitMix64, "uniforms",
                        lambda self, k: drawn.append(k) or uniforms(self, k))
    rng = SplitMix64(7)
    function_from_json({"random": {"kind": kind}}, AtomicMeasureSpace.uniform(n), rng)
    assert sum(drawn) == n
    ref = SplitMix64(7)
    uniforms(ref, 2 * n)
    assert rng.state == ref.state


def test_random_function_decodes_in_its_own_vector():
    # 2^16 atoms: the result, complex (1 MiB) or float64 for a real kind
    # (0.5 MiB), and one block of draws; the one-shot formula held 2N draws
    # and the complex temporaries (3.1 MiB)
    sp = AtomicMeasureSpace.uniform(1 << 16)
    for kind, limit in (("complex", 1.6), ("real", 1.0), ("nonnegative", 1.0)):
        tracemalloc.start()
        try:
            function_from_json({"random": {"kind": kind}}, sp, SplitMix64(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20, kind


def test_function_from_json_errors():
    sp = AtomicMeasureSpace.uniform(3)
    with pytest.raises(InputError):
        function_from_json({"re": [1, 2]}, sp)  # wrong length
    with pytest.raises(InputError):
        function_from_json({"re": [1, 2, 3], "im": [0]}, sp)
    with pytest.raises(InputError):
        function_from_json({"random": {"kind": "complex"}}, sp)  # no rng
    with pytest.raises(InputError):
        function_from_json({"random": {"kind": "gaussian"}}, sp, SplitMix64(1))
    with pytest.raises(InputError):
        function_from_json({"mystery": 1}, sp)


def test_operator_from_json_kernel():
    sp = AtomicMeasureSpace.uniform(2)
    T = operator_from_json(
        {"kind": "kernel", "matrix_re": [[0, 1], [1, 0]],
         "matrix_im": [[0, 0], [0, 0]]}, sp
    )
    assert isinstance(T, KernelOperator)
    assert np.array_equal(dense(T), np.array([[0, 1], [1, 0]], dtype=complex))


def test_dense_kernel_decodes_without_an_n_by_n_complex_array():
    # a convex combination of 4 permutations on 512 atoms, as the parsed
    # config holds it. Beyond those lists the decode holds at most two
    # blocks of max(1, _BLOCK // N) rows as floats (the last one while the
    # next is converted), their masks of nonzeros and O(nnz) for the
    # entries; the whole matrix as floats would take 8 N^2 bytes (2 MiB).
    n = 512
    rng = np.random.default_rng(81)
    k = np.zeros((n, n))
    for c in rng.dirichlet(np.ones(4)):
        k[np.arange(n), rng.permutation(n)] += c
    spec = {"kind": "kernel", "matrix_re": k.tolist()}
    space = AtomicMeasureSpace.uniform(n)
    tracemalloc.start()
    try:
        T = operator_from_json(spec, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nnz = np.count_nonzero(k)
    assert T.data.size == nnz
    assert peak <= 2 * max(1, _BLOCK // n) * n * (8 + 1) + 96 * nnz + 32 * n
    assert np.array_equal(dense(T), k)


@pytest.mark.parametrize("with_im", [True, False], ids=["re-im", "re-only"])
def test_dense_kernel_entries_keep_the_bits_of_the_dense_sum(with_im):
    # signed zeros in both parts: an entry that is zero in one part takes
    # its sign from the formula re + 1j*im, which must see the same elements
    rng = np.random.default_rng(82)
    values = np.array([0.0, -0.0, 0.5, -0.25, 1e-300, -3.0])
    re, im = rng.choice(values, (7, 7)), rng.choice(values, (7, 7))
    spec = {"kind": "kernel", "matrix_re": re.tolist()}
    if with_im:
        spec["matrix_im"] = im.tolist()
    else:
        im = np.zeros_like(re)
    T = operator_from_json(spec, AtomicMeasureSpace.uniform(7))
    full = re + 1j * im
    rows, cols = np.nonzero(full)
    assert np.array_equal(T.entry_rows(), rows) and np.array_equal(T.indices, cols)
    assert np.array_equal(T.data.view(np.uint64), full[rows, cols].view(np.uint64))
    order, layout, layout_cols = row_sum_layout_reference(full)
    assert np.array_equal(T.order, order) and np.array_equal(T.layout_cols, layout_cols)
    assert np.array_equal(T.layout.view(np.uint64), layout.view(np.uint64))


def test_dense_kernel_entries_do_not_depend_on_the_row_blocks():
    # 150 rows: two whole blocks and a short one. Ints, floats and signed
    # zeros give the bits of the whole-matrix decode.
    n = 150
    rng = np.random.default_rng(83)
    values = [0, 0.0, -0.0, 1, -2, 0.5, 1e-300, 2**60 + 1, -3.25]
    re = [[values[i] for i in rng.integers(len(values), size=n)] for _ in range(n)]
    im = [[values[i] for i in rng.integers(len(values), size=n)] for _ in range(n)]
    space = AtomicMeasureSpace.uniform(n)
    for spec in ({"matrix_re": re}, {"matrix_re": re, "matrix_im": im}):
        T = operator_from_json({"kind": "kernel", **spec}, space)
        whole = KernelOperator.from_parts(
            np.array(re, dtype=float),
            np.array(im, dtype=float) if "matrix_im" in spec else None, space)
        for name in ("indptr", "indices", "order", "place", "layout_cols"):
            assert np.array_equal(getattr(T, name), getattr(whole, name))
        for name in ("data", "layout"):
            assert np.array_equal(getattr(T, name).view(np.uint64),
                                  getattr(whole, name).view(np.uint64))


def _square(n, value=0.5):
    return [[value] * n for _ in range(n)]


def _with_cell(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return rows


def _with_row(rows, i, row):
    return rows[:i] + [row] + rows[i + 1:]


# 130 atoms: each fault sits past the first block of rows, and each case has
# two faults, of which the message names the first in the reader's order:
# types, shape, finiteness of matrix_re, then of matrix_im, the shape of
# matrix_im, squareness
N_FAULTS = 130
DENSE_FAULTS = [
    ({"matrix_re": _with_row(_with_cell(_square(N_FAULTS), 100, 3, "1"), 70, [0.5])},
     "matrix_re: must be a list of lists of numbers"),
    ({"matrix_re": _with_row(_with_cell(_square(N_FAULTS), 100, 3, math.inf), 70,
                             [0.5])},
     "matrix_re: must be a rectangular list of lists of numbers"),
    ({"matrix_re": _with_cell(_square(N_FAULTS), 129, 3, math.nan),
      "matrix_im": _with_cell(_square(N_FAULTS), 70, 3, True)},
     "matrix_re: must hold finite numbers only"),
    ({"matrix_re": _with_cell(_square(N_FAULTS), 120, 0, 10**400)},
     "matrix_re: must be a rectangular list of lists of numbers"),
    ({"matrix_re": _square(N_FAULTS + 1),
      "matrix_im": _with_cell(_square(N_FAULTS + 1), 80, 3, None)},
     "matrix_im: must be a list of lists of numbers"),
    ({"matrix_re": _square(N_FAULTS),
      "matrix_im": _with_cell(_square(N_FAULTS - 1), 80, 3, -math.inf)},
     "matrix_im: must hold finite numbers only"),
    ({"matrix_re": _square(N_FAULTS + 1), "matrix_im": _square(N_FAULTS)},
     "matrix_im: expected the shape of matrix_re"),
    ({"matrix_re": _square(N_FAULTS + 1)},
     f"kernel must be {N_FAULTS}x{N_FAULTS} for this space"),
    ({"matrix_re": _square(N_FAULTS)[:-1]},
     f"kernel must be {N_FAULTS}x{N_FAULTS} for this space"),
]


@pytest.mark.parametrize("spec, message", DENSE_FAULTS)
def test_dense_kernel_reports_the_first_problem_in_order(spec, message):
    with pytest.raises(InputError) as e:
        operator_from_json({"kind": "kernel", **spec},
                           AtomicMeasureSpace.uniform(N_FAULTS))
    assert str(e.value) == message


def test_operator_from_json_composition_multiplier_keys():
    sp = AtomicMeasureSpace.uniform(2)
    T = operator_from_json(
        {"kind": "composition", "map": [1, 0], "mult_re": [0, 0],
         "mult_im": [1, -1], "measure_preserving": True}, sp
    )
    assert isinstance(T, CompositionOperator)
    assert np.allclose(T.multiplier, [1j, -1j])
    assert T.measure_preserving
    plain = operator_from_json({"kind": "composition", "map": [1, 0]}, sp)
    assert np.all(plain.multiplier == 1.0)


def test_real_composition_multiplier_is_held_as_float64():
    # without mult_im the multiplier stays real, and -0.0 reads as +0.0, as
    # in re + 1j * 0.0; with mult_im it is complex
    sp = AtomicMeasureSpace.uniform(3)
    spec = {"kind": "composition", "map": [1, 2, 0], "mult_re": [-0.0, -1, 0.5]}
    T = operator_from_json(spec, sp)
    assert T.multiplier.dtype == np.float64
    assert T.multiplier.tobytes() == np.array([0.0, -1.0, 0.5]).tobytes()
    assert T.multiplier.tobytes() == (np.array([-0.0, -1, 0.5]) + 1j * 0.0).real.tobytes()
    U = operator_from_json({**spec, "mult_im": [0, 0, 0]}, sp)
    assert U.multiplier.dtype == np.complex128
    assert U.multiplier.real.tobytes() == T.multiplier.tobytes()
    plain = operator_from_json({"kind": "composition", "map": [1, 2, 0]}, sp)
    assert plain.multiplier.dtype == np.float64 and np.all(plain.multiplier == 1.0)


def test_operator_from_json_counterexample_needs_no_space():
    T = operator_from_json(
        {"kind": "counterexample", "breakpoints": [1, 5], "grid": 2,
         "window": 5}, None
    )
    assert T.space.n_atoms == 10


def test_operator_from_json_errors():
    sp = AtomicMeasureSpace.uniform(2)
    with pytest.raises(InputError):
        operator_from_json({"matrix_re": [[1]]}, sp)
    with pytest.raises(InputError):
        operator_from_json({"kind": "kernel", "matrix_re": [[1, 0], [0, 1]]},
                           None)
    with pytest.raises(InputError):
        operator_from_json({"kind": "spectral"}, sp)


def test_weight_from_json_kinds():
    w = weight_from_json({"kind": "lambda_power", "lambda_re": 0.0,
                          "lambda_im": 1.0})
    assert w.values(4)[3] == pytest.approx(-1j)
    p = weight_from_json({"kind": "periodic", "re": [1, -1]})
    assert p.values(6)[5] == -1.0
    c = weight_from_json({"kind": "constant", "re": 2.0})
    assert c.values(11)[10] == 2.0
    e = weight_from_json({"kind": "explicit", "re": [0.5, 2.0], "bound": 2.0})
    assert e.values(2)[1] == 2.0
    with pytest.raises(InputError, match="exceed the declared bound"):
        weight_from_json({"kind": "explicit", "re": [0.5, 2.0], "bound": 1.0})


def test_weight_from_json_trig_poly_exact_phase():
    w = weight_from_json(
        {"kind": "trig_poly",
         "terms": [{"z_re": 1.0, "phase_num": 1, "phase_den": 6}]}
    )
    term = w.poly.terms[0]
    assert term.phase == (1, 6)
    assert w.values(7)[6] == pytest.approx(1.0, abs=1e-15)
    v = weight_from_json(
        {"kind": "trig_poly", "terms": [{"z_re": 2.0, "lam_re": -1.0}]}
    )
    assert v.values(4)[3] == pytest.approx(-2.0)


def test_weight_from_json_unknown_kind():
    with pytest.raises(InputError):
        weight_from_json({"kind": "besicovitch"})


# ------------------------------------------------------------- atomic writes


def test_atomic_write_creates_file_and_no_droppings(tmp_path):
    target = tmp_path / "out" / "report.json"
    atomic_write_text(target, '{"a": 1}\n')
    assert target.read_text() == '{"a": 1}\n'
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]


def test_atomic_write_failure_leaves_nothing(tmp_path):
    target = tmp_path / "report.csv"
    with pytest.raises(TypeError):
        atomic_write_text(target, object())  # write() rejects non-str
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "r.csv"
    atomic_write_text(target, "old\n")
    atomic_write_text(target, "new\n")
    assert target.read_text() == "new\n"


def _failing_chunks():
    yield "# schema=1 seed=0\n"
    yield "a,b\n" * 1000
    raise RuntimeError("emitter failed")


def test_atomic_write_chunks_failure_midway_leaves_nothing(tmp_path):
    target = tmp_path / "report.csv"
    with pytest.raises(RuntimeError, match="emitter failed"):
        atomic_write_chunks(target, _failing_chunks())
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_chunks_failure_midway_keeps_the_old_file(tmp_path):
    target = tmp_path / "report.csv"
    atomic_write_text(target, "old\n")
    with pytest.raises(RuntimeError, match="emitter failed"):
        atomic_write_chunks(target, _failing_chunks())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_of_a_plain_open(tmp_path, umask, mode):
    # mkstemp creates its file with mode 0o600, and os.replace keeps it
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "r.json", "{}\n")
        atomic_write_chunks(tmp_path / "r.csv", iter(["a\n", "b\n"]))
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old)
    for name in ("r.json", "r.csv", "plain.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


# ----------------------------------------------------------------- emitters


def test_rearrangement_csv_layout():
    r = Rearrangement(np.array([0.0, 1.0, 3.0]), np.array([2.0, 0.5]))
    text = "".join(rearrangement_csv(r, seed=42))
    lines = text.splitlines()
    assert lines[0] == "# schema=1 seed=42"
    assert lines[1] == "t_left,t_right,value"
    assert lines[2].split(",") == ["0.0", "1.0", "2.0"]
    assert lines[3].split(",") == ["1.0", "3.0", "0.5"]
    assert text.endswith("\n")


def test_averaging_csv_flags_and_shape():
    T = KernelOperator(np.eye(3), AtomicMeasureSpace.uniform(3))
    f = MeasurableFunction(np.array([1.0, -2.0, 0.5]), T.space)
    rep = cesaro(T, f, (1, 4), probes=(0, 2))
    text = "".join(averaging_csv(rep, seed=9))
    lines = text.splitlines()
    assert lines[1] == "n,probe_id,re,im,l1_norm,linf_norm,majorized"
    assert len(lines) == 2 + 2 * 2
    # no trace requested: flag column stays empty
    assert all(ln.endswith(",") for ln in lines[2:])
    row = lines[2].split(",")
    assert row[0] == "1" and row[1] == "0" and float(row[2]) == 1.0


def test_averaging_csv_majorized_column():
    T = KernelOperator(np.eye(2), AtomicMeasureSpace.uniform(2))
    f = MeasurableFunction(np.array([1.0, 2.0]), T.space)
    rep = cesaro(T, f, (1, 2), probes=(0,))
    rep.majorized = (True, False)
    lines = "".join(averaging_csv(rep, seed=0)).splitlines()
    assert lines[2].endswith("true") and lines[3].endswith("false")


@pytest.mark.parametrize("kind", ["cesaro", "weighted"])
def test_averaging_csv_leaves_the_norm_cells_empty_without_norms(kind):
    T = KernelOperator(np.eye(3), AtomicMeasureSpace.uniform(3))
    f = MeasurableFunction(np.array([1.0, -2.0, 0.5]), T.space)
    run = (cesaro if kind == "cesaro"
           else functools.partial(weighted, beta=WeightSequence.constant(0.5)))
    rows = {}
    for norms in (True, False):
        rep = run(T, f, checkpoints=(1, 4), probes=(0, 2), store_averages=False,
                  norms=norms, majorize=True)
        text = "".join(averaging_csv(rep, 9))
        rows[norms] = [ln.split(",") for ln in text.splitlines()]
    assert rows[False][:2] == rows[True][:2]
    assert len(rows[False]) == 2 + 2 * 2
    for without, with_norms in zip(rows[False][2:], rows[True][2:]):
        assert without == with_norms[:4] + ["", "", "true"]


def test_traces_and_product_csv_shapes():
    chunks = traces_csv([0.25, 0.5], (1, 3), [[1.0, 2.0], [0.5, 0.25]], seed=5)
    text = "".join(chunks)
    lines = text.splitlines()
    assert lines[1] == "n,t,value"
    assert lines[2] == "1,0.25,1.0" and lines[5] == "3,0.5,0.25"


def test_sweep_csv_with_and_without_oracle():
    class Sweep:
        lambdas = np.array([1.0 + 0j, -1.0 + 0j])
        probes = (0,)
        checkpoints = (1, 2)
        averages = np.array([[[1.0 + 0j, 0.5 + 0j]], [[1.0 + 0j, 0.0 + 0j]]])

    plain = "".join(sweep_csv(Sweep(), seed=3))
    assert plain.splitlines()[0] == "# schema=1 seed=3"
    assert plain.splitlines()[1] == (
        "lambda_index,lambda_re,lambda_im,probe,n,avg_re,avg_im"
    )
    oracle = Sweep.averages.copy()
    oracle[0, 0, 1] += 0.125
    rich = "".join(sweep_csv(Sweep(), seed=3, oracle=oracle, resonant=[1]))
    lines = rich.splitlines()
    assert lines[0] == "# schema=1 seed=3 resonant_lambdas=1"
    assert lines[1].endswith(",oracle_re,oracle_im,abs_err")
    assert lines[3].split(",")[-1] == "0.125"


def test_json_report_prepends_schema_and_seed():
    text = json_report({"answer": 41}, seed=11)
    obj = json.loads(text)
    assert obj == {"schema": 1, "seed": 11, "answer": 41}
    assert list(obj) == ["schema", "seed", "answer"]


def test_ds_report_payload_keys():
    T = KernelOperator(np.eye(2), AtomicMeasureSpace.uniform(2))
    payload = ds_report_payload(ds_certificate(T))
    assert payload == {
        "l1_ok": True, "linf_ok": True, "ds_ok": True,
        "worst_column_sum": 1.0, "worst_row_sum": 1.0,
    }


def test_certificate_payload_round_trip():
    prof = Rearrangement(np.array([0.0, 32.0]), np.array([1.0]))
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    res = verify_certificate(cert, prof)
    payload = certificate_payload(cert, res)
    assert payload["breakpoints"] == [1, 5, 17]
    assert payload["mode"] == "full-grid"
    assert payload["verified"] is True
    assert "failed_stage" not in payload
    assert len(payload["stages"]) == 3
    assert payload["stages"][1]["side"] == "<-1/2"
    assert json.loads(json_report(payload, seed=1))["breakpoints"] == [1, 5, 17]


def test_certificate_payload_reports_failure():
    prof = Rearrangement(np.array([0.0, 32.0]), np.array([1.0]))
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    bad = type(cert)(cert.eps, cert.margin, cert.grid, cert.mode,
                     (1, 4, 17), cert.stages)
    res = verify_certificate(bad, prof)
    payload = certificate_payload(bad, res)
    assert payload["verified"] is False
    assert payload["failed_stage"] == 2


def test_atomic_write_fsync_free_contract(tmp_path):
    # the temp file must live next to the target so os.replace stays atomic
    target = tmp_path / "x.csv"
    seen = {}
    orig = os.replace

    def spy(src, dst):
        seen["same_dir"] = os.path.dirname(src) == os.path.dirname(dst)
        return orig(src, dst)

    os.replace = spy
    try:
        atomic_write_text(target, "ok\n")
    finally:
        os.replace = orig
    assert seen["same_dir"]


# ------------------------------------------------- chunked emission at scale


def _sweep(grid, probes=2, checkpoints=8):
    rng = np.random.default_rng(grid)
    shape = (grid, probes, checkpoints)
    averages = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sweep = SimpleNamespace(
        lambdas=np.exp(2j * np.pi * np.arange(grid) / grid),
        probes=tuple(range(probes)),
        checkpoints=tuple(2**k for k in range(checkpoints)),
        averages=averages,
    )
    return sweep, averages + 1e-9


def _rearrangement(rows):
    rng = np.random.default_rng(rows)
    bps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, rows))])
    return Rearrangement(bps, np.linspace(2.0, 1.0, rows))


def _writing_peak(path, chunks) -> int:
    """tracemalloc's peak, in bytes, while the chunks are written to path."""
    tracemalloc.start()
    try:
        atomic_write_chunks(path, chunks())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_writing_memory_does_not_grow_with_the_rows(tmp_path):
    # G = 4096 and 256 with 2 probes, 8 checkpoints and oracle columns: 65 536
    # and 4 096 rows, about 9.8 MB and 0.6 MB of text. One chunk is one
    # (lambda, probe) trace, 8 rows; the peak (about 30 KiB, numpy 2.4) is
    # the file's buffers and one trace, nearly the same at both sizes. The
    # whole text in one string would take 10 MB.
    peaks = {}
    for grid in (4096, 256):
        sweep, oracle = _sweep(grid)
        path = tmp_path / f"sweep{grid}.csv"
        peaks[grid] = _writing_peak(path, lambda: sweep_csv(sweep, 7, oracle, [0]))
        assert path.read_text() == sweep_csv_reference(sweep, 7, oracle, [0])
    assert peaks[4096] <= peaks[256] + (32 << 10)
    assert peaks[4096] <= 256 << 10


def test_rearrangement_writing_memory_does_not_grow_with_the_rows(tmp_path):
    # 2^18 and 2^14 plateaus, about 15 MB and 0.9 MB of text, read and
    # written a block of _CHUNK_ROWS = 4096 rows at a time: the peak (about
    # 0.95 MiB) is one block's floats, rows and joined text at both sizes.
    peaks = {}
    for rows in (1 << 18, 1 << 14):
        r = _rearrangement(rows)
        path = tmp_path / f"r{rows}.csv"
        peaks[rows] = _writing_peak(path, lambda: rearrangement_csv(r, 3))
        assert path.read_text() == rearrangement_csv_reference(r, 3)
    assert peaks[1 << 18] <= peaks[1 << 14] + (32 << 10)
    assert peaks[1 << 18] <= 2 << 20


# ------------------------------------------ chunks equal the joined reference

# specials drawn often: signed zeros, the smallest subnormal, the largest
# float, infinities and NaN
_SPECIALS = (-0.0, 0.0, 5e-324, -1.7976931348623157e308, math.inf, math.nan)
_floats = st.sampled_from(_SPECIALS) | st.floats(width=64)
_complexes = (st.builds(complex, st.sampled_from(_SPECIALS), st.sampled_from(_SPECIALS))
              | st.complex_numbers(allow_nan=True, allow_infinity=True))
_sizes = st.integers(0, 5)


def _array(data, dtype, shape):
    elements = _complexes if dtype == complex else _floats
    return data.draw(hnp.arrays(dtype, shape, elements=elements))


def _ints(data, size):
    return tuple(data.draw(st.lists(st.integers(0, 2**40), min_size=size,
                                    max_size=size)))


def _rearrangement_case(data):
    rows = data.draw(_sizes)
    r = SimpleNamespace(breakpoints=_array(data, float, rows + 1),
                        plateaus=_array(data, float, rows))
    return (r, data.draw(st.integers(0, 2**64 - 1)))


def _averaging_case(data):
    c, p = data.draw(_sizes), data.draw(_sizes)
    norms = data.draw(st.booleans())
    flags = data.draw(st.none() | st.lists(st.booleans(), min_size=c, max_size=c))
    report = SimpleNamespace(
        checkpoints=_ints(data, c), probes=_ints(data, p),
        probe_values=_array(data, complex, (c, p)),
        l1_norms=_array(data, float, c) if norms else None,
        linf_norms=_array(data, float, c) if norms else None,
        majorized=None if flags is None else tuple(flags),
    )
    return (report, 9)


def _sweep_case(data):
    g, p, c = data.draw(_sizes), data.draw(_sizes), data.draw(_sizes)
    sweep = SimpleNamespace(lambdas=_array(data, complex, g), probes=_ints(data, p),
                            checkpoints=_ints(data, c),
                            averages=_array(data, complex, (g, p, c)))
    oracle = data.draw(st.none() | st.just((g, p, c)))
    oracle = None if oracle is None else _array(data, complex, oracle)
    resonant = data.draw(st.none() | st.lists(st.integers(0, 9), max_size=3))
    return (sweep, 11, oracle, resonant)


def _product_case(data):
    c, p = data.draw(_sizes), data.draw(_sizes)
    report = SimpleNamespace(checkpoints=_ints(data, c),
                             probes=tuple(zip(_ints(data, p), _ints(data, p))),
                             averages=_array(data, complex, (c, p)))
    return (report, 301)


def _traces_case(data):
    c, t = data.draw(_sizes), data.draw(_sizes)
    values = _array(data, float, (c, t))
    if data.draw(st.booleans()):
        values = values.tolist()
    return (_array(data, float, t).tolist(), _ints(data, c), values, 5)


WRITERS = {
    "rearrangement": (rearrangement_csv, rearrangement_csv_reference,
                      _rearrangement_case),
    "averaging": (averaging_csv, averaging_csv_reference, _averaging_case),
    "sweep": (sweep_csv, sweep_csv_reference, _sweep_case),
    "product": (product_csv, product_csv_reference, _product_case),
    "traces": (traces_csv, traces_csv_reference, _traces_case),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 3, 4096]))
def test_joined_chunks_equal_the_reference_text(kind, data, block):
    # the block size is the rearrangement's rows per chunk: small ones put
    # chunk boundaries inside a drawn report
    writer, reference, case = WRITERS[kind]
    args = case(data)
    try:
        expected = reference(*args)
    except OverflowError:  # abs(v - o) of two parts near the largest float
        expected = OverflowError
    with mock.patch.object(formats, "_CHUNK_ROWS", block):
        if expected is OverflowError:
            with pytest.raises(OverflowError):
                "".join(writer(*args))
        else:
            assert "".join(writer(*args)) == expected


def _small_case(kind, rows):
    """A report of `kind` with `rows` (0 or 1) rows: that many checkpoints
    or plateaus, one probe, one lambda, one probe point."""
    cps = (8,) * rows
    v = np.full((1, 1, rows), 0.5 - 0.25j)  # (lambda, probe, checkpoint)
    norms = np.full(rows, 2.0)
    if kind == "rearrangement":
        return (SimpleNamespace(breakpoints=np.arange(rows + 1.0),
                                plateaus=np.full(rows, 0.5)), 1)
    if kind == "averaging":
        return (SimpleNamespace(checkpoints=cps, probes=(0,), probe_values=v[0].T,
                                l1_norms=norms, linf_norms=norms,
                                majorized=(True,) * rows), 1)
    if kind == "sweep":
        return (SimpleNamespace(lambdas=np.ones(1, complex), probes=(0,),
                                checkpoints=cps, averages=v), 1, v / 2, [0])
    if kind == "product":
        return (SimpleNamespace(checkpoints=cps, probes=((1, 2),),
                                averages=v[0].T), 1)
    return ([0.25], cps, v[0].T.real, 1)


@pytest.mark.parametrize("kind", sorted(WRITERS))
@pytest.mark.parametrize("rows", [0, 1])
def test_header_only_and_one_row_reports_match_the_reference(kind, rows):
    writer, reference, _ = WRITERS[kind]
    args = _small_case(kind, rows)
    text = "".join(writer(*args))
    assert text == reference(*args)
    assert text.count("\n") == 2 + rows
