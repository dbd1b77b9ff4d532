"""JSON decoding of experiment inputs and CSV/JSON report emission.

`loads` parses a config with json's own scanner, but holds each nonempty
list of numbers of one type (ints within int64, or floats) as a
NumberList, one int64 or float64 array, instead of a Python object per
number. Both blocked passes of the loader use the one block size,
spaces._BLOCK: a list of numbers is scanned a slice of about _BLOCK
characters at a time, so no more than one slice of Python numbers exists
at once, and a dense kernel is converted to floats at most _BLOCK
entries (whole rows, at least one) at a time. Every decoder below reads
a NumberList as the list it came from: `value` (the one typed reader)
and the dense-kernel row reader give the same arrays and the same
messages for either.

Each CSV emitter returns an iterator of text chunks: one per (lambda,
probe) trace of a sweep, one per checkpoint of an averaging, product or
traces report, and one per block of at most _CHUNK_ROWS rows of a
rearrangement. atomic_write_chunks streams them into a temp file in the
target directory and renames it over the target, so the memory used for
writing does not grow with the number of rows, and an interrupted run
never leaves a partial file. The file gets the mode a plain
open(path, "w") would give it, 0o666 & ~umask (0o644 under umask 0o022).
JSON reports are one string, written by atomic_write_text. Floats are
written with repr (shortest round-trip form), which keeps outputs
byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from .averaging import geometric_checkpoints
from .errors import InputError
from .operators import (
    CompositionOperator,
    DSReport,
    KernelOperator,
    signed_shift_operator,
)
from .return_times import PointSystem
from .rng import SplitMix64
from .spaces import (
    _BLOCK, AtomicMeasureSpace, LorentzWeight, MeasurableFunction, OrliczFunction,
    _schedule,
)
from .weights import TrigPolynomial, TrigTerm, WeightSequence, cycles

SCHEMA_VERSION = 1


def _umask() -> int:
    mask = os.umask(0)  # reading the umask means setting it
    os.umask(mask)
    return mask


def atomic_write_chunks(path, chunks: Iterable[str]) -> None:
    """Write the text chunks to path: streamed into a temp file next to it,
    which then replaces path. On any failure, the chunks' iterator raising
    included, neither path nor the temp file is left."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, 0o666 & ~_umask())  # mkstemp's 0o600 otherwise
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_chunks(path, (text,))


def _meta_line(seed: int, extra: str = "") -> str:
    line = f"# schema={SCHEMA_VERSION} seed={seed}"
    return line + (f" {extra}" if extra else "")


# ---------------------------------------------------------------- decoding

REQUIRED = object()  # `read` default of a key that must be present
_TYPES = {"flag": (bool, "true or false"), "string": (str, "a string"),
          "object": (dict, "an object"), "list": (list, "a list")}


class NumberList:
    """A nonempty JSON list of numbers of one type, held as one read-only
    int64 (every element a JSON integer) or float64 (every element a float)
    array instead of one Python object per number. Every reader takes it as
    the list it came from, and its repr is that list's. Not a NamedTuple: a
    tuple would read as the sequence of its fields."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        array.flags.writeable = False
        self.array = array

    def __len__(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return repr(self.tolist())

    def tolist(self) -> list:
        return self.array.tolist()


_NUMBER_TYPES = {int, float}


def numbers(x) -> bool:
    """Whether x is a list of JSON numbers: a NumberList, or a list of ints
    and floats (bools are not numbers). The one rule for the loader and
    every array reader."""
    return isinstance(x, NumberList) or (
        isinstance(x, list) and _NUMBER_TYPES.issuperset(map(type, x))
    )


def _held(items: list):
    """items as a NumberList when it is a nonempty list of numbers of one
    type that int64 or float64 holds exactly, else items itself: a list
    that mixes ints and floats, or holds an int past int64, stays a list."""
    if items and numbers(items) and len(set(map(type, items))) == 1:
        try:
            return NumberList(
                np.array(items, np.int64 if type(items[0]) is int else float)
            )
        except OverflowError:  # an int past int64
            pass
    return items


# characters of a list's text (and the rest of the number they end in)
# that the loader turns into Python numbers at once: the one block size
_SLICE = _BLOCK
_FIRST_DIGITS = frozenset("-0123456789")
# what starts a string, list, object, true, false, null or (-)Infinity
_NOT_NUMBER = '"[{tfn'
_NOT_INT = ".eEN"  # in a float (NaN included) only
_ws = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().scan_once  # json's own scanner, one value at s[i]


def loads(text: str):
    """json.loads(text), with each list that _held would hold as a
    NumberList held so. Malformed text raises json's own error, from
    json.loads(text). Text nested too deeply for this parser's recursion
    goes to json.loads too, which parses it with its lists left as lists
    or raises RecursionError."""
    try:
        obj, end = _value(text, _ws(text, 0).end())
        if _ws(text, end).end() == len(text):
            return obj
    except (ValueError, IndexError, StopIteration, RecursionError):
        pass
    return json.loads(text)


def _value(s: str, idx: int):
    """(value, end) for the JSON value at s[idx]."""
    c = s[idx:idx + 1]
    if c == "{":
        return json.decoder.JSONObject((s, idx + 1), True, _value, None, None)
    if c == "[":
        return _list(s, idx)
    return _scan(s, idx)


def _list(s: str, idx: int):
    """(list or NumberList, end) for the JSON list whose "[" is s[idx]."""
    start = _ws(s, idx + 1).end()
    stop = s.find("]", start)
    if stop > start and s[start] in _FIRST_DIGITS and not _has(s, start, stop,
                                                               _NOT_NUMBER):
        # up to its first "]" the list holds no string, list, object or
        # literal: numbers, or text the scanner rejects
        return _numbers(s, idx, start, stop), stop + 1
    values, end = json.decoder.JSONArray((s, idx + 1), _value)
    return _held(values), end


def _has(s: str, start: int, stop: int, chars: str) -> bool:
    """Whether s[start:stop] holds any of chars (one find each: faster than
    a regular expression's character class)."""
    return max(map(s.find, chars, repeat(start), repeat(stop))) >= 0


def _dtype(s: str, start: int, stop: int, n: int):
    """float when each of the n numbers in s[start:stop] has a point,
    np.int64 when none has a point, an exponent or NaN, else None."""
    if s.count(".", start, stop) == n:
        return float
    return None if _has(s, start, stop, _NOT_INT) else np.int64


def _numbers(s: str, idx: int, start: int, stop: int):
    """The list from s[idx] ("[") to s[stop] ("]") of numbers only, the
    first at s[start], as _held holds it. A list that _dtype types is
    scanned into one array a slice at a time, each slice _SLICE characters
    and the rest of the number they end in, so one slice of Python numbers
    exists at once (a short list is one slice); any other is left to
    _held."""
    n = s.count(",", start, stop) + 1
    dtype = _dtype(s, start, stop, n)
    if dtype is None:
        return _held(_scan(s, idx)[0])
    a = np.empty(n, dtype)
    k, pos = 0, start
    try:
        while pos < stop:
            cut = s.find(",", pos + _SLICE, stop)
            if cut < 0:
                cut = stop
            piece = _scan("[" + s[pos:cut] + "]", 0)[0]
            a[k:k + len(piece)] = piece
            k += len(piece)
            pos = cut + 1
    except OverflowError:  # an int past int64
        return _held(_scan(s, idx)[0])
    if k != n:  # an empty slice, as between the commas of "1,,2"
        raise ValueError("missing number")
    return NumberList(a)


def value(x, kind: str):
    """x checked as `kind` and converted, or InputError. Kinds: "int",
    "positive", "number", "flag", "string", "object", "list", and "array",
    "int_array", "matrix", "int_matrix" (float64 or int64 numpy arrays).
    A NumberList reads as its list: the same array, or the same message."""
    if kind in ("int", "positive"):
        if isinstance(x, float) and x.is_integer():
            x = int(x)
        if type(x) is not int or abs(x) >= 2**63:
            raise InputError("must be an integer below 2^63 in magnitude")
        if kind == "positive" and x < 1:
            raise InputError("must be a positive integer")
        return x
    if kind == "number":
        # abs(x) <= max also rejects NaN, infinities and ints past float range
        if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
            raise InputError("must be a finite number")
        return float(x)
    if kind in _TYPES:
        if kind == "list" and isinstance(x, NumberList):
            x = x.tolist()
        if not isinstance(x, _TYPES[kind][0]):
            raise InputError(f"must be {_TYPES[kind][1]}")
        return x
    matrix, integral = kind.endswith("matrix"), kind.startswith("int")
    what = "lists of " * matrix + ("integers" if integral else "numbers")
    rows = x if matrix else [x]
    if not isinstance(rows, list) or not all(map(numbers, rows)):
        raise InputError(f"must be a list of {what}")
    if all(isinstance(r, NumberList) for r in rows):
        x = [r.array for r in rows] if matrix else x.array
    elif matrix:  # a row left a list: read every row as json gives it
        x = [r.tolist() if isinstance(r, NumberList) else r for r in rows]
    try:
        a = np.asarray(x)
        if not (integral and a.dtype.kind == "i"):
            a = a.astype(float, copy=False)
    except (ValueError, OverflowError):  # ragged rows, ints past float range
        raise InputError(f"must be a rectangular list of {what}") from None
    if not np.all(np.isfinite(a)):
        raise InputError("must hold finite numbers only")
    if integral and a.dtype.kind == "f":
        if not np.all((a == np.trunc(a)) & (np.abs(a) < 2.0**63)):
            raise InputError("must hold integers below 2^63 in magnitude")
        a = a.astype(np.int64)
    elif integral and np.any(a == -2**63):  # as for the scalar kind
        raise InputError("must hold integers below 2^63 in magnitude")
    return a


@contextmanager
def _under(key: str):
    """Prefix `key` to the message of an InputError raised in the block."""
    try:
        yield
    except InputError as e:
        raise InputError(f"{key}: {e}") from None


def read(spec: dict, key: str, kind: str, default=REQUIRED):
    """spec[key] as `value(spec[key], kind)`, or `default` when absent; the
    message of a failed read starts with the key."""
    if key not in spec:
        if default is REQUIRED:
            raise InputError(f"{key}: missing")
        return default
    with _under(key):
        return value(spec[key], kind)


def _complex(spec: dict, prefix: str, re_default=0.0) -> complex:
    """prefix + "re" + i (prefix + "im"), with a finite modulus."""
    z = complex(read(spec, prefix + "re", "number", re_default),
                read(spec, prefix + "im", "number", 0.0))
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise InputError(f"{prefix}re: modulus with {prefix}im overflows")
    return z


def _parts(spec: dict, prefix="", n=None, re_default=REQUIRED, kind="array"):
    """(re, im) from prefix + "re" and prefix + "im"; im is None when absent."""
    re = read(spec, prefix + "re", kind, re_default)
    if n is not None and re.size != n:
        raise InputError(f"{prefix}re: expected {n} values, got {re.size}")
    im = read(spec, prefix + "im", kind, None)
    if im is not None and im.shape != re.shape:
        raise InputError(f"{prefix}im: expected the shape of {prefix}re")
    return re, im


def _complex_array(spec: dict, prefix="", n=None, re_default=REQUIRED):
    re, im = _parts(spec, prefix, n, re_default)
    return re + 1j * (0.0 if im is None else im)


# schema, seed and mode keep messages that name their key (scripts match them)


def schema_from_json(x) -> None:
    if type(x) is bool or x != SCHEMA_VERSION:
        raise InputError(f"schema must be {SCHEMA_VERSION}, got {x!r}")


def seed_from_json(x) -> int:
    # a JSON integer only: floats cannot hold every 64-bit seed
    if type(x) is not int or not 0 <= x < 1 << 64:
        raise InputError("seed must be a 64-bit integer")
    return x


def mode_from_json(x) -> bool:
    """True for "full" (also check each average's majorization, without
    keeping it), False for "probes"."""
    if x not in ("full", "probes"):
        raise InputError(f"mode must be 'full' or 'probes', got {x!r}")
    return x == "full"


def output_from_json(outputs, key: str, default: str) -> str:
    name = read(value(outputs, "object"), key, "string", default)
    # stays in --output-dir, and the OS can open it (a path holds no NUL)
    if name in ("", "..") or Path(name).name != name or "\0" in name:
        raise InputError(f"{key}: must be a file name")
    return name


def checkpoints_from_json(spec) -> tuple[int, ...]:
    if isinstance(spec, dict):
        return geometric_checkpoints(read(spec, "geometric", "int"))
    return _schedule(value(spec, "int_array").tolist(), "checkpoints")


def probes_from_json(spec, *orders: int) -> tuple:
    """Probe atoms in range(order), or (omega, y) pairs for two orders."""
    p = value(spec, "int_matrix" if len(orders) == 2 else "int_array")
    if p.size == 0 or p.shape[1:] != (2,) * (p.ndim - 1):
        raise InputError("must be a nonempty list of atoms, or of [omega, y] pairs")
    if np.any(p < 0) or np.any(p >= np.array(orders)):
        raise InputError("probe atom out of range")
    return tuple(map(tuple, p.tolist())) if p.ndim == 2 else tuple(p.tolist())


def system_from_json(spec) -> PointSystem:
    spec = value(spec, "object")
    return PointSystem.cyclic(read(spec, "order", "int"), read(spec, "step", "int", 1),
                              read(spec, "weight", "number", 1.0))


def orlicz_from_json(spec) -> OrliczFunction:
    return OrliczFunction.power(read(value(spec, "object"), "power", "number"))


def lorentz_from_json(spec) -> LorentzWeight:
    spec = value(spec, "object")
    if "capped" in spec:
        return LorentzWeight.capped(read(spec, "capped", "number"))
    return LorentzWeight(read(spec, "knots", "array"), read(spec, "slopes", "array"))


def space_from_json(obj) -> AtomicMeasureSpace:
    obj = value(obj, "object")
    truncated = read(obj, "truncated", "flag", False)
    if "weights" in obj:
        return AtomicMeasureSpace(read(obj, "weights", "array"), truncated)
    return AtomicMeasureSpace.uniform(
        read(obj, "atoms", "int"), read(obj, "weight", "number", 1.0), truncated
    )


def _function_form(obj: dict) -> str | None:
    """The key that selects how a function spec is read."""
    if "re" in obj or "im" in obj:
        return "re"
    if read(obj, "ones", "flag", False):
        return "ones"
    return next((k for k in ("constant", "character", "random") if k in obj), None)


def function_from_json(
    obj, space: AtomicMeasureSpace, rng: SplitMix64 | None = None
) -> MeasurableFunction:
    obj = value(obj, "object")
    n = space.n_atoms
    form = _function_form(obj)
    if form == "re":
        # without im the values stay float64; + 0.0 turns -0.0 into +0.0,
        # the real part of re + 0j
        re, im = _parts(obj, n=n)
        return MeasurableFunction(re + 0.0 if im is None else re + 1j * im, space)
    if form == "ones":
        return MeasurableFunction.ones(space)
    if form == "constant":
        with _under("constant"):
            c = obj["constant"]
            c = _complex(c, "") if isinstance(c, dict) else value(c, "number")
        return MeasurableFunction(np.full(n, c), space)
    if form == "character":
        c = read(obj, "character", "int") % n
        return MeasurableFunction(cycles(c * np.arange(n) % n / n), space)
    if form is None:
        raise InputError("needs 're', 'ones', 'constant', 'character' or 'random'")
    if rng is None:
        raise InputError("random: needs a seeded generator")
    spec = read(obj, "random", "object")
    with _under("random"):
        kind = read(spec, "kind", "string", "complex")
        scale = read(spec, "scale", "number", 1.0)
        if kind not in ("complex", "real", "nonnegative"):
            raise InputError(f"kind: unknown {kind!r}")
        if kind == "nonnegative" and scale < 0:
            raise InputError("scale: must be >= 0 for kind 'nonnegative'")
    return MeasurableFunction(_random_values(rng, n, kind, scale), space)


def _random_values(rng: SplitMix64, n: int, kind: str, scale: float) -> np.ndarray:
    """A random function's values from 2n draws u: x = u (nonnegative) or
    2u - 1 from the first n, and for complex 2u - 1 as the imaginary part
    from the next n; then scale * x, a complex product for complex and a
    real one otherwise. Drawn _BLOCK at a time into the one result,
    complex128 for complex and float64 otherwise; rng.uniforms(a) then
    rng.uniforms(b) gives the draws and the state of rng.uniforms(a + b).
    A real kind reads none of the last n draws, so the generator skips
    them in O(1)."""
    v = np.empty(n, dtype=complex if kind == "complex" else float)
    for part in (v.real, v.imag) if kind == "complex" else (v,):
        for lo in range(0, n, _BLOCK):
            u = rng.uniforms(min(_BLOCK, n - lo))
            if kind != "nonnegative":
                u *= 2
                u -= 1
            part[lo:lo + u.size] = u
    if kind != "complex":
        rng.skip(n)
    np.multiply(scale, v, out=v)
    return v


def rotation_from_json(function_spec: dict, system_spec: dict):
    """(character, step) when a decoded function spec is a character of a
    decoded rotation system, where the closed-form oracle applies; else None."""
    if _function_form(function_spec) != "character":
        return None
    return read(function_spec, "character", "int"), read(system_spec, "step", "int", 1)


def _n_lists_of_n_numbers(x, n: int) -> bool:
    return isinstance(x, list) and len(x) == n and all(
        numbers(r) and len(r) == n for r in x
    )


def _dense_rows(obj: dict, n: int) -> Iterator:
    """(re, im) float arrays of max(1, _BLOCK // N) rows at a time (at most
    _BLOCK entries, or one row when N > _BLOCK) from matrix_re and
    matrix_im (im None when absent), so no N x N array is made.

    InputError, without detail, unless each part is N lists of N finite
    numbers: such a matrix is left to the whole-matrix reader, whose message
    names its first problem in one order (types, shape, finiteness, the
    shape of matrix_im, squareness) however the rows are split."""
    parts = [obj.get("matrix_re")] + ([obj["matrix_im"]] if "matrix_im" in obj else [])
    if not all(_n_lists_of_n_numbers(x, n) for x in parts):
        raise InputError("not N lists of N numbers")
    rows = max(1, _BLOCK // n)
    for first in range(0, n, rows):
        try:
            re, *im = (np.array([r.array if isinstance(r, NumberList) else r
                                 for r in x[first:first + rows]], dtype=float)
                       for x in parts)
        except OverflowError:  # an int past float range
            raise InputError("not finite") from None
        if not all(np.all(np.isfinite(a)) for a in (re, *im)):
            raise InputError("not finite")
        yield re, (im[0] if im else None)


def operator_from_json(obj, space: AtomicMeasureSpace | None):
    obj = value(obj, "object")
    kind = read(obj, "kind", "string")
    if kind == "counterexample":
        return signed_shift_operator(
            read(obj, "breakpoints", "int_array").tolist(),
            read(obj, "grid", "int", 1),
            read(obj, "window", "int"),
        )
    if space is None:
        raise InputError(f"operator kind {kind!r} needs a space")
    if kind == "kernel":
        triplets = [k for k in ("rows", "cols", "data_re", "data_im") if k in obj]
        if not triplets:
            try:
                return KernelOperator.from_row_blocks(
                    _dense_rows(obj, space.n_atoms), space
                )
            except InputError:  # the whole-matrix reader names the problem
                re, im = _parts(obj, "matrix_", kind="matrix")
                return KernelOperator.from_parts(re, im, space)
        dense = [k for k in ("matrix_re", "matrix_im") if k in obj]
        if dense:
            raise InputError(f"{dense[0]}: not allowed beside {triplets[0]}; "
                             "give the matrix or its triplets, not both")
        rows = read(obj, "rows", "int_array")
        cols = read(obj, "cols", "int_array")
        data = _complex_array(obj, "data_", rows.size)
        return KernelOperator.from_triplets(rows, cols, data, space)
    if kind == "composition":
        pm = read(obj, "map", "int_array")
        one = np.broadcast_to(1.0, pm.shape)
        re, im = _parts(obj, "mult_", pm.size, one)
        # a real multiplier stays float64; + 0.0 turns -0.0 into +0.0, the
        # real part of re + 0j. The default stays one broadcast 1.0.
        if im is not None:
            mult = re + 1j * im
        else:
            mult = re if re is one else re + 0.0
        preserving = read(obj, "measure_preserving", "flag", False)
        return CompositionOperator(pm, mult, space, preserving)
    raise InputError(f"kind: unknown {kind!r}")


def weight_from_json(obj) -> WeightSequence:
    obj = value(obj, "object")
    kind = read(obj, "kind", "string")
    if kind == "lambda_power":
        return WeightSequence.lambda_power(_complex(obj, "lambda_", 1.0))
    if kind == "periodic":
        return WeightSequence.periodic(_complex_array(obj))
    if kind == "constant":
        return WeightSequence.constant(_complex(obj, "", 1.0))
    if kind == "explicit":
        bound = read(obj, "bound", "number", None)
        return WeightSequence.explicit(_complex_array(obj), bound)
    if kind == "trig_poly":
        from fractions import Fraction  # not at the top: a launch cost (with decimal)

        terms = []
        for i, t in enumerate(read(obj, "terms", "list", [])):
            with _under(f"terms[{i}]"):
                t = value(t, "object")
                z = _complex(t, "z_")
                if "phase_num" in t or "phase_den" in t:
                    den = read(t, "phase_den", "int")
                    if den == 0:
                        raise InputError("phase_den: must not be 0")
                    phase = Fraction(read(t, "phase_num", "int"), den)
                    terms.append(TrigTerm.from_phase(z, phase))
                else:
                    terms.append(TrigTerm(z, _complex(t, "lam_", 1.0)))
        return WeightSequence.trig_poly(TrigPolynomial(tuple(terms)))
    raise InputError(f"kind: unknown {kind!r}")


# ---------------------------------------------------------------- emission


# rows per chunk of a rearrangement; its arrays are read a block at a time
_CHUNK_ROWS = 4096


def rearrangement_csv(r, seed: int) -> Iterator[str]:
    yield f"{_meta_line(seed)}\nt_left,t_right,value\n"
    for lo in range(0, r.plateaus.size, _CHUNK_ROWS):
        bps = r.breakpoints[lo:lo + _CHUNK_ROWS + 1].tolist()
        values = r.plateaus[lo:lo + _CHUNK_ROWS].tolist()
        yield "".join([f"{left!r},{right!r},{v!r}\n"
                       for left, right, v in zip(bps, bps[1:], values)])


def averaging_csv(report, seed: int) -> Iterator[str]:
    yield f"{_meta_line(seed)}\nn,probe_id,re,im,l1_norm,linf_norm,majorized\n"
    flags = report.majorized
    for ci, n in enumerate(report.checkpoints):
        if report.l1_norms is None:  # a run without norms leaves both cells empty
            norms = ","
        else:
            norms = f"{report.l1_norms[ci].item()!r},{report.linf_norms[ci].item()!r}"
        flag = "" if flags is None else ("true" if flags[ci] else "false")
        tail = f"{norms},{flag}"
        values = report.probe_values[ci].tolist()
        yield "".join([f"{n},{p},{v.real!r},{v.imag!r},{tail}\n"
                       for p, v in zip(report.probes, values)])


def sweep_csv(sweep, seed: int, oracle=None, resonant=None) -> Iterator[str]:
    """Sweep rows; oracle columns are emitted only when a closed form
    applies (oracle is an array matching sweep.averages)."""
    extra = ""
    if resonant is not None and len(resonant) > 0:
        extra = "resonant_lambdas=" + ";".join(str(j) for j in resonant)
    header = "lambda_index,lambda_re,lambda_im,probe,n,avg_re,avg_im"
    if oracle is not None:
        header += ",oracle_re,oracle_im,abs_err"
    yield f"{_meta_line(seed, extra)}\n{header}\n"
    cps = sweep.checkpoints
    # a whole-array tolist() would hold every cell as an object: read one
    # lambda and one trace at a time
    for j in range(len(sweep.lambdas)):
        lam = sweep.lambdas[j].item()
        for pi, p in enumerate(sweep.probes):
            lead = f"{j},{lam.real!r},{lam.imag!r},{p},"
            trace = sweep.averages[j, pi].tolist()
            if oracle is None:
                yield "".join([f"{lead}{n},{v.real!r},{v.imag!r}\n"
                               for n, v in zip(cps, trace)])
            else:
                refs = oracle[j, pi].tolist()
                yield "".join([
                    f"{lead}{n},{v.real!r},{v.imag!r},{o.real!r},{o.imag!r},"
                    f"{abs(v - o)!r}\n" for n, v, o in zip(cps, trace, refs)
                ])


def product_csv(report, seed: int) -> Iterator[str]:
    yield f"{_meta_line(seed)}\nn,omega,y,re,im\n"
    for n, row in zip(report.checkpoints, report.averages):
        yield "".join([f"{n},{w},{y},{v.real!r},{v.imag!r}\n"
                       for (w, y), v in zip(report.probes, row.tolist())])


def traces_csv(ts, checkpoints, values, seed: int) -> Iterator[str]:
    """Per-probe average traces: one row per (checkpoint, probe point)."""
    yield f"{_meta_line(seed)}\nn,t,value\n"
    ts = np.asarray(ts, dtype=float).tolist()
    for n, row in zip(checkpoints, np.asarray(values, dtype=float)):
        yield "".join([f"{n},{t!r},{v!r}\n" for t, v in zip(ts, row.tolist())])


def json_report(payload: dict, seed: int) -> str:
    body = {"schema": SCHEMA_VERSION, "seed": seed}
    body.update(payload)
    return json.dumps(body, indent=2, sort_keys=False) + "\n"


def ds_report_payload(rep: DSReport) -> dict:
    return {
        "l1_ok": rep.l1_ok,
        "linf_ok": rep.linf_ok,
        "ds_ok": rep.ds_ok,
        "worst_column_sum": rep.worst_column_sum,
        "worst_row_sum": rep.worst_row_sum,
    }


def certificate_payload(cert, result=None) -> dict:
    payload = {
        "eps": cert.eps,
        "margin": cert.margin,
        "grid": cert.grid,
        "mode": cert.mode,
        "breakpoints": list(cert.breakpoints),
        "stages": [
            {
                "n": s.n,
                "side": s.side,
                "worst_value": s.worst_value,
                "margin": s.margin,
            }
            for s in cert.stages
        ],
    }
    if result is not None:
        payload["verified"] = result.ok
        payload["stage_margins"] = list(result.stage_margins)
        payload["max_pipeline_deviation"] = result.max_deviation
        if result.failed_stage is not None:
            payload["failed_stage"] = result.failed_stage
    return payload
