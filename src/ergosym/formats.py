"""JSON decoding of experiment inputs and CSV/JSON report emission.

All writers go through atomic_write_text (temp file in the target
directory, then rename), so an interrupted run never leaves a partial
file. Floats are written with repr (shortest round-trip form), which keeps
outputs byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from math import pi
from pathlib import Path

import numpy as np

from .averaging import _validated_checkpoints, geometric_checkpoints
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
    AtomicMeasureSpace, LorentzWeight, MeasurableFunction, OrliczFunction,
)
from .weights import TrigPolynomial, TrigTerm, WeightSequence

SCHEMA_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_line(seed: int, extra: str = "") -> str:
    line = f"# schema={SCHEMA_VERSION} seed={seed}"
    return line + (f" {extra}" if extra else "")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- decoding

REQUIRED = object()  # `read` default of a key that must be present
_TYPES = {"flag": (bool, "true or false"), "string": (str, "a string"),
          "object": (dict, "an object"), "list": (list, "a list")}


def value(x, kind: str):
    """x checked as `kind` and converted, or InputError. Kinds: "int",
    "positive", "number", "flag", "string", "object", "list", and "array",
    "int_array", "matrix", "int_matrix" (float64 or int64 numpy arrays)."""
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
        if not isinstance(x, _TYPES[kind][0]):
            raise InputError(f"must be {_TYPES[kind][1]}")
        return x
    matrix, integral = kind.endswith("matrix"), kind.startswith("int")
    what = "lists of " * matrix + ("integers" if integral else "numbers")
    rows = x if matrix else [x]
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and set(map(type, r)) <= {int, float} for r in rows
    ):
        raise InputError(f"must be a list of {what}")
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


def _complex_array(spec: dict, prefix="", n=None, re_default=REQUIRED, kind="array"):
    re = read(spec, prefix + "re", kind, re_default)
    if n is not None and re.size != n:
        raise InputError(f"{prefix}re: expected {n} values, got {re.size}")
    im = read(spec, prefix + "im", kind, np.zeros_like(re))
    if im.shape != re.shape:
        raise InputError(f"{prefix}im: expected the shape of {prefix}re")
    return re + 1j * im


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
    """True for "full" (keep every average), False for "probes"."""
    if x not in ("full", "probes"):
        raise InputError(f"mode must be 'full' or 'probes', got {x!r}")
    return x == "full"


def output_from_json(outputs, key: str, default: str) -> str:
    name = read(value(outputs, "object"), key, "string", default)
    if name in ("", "..") or Path(name).name != name:  # stays in --output-dir
        raise InputError(f"{key}: must be a file name")
    return name


def checkpoints_from_json(spec) -> tuple[int, ...]:
    if isinstance(spec, dict):
        return geometric_checkpoints(read(spec, "geometric", "int"))
    return _validated_checkpoints(value(spec, "int_array").tolist())


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


def orlicz_from_json(spec) -> tuple[OrliczFunction, float]:
    spec = value(spec, "object")
    tol = read(spec, "tol", "number", 1e-10)
    if tol <= 0.0:
        raise InputError("tol: must be positive")
    return OrliczFunction.power(read(spec, "power", "number")), tol


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
        return MeasurableFunction(_complex_array(obj, n=n), space)
    if form == "ones":
        return MeasurableFunction.ones(space)
    if form == "constant":
        with _under("constant"):
            c = obj["constant"]
            c = _complex(c, "") if isinstance(c, dict) else value(c, "number")
        return MeasurableFunction(np.full(n, complex(c)), space)
    if form == "character":
        c = read(obj, "character", "int")
        return MeasurableFunction(np.exp(2j * pi * c * np.arange(n) / n), space)
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
    u = rng.uniforms(2 * n)
    if kind == "complex":
        v = (2 * u[:n] - 1) + 1j * (2 * u[n:] - 1)
    elif kind == "real":
        v = 2 * u[:n] - 1
    else:
        v = u[:n]
    return MeasurableFunction(scale * v, space)


def rotation_from_json(function_spec: dict, system_spec: dict):
    """(character, step) when a decoded function spec is a character of a
    decoded rotation system, where the closed-form oracle applies; else None."""
    if _function_form(function_spec) != "character":
        return None
    return read(function_spec, "character", "int"), read(system_spec, "step", "int", 1)


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
        return KernelOperator(_complex_array(obj, "matrix_", kind="matrix"), space)
    if kind == "composition":
        pm = read(obj, "map", "int_array")
        mult = _complex_array(obj, "mult_", pm.size, np.ones(pm.size))
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
        terms = []
        for i, t in enumerate(read(obj, "terms", "list", [])):
            with _under(f"terms[{i}]"):
                t = value(t, "object")
                z = _complex(t, "z_")
                if "phase_num" in t and "phase_den" in t:
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


def rearrangement_csv(r, seed: int) -> str:
    lines = [_meta_line(seed), "t_left,t_right,value"]
    for i in range(r.plateaus.size):
        lines.append(
            f"{_fmt(r.breakpoints[i])},{_fmt(r.breakpoints[i + 1])},"
            f"{_fmt(r.plateaus[i])}"
        )
    return "\n".join(lines) + "\n"


def averaging_csv(report, seed: int) -> str:
    lines = [_meta_line(seed), "n,probe_id,re,im,l1_norm,linf_norm,majorized"]
    flags = report.majorized
    for ci, n in enumerate(report.checkpoints):
        flag = "" if flags is None else ("true" if flags[ci] else "false")
        for pi, p in enumerate(report.probes):
            v = report.probe_values[ci, pi]
            lines.append(
                f"{n},{p},{_fmt(v.real)},{_fmt(v.imag)},"
                f"{_fmt(report.l1_norms[ci])},{_fmt(report.linf_norms[ci])},{flag}"
            )
    return "\n".join(lines) + "\n"


def sweep_csv(sweep, seed: int, oracle=None, resonant=None) -> str:
    """Sweep rows; oracle columns are emitted only when a closed form
    applies (oracle is an array matching sweep.averages)."""
    extra = ""
    if resonant is not None and len(resonant) > 0:
        extra = "resonant_lambdas=" + ";".join(str(j) for j in resonant)
    header = "lambda_index,lambda_re,lambda_im,probe,n,avg_re,avg_im"
    if oracle is not None:
        header += ",oracle_re,oracle_im,abs_err"
    lines = [_meta_line(seed, extra), header]
    for j in range(sweep.lambdas.size):
        lam = sweep.lambdas[j]
        for pi, p in enumerate(sweep.probes):
            for ci, n in enumerate(sweep.checkpoints):
                v = sweep.averages[j, pi, ci]
                row = (
                    f"{j},{_fmt(lam.real)},{_fmt(lam.imag)},{p},{n},"
                    f"{_fmt(v.real)},{_fmt(v.imag)}"
                )
                if oracle is not None:
                    o = oracle[j, pi, ci]
                    row += f",{_fmt(o.real)},{_fmt(o.imag)},{_fmt(abs(v - o))}"
                lines.append(row)
    return "\n".join(lines) + "\n"


def product_csv(report, seed: int) -> str:
    lines = [_meta_line(seed), "n,omega,y,re,im"]
    for ci, n in enumerate(report.checkpoints):
        for pi, (w, y) in enumerate(report.probes):
            v = report.averages[ci, pi]
            lines.append(f"{n},{w},{y},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def traces_csv(ts, checkpoints, values, seed: int) -> str:
    """Per-probe average traces: one row per (checkpoint, probe point)."""
    lines = [_meta_line(seed), "n,t,value"]
    for ci, n in enumerate(checkpoints):
        for pi, t in enumerate(ts):
            lines.append(f"{n},{_fmt(t)},{_fmt(values[ci][pi])}")
    return "\n".join(lines) + "\n"


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
