"""JSON decoding of experiment inputs and CSV/JSON report emission.

All writers go through atomic_write_text (temp file in the target
directory, then rename), so an interrupted run never leaves a partial
file. Floats are written with repr (shortest round-trip form), which keeps
outputs byte-identical across runs with the same config and seed.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from math import pi
from pathlib import Path

import numpy as np

from .errors import InputError
from .operators import (
    CompositionOperator,
    DSReport,
    KernelOperator,
    signed_shift_operator,
)
from .rng import SplitMix64
from .spaces import AtomicMeasureSpace, MeasurableFunction
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


def space_from_json(obj) -> AtomicMeasureSpace:
    if not isinstance(obj, dict):
        raise InputError("space spec must be an object")
    truncated = bool(obj.get("truncated", False))
    if "weights" in obj:
        return AtomicMeasureSpace(np.asarray(obj["weights"], dtype=float), truncated)
    if "atoms" in obj:
        return AtomicMeasureSpace.uniform(
            int(obj["atoms"]), float(obj.get("weight", 1.0)), truncated
        )
    raise InputError("space spec needs 'weights' or 'atoms'")


def _complex_array(obj, n: int | None = None) -> np.ndarray:
    re = np.asarray(obj.get("re", []), dtype=float)
    im_raw = obj.get("im")
    im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=float)
    if re.shape != im.shape:
        raise InputError("'re' and 'im' must have the same length")
    if n is not None and re.size != n:
        raise InputError(f"expected {n} values, got {re.size}")
    return re + 1j * im


def function_from_json(
    obj, space: AtomicMeasureSpace, rng: SplitMix64 | None = None
) -> MeasurableFunction:
    if not isinstance(obj, dict):
        raise InputError("function spec must be an object")
    n = space.n_atoms
    if "re" in obj or "im" in obj:
        return MeasurableFunction(_complex_array(obj, n), space)
    if obj.get("ones"):
        return MeasurableFunction.ones(space)
    if "constant" in obj:
        c = obj["constant"]
        if isinstance(c, dict):
            c = complex(float(c.get("re", 0.0)), float(c.get("im", 0.0)))
        return MeasurableFunction(np.full(n, complex(c)), space)
    if "character" in obj:
        c = int(obj["character"])
        return MeasurableFunction(np.exp(2j * pi * c * np.arange(n) / n), space)
    if "random" in obj:
        if rng is None:
            raise InputError("random functions need a seeded generator")
        spec = obj["random"]
        if not isinstance(spec, dict):
            raise InputError("random function spec must be an object")
        kind = spec.get("kind", "complex")
        scale = float(spec.get("scale", 1.0))
        u = rng.uniforms(2 * n)
        if kind == "complex":
            v = (2 * u[:n] - 1) + 1j * (2 * u[n:] - 1)
        elif kind == "real":
            v = 2 * u[:n] - 1
        elif kind == "nonnegative":
            v = u[:n]
        else:
            raise InputError(f"unknown random function kind {kind!r}")
        return MeasurableFunction(scale * v, space)
    raise InputError("unrecognized function spec")


def operator_from_json(obj, space: AtomicMeasureSpace | None):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("operator spec must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "counterexample":
        return signed_shift_operator(
            [int(b) for b in obj["breakpoints"]],
            int(obj.get("grid", 1)),
            int(obj["window"]),
        )
    if space is None:
        raise InputError(f"operator kind {kind!r} needs a space")
    if kind == "kernel":
        matrix = _complex_array({"re": obj["matrix_re"], "im": obj.get("matrix_im")})
        return KernelOperator(matrix, space)
    if kind == "composition":
        raw = np.asarray(obj["map"], dtype=float)
        if not np.all((raw == np.trunc(raw)) & (np.abs(raw) < 2.0**63)):
            raise InputError("composition map entries must be atom indices")
        pm = raw.astype(int)
        if "mult_re" in obj or "mult_im" in obj:
            mult = _complex_array(
                {"re": obj.get("mult_re", [1.0] * pm.size),
                 "im": obj.get("mult_im")},
                pm.size,
            )
        else:
            mult = np.ones(pm.size, dtype=complex)
        return CompositionOperator(
            pm, mult, space, bool(obj.get("measure_preserving", False))
        )
    raise InputError(f"unknown operator kind {kind!r}")


def weight_from_json(obj) -> WeightSequence:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("weight spec must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "lambda_power":
        lam = complex(float(obj.get("lambda_re", 1.0)), float(obj.get("lambda_im", 0.0)))
        return WeightSequence.lambda_power(lam)
    if kind == "periodic":
        return WeightSequence.periodic(_complex_array(obj))
    if kind == "constant":
        return WeightSequence.constant(
            complex(float(obj.get("re", 1.0)), float(obj.get("im", 0.0)))
        )
    if kind == "explicit":
        bound = obj.get("bound")
        return WeightSequence.explicit(
            _complex_array(obj), None if bound is None else float(bound)
        )
    if kind == "trig_poly":
        terms = []
        for t in obj.get("terms", []):
            if not isinstance(t, dict):
                raise InputError("trig_poly terms must be objects")
            z = complex(float(t.get("z_re", 0.0)), float(t.get("z_im", 0.0)))
            if "phase_num" in t and "phase_den" in t:
                terms.append(
                    TrigTerm.from_phase(z, Fraction(int(t["phase_num"]),
                                                    int(t["phase_den"])))
                )
            else:
                lam = complex(float(t.get("lam_re", 1.0)), float(t.get("lam_im", 0.0)))
                terms.append(TrigTerm(z, lam))
        return WeightSequence.trig_poly(TrigPolynomial(tuple(terms)))
    raise InputError(f"unknown weight kind {kind!r}")


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
