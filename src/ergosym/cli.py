"""Command-line front end: JSON configs in, CSV/JSON reports out.

Subcommands: rearrange, norms, ds-check, average, weighted-average,
wiener-wintner, return-times, counterexample. Configs carry a versioned
"schema": 1 field and a single 64-bit seed; every output header records the
seed, and identical configs produce byte-identical outputs. Exit codes:
0 success, 2 validation error, 3 budget exhausted or out of memory (also
numpy's ValueError for an array too large to address), 4 internal
consistency failure.

Each config is decoded once, by `_decode`, into a `Plan` that the
command's runner executes; `validate` is the diagnostics view of the same
pass. Every value is read by the `formats` decoders.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import averaging, divergence, formats
from .errors import BudgetError, ConsistencyError, InputError, NumericError
from .formats import atomic_write_text
from .operators import Operator, ds_certificate
from .return_times import (
    RESONANCE_TOL,
    PointSystem,
    _cycles,
    _rotation_table,
    product_average,
    wiener_wintner_sweep,
)
from .rng import SplitMix64
from .spaces import (
    LorentzWeight,
    MeasurableFunction,
    OrliczFunction,
    Rearrangement,
    lorentz_norm,
    luxemburg_norm,
    norm,
    rearrangement,
)
from .weights import WeightSequence, validate_bound

# config command -> (key under "outputs", default output file name)
_OUTPUTS = {
    "rearrange": ("rearrangement", "rearrangement.csv"),
    "norms": ("norms", "norms.json"),
    "ds-check": ("ds_report", "ds_report.json"),
    "average": ("averages", "averages.csv"),
    "weighted-average": ("averages", "averages.csv"),
    "wiener-wintner": ("sweep", "sweep.csv"),
    "return-times": ("product", "product.csv"),
}

# width of the constant profile for `counterexample` without --window; the
# greedy search's candidate cap (divergence.DEFAULT_MAX_CANDIDATE) always
# stops it before the window runs out
_AUTO_WINDOW_CAP = 1 << 22

# how numpy's ValueError starts when an array's byte size or a dimension
# exceeds what it can address
_NUMPY_OVERSIZE = ("array is too big", "Maximum allowed dimension exceeded")


@dataclass(frozen=True)
class Plan:
    """A config decoded for one command: everything its runner needs."""

    seed: int
    output: str  # file name under --output-dir
    operator: Operator | None = None
    function: MeasurableFunction | None = None
    second_function: MeasurableFunction | None = None
    system: PointSystem | None = None
    second_system: PointSystem | None = None
    weight: WeightSequence | None = None
    checkpoints: tuple[int, ...] = ()
    probes: tuple = ()
    budget: int = averaging.DEFAULT_BUDGET
    full: bool = True  # "mode": "full" keeps every average, "probes" only probes
    lambda_grid: int = 0
    # (character, step) when f is a character of the rotation: the closed-form
    # oracle applies
    rotation: tuple[int, int] | None = None
    orlicz: tuple[OrliczFunction, float] | None = None  # (phi, tol)
    lorentz: LorentzWeight | None = None


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError:
        raise InputError("config nests too deeply to parse") from None
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    return cfg


def _decode(cfg: dict, command: str) -> tuple[Plan | None, list[str]]:
    """Decode a config for `command` in one pass.

    Returns the plan and no diagnostics, or None and every diagnostic the
    config raises. Which keys a command needs is decided here; every value
    is read by a `formats` decoder. Random functions are drawn from one
    SplitMix64(seed), in config order: `function` before `second_function`.
    """
    diags: list[str] = []

    def attempt(label, decode, *args):
        """Run a decoder; its InputError becomes a diagnostic, under `label`."""
        try:
            return decode(*args)
        except InputError as e:
            diags.append(f"{label}: {e}" if label else str(e))
            return None

    def need(key, decode, *args):
        """Decode a required key; skipped when a spec it depends on failed
        (an argument is None)."""
        if key not in cfg:
            diags.append(f"{key}: missing")
        elif all(a is not None for a in args):
            return attempt(key, decode, cfg[key], *args)
        return None

    attempt(None, formats.schema_from_json, cfg.get("schema"))
    seed = attempt(None, formats.seed_from_json, cfg.get("seed", 0)) or 0
    rng = SplitMix64(seed)
    key, output = _OUTPUTS[command]
    output = attempt("outputs", formats.output_from_json, cfg.get("outputs", {}), key,
                     output)
    plan: dict = {"seed": seed, "output": output}

    if command in ("wiener-wintner", "return-times"):
        keys = [("system", "function")]
        if command == "return-times":
            keys.append(("second_system", "second_function"))
        orders = []
        for sys_key, f_key in keys:
            system = plan[sys_key] = need(sys_key, formats.system_from_json)
            space = getattr(system, "space", None)
            plan[f_key] = need(f_key, formats.function_from_json, space, rng)
            orders.append(getattr(space, "n_atoms", None))
        plan["probes"] = need("probes", formats.probes_from_json, *orders)
    elif command in ("ds-check", "average", "weighted-average"):
        op = cfg.get("operator")
        if isinstance(op, dict) and op.get("kind") == "counterexample":
            # the operator carries its own grid-cell space
            plan["operator"] = attempt("operator", formats.operator_from_json, op, None)
            space = getattr(plan["operator"], "space", None)
        else:
            space = need("space", formats.space_from_json)
            plan["operator"] = need("operator", formats.operator_from_json, space)
    else:
        space = need("space", formats.space_from_json)

    if command in ("rearrange", "norms", "average", "weighted-average"):
        plan["function"] = need("function", formats.function_from_json, space, rng)

    if command == "norms":
        for name, decode in (("orlicz", formats.orlicz_from_json),
                             ("lorentz", formats.lorentz_from_json)):
            if name in cfg:
                plan[name] = attempt(name, decode, cfg[name])

    if command in ("average", "weighted-average"):
        if space is not None:
            plan["probes"] = attempt(
                "probes", formats.probes_from_json, cfg.get("probes", [0]),
                space.n_atoms,
            )
        plan["full"] = attempt(None, formats.mode_from_json, cfg.get("mode", "full"))

    if command == "weighted-average":
        w = plan["weight"] = need("weight", formats.weight_from_json)
        if w is not None and not validate_bound(
            w, w.table.size if w.kind == "explicit" else 64
        ):
            diags.append("weight: materialized values exceed the declared bound")

    if command in ("average", "weighted-average", "wiener-wintner", "return-times"):
        plan["checkpoints"] = need("checkpoints", formats.checkpoints_from_json)
        plan["budget"] = attempt(
            "max_iterations", formats.value,
            cfg.get("max_iterations", averaging.DEFAULT_BUDGET), "positive",
        )

    if command == "wiener-wintner":
        plan["lambda_grid"] = need("lambda_grid", formats.value, "positive")
        if plan["function"] is not None:
            # rotation model: the runner adds closed-form oracle columns
            plan["rotation"] = formats.rotation_from_json(cfg["function"], cfg["system"])

    return (None, diags) if diags else (Plan(**plan), [])


def validate(cfg: dict, command: str) -> list[str]:
    """Collect config diagnostics for a subcommand without running it."""
    return _decode(cfg, command)[1]


# Each runner executes a plan and returns its output files, name -> text.


def _run_rearrange(args, plan: Plan) -> dict[str, str]:
    return {plan.output: formats.rearrangement_csv(rearrangement(plan.function), plan.seed)}


def _run_norms(args, plan: Plan) -> dict[str, str]:
    f = plan.function
    payload = {
        "L1": norm(f, "L1"),
        "Linf": norm(f, "Linf"),
        "L1plusLinf": norm(f, "L1plusLinf"),
        "L1capLinf": norm(f, "L1capLinf"),
    }
    if plan.orlicz is not None:
        payload["luxemburg"] = luxemburg_norm(f, *plan.orlicz)
    if plan.lorentz is not None:
        payload["lorentz"] = lorentz_norm(f, plan.lorentz)
    return {plan.output: formats.json_report(payload, plan.seed)}


def _run_ds_check(args, plan: Plan) -> dict[str, str]:
    payload = formats.ds_report_payload(ds_certificate(plan.operator))
    return {plan.output: formats.json_report(payload, plan.seed)}


def _run_average(args, plan: Plan) -> dict[str, str]:
    T, f, cps, probes = plan.operator, plan.function, plan.checkpoints, plan.probes
    if plan.weight is not None:
        report = averaging.weighted(
            T, f, plan.weight, cps, probes, plan.full, plan.budget
        )
    else:
        report = averaging.cesaro(T, f, cps, probes, plan.full, plan.budget)
    if plan.full:
        averaging.majorization_trace(report, f)
    return {plan.output: formats.averaging_csv(report, plan.seed)}


def _run_wiener_wintner(args, plan: Plan) -> dict[str, str]:
    probes, grid, cps = plan.probes, plan.lambda_grid, plan.checkpoints
    sweep = wiener_wintner_sweep(
        plan.system, plan.function, probes, grid, cps, plan.budget
    )

    oracle = None
    resonant = None
    if plan.rotation is not None:
        # rotation model: the closed form applies, emit oracle columns.
        # These are rotation_closed_form's values to the last bit, with
        # each exact phase computed once rather than once per entry.
        order = plan.system.space.n_atoms
        c, step = plan.rotation
        rho = Fraction(c * step, order)
        fronts = [_cycles(float(Fraction(c * w, order))) for w in probes]
        oracle = np.empty_like(sweep.averages)
        resonant = []
        for j in range(grid):
            q_phase = (Fraction(j, grid) + rho) % 1
            if abs(1.0 - _cycles(float(q_phase))) < RESONANCE_TOL:
                resonant.append(j)
            oracle[j] = _rotation_table(q_phase, fronts, cps)
    return {plan.output: formats.sweep_csv(sweep, plan.seed, oracle, resonant)}


def _run_return_times(args, plan: Plan) -> dict[str, str]:
    report = product_average(
        plan.system, plan.function, plan.second_system, plan.second_function,
        plan.probes, plan.checkpoints, plan.budget,
    )
    return {plan.output: formats.product_csv(report, plan.seed)}


def _run_counterexample(args, plan: Plan | None) -> dict[str, str]:
    if plan is not None:
        rearr = rearrangement(plan.function)
    else:
        # constant profile f = 1, searched in one pass
        width = args.window or _AUTO_WINDOW_CAP
        rearr = Rearrangement(np.array([0.0, float(width)]), np.array([1.0]))
    cert = divergence.construct_certificate(
        rearr, args.eps, args.stages, args.margin, args.grid
    )
    result = divergence.verify_certificate(cert, rearr)
    if not result.ok:
        raise ConsistencyError(
            f"fresh certificate failed verification at stage {result.failed_stage}"
        )
    ts = divergence.probe_points(cert.eps, cert.grid)
    seed = 0 if plan is None else plan.seed
    return {
        "certificate.json":
            formats.json_report(formats.certificate_payload(cert, result), seed),
        "traces.csv": formats.traces_csv(ts, cert.breakpoints, result.direct, seed),
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ergosym",
        description="Ergodic averaging experiments on atomic measure spaces",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in _OUTPUTS:
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to a JSON experiment config")
        sp.add_argument("--output-dir", default=".")
    cx = sub.add_parser("counterexample")
    cx.add_argument("config", nargs="?", help="optional profile config (space+function)")
    cx.add_argument("--eps", type=float, default=0.1)
    cx.add_argument("--stages", type=int, default=3)
    cx.add_argument("--margin", type=float, default=0.0)
    cx.add_argument("--grid", type=int, default=10)
    cx.add_argument("--window", type=int, default=0, help="0 = 2^22 unit cells")
    cx.add_argument("--output-dir", default=".")
    return p


_RUNNERS = {
    "rearrange": _run_rearrange,
    "norms": _run_norms,
    "ds-check": _run_ds_check,
    "average": _run_average,
    "weighted-average": _run_average,
    "wiener-wintner": _run_wiener_wintner,
    "return-times": _run_return_times,
    "counterexample": _run_counterexample,
}


def run(args) -> int:
    plan = None
    if args.config:  # optional for counterexample
        # a counterexample profile config is decoded like a rearrange config
        command = "rearrange" if args.command == "counterexample" else args.command
        plan, diags = _decode(load_config(args.config), command)
        if diags:
            for d in diags:
                print(f"config: {d}", file=sys.stderr)
            return 2
    for name, text in _RUNNERS[args.command](args, plan).items():
        atomic_write_text(Path(args.output_dir) / name, text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetError, NumericError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as e:
        # numpy refuses an oversize array with a ValueError before allocating
        if isinstance(e, ValueError) and not str(e).startswith(_NUMPY_OVERSIZE):
            raise
        print("error: out of memory; reduce the config's sizes", file=sys.stderr)
        return 3
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
