"""Command-line front end: JSON configs in, CSV/JSON reports out.

Subcommands: rearrange, norms, ds-check, average, weighted-average,
wiener-wintner, return-times, counterexample. Configs carry a versioned
"schema": 1 field and a single 64-bit seed; every output header records the
seed, and identical configs produce byte-identical outputs. Exit codes:
0 success, 2 validation error or an output that cannot be written (an
OSError, such as an --output-dir that is a file), 3 budget exhausted, a
numeric failure (such as a result that overflows float64) or out of memory
(also numpy's ValueError for an array too large to address), 4 internal
consistency failure.

`load_config` parses a config with `formats.loads`: json's own parse, with
each nonempty list of numbers of one type held as one int64 or float64
array (a `formats.NumberList`), so a config's memory is that of its
arrays, not of a Python object per number. Each config is decoded once,
by `_decode`, into a dict of the values the command runs on, which its
runner takes as keyword arguments; `validate` is the diagnostics view of
the same pass. Every value is read by the `formats` decoders.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import averaging, divergence, formats
from .errors import BudgetError, ConsistencyError, InputError, NumericError
from .formats import atomic_write_chunks, atomic_write_text
from .operators import ds_certificate
from .return_times import product_average, rotation_oracle, wiener_wintner_sweep
from .rng import SplitMix64
from .spaces import Rearrangement, lorentz_norm, luxemburg_norm, norm, rearrangement

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

# how numpy's ValueError starts when an array's byte size, a dimension or
# an element count exceeds what it can address
_NUMPY_OVERSIZE = ("array is too big", "Maximum allowed dimension exceeded",
                   "Maximum allowed size exceeded")


def load_config(path) -> dict:
    """The JSON config at path, each nonempty list of numbers of one type
    held as a `formats.NumberList` (one int64 or float64 array)."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read config {path}: {e}") from e
    try:
        cfg = formats.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError:
        raise InputError("config nests too deeply to parse") from None
    except ValueError as e:  # an integer past Python's limit on digits
        raise InputError(f"config parse error: {e}") from None
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    return cfg


class _Looked(dict):
    """A config that notes each top-level key looked up in it."""

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.looked: set = set()

    def __contains__(self, key):
        self.looked.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.looked.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.looked.add(key)
        return super().get(key, default)


def _decode(cfg: dict, command: str) -> tuple[dict | None, list[str]]:
    """Decode a config for `command` in one pass.

    Returns the plan, a dict from each name the command's runner takes to
    its value, and no diagnostics, or None and every diagnostic the
    config raises. Which keys a command needs is decided here; every value
    is read by a `formats` decoder, and a top-level key that the command
    never looks up is a diagnostic of its own, after the others. A
    `counterexample` profile config is read as a `rearrange` config. Random
    functions are drawn from one SplitMix64(seed), in config order:
    `function` before `second_function`.
    """
    name = command
    if command == "counterexample":
        command = "rearrange"
    cfg = _Looked(cfg)
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
        plan["weight"] = need("weight", formats.weight_from_json)

    if command in ("average", "weighted-average", "wiener-wintner", "return-times"):
        cps = plan["checkpoints"] = need("checkpoints", formats.checkpoints_from_json)
        plan["budget"] = attempt(
            "max_iterations", formats.value,
            cfg.get("max_iterations", averaging.DEFAULT_BUDGET), "positive",
        )
        w = plan.get("weight")
        if w is not None and w.kind == "explicit" and cps is not None:
            attempt("weight", w.cycle, cps[-1])

    if command == "wiener-wintner":
        plan["lambda_grid"] = need("lambda_grid", formats.value, "positive")
        if plan["function"] is not None:
            # rotation model: the runner adds closed-form oracle columns
            plan["rotation"] = formats.rotation_from_json(cfg["function"], cfg["system"])

    diags += [f"{key}: unknown key for {name}" for key in cfg if key not in cfg.looked]
    return (None, diags) if diags else (plan, [])


def validate(cfg: dict, command: str) -> list[str]:
    """Collect config diagnostics for a subcommand without running it."""
    return _decode(cfg, command)[1]


# Each runner takes a plan's values as keyword arguments, under the names
# `_decode` gives them, and returns its output files as a dict: name -> the
# text of a JSON report, or the iterator of text chunks of a CSV one.


def _run_rearrange(args, seed, output, function):
    return {output: formats.rearrangement_csv(rearrangement(function), seed)}


def _run_norms(args, seed, output, function, orlicz=None, lorentz=None):
    payload = {
        "L1": norm(function, "L1"),
        "Linf": norm(function, "Linf"),
        "L1plusLinf": norm(function, "L1plusLinf"),
        "L1capLinf": norm(function, "L1capLinf"),
    }
    if orlicz is not None:
        payload["luxemburg"] = luxemburg_norm(function, orlicz)
    if lorentz is not None:
        payload["lorentz"] = lorentz_norm(function, lorentz)
    return {output: formats.json_report(payload, seed)}


def _run_ds_check(args, seed, output, operator):
    payload = formats.ds_report_payload(ds_certificate(operator))
    return {output: formats.json_report(payload, seed)}


def _run_average(args, seed, output, operator, function, probes, full, checkpoints,
                 budget, weight=None):
    # "mode": "full" decides each checkpoint's majorized flag as the stream
    # reaches it, "probes" leaves the column empty; neither keeps an average
    if weight is not None:
        report = averaging.weighted(operator, function, weight, checkpoints, probes,
                                    False, budget, majorize=full)
    else:
        report = averaging.cesaro(operator, function, checkpoints, probes, False,
                                  budget, majorize=full)
    return {output: formats.averaging_csv(report, seed)}


def _run_wiener_wintner(args, seed, output, system, function, probes, checkpoints,
                        budget, lambda_grid, rotation):
    sweep = wiener_wintner_sweep(system, function, probes, lambda_grid, checkpoints,
                                 budget)
    oracle = resonant = None
    # rotation is (character, step) when f is a character of the rotation:
    # the closed-form oracle columns apply
    if rotation is not None:
        oracle, resonant = rotation_oracle(system.space.n_atoms, *rotation, probes,
                                           lambda_grid, checkpoints)
    return {output: formats.sweep_csv(sweep, seed, oracle, resonant)}


def _run_return_times(args, seed, output, system, function, second_system,
                      second_function, probes, checkpoints, budget):
    report = product_average(system, function, second_system, second_function,
                             probes, checkpoints, budget)
    return {output: formats.product_csv(report, seed)}


def _run_counterexample(args, seed=0, output=None, function=None):
    # a profile config's rearrangement, or f = 1 without a config; the
    # files are certificate.json and traces.csv whatever the config's output
    if function is not None:
        if args.window:
            raise InputError("--window applies only to the constant profile")
        rearr = rearrangement(function)
    else:
        # constant profile f = 1, searched in one pass
        if args.window < 0:
            raise InputError("--window must be a number of unit cells >= 0")
        if args.window >= 1 << 63:
            raise InputError("--window must be below 2^63 unit cells")
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


@contextmanager
def _writing(path):
    """An OSError in the block becomes an InputError that names path."""
    try:
        yield
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from None


def run(args) -> int:
    plan = None
    if args.config:  # optional for counterexample
        plan, diags = _decode(load_config(args.config), args.command)
        if diags:
            for d in diags:
                print(f"config: {d}", file=sys.stderr)
            return 2
    # checked before the command computes; created only when it writes, so
    # a failed run leaves no directory behind
    out = Path(args.output_dir)
    with _writing(out):
        first = next(d for d in (out, *out.parents) if d.exists())
    if not first.is_dir():
        raise InputError(f"cannot write {out}: {first} is not a directory")
    for name, content in _RUNNERS[args.command](args, **(plan or {})).items():
        with _writing(out / name):
            if isinstance(content, str):
                atomic_write_text(out / name, content)
            else:  # CSV chunks, streamed into the file
                atomic_write_chunks(out / name, content)
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
