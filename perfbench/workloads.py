"""Seeded inputs and command lists for the three benchmark workloads.

Every config is generated here from the benchmark seed with numpy's own
generator; the program under test only ever sees the files written below.
A workload is a list of `Command`s run one after another (closed loop, one
client).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MASK64 = (1 << 64) - 1

# sizes (see BENCHMARK.json for why each workload exists)
PROFILE_ATOMS = 8192
PROFILE_STAGES = 14
CONST_STAGES = 8
CX_GRID = 10
WW_ORDER = 256
WW_GRID = 128
WW_HORIZON = 100_000
RT_ORDERS = (1009, 512)
RT_HORIZON = 1 << 18
KERNEL_ATOMS = 512
KERNEL_PERMS = 4
KERNEL_HORIZON = 4096
COMP_ATOMS = 1 << 16
COMP_HORIZON = 1024
NORMS_ATOMS = 1 << 16
NORMS_WEIGHT = 2.0**-12
NORMS_CAP = 2.5
ORLICZ_POWER = 3

WORKLOADS = ("divergence", "sweep", "stream")
# config keys that the program decodes with one formats.*_from_json call each
SPEC_KEYS = ("space", "operator", "function", "second_function", "weight")


@dataclass
class Command:
    """One CLI invocation: `ergosym <argv...> --output-dir <out>`."""

    name: str
    argv: list[str]
    config: dict | None = None
    config_path: Path | None = None
    validate_as: str | None = None  # subcommand name cli.validate is run with
    auto_window: bool = False  # counterexample without a profile or --window
    outputs: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)  # generator-side facts for checks

    def full_argv(self, out_dir: Path) -> list[str]:
        return self.argv + ["--output-dir", str(out_dir)]


def _cfg_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & MASK64


def _divergence(seed: int, rng: np.random.Generator, cfg_dir: Path) -> list[Command]:
    const = Command(
        "cx_const",
        ["counterexample", "--stages", str(CONST_STAGES), "--grid", str(CX_GRID),
         "--eps", "0.1"],
        auto_window=True,
        outputs=("certificate.json", "traces.csv"),
    )
    profile = rng.uniform(1.0, 2.0, PROFILE_ATOMS)
    cfg = {
        "schema": 1,
        "seed": _cfg_seed(seed, 1),
        "space": {"atoms": PROFILE_ATOMS},
        "function": {"re": profile.tolist()},
    }
    path = cfg_dir / "profile.json"
    prof = Command(
        "cx_profile",
        ["counterexample", str(path), "--stages", str(PROFILE_STAGES), "--grid",
         str(CX_GRID)],
        config=cfg, config_path=path, validate_as="rearrange",
        outputs=("certificate.json", "traces.csv"),
    )
    return [const, prof]


def _sweep(seed: int, rng: np.random.Generator, cfg_dir: Path) -> list[Command]:
    ww_cfg = {
        "schema": 1,
        "seed": _cfg_seed(seed, 1),
        "system": {"order": WW_ORDER, "step": int(rng.integers(1, WW_ORDER))},
        "function": {"character": int(rng.integers(1, WW_ORDER))},
        "probes": sorted(rng.choice(WW_ORDER, 3, replace=False).tolist()),
        "lambda_grid": WW_GRID,
        "checkpoints": {"geometric": WW_HORIZON},
    }
    na, nb = RT_ORDERS
    fa = rng.uniform(-1.0, 1.0, (2, na))
    gb = rng.uniform(-1.0, 1.0, (2, nb))
    rt_cfg = {
        "schema": 1,
        "seed": _cfg_seed(seed, 2),
        "system": {"order": na, "step": int(rng.integers(1, na))},
        "function": {"re": fa[0].tolist(), "im": fa[1].tolist()},
        "second_system": {"order": nb, "step": int(rng.integers(1, nb))},
        "second_function": {"re": gb[0].tolist(), "im": gb[1].tolist()},
        "probes": [[int(rng.integers(na)), int(rng.integers(nb))] for _ in range(3)],
        "checkpoints": {"geometric": RT_HORIZON},
    }
    ww_path, rt_path = cfg_dir / "ww.json", cfg_dir / "rt.json"
    return [
        Command("ww", ["wiener-wintner", str(ww_path)], ww_cfg, ww_path,
                "wiener-wintner", outputs=("sweep.csv",)),
        Command("rt", ["return-times", str(rt_path)], rt_cfg, rt_path,
                "return-times", outputs=("product.csv",)),
    ]


def _stream(seed: int, rng: np.random.Generator, cfg_dir: Path) -> list[Command]:
    n = KERNEL_ATOMS
    perms = [rng.permutation(n) for _ in range(KERNEL_PERMS)]
    coef = rng.dirichlet(np.ones(KERNEL_PERMS))
    kernel = np.zeros((n, n))
    for c, p in zip(coef, perms):
        kernel[np.arange(n), p] += c
    kernel_op = {"kind": "kernel", "matrix_re": kernel.tolist()}
    ds_cfg = {"schema": 1, "seed": _cfg_seed(seed, 1), "space": {"atoms": n},
              "operator": kernel_op}
    avg_cfg = {
        "schema": 1,
        "seed": _cfg_seed(seed, 2),
        "space": {"atoms": n},
        "operator": kernel_op,
        "function": {"random": {"kind": "complex"}},
        "checkpoints": {"geometric": KERNEL_HORIZON},
        "probes": sorted(rng.choice(n, 3, replace=False).tolist()),
        "mode": "full",
    }
    m = COMP_ATOMS
    phase = float(rng.uniform(0.0, 1.0))
    wavg_cfg = {
        "schema": 1,
        "seed": _cfg_seed(seed, 3),
        "space": {"atoms": m},
        "operator": {
            "kind": "composition",
            "map": rng.permutation(m).tolist(),
            "mult_re": rng.choice([-1.0, 1.0], m).tolist(),
            "measure_preserving": True,
        },
        "function": {"random": {"kind": "real"}},
        "weight": {"kind": "lambda_power",
                   "lambda_re": float(np.cos(2 * np.pi * phase)),
                   "lambda_im": float(np.sin(2 * np.pi * phase))},
        "checkpoints": {"geometric": COMP_HORIZON},
        "probes": sorted(rng.choice(m, 3, replace=False).tolist()),
        "mode": "full",
    }
    norms_cfg = {
        "schema": 1,
        "seed": _cfg_seed(seed, 4),
        "space": {"atoms": NORMS_ATOMS, "weight": NORMS_WEIGHT},
        "function": {"random": {"kind": "complex", "scale": 2.0}},
        "orlicz": {"power": ORLICZ_POWER},
        "lorentz": {"capped": NORMS_CAP},
    }
    paths = {k: cfg_dir / f"{k}.json" for k in ("ds", "avg", "wavg", "norms")}
    return [
        Command("ds", ["ds-check", str(paths["ds"])], ds_cfg, paths["ds"],
                "ds-check", outputs=("ds_report.json",)),
        Command("avg", ["average", str(paths["avg"])], avg_cfg, paths["avg"],
                "average", outputs=("averages.csv",), extra={"kernel_perms": perms,
                                                             "kernel_coef": coef}),
        Command("wavg", ["weighted-average", str(paths["wavg"])], wavg_cfg,
                paths["wavg"], "weighted-average", outputs=("averages.csv",)),
        Command("norms", ["norms", str(paths["norms"])], norms_cfg, paths["norms"],
                "norms", outputs=("norms.json",)),
    ]


_GENERATORS = {"divergence": _divergence, "sweep": _sweep, "stream": _stream}


def build(workload: str, seed: int, cfg_dir: Path) -> list[Command]:
    """Generate the workload's configs under cfg_dir and return its commands."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed & MASK64, WORKLOADS.index(workload)])
    commands = _GENERATORS[workload](seed, rng, cfg_dir)
    for c in commands:
        if c.config_path is not None:
            c.config_path.write_text(json.dumps(c.config))
    return commands


def spec_count(commands: list[Command]) -> int:
    """Config specs a single decode of every config would read."""
    return sum(1 for c in commands if c.config for k in SPEC_KEYS if k in c.config)


def random_draws_needed(commands: list[Command]) -> int:
    """Uniforms the CLI's `random` function format consumes per spec (2n)."""
    total = 0
    for c in commands:
        if c.config and "random" in c.config.get("function", {}):
            total += 2 * int(c.config["space"]["atoms"])
    return total
