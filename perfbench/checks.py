"""Output checks that share no code or arithmetic with ergosym.

Each check recomputes what a command should have written from the config
alone (plain numpy, Python integers and the generator facts kept on the
`Command`) and returns a list of problems; an empty list means the output
is correct. Tolerances are fixed here and are not to be loosened to make a
run pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Command

CERT_DEVIATION = 1e-9  # max_pipeline_deviation allowed in a certificate
TRACE_TOL = 1e-9  # |traces.csv value - sign-product sum|
SWEEP_TOL = 1e-9  # |sweep average - integer-phase closed form|
PRODUCT_TOL = 1e-9  # |product average - modular-orbit product sum|
STREAM_RTOL = 1e-9  # stream values and norms, relative to the average's scale
NORM_RTOL = 1e-9  # norms.json entries, relative
DS_TOL = 1e-12  # contraction sums of a doubly stochastic kernel
FROZEN_BREAKPOINTS = (1, 5, 17, 53, 161, 485, 1457, 4373)
STRICT = 1e-12  # strict threshold crossings clear 1/2 by more than this

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix_uniforms(seed: int, n: int) -> np.ndarray:
    """First n SplitMix64 doubles in [0, 1), vectorized over the counter."""
    k = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + k * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def random_function(cfg: dict) -> np.ndarray:
    """Values of the CLI's `random` function spec, regenerated from the seed."""
    spec = cfg["function"]["random"]
    n = int(cfg["space"]["atoms"])
    u = splitmix_uniforms(int(cfg["seed"]), 2 * n)
    kind = spec.get("kind", "complex")
    if kind == "complex":
        v = (2 * u[:n] - 1) + 1j * (2 * u[n:] - 1)
    elif kind == "real":
        v = (2 * u[:n] - 1).astype(complex)
    else:
        v = u[:n].astype(complex)
    return float(spec.get("scale", 1.0)) * v


def geometric(limit: int) -> list[int]:
    cps, n = [], 1
    while n <= limit:
        cps.append(n)
        n *= 2
    if cps[-1] != limit:
        cps.append(limit)
    return cps


def _checkpoints(cfg: dict) -> list[int]:
    return geometric(int(cfg["checkpoints"]["geometric"]))


def _csv(text: str, seed: int, problems: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# schema=1 seed={seed}"):
        problems.append(f"bad header line {lines[:1]!r}")
        return []
    return [ln.split(",") for ln in lines[2:]]


def _close(got: np.ndarray, want: np.ndarray, tol, what: str, problems: list[str]):
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape} != {want.shape}")
        return
    err = np.abs(got - want)
    if not np.all(err <= tol):
        i = int(np.argmax(err - tol))
        problems.append(f"{what}: deviation {float(np.ravel(err)[i])!r} at {i}")


# ---------------------------------------------------------------- divergence


def greedy_breakpoints(profile, stages: int) -> list[int]:
    """Smallest n per stage where the signed running average of the unit-cell
    profile crosses the next threshold (1, then < -1/2, > 1/2, ...)."""
    total = float(profile[0])
    n = 1
    bps = [1]
    for j in range(2, stages + 1):
        sign = -1.0 if (j - 1) % 2 else 1.0
        while True:
            total += sign * float(profile[n])
            n += 1
            a = total / n
            if (j % 2 == 0 and a < -0.5 - STRICT) or (j % 2 == 1 and a > 0.5 + STRICT):
                break
        bps.append(n)
    return bps


def _check_certificate(cmd: Command, files: dict, profile, problems: list[str]):
    cert = json.loads(files["certificate.json"])
    stages = int(cmd.argv[cmd.argv.index("--stages") + 1])
    grid = int(cmd.argv[cmd.argv.index("--grid") + 1])
    want = greedy_breakpoints(profile, stages)
    if cert.get("verified") is not True:
        problems.append("certificate not verified")
    if not cert.get("max_pipeline_deviation", 1.0) <= CERT_DEVIATION:
        problems.append(f"pipeline deviation {cert.get('max_pipeline_deviation')!r}")
    if cert.get("breakpoints") != want:
        problems.append(f"breakpoints {cert.get('breakpoints')} != greedy {want}")
    if cmd.auto_window and tuple(cert.get("breakpoints", ())) != FROZEN_BREAKPOINTS:
        problems.append("constant-profile breakpoints differ from the frozen list")
    seed = 0 if cmd.config is None else cmd.config["seed"]
    if cert.get("seed") != seed:
        problems.append(f"certificate seed {cert.get('seed')!r} != {seed}")

    # traces: a_n(t) = (1/n) sum_{k<n} (-1)^{#{b <= k}} profile(t + k); on unit
    # cells every probe t in (eps, 1) reads the same profile entry
    rows = _csv(files["traces.csv"], seed, problems)
    ts = [(i + 0.5) / grid for i in range(grid) if 0.1 < (i + 0.5) / grid < 1.0]
    n_last = want[-1]
    flips = np.searchsorted(np.array(want), np.arange(n_last), side="right")
    signs = np.where(flips % 2 == 1, -1.0, 1.0)
    sums = np.cumsum(signs * np.asarray(profile[:n_last], dtype=float))
    exp_rows = [(n, t, sums[n - 1] / n) for n in want for t in ts]
    if len(rows) != len(exp_rows):
        problems.append(f"traces.csv has {len(rows)} rows, expected {len(exp_rows)}")
        return
    if any(int(r[0]) != n or abs(float(r[1]) - t) > 1e-12
           for r, (n, t, _) in zip(rows, exp_rows)):
        problems.append("traces.csv (n, t) grid differs")
    _close(np.array([float(r[2]) for r in rows]), np.array([v for *_, v in exp_rows]),
           TRACE_TOL, "traces.csv", problems)


def check_cx_const(cmd, files, problems):
    _check_certificate(cmd, files, np.ones(1 << 20), problems)


def check_cx_profile(cmd, files, problems):
    profile = np.sort(np.asarray(cmd.config["function"]["re"], dtype=float))[::-1]
    _check_certificate(cmd, files, profile, problems)


# --------------------------------------------------------------------- sweep


def check_ww(cmd, files, problems):
    cfg = cmd.config
    order, step = cfg["system"]["order"], cfg["system"]["step"]
    c, grid, probes = cfg["function"]["character"], cfg["lambda_grid"], cfg["probes"]
    cps = _checkpoints(cfg)
    rows = _csv(files["sweep.csv"], cfg["seed"], problems)
    if len(rows) != grid * len(probes) * len(cps):
        problems.append(f"sweep.csv has {len(rows)} rows")
        return
    j = np.repeat(np.arange(grid), len(probes) * len(cps))
    w = np.tile(np.repeat(np.array(probes), len(cps)), grid)
    n = np.tile(np.array(cps), grid * len(probes))
    got_key = np.array([[int(r[0]), int(r[3]), int(r[4])] for r in rows])
    if not np.array_equal(got_key, np.stack([j, w, n], axis=1)):
        problems.append("sweep.csv (lambda, probe, n) grid differs")
        return
    # (1/n) sum_k e(jk/G + c(w + sk)/N): q has phase r/D with D = G N, reduced
    # exactly in integers; resonance is r == 0
    den = grid * order
    r = (j * order + c * step * grid) % den
    front = np.exp(2j * np.pi * ((c * w) % order) / order)
    rn = (n * r) % den
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = (1 - np.exp(2j * np.pi * rn / den)) / (
            n * (1 - np.exp(2j * np.pi * r / den)))
    want = front * np.where(r == 0, 1.0, ratio)
    got = np.array([complex(float(x[5]), float(x[6])) for x in rows])
    lam = np.array([complex(float(x[1]), float(x[2])) for x in rows])
    _close(lam, np.exp(2j * np.pi * j / grid), 1e-12, "sweep.csv lambda", problems)
    _close(got, want, SWEEP_TOL, "sweep.csv average", problems)


def check_rt(cmd, files, problems):
    cfg = cmd.config
    cps = _checkpoints(cfg)
    f = np.array(cfg["function"]["re"]) + 1j * np.array(cfg["function"]["im"])
    g = np.array(cfg["second_function"]["re"]) + 1j * np.array(cfg["second_function"]["im"])
    sa, sb = cfg["system"], cfg["second_system"]
    ks = np.arange(cps[-1], dtype=np.int64)
    idx = np.array(cps) - 1
    want = []
    for w, y in cfg["probes"]:
        prod = f[(w + sa["step"] * ks) % sa["order"]] * g[(y + sb["step"] * ks) % sb["order"]]
        want.append(np.cumsum(prod)[idx] / np.array(cps))
    want = np.stack(want, axis=1).ravel()  # rows: checkpoint-major, then pair
    rows = _csv(files["product.csv"], cfg["seed"], problems)
    keys = [(n, w, y) for n in cps for w, y in cfg["probes"]]
    if [(int(r[0]), int(r[1]), int(r[2])) for r in rows] != keys:
        problems.append("product.csv (n, omega, y) grid differs")
        return
    got = np.array([complex(float(r[3]), float(r[4])) for r in rows])
    _close(got, want, PRODUCT_TOL, "product.csv", problems)


# -------------------------------------------------------------------- stream


def check_ds(cmd, files, problems):
    rep = json.loads(files["ds_report.json"])
    k = np.abs(np.asarray(cmd.config["operator"]["matrix_re"], dtype=float))
    for key in ("l1_ok", "linf_ok", "ds_ok"):
        if rep.get(key) is not True:
            problems.append(f"{key} is {rep.get(key)!r}")
    cols, rows = float(np.max(k.sum(axis=0))), float(np.max(k.sum(axis=1)))
    if abs(rep.get("worst_column_sum", -1) - cols) > DS_TOL:
        problems.append(f"worst_column_sum {rep.get('worst_column_sum')!r} != {cols!r}")
    if abs(rep.get("worst_row_sum", -1) - rows) > DS_TOL:
        problems.append(f"worst_row_sum {rep.get('worst_row_sum')!r} != {rows!r}")


def _reference_stream(step, f, cps, probes, weights, betas=None):
    """Plain (uncompensated) running sums; returns probe values, L1, Linf."""
    total = np.zeros_like(f)
    g = f.copy()
    out_p, out_l1, out_linf = [], [], []
    for k in range(cps[-1]):
        total += g if betas is None else betas[k] * g
        if k + 1 in cps:
            a = total / (k + 1)
            out_p.append(a[probes])
            out_l1.append(np.sum(weights * np.abs(a)))
            out_linf.append(np.max(np.abs(a)))
        g = step(g)
    return np.array(out_p), np.array(out_l1), np.array(out_linf)


def _check_averages(cmd, text, ref, problems):
    cfg = cmd.config
    probes, cps = cfg["probes"], _checkpoints(cfg)
    rows = _csv(text, cfg["seed"], problems)
    if [(int(r[0]), int(r[1])) for r in rows] != [(n, p) for n in cps for p in probes]:
        problems.append("averages.csv (n, probe) grid differs")
        return
    if any(r[6] != "true" for r in rows):
        problems.append("a majorized flag is not true")
    vals, l1, linf = ref
    scale = np.repeat(linf, len(probes))
    got = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    _close(got / scale, vals.ravel() / scale, STREAM_RTOL, "probe values", problems)
    _close(np.array([float(r[4]) for r in rows]) / np.repeat(l1, len(probes)),
           np.ones(len(rows)), STREAM_RTOL, "l1 norms", problems)
    _close(np.array([float(r[5]) for r in rows]) / scale, np.ones(len(rows)),
           STREAM_RTOL, "linf norms", problems)


def check_avg(cmd, files, problems):
    cfg = cmd.config
    perms, coef = cmd.extra["kernel_perms"], cmd.extra["kernel_coef"]
    kernel = np.zeros((len(perms[0]),) * 2)
    for c, p in zip(coef, perms):
        kernel[np.arange(len(p)), p] += c
    if not np.array_equal(kernel, np.asarray(cfg["operator"]["matrix_re"])):
        problems.append("kernel in config differs from its permutations")
        return

    def step(g):
        return sum(c * g[p] for c, p in zip(coef, perms))

    f = random_function(cfg)
    ref = _reference_stream(step, f, _checkpoints(cfg), cfg["probes"], 1.0)
    _check_averages(cmd, files["averages.csv"], ref, problems)


def check_wavg(cmd, files, problems):
    cfg = cmd.config
    op = cfg["operator"]
    pm = np.asarray(op["map"])
    mult = np.asarray(op["mult_re"], dtype=float)
    w = cfg["weight"]
    phi = math.atan2(w["lambda_im"], w["lambda_re"])
    cps = _checkpoints(cfg)
    betas = np.exp(1j * phi * np.arange(cps[-1]))
    ref = _reference_stream(lambda g: mult * g[pm], random_function(cfg), cps,
                            cfg["probes"], float(cfg["space"].get("weight", 1.0)),
                            betas)
    _check_averages(cmd, files["averages.csv"], ref, problems)


def check_norms(cmd, files, problems):
    cfg = cmd.config
    rep = json.loads(files["norms.json"])
    if rep.get("seed") != cfg["seed"]:
        problems.append(f"norms seed {rep.get('seed')!r}")
    mags = np.abs(random_function(cfg))
    w = float(cfg["space"]["weight"])
    desc = np.sort(mags)[::-1]

    def head_integral(s):  # integral over [0, s) of the decreasing rearrangement
        full = int(s // w)
        return float(np.sum(desc[:full]) * w + desc[full] * (s - full * w))

    l1, linf = float(np.sum(w * mags)), float(np.max(mags))
    want = {
        "L1": l1,
        "Linf": linf,
        "L1plusLinf": head_integral(1.0),
        "L1capLinf": max(l1, linf),
        "luxemburg": float(np.sum(w * mags ** cfg["orlicz"]["power"]))
        ** (1.0 / cfg["orlicz"]["power"]),
        "lorentz": head_integral(float(cfg["lorentz"]["capped"])),
    }
    for key, v in want.items():
        got = rep.get(key)
        if not isinstance(got, float) or abs(got - v) > NORM_RTOL * abs(v):
            problems.append(f"{key} = {got!r}, expected {v!r}")


CHECKS = {
    "cx_const": check_cx_const,
    "cx_profile": check_cx_profile,
    "ww": check_ww,
    "rt": check_rt,
    "ds": check_ds,
    "avg": check_avg,
    "wavg": check_wavg,
    "norms": check_norms,
}


def check(cmd: Command, files: dict[str, str]) -> list[str]:
    """Problems with one command's outputs (file name -> text)."""
    missing = [name for name in cmd.outputs if name not in files]
    if missing:
        return [f"missing output {name}" for name in missing]
    problems: list[str] = []
    try:
        CHECKS[cmd.name](cmd, files, problems)
    except (KeyError, ValueError, IndexError, TypeError) as e:
        problems.append(f"unreadable output: {type(e).__name__}: {e}")
    return problems
