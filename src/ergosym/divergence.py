"""Constructive divergence schedule for averages of a signed shift.

Feeding a non-increasing profile mu >= 1 to the signed unit shift makes the
Cesaro averages at points of (0, 1) alternate across +-1/2: each breakpoint
flips the sign of all later terms, and the greedy search picks the smallest
n where the running average crosses the next threshold on every probe.

The certificate records the breakpoints and the extremal average per stage.
Verification rebuilds the operator from scratch, streams the averages
through the generic averaging engine, checks the inequalities, and
cross-checks the streamed values against the direct sign-product formula;
disagreement beyond tolerance is a consistency failure, not a soft miss.

The greedy search and the direct formula walk the signed running sums with
one blocked generator, `_running_totals`. The verdict is read from the
operator stream alone, which shares no arithmetic with the search.

Memory: the search holds one block of at most `spaces._BLOCK` cells
(terms x probes), the package's one block size, however many stages it
runs. The verification holds 13 bytes per atom of the window x grid space
(the operator's point map, int32 from one block of atoms on, 4, its int8
signs, 1, and the profile sampled as float64, 8, which the probe lane
casts to complex with imaginary part +0.0) plus one block, and drops them
before the direct formula, which again holds one block. A space under one
block keeps an intp map, 17 bytes per atom.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .averaging import cesaro
from .errors import BudgetError, ConsistencyError, InputError, WindowError
from .operators import signed_shift_operator
from .spaces import (
    _BLOCK,
    MeasurableFunction,
    Rearrangement,
    _count,
    _finite,
    _integers,
    _nonnegative,
    _schedule,
    _slack,
)

# strict inequalities must clear their threshold by more than this
STRICT_TOL = 1e-12
# allowed streamed/direct disagreement, times max(1, the profile's sup)
CROSS_TOL = 1e-9
# greedy search cap on candidate breakpoints
DEFAULT_MAX_CANDIDATE = 200_000
# terms k per block of the search and the direct formula; a block also
# holds at most _BLOCK cells (terms x probes), so its temporaries stay
# well under 1 MiB however fine the grid
BLOCK = 4096


class StageCheck(NamedTuple):
    """One alternation stage: the extremal average over the probe grid at
    checkpoint n, and how far it clears the base threshold (1 or 1/2)."""

    n: int
    side: str  # ">=1", "<-1/2", or ">1/2"
    worst_value: float
    margin: float


class DivergenceCertificate(NamedTuple):
    eps: float
    margin: float
    grid: int
    mode: str  # "unit-cell" (grid 1) or "full-grid"
    breakpoints: tuple[int, ...]
    stages: tuple[StageCheck, ...]


class VerificationResult(NamedTuple):
    """Verdict, per-stage margins and pipeline deviation of a certificate.

    `direct` holds the direct-formula averages at every breakpoint and
    probe (rows, columns) that the streamed values were cross-checked
    against; it is carried for the traces output, not reported.
    """

    ok: bool
    stage_margins: tuple[float, ...]
    max_deviation: float
    failed_stage: int | None = None
    direct: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


def probe_points(eps: float, grid: int) -> np.ndarray:
    """Cell midpoints of the 1/grid partition lying strictly inside (eps, 1)."""
    if not 0.0 < eps < 1.0:
        raise InputError("eps must lie strictly between 0 and 1")
    grid = _count(grid, "grid")
    mids = (np.arange(grid) + 0.5) / grid
    ts = mids[(mids > eps) & (mids < 1.0)]
    if ts.size == 0:
        raise InputError("no probe cells strictly inside (eps, 1); refine the grid")
    return ts


def _running_totals(rearr: Rearrangement, ts, sign_of, k, stop, total):
    """Yield (ks, rows) for consecutive blocks of the terms k <= k' < stop:
    row i holds total + sum_{k <= k' <= ks[i]} sign_of(k') mu(ts + k').

    sign_of maps an array of terms to signs that broadcast against
    (len(ks), len(ts)). The cumulative sum adds one term at a time in
    order, so every row equals the running total of a term-by-term loop.
    A row past float64's range reads inf; callers check the rows they read.
    """
    step = max(1, min(BLOCK, _BLOCK // max(ts.size, 1)))
    for k0 in range(k, stop, step):
        ks = np.arange(k0, min(k0 + step, stop))
        rows = sign_of(ks) * rearr.values_at(ts + ks[:, None])
        with np.errstate(over="ignore"):
            rows[0] += total
            np.cumsum(rows, axis=0, out=rows)
        total = rows[-1]
        yield ks, rows


def direct_averages(rearr: Rearrangement, breakpoints, ts, ns) -> np.ndarray:
    """a_n(t) = (1/n) sum_{k<n} sign_k mu(t + k) evaluated directly.

    sign_k = (-1)^(number of breakpoints <= k). This is the closed-form
    reference pipeline; the operator stream must reproduce it. The terms
    are summed in blocks of consecutive k by `_running_totals`; an average
    that overflows float64 raises NumericError.
    """
    bps = np.sort(np.array(_integers(breakpoints, "breakpoints"), dtype=np.int64))
    ts = np.asarray(ts, dtype=float)
    ns = _schedule(ns, "evaluation points n")
    out = np.empty((len(ns), ts.size))

    def signs(ks):
        flips = np.searchsorted(bps, ks, side="right") % 2
        return np.where(flips == 1, -1.0, 1.0)[:, None]

    wanted = np.array(ns, dtype=np.int64)
    for ks, sums in _running_totals(rearr, ts, signs, 0, ns[-1], np.zeros(ts.size)):
        hit = (wanted > ks[0]) & (wanted <= ks[-1] + 1)
        out[hit] = sums[wanted[hit] - 1 - ks[0]] / wanted[hit][:, None]
    return _finite(out, "direct average")


def construct_certificate(
    rearr: Rearrangement,
    eps: float,
    stages: int,
    margin: float = 0.0,
    grid: int = 1,
    max_candidate: int = DEFAULT_MAX_CANDIDATE,
) -> DivergenceCertificate:
    """Greedy minimal breakpoints forcing the averages to alternate.

    Stage 1 pins n_1 = 1 (a_1 = mu(t) >= 1 on the window). Stage j then
    takes the smallest n with a_n < -(1/2 + margin) on every probe (j even)
    or a_n > 1/2 + margin (j odd); strict crossings must clear the
    threshold by more than 1e-12. The probe grid is the cell midpoints in
    (eps, 1). Running past the profile's window raises WindowError; a
    search beyond max_candidate raises BudgetError, and a running sum that
    overflows float64 NumericError.
    """
    stages, grid = _count(stages, "stages"), _count(grid, "grid")
    margin = _nonnegative(margin, "margin")
    ts = probe_points(eps, grid)
    if rearr.plateaus.size == 0 or float(rearr.plateaus[-1]) < 1.0 - STRICT_TOL:
        raise InputError("profile must stay >= 1 across its window")
    t_m = rearr.support_measure
    tmax = float(ts[-1])
    # the first term k >= 1 past the window (tmax + k >= t_m) or the budget
    # (capped so the range has a length: no search walks 2^63 terms)
    limit = 1 + bisect_left(range(1, min(max_candidate, sys.maxsize)), True,
                            key=lambda k: tmax + k >= t_m)

    a1 = rearr.values_at(ts)
    worst1 = float(np.min(a1))
    checks = [StageCheck(1, ">=1", worst1, worst1 - 1.0)]
    if worst1 < 1.0 - STRICT_TOL:
        raise InputError("a_1 >= 1 fails on the probe grid")
    bps = [1]
    total = a1.copy()
    n = 1
    for j in range(2, stages + 1):
        sign = -1.0 if (j - 1) % 2 else 1.0
        thr = 0.5 + margin
        for ks, sums in _running_totals(rearr, ts, lambda ks: sign, n, limit, total):
            # stage j wants sign * a_n > thr on every probe (a_n < -thr for
            # even j); dividing by sign * n negates a_n exactly
            worsts = np.min(sums / (sign * (ks + 1))[:, None], axis=1)
            crossed = worsts > thr + STRICT_TOL
            if crossed.any():
                r = int(np.argmax(crossed))
                n = int(ks[r]) + 1
                total = _finite(sums[r], f"running sum at n = {n}")
                worst = float(worsts[r])  # of sign * a_n
                break
        else:  # the walk reached `limit`, the stage's first refused term
            if tmax + limit >= t_m:
                raise WindowError(
                    f"profile window {t_m} too short: stage {j} needs terms "
                    f"past t = {tmax + limit}"
                )
            raise BudgetError(
                f"stage {j} threshold not reached within {max_candidate} terms"
            )
        bps.append(n)
        side = "<-1/2" if sign < 0 else ">1/2"
        checks.append(StageCheck(n, side, sign * worst, worst - 0.5))

    mode = "unit-cell" if grid == 1 else "full-grid"
    return DivergenceCertificate(
        float(eps), margin, grid, mode, tuple(bps), tuple(checks)
    )


def verify_certificate(
    cert: DivergenceCertificate, rearr: Rearrangement, tol: float = CROSS_TOL
) -> VerificationResult:
    """Independent verification of a divergence certificate.

    Rebuilds the signed shift on the certificate's grid, samples the profile
    at the atoms' midpoints a block at a time, streams the Cesaro averages
    along the probe atoms' orbits, and checks every stage inequality at
    every probe. It holds 13 bytes per atom (the int32 map, signs and the
    float64 profile; 17 under one block of atoms, where the map is intp)
    plus one block, and drops them before the direct formula runs. The
    streamed values are cross-checked against direct_averages; a deviation
    beyond tol * max(1, mu(0)), relative to the profile's sup, which bounds
    every average, raises ConsistencyError, and a window short by more
    than 1e-9 * max(1, window) WindowError. Returns the verdict with the
    worst margin per stage (relative to the base thresholds 1 and 1/2).
    """
    tol = _nonnegative(tol, "cross-check tolerance")
    bps = _schedule(cert.breakpoints, "certificate breakpoints")
    if bps[0] != 1:
        raise InputError("certificate breakpoints must start at 1")
    window = bps[-1]
    if rearr.support_measure + _slack(1e-9, window) < window:
        raise WindowError(
            f"profile window {rearr.support_measure} shorter than the last "
            f"breakpoint {window}"
        )
    T = signed_shift_operator(bps, cert.grid, window)
    h = 1.0 / cert.grid
    # mu at the atoms' midpoints, sampled a block at a time into its float64
    # array, which the probe lane casts to complex
    values = np.empty(T.space.n_atoms)
    for a in range(0, values.size, _BLOCK):
        mids = (np.arange(a, min(a + _BLOCK, values.size)) + 0.5) * h
        values[a : a + mids.size] = rearr.values_at(mids)
    profile = MeasurableFunction(values, T.space)
    ts = probe_points(cert.eps, cert.grid)
    probe_atoms = [int(round(t / h - 0.5)) for t in ts]
    report = cesaro(T, profile, checkpoints=bps, probes=probe_atoms,
                    store_averages=False, norms=False)
    del T, profile, values  # the direct formula holds one block, not these
    streamed = report.probe_values.real
    direct = direct_averages(rearr, bps, ts, bps)
    max_dev = float(np.max(np.abs(report.probe_values - direct)))
    if max_dev > _slack(tol, float(rearr.values_at(0.0))):
        raise ConsistencyError(
            f"streamed averages deviate from the direct formula by {max_dev}"
        )

    ok = True
    failed = None
    margins = []
    thr = 0.5 + cert.margin
    for idx, n in enumerate(bps):
        vals = streamed[idx]
        if idx == 0:
            worst = float(np.min(vals))
            margins.append(worst - 1.0)
            stage_ok = worst >= 1.0 - STRICT_TOL
        elif idx % 2 == 1:  # even-numbered stage: below -1/2
            worst = float(np.max(vals))
            margins.append(-worst - 0.5)
            stage_ok = worst < -thr - STRICT_TOL
        else:
            worst = float(np.min(vals))
            margins.append(worst - 0.5)
            stage_ok = worst > thr + STRICT_TOL
        if not stage_ok and ok:
            ok = False
            failed = idx + 1
    return VerificationResult(ok, tuple(margins), max_dev, failed, direct)
