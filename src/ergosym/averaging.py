"""Streaming Cesaro and weighted ergodic averages with checkpoint reports.

Averages a_n = (1/n) sum_{k<n} beta_k T^k f are computed in a single pass:
one operator application per step, one running Kahan-compensated sum, and a
report row at each requested checkpoint. Nothing is recomputed and operator
powers are never materialized, so memory stays at a few state vectors even
for long horizons. A probe-only run without norms on a composition operator
follows just the probe atoms' orbits, so its cost does not grow with the
number of atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CapabilityError, InputError
from .operators import CompositionOperator, Operator
from .spaces import MAJORIZATION_TOL, MeasurableFunction, majorizes
from .weights import WeightSequence

# default cap on the number of operator applications per run
DEFAULT_BUDGET = 1_000_000


def geometric_checkpoints(limit: int) -> tuple[int, ...]:
    """Powers of two up to `limit`, with `limit` itself appended."""
    if limit < 1:
        raise InputError("checkpoint limit must be at least 1")
    cps = []
    n = 1
    while n <= limit:
        cps.append(n)
        n *= 2
    if cps[-1] != limit:
        cps.append(limit)
    return tuple(cps)


def _validated_checkpoints(checkpoints) -> tuple[int, ...]:
    """Checkpoints as ints; integral floats and numpy integers pass."""
    raw = tuple(checkpoints)
    try:
        cps = tuple(int(n) for n in raw)
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, ...
        cps = None
    if cps is None or cps != raw:
        raise InputError("checkpoints must be integers")
    if len(cps) == 0:
        raise InputError("need at least one checkpoint")
    if cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
        raise InputError("checkpoints must be strictly increasing and >= 1")
    return cps


def _horizon(checkpoints, max_iterations: int) -> tuple[int, ...]:
    """Validated checkpoints whose last one fits the iteration budget."""
    cps = _validated_checkpoints(checkpoints)
    if cps[-1] > max_iterations:
        raise BudgetError(
            f"last checkpoint {cps[-1]} exceeds the iteration budget {max_iterations}"
        )
    return cps


@dataclass(eq=False)
class AveragingReport:
    """Per-checkpoint averages, norms, and probe values.

    `averages` is populated in full mode only; probe-only runs keep just the
    probe columns (norms are still exact, they are read off the running sum
    at checkpoint time). Runs with `norms=False` leave `l1_norms` and
    `linf_norms` as None. `weight_bound` is the normalization constant
    M = max(1, sup_k |beta_k|) for weighted runs, None for plain Cesaro.
    `majorized` is filled by `majorization_trace`.
    """

    checkpoints: tuple[int, ...]
    probes: tuple[int, ...]
    probe_values: np.ndarray
    l1_norms: np.ndarray | None
    linf_norms: np.ndarray | None
    averages: tuple[MeasurableFunction, ...] | None = None
    weight_bound: float | None = None
    majorized: tuple[bool, ...] | None = None

    @property
    def full(self) -> bool:
        return self.averages is not None


def _full_orbit(T, f, steps):
    """T^k f for k < steps, one operator application per step."""
    g = f.values
    for k in range(steps):
        yield g
        if k + 1 < steps:
            g = T.apply_values(g)


def _probe_orbit(T, f, probes, steps):
    """(T^k f)_i at the probe atoms i for k < steps, T a composition.

    (T^k f)_i = m_i m_{s(i)} ... m_{s^{k-1}(i)} f[s^k(i)] for point map s
    and multiplier m, so each step follows one orbit per probe: O(probes)
    work however many atoms the space has.
    """
    pos = np.array(probes, dtype=np.intp)
    prod = np.ones(pos.size, dtype=complex)
    for k in range(steps):
        yield prod * f.values[pos]
        if k + 1 < steps:
            prod = prod * T.multiplier[pos]
            pos = T.point_map[pos]


def _stream(T, f, checkpoints, beta, probes, store_averages, norms, max_iterations):
    cps = _horizon(checkpoints, max_iterations)
    if not T.space.is_compatible(f.space):
        raise InputError("operator and function live on different spaces")
    n_atoms = T.space.n_atoms
    probes = tuple(int(p) for p in probes)
    if any(p < 0 or p >= n_atoms for p in probes):
        raise InputError("probe atom out of range")

    betas = None
    weight_bound = None
    if beta is not None:
        betas = beta.values(cps[-1])
        weight_bound = max(1.0, float(np.max(np.abs(betas))))

    # probe-orbit lane: nothing but the probe atoms is ever read
    lane = not (store_averages or norms) and isinstance(T, CompositionOperator)
    if lane:
        orbit = _probe_orbit(T, f, probes, cps[-1])
        width = len(probes)
    else:
        orbit = _full_orbit(T, f, cps[-1])
        width = n_atoms
    select = np.array(probes, dtype=np.intp)

    w = T.space.weights
    # Kahan state and step buffers, updated in place; total and t swap
    total, comp, y, t = (np.zeros(width, dtype=complex) for _ in range(4))
    term = np.empty(width, dtype=complex) if betas is not None else None

    probe_rows, l1s, linfs, avgs = [], [], [], []
    ptr = 0
    for k, g in enumerate(orbit):
        if betas is not None:
            g = np.multiply(betas[k], g, out=term)
        # Kahan step: the compensation vector carries the lost low bits
        np.subtract(g, comp, out=y)
        np.add(total, y, out=t)
        np.subtract(t, total, out=comp)
        np.subtract(comp, y, out=comp)
        total, t = t, total
        n = k + 1
        if n == cps[ptr]:
            a = total / n
            probe_rows.append(a if lane else a[select])
            if norms:
                mags = np.abs(a)
                l1s.append(float(np.sum(w * mags)))
                linfs.append(float(np.max(mags)))
            if store_averages:
                avgs.append(MeasurableFunction(a, T.space))
            ptr += 1

    return AveragingReport(
        checkpoints=cps,
        probes=probes,
        probe_values=np.array(probe_rows),
        l1_norms=np.array(l1s) if norms else None,
        linf_norms=np.array(linfs) if norms else None,
        averages=tuple(avgs) if store_averages else None,
        weight_bound=weight_bound,
    )


def cesaro(
    T: Operator,
    f: MeasurableFunction,
    checkpoints,
    probes=(),
    store_averages: bool = True,
    max_iterations: int = DEFAULT_BUDGET,
    norms: bool = True,
) -> AveragingReport:
    """Plain Cesaro averages (1/n) sum_{k<n} T^k f at the checkpoints.

    T should be a certified or declared DS operator for the norm and
    majorization guarantees to mean anything; the run itself only needs
    apply(). With `store_averages=False` and `norms=False` only the probe
    columns are computed; the report's norms are then None.
    """
    return _stream(
        T, f, checkpoints, None, probes, store_averages, norms, max_iterations
    )


def weighted(
    T: Operator,
    f: MeasurableFunction,
    beta: WeightSequence,
    checkpoints,
    probes=(),
    store_averages: bool = True,
    max_iterations: int = DEFAULT_BUDGET,
    norms: bool = True,
) -> AveragingReport:
    """Weighted averages (1/n) sum_{k<n} beta_k T^k f.

    The report records M = max(1, sup over materialized |beta_k|); the
    majorization trace compares a_n / M against f, which is the contraction
    statement that survives unbounded-looking weights.
    """
    return _stream(
        T, f, checkpoints, beta, probes, store_averages, norms, max_iterations
    )


def oscillation(report: AveragingReport, probe: int, window) -> float:
    """Max minus min of recorded probe averages over a checkpoint window.

    `window` is an inclusive (lo, hi) range of checkpoint values n. Complex
    averages report the larger of the real-part and imaginary-part
    oscillations.
    """
    if probe not in report.probes:
        raise InputError(f"probe {probe} was not recorded")
    lo, hi = int(window[0]), int(window[1])
    sel = [i for i, n in enumerate(report.checkpoints) if lo <= n <= hi]
    if not sel:
        raise InputError("window contains no recorded checkpoints")
    col = report.probes.index(probe)
    v = report.probe_values[sel, col]
    osc_re = float(np.max(v.real) - np.min(v.real))
    osc_im = float(np.max(v.imag) - np.min(v.imag))
    return max(osc_re, osc_im)


def majorization_trace(
    report: AveragingReport, f: MeasurableFunction, tol: float = MAJORIZATION_TOL
) -> tuple[bool, ...]:
    """Per-checkpoint flags: a_n (normalized by M for weighted runs) is
    submajorized by f. Requires a full-mode report."""
    if report.averages is None:
        raise CapabilityError(
            "majorization trace needs retained averages; rerun in full mode"
        )
    scale = report.weight_bound if report.weight_bound is not None else 1.0
    flags = []
    for a in report.averages:
        candidate = a if scale == 1.0 else (1.0 / scale) * a
        flags.append(bool(majorizes(f, candidate, tol)))
    report.majorized = tuple(flags)
    return report.majorized
