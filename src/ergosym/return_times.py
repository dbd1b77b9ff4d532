"""Return-time product averages and Wiener-Wintner frequency sweeps.

A point system is an atom set with a weight-preserving bijection acting on
it. Product averages (1/n) sum_k f(tau^k w) g(phi^k y) couple two systems
along paired orbits; the Wiener-Wintner sweep evaluates the twisted
averages (1/n) sum_k lam^k f(tau^k w) for a whole grid of unimodular lam
from a single orbit traversal. For rational rotations the sweep has a
closed form (finite geometric series), used as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .averaging import DEFAULT_BUDGET, _horizon
from .errors import InputError
from .operators import _check_measure_preserving
from .spaces import AtomicMeasureSpace, MeasurableFunction
from .weights import cycles

# |1 - q| below this flags a resonant grid point (slow geometric decay)
RESONANCE_TOL = 1e-6


@dataclass(eq=False)
class PointSystem:
    """Atom set with a weight-preserving bijection tau."""

    space: AtomicMeasureSpace
    tau: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tau, dtype=int)
        n = self.space.n_atoms
        if t.shape != (n,):
            raise InputError("tau needs one image per atom")
        if np.any(t < 0) or np.any(t >= n):
            raise InputError("tau leaves the atom set")
        _check_measure_preserving(t, self.space)
        self.tau = t

    @classmethod
    def cyclic(cls, order: int, step: int = 1, weight: float = 1.0):
        """Cyclic shift i -> i + step (mod order) on uniform atoms."""
        if order < 1:
            raise InputError("cyclic systems need at least one atom")
        space = AtomicMeasureSpace.uniform(order, weight)
        # reduce step in Python ints first: np.arange(order) + step wraps in
        # int64 for a step near 2^63
        tau = (np.arange(order) + step % order) % order
        return cls(space, tau)

    def orbit(self, start: int, n: int) -> np.ndarray:
        """Atom indices tau^k(start) for k < n.

        tau is a bijection, so the orbit is periodic: walk the cycle through
        `start` once (at most n steps) and tile it out to n terms.
        """
        if start < 0 or start >= self.space.n_atoms:
            raise InputError("orbit start out of range")
        start = int(start)
        cycle = [start]
        p = int(self.tau[start])
        while p != start and len(cycle) < n:
            cycle.append(p)
            p = int(self.tau[p])
        return np.resize(np.array(cycle, dtype=int), n)


@dataclass(eq=False)
class ProductAverageReport:
    """Product averages per checkpoint (rows) and probe pair (columns)."""

    checkpoints: tuple[int, ...]
    probes: tuple[tuple[int, int], ...]
    averages: np.ndarray


def product_average(
    system_a: PointSystem,
    f: MeasurableFunction,
    system_b: PointSystem,
    g: MeasurableFunction,
    probes,
    checkpoints,
    max_iterations: int = DEFAULT_BUDGET,
) -> ProductAverageReport:
    """Averages (1/n) sum_{k<n} f(tau^k w) g(phi^k y) at the checkpoints,
    for each probe pair (w, y). One orbit traversal per system per probe."""
    cps = _horizon(checkpoints, max_iterations)
    if not system_a.space.is_compatible(f.space):
        raise InputError("f must live on the first system's space")
    if not system_b.space.is_compatible(g.space):
        raise InputError("g must live on the second system's space")
    pairs = tuple((int(a), int(b)) for a, b in probes)
    if not pairs:
        raise InputError("need at least one probe pair")
    n_max = cps[-1]
    idx = np.array(cps) - 1
    ns = np.array(cps, dtype=float)
    out = np.empty((len(cps), len(pairs)), dtype=complex)
    for col, (wa, yb) in enumerate(pairs):
        fo = f.values[system_a.orbit(wa, n_max)]
        go = g.values[system_b.orbit(yb, n_max)]
        csum = np.cumsum(fo * go)
        out[:, col] = csum[idx] / ns
    return ProductAverageReport(cps, pairs, out)


@dataclass(eq=False)
class SweepResult:
    """Twisted averages over a uniform frequency grid.

    averages[j, p, c] is the average at lambda_j = exp(2 pi i j / G), probe
    p, checkpoint c; oscillations hold the max-minus-min of each
    (lambda, probe) trace over the recorded checkpoints (real/imag split).
    """

    lambdas: np.ndarray
    probes: tuple[int, ...]
    checkpoints: tuple[int, ...]
    averages: np.ndarray
    oscillations: np.ndarray


def wiener_wintner_sweep(
    system: PointSystem,
    f: MeasurableFunction,
    probes,
    grid_size: int,
    checkpoints,
    max_iterations: int = DEFAULT_BUDGET,
) -> SweepResult:
    """Sweep (1/n) sum_{k<n} lam^k f(tau^k w) over the G-point unit-circle
    grid lam_j = exp(2 pi i j / G).

    Since lam_j^k depends on k only through r = k mod G, the twisted sum up
    to n is sum_r S_r lam_j^r with S_r the sum of the orbit samples whose
    index k < n has k = r (mod G): an inverse DFT of the residue sums.
    One orbit traversal per probe folds the samples between consecutive
    checkpoints into residue bins; a running sum over the checkpoint
    segments and one batched inverse FFT give every checkpoint. The phases
    are exact integers mod G; time is O(n + C G log G) and memory
    O(n + C G) per probe, for C checkpoints.
    """
    cps = _horizon(checkpoints, max_iterations)
    if not system.space.is_compatible(f.space):
        raise InputError("f must live on the system's space")
    if grid_size < 1:
        raise InputError("frequency grid needs at least one point")
    probes = tuple(int(p) for p in probes)
    if not probes:
        raise InputError("need at least one probe")
    g = int(grid_size)
    lams = cycles(np.arange(g) / g)
    n_max, n_cps = cps[-1], len(cps)
    # bin of term k: (index of its checkpoint segment) * G + k mod G
    bins = np.arange(n_max)
    np.remainder(bins, g, out=bins)
    bins += np.repeat(np.arange(n_cps) * g, np.diff(cps, prepend=0))
    ns = np.array(cps, dtype=float)
    avgs = np.empty((g, len(probes), n_cps), dtype=complex)
    for p, start in enumerate(probes):
        fo = f.values[system.orbit(start, n_max)]
        sums = np.empty(n_cps * g, dtype=complex)
        sums.real = np.bincount(bins, fo.real, n_cps * g)
        sums.imag = np.bincount(bins, fo.imag, n_cps * g)
        sums = np.cumsum(sums.reshape(n_cps, g), axis=0)
        # unnormalised inverse DFT: sum_r S_r exp(2 pi i j r / G)
        avgs[:, p, :] = np.fft.ifft(sums, axis=1, norm="forward").T / ns
    osc = np.maximum(
        avgs.real.max(axis=2) - avgs.real.min(axis=2),
        avgs.imag.max(axis=2) - avgs.imag.min(axis=2),
    )
    return SweepResult(lams, probes, cps, avgs, osc)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, tuple):
        return Fraction(*x)
    if isinstance(x, int):
        return Fraction(x)
    raise InputError("rational angles must be Fraction, int, or (num, den)")


def rotation_q(rho, lam):
    """Decay ratio q = lam e^{2 pi i rho} of the twisted rotation average.

    Returns (q, exact_resonance). With lam given as a Fraction (its phase
    in cycles) resonance q == 1 is decided exactly in integer arithmetic.
    """
    rho = _as_fraction(rho)
    if isinstance(lam, (Fraction, int, tuple)):
        q_phase = (_as_fraction(lam) + rho) % 1
        return cycles(float(q_phase)), q_phase == 0
    q = complex(lam) * cycles(float(rho % 1))
    return q, q == 1.0 + 0j


def _rotation_table(q_phase: Fraction, fronts, ns) -> np.ndarray:
    """front (1 - q^n) / (n (1 - q)) per front (rows) and n (columns) for
    q = e^{2 pi i q_phase}, q_phase exact in cycles; the front at q == 1."""
    if q_phase == 0:
        return np.repeat(np.array(fronts)[:, None], len(ns), axis=1)
    out = np.empty((len(fronts), len(ns)), dtype=complex)
    q = cycles(float(q_phase))
    qns = cycles(np.array([float(n * q_phase % 1) for n in ns])).tolist()
    for c, (n, qn) in enumerate(zip(ns, qns)):
        for p, front in enumerate(fronts):
            out[p, c] = front * (1.0 - qn) / (n * (1.0 - q))
    return out


def rotation_oracle(order, character, step, probes, grid_size, checkpoints):
    """Closed-form sweep of f(w) = e^{2 pi i c w / order} under w -> w + step:
    the oracle, indexed like SweepResult.averages, holding rotation_closed_form's
    values to the last bit, and the grid indices where |1 - q| < RESONANCE_TOL."""
    rho = Fraction(character * step, order)
    fronts = [cycles(float(Fraction(character * w, order) % 1)) for w in probes]
    oracle = np.empty((grid_size, len(fronts), len(checkpoints)), dtype=complex)
    resonant = []
    for j in range(grid_size):
        q_phase = (Fraction(j, grid_size) + rho) % 1
        if abs(1.0 - cycles(float(q_phase))) < RESONANCE_TOL:
            resonant.append(j)
        oracle[j] = _rotation_table(q_phase, fronts, checkpoints)
    return oracle, resonant


def rotation_closed_form(rho, lam, omega_phase: float, n: int) -> complex:
    """Closed form of (1/n) sum_{k<n} lam^k e^{2 pi i (omega + k rho)}.

    rho is the rotation angle in cycles, as an exact rational; omega_phase
    is the starting phase in cycles. The value is
    e^{2 pi i omega} (1 - q^n) / (n (1 - q)) with q = lam e^{2 pi i rho},
    and exactly e^{2 pi i omega} at resonance q = 1. Pass lam as a Fraction
    phase for exact resonance detection and drift-free q^n.
    """
    if n < 1:
        raise InputError("closed form needs n >= 1")
    rho = _as_fraction(rho)
    front = cycles(float(omega_phase))
    if isinstance(lam, (Fraction, int, tuple)):
        q_phase = (_as_fraction(lam) + rho) % 1
        return complex(_rotation_table(q_phase, [front], [n])[0, 0])
    q, resonant = rotation_q(rho, lam)
    if resonant:
        return front
    return front * (1.0 - q**n) / (n * (1.0 - q))
