"""Return-time product averages and Wiener-Wintner frequency sweeps.

A point system is an atom set with a weight-preserving bijection acting on
it. Product averages (1/n) sum_k f(tau^k w) g(phi^k y) couple two systems
along paired orbits; the Wiener-Wintner sweep evaluates the twisted
averages (1/n) sum_k lam^k f(tau^k w) for a whole grid of unimodular lam
from a single orbit traversal. For rational rotations the sweep has a
closed form (finite geometric series), used as the oracle.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

import numpy as np

from .averaging import DEFAULT_BUDGET, _horizon
from .errors import InputError
from .operators import _check_measure_preserving, _index_array
from .spaces import (
    _BLOCK,
    AtomicMeasureSpace,
    MeasurableFunction,
    _atoms,
    _count,
    _finite,
    _integers,
    _schedule,
)
from .weights import cycles

# |1 - q| below this flags a resonant grid point (slow geometric decay)
RESONANCE_TOL = 1e-6


class PointSystem:
    """Atom set with a weight-preserving bijection tau, held as int32 from
    one block of atoms on (see `operators._index_dtype`)."""

    def __init__(self, space: AtomicMeasureSpace, tau):
        n = space.n_atoms
        if np.shape(tau) != (n,):
            raise InputError("tau needs one image per atom")
        t = _index_array(tau, "tau", n)
        _check_measure_preserving(t, space)
        self.space = space
        self.tau = t

    @classmethod
    def cyclic(cls, order: int, step: int = 1, weight: float = 1.0):
        """Cyclic shift i -> i + step (mod order) on uniform atoms."""
        order = _count(order, "order")
        (step,) = _integers((step,), "step")
        space = AtomicMeasureSpace.uniform(order, weight)
        # reduce step in Python ints first: np.arange(order) + step wraps in
        # int64 for a step near 2^63
        tau = (np.arange(order) + step % order) % order
        return cls(space, tau)

    def cycle(self, start: int) -> np.ndarray:
        """The L atoms tau^k(start), k < L, of the cycle through `start`.

        tau is a bijection, so tau^L(start) == start for the first such L,
        and L is at most the number of atoms. O(L) time and memory.
        """
        (start,) = _atoms((start,), "orbit start", self.space.n_atoms)
        cycle = [start]
        p = int(self.tau[start])
        while p != start:
            cycle.append(p)
            p = int(self.tau[p])
        return np.array(cycle, dtype=int)

    def orbit(self, start: int, n: int) -> np.ndarray:
        """Atom indices tau^k(start) for k < n: the cycle through `start`
        tiled out to n terms. O(L + n) memory; the averages below read the
        cycle itself instead."""
        n = _count(n, "orbit length", 0)
        return np.resize(self.cycle(start), n)


def _fold_periodic(factors, period: int, cps, fold) -> np.ndarray:
    """Sums S_n = sum_{k<n} x_k at every checkpoint n, for the sequence
    x_k = prod_i factors[i][k mod len(factors[i])], which repeats with
    `period` P, a multiple of every factor's length.

    Only m = min(n_max, P) terms are walked, in blocks of _BLOCK, and
    checkpoint n = q P + r (1 <= r <= P) reads q S_P + S_r: the prefix sums
    are needed only at the sorted residues r, plus P itself once some n
    passes it. Below one period q = 0 and S_n is read as walked.

    `fold(k0, x, ends)` receives the terms k0 <= k < k0 + len(x) in order
    (x may be overwritten), complex, with a real factor cast to imaginary
    part +0.0: the bits of the product of complex factors. It returns the
    prefix sums after the first e terms of the block for each offset e in
    `ends`, one row per offset.
    The result has one row per checkpoint. O(m) time and O(block) memory
    beyond the factors and at most C + 1 prefix rows, for C checkpoints.
    """
    period = min(period, cps[-1])  # no checkpoint sees a longer period
    q, r = np.divmod(np.array(cps, dtype=np.int64) - 1, period)
    r += 1
    # sorted in Python: np.unique would import numpy.ma, about 16 ms once
    stops = set(r.tolist()) | ({period} if q.any() else set())
    stops = np.array(sorted(stops))
    m = int(stops[-1])
    # each factor extended by one block, so the terms k0 <= k < k0 + B of
    # a factor of length L are the slice from k0 mod L
    block = min(_BLOCK, m)
    tiles = [(np.resize(v, v.size + block), v.size) for v in factors]
    prefix = []
    for k0 in range(0, m, block):
        size = min(block, m - k0)
        parts = [tile[k0 % length:][:size] for tile, length in tiles]
        x = parts[0].astype(complex)  # a copy, a real factor cast to complex
        for part in parts[1:]:
            x *= part
        lo, hi = np.searchsorted(stops, (k0, k0 + size), side="right")
        prefix.append(fold(k0, x, stops[lo:hi] - k0))
    prefix = np.concatenate(prefix)
    sums = prefix[np.searchsorted(stops, r)]
    past = q > 0  # only these read S_P: q = 0 keeps the walked bits
    sums[past] += np.multiply.outer(q[past], prefix[-1])
    return sums


class ProductAverageReport(NamedTuple):
    """Product averages per checkpoint (rows) and probe pair (columns)."""

    checkpoints: tuple[int, ...]
    probes: tuple[tuple[int, int], ...]
    averages: np.ndarray


# float64 overflow is checked in the averages reported, so numpy's warnings
# for it (and for the inf - inf and 0 * inf it leads to) are not raised
@np.errstate(over="ignore", invalid="ignore")
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
    for each probe pair (w, y).

    The product term repeats with period P = lcm(L_a, L_b) of the two
    cycles, so one walk over min(n_max, P) terms gives every checkpoint:
    n = q P + r reads q S_P + S_r. The running sum is one cumsum carried
    across blocks, so below one period every S_n has the bits of a single
    cumsum over the n terms. Time O(min(n_max, P)) and memory
    O(L_a + L_b + block + C) per pair, whatever the horizon. An average
    that is not finite, because a sum overflows float64, raises
    NumericError.
    """
    cps = _horizon(checkpoints, max_iterations)
    if not system_a.space.is_compatible(f.space):
        raise InputError("f must live on the first system's space")
    if not system_b.space.is_compatible(g.space):
        raise InputError("g must live on the second system's space")
    try:
        pairs = tuple(_integers(p, "probes") for p in probes)
    except TypeError:  # probes, or one of its probes, is not iterable
        pairs = ()
    if not pairs or any(len(p) != 2 for p in pairs):
        raise InputError("probes must be a nonempty list of (omega, y) pairs")
    ns = np.array(cps, dtype=float)
    out = np.empty((len(cps), len(pairs)), dtype=complex)
    for col, (wa, yb) in enumerate(pairs):
        fc = f.values[system_a.cycle(wa)]
        gc = g.values[system_b.cycle(yb)]
        total = None  # S at the end of the previous block

        def running_sum(k0, x, ends):
            nonlocal total
            if total is not None:
                x[0] += total
            np.cumsum(x, out=x)
            total = x[-1]
            return x[ends - 1]

        sums = _fold_periodic((fc, gc), lcm(fc.size, gc.size), cps, running_sum)
        out[:, col] = sums / ns
    for n, row in zip(cps, out):
        _finite(row, f"average at checkpoint {n}")
    return ProductAverageReport(cps, pairs, out)


class SweepResult(NamedTuple):
    """Twisted averages over a uniform frequency grid.

    averages[j, p, c] is the average at lambda_j = exp(2 pi i j / G), probe
    p, checkpoint c.
    """

    lambdas: np.ndarray
    probes: tuple[int, ...]
    checkpoints: tuple[int, ...]
    averages: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # as in product_average
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
    The pair (k mod G, tau^k w) repeats with period P = lcm(L, G), so one
    walk over min(n_max, P) terms folds the samples into residue bins, one
    bin set per stretch between the prefix points that the checkpoints
    n = q P + r need (q R_P + R_r). A running sum over those stretches and
    one batched inverse FFT give every checkpoint. The phases are exact
    integers mod G; time is O(min(n_max, P) + C G log G) and memory
    O(L + block + C G) per probe, for C checkpoints, whatever the horizon.
    An average that is not finite raises NumericError.
    """
    cps = _horizon(checkpoints, max_iterations)
    if not system.space.is_compatible(f.space):
        raise InputError("f must live on the system's space")
    g = _count(grid_size, "grid_size")
    probes = _integers(probes, "probes")
    if not probes:
        raise InputError("need at least one probe")
    lams = cycles(np.arange(g) / g)
    ns = np.array(cps, dtype=float)
    avgs = np.empty((g, len(probes), len(cps)), dtype=complex)
    for p, start in enumerate(probes):
        fc = f.values[system.cycle(start)]
        open_bins = np.zeros(g, dtype=complex)  # the unfinished stretch
        closed = np.zeros(g, dtype=complex)  # residue sums at the last end

        def residue_sums(k0, x, ends):
            nonlocal open_bins, closed
            n_seg = ends.size + 1
            # bin of term k: (its stretch in the block) * G + k mod G; the
            # open stretch's bins lead, so bincount continues their sums
            seg_sizes = np.diff(ends, prepend=0, append=x.size)
            bins = np.repeat(np.arange(n_seg) * g, seg_sizes)
            bins += np.arange(k0, k0 + x.size) % g
            bins = np.concatenate((np.arange(g), bins))
            x = np.concatenate((open_bins, x))
            sums = np.empty(n_seg * g, dtype=complex)
            sums.real = np.bincount(bins, x.real, n_seg * g)
            sums.imag = np.bincount(bins, x.imag, n_seg * g)
            sums = sums.reshape(n_seg, g)
            open_bins = sums[-1].copy()
            done = sums[:-1]
            if done.size:
                done[0] += closed
                np.cumsum(done, axis=0, out=done)
                closed = done[-1].copy()
            return done

        sums = _fold_periodic((fc,), lcm(fc.size, g), cps, residue_sums)
        # unnormalised inverse DFT: sum_r S_r exp(2 pi i j r / G)
        avgs[:, p, :] = np.fft.ifft(sums, axis=1, norm="forward").T / ns
    for n, plane in zip(cps, np.moveaxis(avgs, -1, 0)):
        _finite(plane, f"average at checkpoint {n}")
    return SweepResult(lams, probes, cps, avgs)


def _phase(x) -> tuple[int, int]:
    """A rational phase in cycles, a Fraction or an int, as the integer pair
    (numerator, denominator >= 1); an int x is (x, 1). fractions is imported
    only for an x that is not an int: a caller holding a Fraction has
    loaded it already."""
    if isinstance(x, int):
        return x, 1
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise InputError("rational angles must be Fraction or int")


def _phase_powers(a: int, b: int, ns):
    """(q, [q^n for n in ns], exact resonance) for q = e^{2 pi i a / b},
    the phase an integer pair with b >= 1, not necessarily reduced.

    q^n takes the phase (n a mod b) / b in Python ints, divided once, and
    resonance is a = 0 mod b. Int true division rounds a rational to the
    nearest double however its pair is reduced, so every value has the bits
    of the reduced pair's. ns are ints, as `_integers` gives them.
    """
    a %= b
    qns = cycles(np.array([n * a % b / b for n in ns])).tolist()
    return cycles(a / b), qns, a == 0


def _rotation_powers(rho, lam, ns):
    """`_phase_powers` for q = lam e^{2 pi i rho}, rho and lam rational
    phases in cycles read by `_phase`: q's phase is exact."""
    (r, s), (u, v) = _phase(rho), _phase(lam)
    return _phase_powers(r * v + u * s, s * v, ns)


def rotation_q(rho, lam):
    """Decay ratio q = lam e^{2 pi i rho} of the twisted rotation average.

    Returns (q, exact_resonance). rho and lam are rational phases in cycles,
    each a Fraction or an int, so resonance q == 1 is decided exactly in
    integer arithmetic.
    """
    q, _, resonant = _rotation_powers(rho, lam, ())
    return q, resonant


def _rotation_table(q, qns, resonant, fronts, ns) -> np.ndarray:
    """The closed form front (1 - q^n) / (n (1 - q)) per front (rows) and
    n (columns), from q and its powers qns as `_rotation_powers` gives
    them; the front itself at resonance."""
    if resonant:
        return np.repeat(np.array(fronts)[:, None], len(ns), axis=1)
    # front * (1 - q^n) / (n (1 - q)) in Python complex arithmetic, its two
    # factors formed once per n, and the values stored by one np.array call
    parts = [(1.0 - qn, n * (1.0 - q)) for n, qn in zip(ns, qns)]
    rows = [[front * a / b for a, b in parts] for front in fronts]
    return np.array(rows, dtype=complex).reshape(len(fronts), len(ns))


def rotation_oracle(order, character, step, probes, grid_size, checkpoints):
    """Closed-form sweep of f(w) = e^{2 pi i c w / order} under w -> w + step:
    the oracle, indexed like SweepResult.averages, holding rotation_closed_form's
    values to the last bit, and the grid indices where |1 - q| < RESONANCE_TOL.
    Every phase is an integer pair: lam_j e^{2 pi i rho} has the phase
    (c step G + j order) / (order G), c the character and G the grid size."""
    checkpoints = _schedule(checkpoints, "checkpoints")
    order, grid_size = _count(order, "order"), _count(grid_size, "grid_size")
    character, step = _integers((character, step), "character and step")
    fronts = [cycles(character * w % order / order)
              for w in _integers(probes, "probes")]
    oracle = np.empty((grid_size, len(fronts), len(checkpoints)), dtype=complex)
    resonant = []
    for j in range(grid_size):
        q, qns, exact = _phase_powers(character * step * grid_size + j * order,
                                      order * grid_size, checkpoints)
        if abs(1.0 - q) < RESONANCE_TOL:
            resonant.append(j)
        oracle[j] = _rotation_table(q, qns, exact, fronts, checkpoints)
    return oracle, resonant


def rotation_closed_form(rho, lam, omega_phase: float, n: int) -> complex:
    """Closed form of (1/n) sum_{k<n} lam^k e^{2 pi i (omega + k rho)}.

    rho is the rotation angle and lam = e^{2 pi i phase} is given by its
    phase, both in cycles as a Fraction or an int; omega_phase is the
    starting phase in cycles. The value is
    e^{2 pi i omega} (1 - q^n) / (n (1 - q)) with q = lam e^{2 pi i rho},
    and exactly e^{2 pi i omega} at resonance q = 1, which is decided in
    integer arithmetic; q^n is drift-free.
    """
    n = _count(n, "n")
    q, qns, resonant = _rotation_powers(rho, lam, [n])
    front = cycles(float(omega_phase))
    return complex(_rotation_table(q, qns, resonant, [front], [n])[0, 0])
