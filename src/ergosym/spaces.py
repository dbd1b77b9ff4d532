"""Atomic measure spaces, non-increasing rearrangements, and symmetric norms.

Functions live on a finite set of atoms with positive weights. The
non-increasing rearrangement of a function is the right-continuous step
function obtained by sorting atom magnitudes in decreasing order and laying
them over consecutive intervals whose lengths are the atom weights. All
integrals against it (Hardy-Littlewood partial integrals, L1+Linf, Lorentz
functionals) are evaluated in closed form from the plateau structure; there
is no quadrature anywhere in this module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, NumericError, TruncationWarning

# default tolerance for Hardy-Littlewood partial-integral comparisons
MAJORIZATION_TOL = 1e-9
# tolerance for identities that hold exactly up to roundoff
EXACT_TOL = 1e-12

# geometric bracket growth limit in luxemburg_norm; hitting it means the
# Orlicz evaluator is pathological (never straddles modular value 1)
_MAX_BRACKET_STEPS = 200


def _piece(edges: np.ndarray, t, pieces: int) -> np.ndarray:
    """Index i of the piece [edges[i], edges[i+1]) holding each t, clipped
    to the first and last of `pieces` pieces."""
    return np.clip(np.searchsorted(edges, t, side="right") - 1, 0, pieces - 1)


@dataclass(frozen=True, eq=False)
class AtomicMeasureSpace:
    """Finite weighted atom set.

    `truncated` marks the space as a finite window of a larger ambient
    space; majorization comparisons accept unequal totals only between
    truncated windows.
    """

    weights: np.ndarray
    truncated: bool = False
    total_measure: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InputError("weights must form a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InputError("atom weights must be positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total_measure", float(np.sum(w)))

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int, weight: float = 1.0, truncated: bool = False):
        if n <= 0:
            raise InputError("need at least one atom")
        return cls(np.full(n, float(weight)), truncated)

    def is_compatible(self, other: "AtomicMeasureSpace") -> bool:
        return self is other or (
            self.n_atoms == other.n_atoms
            and bool(self.truncated) == bool(other.truncated)
            and np.array_equal(self.weights, other.weights)
        )


@dataclass(eq=False)
class MeasurableFunction:
    """Complex-valued function given by one value per atom."""

    values: np.ndarray
    space: AtomicMeasureSpace

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.space.n_atoms,):
            raise InputError(
                f"function has {v.size} values for a space with "
                f"{self.space.n_atoms} atoms"
            )
        if not np.all(np.isfinite(v)):
            raise InputError("function values must be finite")
        self.values = v

    @classmethod
    def ones(cls, space: AtomicMeasureSpace):
        return cls(np.ones(space.n_atoms), space)

    @classmethod
    def zeros(cls, space: AtomicMeasureSpace):
        return cls(np.zeros(space.n_atoms), space)

    @classmethod
    def indicator(cls, space: AtomicMeasureSpace, atoms):
        v = np.zeros(space.n_atoms)
        v[np.asarray(atoms, dtype=int)] = 1.0
        return cls(v, space)

    def __mul__(self, c):
        if not isinstance(c, (int, float, complex)):
            return NotImplemented
        return MeasurableFunction(self.values * c, self.space)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class Rearrangement:
    """Non-increasing step function: plateaus[i] on
    [breakpoints[i], breakpoints[i+1]), zero from the last breakpoint on.

    breakpoints starts at 0 and has one more entry than plateaus; plateau
    values are positive and strictly decreasing (ties are merged), and the
    final breakpoint is the measure of the support of the source function.
    """

    breakpoints: np.ndarray
    plateaus: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        pl = np.asarray(self.plateaus, dtype=float)
        if bp.ndim != 1 or pl.ndim != 1 or bp.size != pl.size + 1:
            raise InputError("need len(breakpoints) == len(plateaus) + 1")
        if bp.size == 0 or bp[0] != 0.0:
            raise InputError("breakpoints must start at 0")
        if np.any(np.diff(bp) <= 0):
            raise InputError("breakpoints must be strictly increasing")
        if np.any(pl <= 0) or np.any(np.diff(pl) >= 0):
            raise InputError("plateaus must be positive and strictly decreasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(pl))):
            raise InputError("rearrangement data must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "plateaus", pl)
        prefix = np.concatenate(([0.0], np.cumsum(pl * np.diff(bp))))
        object.__setattr__(self, "_prefix", prefix)

    @property
    def support_measure(self) -> float:
        return float(self.breakpoints[-1])

    def values_at(self, t) -> np.ndarray:
        """Plateau values mu_t at points t >= 0; zero past the support."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):  # also rejects NaN
            raise InputError("rearrangement values need t >= 0")
        if self.plateaus.size == 0:
            return np.zeros_like(t)
        out = self.plateaus[_piece(self.breakpoints, t, self.plateaus.size)]
        return np.where(t >= self.breakpoints[-1], 0.0, out)

    def integral(self, s: float) -> float:
        """Partial integral of mu over [0, s) for s > 0, in closed form."""
        if s <= 0:
            raise InputError("partial integrals require s > 0")
        return float(self.integrals(np.array([s]))[0])

    def integrals(self, s) -> np.ndarray:
        """Vectorized partial integrals; entries of s must be >= 0."""
        s = np.asarray(s, dtype=float)
        if self.plateaus.size == 0:
            return np.zeros_like(s)
        bp, pl, prefix = self.breakpoints, self.plateaus, self._prefix
        i = _piece(bp, s, pl.size)
        inside = prefix[i] + pl[i] * (s - bp[i])
        return np.where(s >= bp[-1], prefix[-1], inside)


def rearrangement(f: MeasurableFunction) -> Rearrangement:
    """Non-increasing rearrangement of |f| with equal magnitudes merged.

    Zero values contribute no plateau; the step function vanishes past the
    measure of the support.
    """
    mags = np.abs(f.values)
    vals, inverse = np.unique(mags, return_inverse=True)
    lengths = np.bincount(inverse, weights=f.space.weights)
    keep = vals > 0
    vals = vals[keep][::-1]
    lengths = lengths[keep][::-1]
    bp = np.concatenate(([0.0], np.cumsum(lengths)))
    return Rearrangement(bp, vals)


@dataclass(frozen=True)
class MajorizationResult:
    """Outcome of a partial-integral comparison; falsy on failure, with the
    first violating abscissa and both integrals as witness."""

    ok: bool
    witness_s: float | None = None
    integral_f: float | None = None
    integral_g: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_comparable(a: AtomicMeasureSpace, b: AtomicMeasureSpace) -> None:
    if a.truncated and b.truncated:
        return
    scale = max(1.0, a.total_measure, b.total_measure)
    if abs(a.total_measure - b.total_measure) > 1e-9 * scale:
        raise InputError(
            "majorization needs equal total measure or two truncated windows"
        )


def majorizes(
    f: MeasurableFunction, g: MeasurableFunction, tol: float = MAJORIZATION_TOL
) -> MajorizationResult:
    """Check that g is submajorized by f.

    True iff the partial integral of the rearrangement of g stays below that
    of f (within tol) at every breakpoint of either rearrangement. Both
    partial integrals are piecewise linear with kinks only at breakpoints,
    so checking there decides the comparison on all of (0, inf).
    """
    _check_comparable(f.space, g.space)
    rf, rg = rearrangement(f), rearrangement(g)
    s = np.union1d(rf.breakpoints[1:], rg.breakpoints[1:])
    if s.size == 0:
        return MajorizationResult(True)
    int_f = rf.integrals(s)
    int_g = rg.integrals(s)
    bad = int_g > int_f + tol
    if not np.any(bad):
        return MajorizationResult(True)
    i = int(np.argmax(bad))
    return MajorizationResult(False, float(s[i]), float(int_f[i]), float(int_g[i]))


def norm(f: MeasurableFunction, which: str) -> float:
    """Norm of f in one of the benchmark spaces.

    which: "L1", "Linf", "L1plusLinf" (partial integral of the rearrangement
    over [0, 1)), or "L1capLinf" (max of L1 and Linf).
    """
    key = which.lower()
    if key == "l1":
        return float(np.sum(f.space.weights * np.abs(f.values)))
    if key == "linf":
        return float(np.max(np.abs(f.values)))
    if key == "l1pluslinf":
        return rearrangement(f).integral(1.0)
    if key == "l1caplinf":
        return max(norm(f, "L1"), norm(f, "Linf"))
    raise InputError(f"unknown norm {which!r}")


@dataclass(frozen=True)
class OrliczFunction:
    """Convex Orlicz function: phi(0) = 0, phi >= 0, positive somewhere on
    (0, inf).

    `evaluate` must accept numpy arrays. Convexity, nonnegativity and
    positivity are spot-checked at construction on a fixed grid.
    """

    evaluate: Callable

    def __post_init__(self):
        phi = self.evaluate
        if abs(float(phi(np.array(0.0)))) > EXACT_TOL:
            raise InputError("Orlicz function must vanish at 0")
        grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
        vals = np.asarray(phi(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise InputError("Orlicz evaluator must be finite on the spot grid")
        if np.any(vals < 0) or not np.any(vals > 0):
            raise InputError(
                "Orlicz function must be nonnegative, and positive somewhere, "
                "on the spot grid"
            )
        for i in range(grid.size):
            for j in range(i + 1, grid.size):
                mid = float(phi(np.array((grid[i] + grid[j]) / 2.0)))
                if mid > (vals[i] + vals[j]) / 2.0 + EXACT_TOL:
                    raise InputError("midpoint convexity spot-check failed")

    @classmethod
    def power(cls, p: float):
        if p < 1:
            raise InputError("power Orlicz functions need p >= 1")
        return cls(lambda u: u**p)


def luxemburg_norm(
    f: MeasurableFunction, phi: OrliczFunction, tol: float = 1e-10
) -> float:
    """Luxemburg norm: least a with sum_i w_i phi(|v_i| / a) <= 1.

    Bisection on a over a bracket grown geometrically until the modular
    straddles 1; returns the feasible endpoint once the bracket width is
    below tol. The zero function has norm 0. Bracket growth that fails to
    straddle 1 within 200 steps raises NumericError (pathological phi).
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    mags = np.abs(f.values)
    if not np.any(mags > 0):
        return 0.0
    w = f.space.weights

    def feasible(a: float) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            m = float(np.sum(w * np.asarray(phi.evaluate(mags / a), dtype=float)))
        # overflow or nan counts as modular > 1
        return np.isfinite(m) and m <= 1.0

    hi = float(np.max(mags))
    for _ in range(_MAX_BRACKET_STEPS):
        if feasible(hi):
            break
        hi *= 2.0
    else:
        raise NumericError("modular never reached 1 while growing the bracket")
    lo = hi / 2.0
    for _ in range(_MAX_BRACKET_STEPS):
        if not feasible(lo):
            break
        lo /= 2.0
    else:
        raise NumericError("modular stayed below 1 while shrinking the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True, eq=False)
class LorentzWeight:
    """Increasing concave piecewise-linear phi with phi(0) = 0.

    knots start at 0 and are strictly increasing; slopes[i] applies on
    [knots[i], knots[i+1]) and the last slope extends to infinity. Slopes
    must be nonnegative and non-increasing (concavity).
    """

    knots: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        kn = np.asarray(self.knots, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        if kn.ndim != 1 or sl.ndim != 1 or kn.size != sl.size or kn.size == 0:
            raise InputError("need one slope per knot")
        if kn[0] != 0.0 or np.any(np.diff(kn) <= 0):
            raise InputError("knots must start at 0 and increase strictly")
        if not (np.all(np.isfinite(kn)) and np.all(np.isfinite(sl))):
            raise InputError("Lorentz weight data must be finite")
        if np.any(sl < 0) or np.any(np.diff(sl) > 0):
            raise InputError("slopes must be nonnegative and non-increasing")
        object.__setattr__(self, "knots", kn)
        object.__setattr__(self, "slopes", sl)
        vals = np.concatenate(([0.0], np.cumsum(sl[:-1] * np.diff(kn))))
        object.__setattr__(self, "_knot_values", vals)

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise InputError("Lorentz weights are defined on t >= 0")
        i = _piece(self.knots, t, self.knots.size)
        return self._knot_values[i] + self.slopes[i] * (t - self.knots[i])

    @classmethod
    def linear(cls):
        return cls(np.array([0.0]), np.array([1.0]))

    @classmethod
    def capped(cls, c: float):
        """phi(t) = min(t, c)."""
        if c <= 0:
            raise InputError("cap must be positive")
        return cls(np.array([0.0, float(c)]), np.array([1.0, 0.0]))


def lorentz_norm(f: MeasurableFunction, w: LorentzWeight) -> float:
    """Exact Stieltjes integral of the rearrangement against dphi.

    The rearrangement is a step function, so the integral collapses to
    sum_i plateau_i * (phi(t_i) - phi(t_{i-1})).
    """
    r = rearrangement(f)
    pv = w.evaluate(r.breakpoints)
    return float(np.sum(r.plateaus * np.diff(pv)))


def r_mu_tail(f: MeasurableFunction, t0: float) -> float:
    """Tail certificate: the rearrangement value at t0.

    Queries at or beyond the total measure return 0 and raise
    TruncationWarning, since the answer is only window-relative there.
    """
    if not t0 >= 0:  # also rejects NaN
        raise InputError("tail queries need t0 >= 0")
    if t0 >= f.space.total_measure:
        warnings.warn(
            "tail query at or beyond the truncation window; returning 0",
            TruncationWarning,
            stacklevel=2,
        )
        return 0.0
    return float(rearrangement(f).values_at(t0))


def decompose(f: MeasurableFunction, eps: float):
    """Split f = g + h with g = f on {|f| > eps} and h bounded by eps.

    The split is exact componentwise; g carries the large values, h the
    remainder with Linf norm at most eps.
    """
    if eps < 0:
        raise InputError("decomposition level must be nonnegative")
    mask = np.abs(f.values) > eps
    g = MeasurableFunction(np.where(mask, f.values, 0.0), f.space)
    h = MeasurableFunction(np.where(mask, 0.0, f.values), f.space)
    return g, h
