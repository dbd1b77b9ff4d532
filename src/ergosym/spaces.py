"""Atomic measure spaces, non-increasing rearrangements, and symmetric norms.

Functions live on a finite set of atoms with positive weights. The
non-increasing rearrangement of a function is the right-continuous step
function obtained by sorting atom magnitudes in decreasing order and laying
them over consecutive intervals whose lengths are the atom weights. All
integrals against it (Hardy-Littlewood partial integrals, L1+Linf, Lorentz
functionals) are evaluated in closed form from the plateau structure, and
the Luxemburg norm of the Orlicz function u^p is (sum_i w_i |v_i|^p)^(1/p):
this module runs no quadrature and no numerical search.

Submajorization of g by f is checked at the atom boundaries of g only:
between two of them g's partial integral is affine and f's is concave.
On an equal-weight space the boundaries do not depend on g, so a check of
many g against one f reads the partial integrals of f* there once and
holds them as one N-vector; each g then costs one `np.sort` of its moduli,
O(N log N). With unequal weights each g costs an argsort and a lookup of
f*'s integrals at its own boundaries.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError, NumericError

# default tolerance for Hardy-Littlewood partial-integral comparisons
MAJORIZATION_TOL = 1e-9
# entries a blocked pass over an N-vector reads at once, in every module:
# the pass holds one block of temporaries instead of N-long ones
_BLOCK = 8192
_FLOAT_MAX = sys.float_info.max


def _piece(edges: np.ndarray, t, pieces: int) -> np.ndarray:
    """Index i of the piece [edges[i], edges[i+1]) holding each t, clipped
    to the first and last of `pieces` pieces."""
    return np.clip(np.searchsorted(edges, t, side="right") - 1, 0, pieces - 1)


class AtomicMeasureSpace:
    """Finite weighted atom set.

    `truncated` marks the space as a finite window of a larger ambient
    space; majorization comparisons accept unequal totals only between
    truncated windows.
    """

    def __init__(self, weights, truncated: bool = False):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InputError("weights must form a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InputError("atom weights must be positive and finite")
        self.weights = w
        self.truncated = truncated
        with np.errstate(over="ignore"):  # a total past float64's range is inf
            self.total_measure = float(np.sum(w))

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int, weight: float = 1.0, truncated: bool = False):
        """n atoms of one weight, held as one float64 broadcast to n entries:
        a read-only view that reads as np.full(n, weight) bit for bit."""
        n = _count(n, "atom count")
        return cls(np.broadcast_to(np.float64(weight), (n,)), truncated)

    def is_compatible(self, other: "AtomicMeasureSpace") -> bool:
        return self is other or (
            self.n_atoms == other.n_atoms
            and bool(self.truncated) == bool(other.truncated)
            and np.array_equal(self.weights, other.weights)
        )


class MeasurableFunction:
    """Function given by one value per atom: float64 values for real input
    (a bool, integer or float dtype), complex128 otherwise. In each complex
    operation numpy casts a float64 x to the complex value with real part x
    and imaginary part +0.0, and |x| = hypot(x, 0): a real function gives
    the averages, norms and rearrangement of that complex function, at half
    the memory."""

    def __init__(self, values, space: AtomicMeasureSpace):
        v = np.asarray(values)
        v = v.astype(float if v.dtype.kind in "biuf" else complex, copy=False)
        if v.shape != (space.n_atoms,):
            raise InputError(
                f"function has {v.size} values for a space with "
                f"{space.n_atoms} atoms"
            )
        _finite_input("function values", v)
        self.values = v
        self.space = space

    @classmethod
    def ones(cls, space: AtomicMeasureSpace):
        return cls(np.ones(space.n_atoms), space)

    @classmethod
    def zeros(cls, space: AtomicMeasureSpace):
        return cls(np.zeros(space.n_atoms), space)

    @classmethod
    def indicator(cls, space: AtomicMeasureSpace, atoms):
        v = np.zeros(space.n_atoms)
        v[list(_atoms(atoms, "indicator atoms", space.n_atoms))] = 1.0
        return cls(v, space)

    def __mul__(self, c):
        if not isinstance(c, (int, float, complex)):
            return NotImplemented
        return MeasurableFunction(self.values * c, self.space)

    __rmul__ = __mul__


class Rearrangement:
    """Non-increasing step function: plateaus[i] on
    [breakpoints[i], breakpoints[i+1]), zero from the last breakpoint on.

    breakpoints starts at 0 and has one more entry than plateaus; plateau
    values are positive and strictly decreasing (ties are merged), and the
    final breakpoint is the measure of the support of the source function.
    """

    def __init__(self, breakpoints, plateaus):
        bp = np.asarray(breakpoints, dtype=float)
        pl = np.asarray(plateaus, dtype=float)
        if bp.ndim != 1 or pl.ndim != 1 or bp.size != pl.size + 1:
            raise InputError("need len(breakpoints) == len(plateaus) + 1")
        if bp.size == 0 or bp[0] != 0.0:
            raise InputError("breakpoints must start at 0")
        if np.any(np.diff(bp) <= 0):
            raise InputError("breakpoints must be strictly increasing")
        if np.any(pl <= 0) or np.any(np.diff(pl) >= 0):
            raise InputError("plateaus must be positive and strictly decreasing")
        _finite_input("rearrangement data", bp, pl)
        self._hold(bp, pl)

    @classmethod
    def _built(cls, bp: np.ndarray, pl: np.ndarray) -> Rearrangement:
        """A rearrangement of float arrays that meet every check of
        `__init__` by construction, which are not checked again."""
        r = cls.__new__(cls)
        r._hold(bp, pl)
        return r

    def _hold(self, bp: np.ndarray, pl: np.ndarray) -> None:
        self.breakpoints = bp
        self.plateaus = pl
        # _prefix[i] = pl[0] (bp[1] - bp[0]) + ... + pl[i-1] (bp[i] - bp[i-1]),
        # the differences, products and sums formed in place in one array.
        # An integral past float64's range reads as inf; the norms check it.
        prefix = np.empty(bp.size)
        prefix[0] = 0.0
        tail = prefix[1:]
        np.subtract(bp[1:], bp[:-1], out=tail)
        with np.errstate(over="ignore"):
            np.multiply(pl, tail, out=tail)
            np.cumsum(tail, out=tail)
        self._prefix = prefix

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
        bp, pl = self.breakpoints, self.plateaus
        # a gathered copy (0-d for a scalar t), zeroed past the support in place
        out = np.asarray(pl[_piece(bp, t, pl.size)])
        out[t >= bp[-1]] = 0.0
        return out

    def integral(self, s: float) -> float:
        """Partial integral of mu over [0, s) for s > 0, in closed form."""
        if not s > 0:  # also rejects NaN
            raise InputError("partial integrals require s > 0")
        return float(self.integrals(np.array([s]))[0])

    def integrals(self, s) -> np.ndarray:
        """Vectorized partial integrals; entries of s must be >= 0."""
        s = np.asarray(s, dtype=float)
        if not np.all(s >= 0):  # also rejects NaN
            raise InputError("partial integrals need s >= 0")
        if self.plateaus.size == 0:
            return np.zeros_like(s)
        bp, pl, prefix = self.breakpoints, self.plateaus, self._prefix
        i = _piece(bp, s, pl.size)
        with np.errstate(over="ignore"):  # as in __init__
            inside = prefix[i] + pl[i] * (s - bp[i])
        return np.where(s >= bp[-1], prefix[-1], inside)


def rearrangement(f: MeasurableFunction) -> Rearrangement:
    """Non-increasing rearrangement of |f| with equal magnitudes merged.

    Zero values contribute no plateau; the step function vanishes past the
    measure of the support. On equal weights w the moduli are sorted in
    place, and a run of c equal ones is a plateau of length w + ... + w
    (c terms, added in order), the sum bincount forms for unequal weights.
    Without ties, the plateaus are the nonzero sorted moduli read backwards
    and the breakpoints the running sums of w, so no run is looked for.
    """
    mags, w = np.abs(f.values), f.space.weights
    if w.min() == w.max():
        mags.sort()
        new = np.not_equal(mags[1:], mags[:-1])
        if new.all():  # no ties: at most one zero, and it sorts first
            vals = mags[int(mags[0] == 0) :][::-1]
            bp = np.empty(vals.size + 1)
            bp[0], bp[1:] = 0.0, w[0]
            np.cumsum(bp[1:], out=bp[1:])
            # increasing by construction; only the sum of w can overflow
            if not np.isfinite(bp[-1]):
                raise InputError("rearrangement data must be finite")
            return Rearrangement._built(bp, vals)
        first = np.flatnonzero(np.concatenate(([True], new)))
        vals, counts = mags[first], np.diff(first, append=mags.size)
        lengths = np.cumsum(np.full(counts.max(), w[0]))[counts - 1]
    else:
        vals, inverse = np.unique(mags, return_inverse=True)
        lengths = np.bincount(inverse, weights=w)
    keep = vals > 0
    vals = vals[keep][::-1]
    lengths = lengths[keep][::-1]
    bp = np.concatenate(([0.0], np.cumsum(lengths)))
    return Rearrangement(bp, vals)


class MajorizationResult(NamedTuple):
    """Outcome of a partial-integral comparison; falsy on failure, with the
    first violating atom boundary of g and both integrals there as witness."""

    ok: bool
    witness_s: float | None = None
    integral_f: float | None = None
    integral_g: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def _slack(tol: float, scale: float) -> float:
    """tol * max(1, scale): absolute up to scale 1, relative beyond; a scale
    that overflowed counts as float64's max, so the slack stays finite."""
    return tol * max(1.0, min(scale, _FLOAT_MAX))


def _finite(value, what: str):
    """value, a number or an array, or NumericError when an entry is not
    finite because a sum behind it overflowed float64."""
    if not np.isfinite(value).all():
        raise NumericError(f"the {what} overflows float64")
    return value


def _integers(values, name: str) -> tuple[int, ...]:
    """values as ints; integral floats and numpy integers pass, any other
    value (1.5, None, NaN, inf, ...) is an InputError. The one integer rule
    for every count, atom index and time the library takes."""
    raw = tuple(values)
    try:
        ints = tuple(int(n) for n in raw)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != raw:
        raise InputError(f"{name} must be integers")
    return ints


def _count(n, name: str, least: int = 1) -> int:
    """n as an int, by `_integers`, and at least `least`: the one rule for
    every count (least 1) and every size that may be 0 (least 0)."""
    (n,) = _integers((n,), name)
    if n < least:
        raise InputError(f"{name} must be at least {least}")
    return n


def _atoms(values, name: str, n: int) -> tuple[int, ...]:
    """values as ints, by `_integers`, each an atom of range(n): the one
    rule for probe, start and indicator atoms."""
    atoms = _integers(values, name)
    if not all(0 <= i < n for i in atoms):
        raise InputError(f"{name} must lie in 0..{n - 1}")
    return atoms


def _nonnegative(x, name: str) -> float:
    """x as a float, finite and >= 0 (NaN fails): the one rule for every
    tolerance, margin and bound."""
    if not 0 <= x < np.inf:  # also rejects NaN
        raise InputError(f"{name} must be finite and nonnegative")
    return float(x)


def _finite_input(what: str, *arrays) -> None:
    """InputError unless every entry of the 1-d arrays is finite: the one
    finiteness rule for input data. Each is read _BLOCK entries at a time,
    so no mask as long as the input is made."""
    for a in arrays:
        blocks = (a[i : i + _BLOCK] for i in range(0, a.size, _BLOCK))
        if not all(np.isfinite(b).all() for b in blocks):
            raise InputError(f"{what} must be finite")


def _schedule(values, name: str) -> tuple[int, ...]:
    """values as ints, by `_integers`, nonempty and strictly increasing from
    1: the one rule for checkpoints, breakpoints and other time schedules."""
    times = _integers(values, name)
    if not times:
        raise InputError(f"{name} must not be empty")
    if times[0] < 1 or any(b <= a for a, b in zip(times, times[1:])):
        raise InputError(f"{name} must be strictly increasing and >= 1")
    return times


def _check_comparable(a: AtomicMeasureSpace, b: AtomicMeasureSpace) -> None:
    if a.truncated and b.truncated:
        return
    scale = max(a.total_measure, b.total_measure)
    if abs(a.total_measure - b.total_measure) > _slack(1e-9, scale):
        raise InputError(
            "majorization needs equal total measure or two truncated windows"
        )


def majorizes(
    f: MeasurableFunction, g: MeasurableFunction, tol: float = MAJORIZATION_TOL
) -> MajorizationResult:
    """Check that g is submajorized by f: the partial integral of g* stays
    below that of f* on all of (0, inf), within tol * max(1, int f*).

    It is checked at g's atom boundaries s_i, the cumulative weights of its
    atoms in order of decreasing modulus. On [s_(i-1), s_i] the integral of
    g* is affine and that of f* concave, so their difference is convex and
    peaks at an end; it is 0 at s = 0, and past the last s_i g* vanishes.
    """
    return submajorization_check(f, g.space, tol)(np.abs(g.values))


def submajorization_check(
    f: MeasurableFunction, space: AtomicMeasureSpace, tol=MAJORIZATION_TOL
) -> Callable[[np.ndarray], MajorizationResult]:
    """The comparison `majorizes` makes, as a function of the moduli |g| of
    a g on `space`: a caller comparing many g against one f checks the
    spaces, rearranges f and scales tol by the whole integral of f* once.
    The check may sort, scale and sum the moduli it is handed in place, so
    that it holds no N-vector of its own: the caller no longer reads them."""
    tol = _nonnegative(tol, "majorization tolerance")
    _check_comparable(f.space, space)
    rf, w = rearrangement(f), space.weights
    slack = _slack(tol, rf._prefix[-1])
    if w.min() == w.max():
        # every order of g's atoms puts its boundaries at cumsum(w); the
        # integrals of f* there replace them a block at a time
        int_f = np.cumsum(w)
        for a in range(0, int_f.size, _BLOCK):
            block = int_f[a : a + _BLOCK]
            block[:] = rf.integrals(block)
        return partial(_submajorized_at_atoms, None, w, int_f, slack)
    return partial(_submajorized_at_atoms, rf, w, None, slack)


@np.errstate(over="ignore")  # an integral past float64's range reads as inf
def _submajorized_at_atoms(rf, weights, int_f, slack, mags) -> MajorizationResult:
    """g against f at g's atom boundaries, for |g| = mags, allowing int g*
    to pass int f* by `slack`. Either f* = rf, and the boundaries follow the
    order of decreasing |g|, or weights are all equal and int_f holds int f*
    at them; then only sorted values are read, so ties and the sort do not
    matter, and mags itself is sorted, scaled and summed.
    The two integrals are compared a block at a time."""
    if int_f is None:
        order = np.argsort(mags)[::-1]
        w, desc = weights[order], mags[order]
        int_f = rf.integrals(np.cumsum(w))
        int_g = np.cumsum(w * desc)
    else:
        w, int_g = weights, mags
        int_g.sort()
        int_g = int_g[::-1]
        int_g *= w
        np.cumsum(int_g, out=int_g)
    for a in range(0, int_g.size, _BLOCK):
        bad = np.flatnonzero(int_g[a : a + _BLOCK] > int_f[a : a + _BLOCK] + slack)
        if bad.size:
            i = a + bad[0]
            s_i = np.cumsum(w[: i + 1])[-1]  # cumsum adds in order: the bits of s[i]
            return MajorizationResult(
                False, float(s_i), float(int_f[i]), float(int_g[i])
            )
    return MajorizationResult(True)


@np.errstate(over="ignore")  # an overflow is reported as a NumericError
def norm(f: MeasurableFunction, which: str) -> float:
    """Norm of f in one of the benchmark spaces.

    which: "L1", "Linf", "L1plusLinf" (partial integral of the rearrangement
    over [0, 1)), or "L1capLinf" (max of L1 and Linf). A norm past float64's
    range raises NumericError.
    """
    key = which.lower()
    if key == "l1":
        value = float(np.sum(f.space.weights * np.abs(f.values)))
    elif key == "linf":
        value = float(np.max(np.abs(f.values)))
    elif key == "l1pluslinf":
        value = rearrangement(f).integral(1.0)
    elif key == "l1caplinf":
        value = max(norm(f, "L1"), norm(f, "Linf"))
    else:
        raise InputError(f"unknown norm {which!r}")
    return _finite(value, f"{which} norm")


class OrliczFunction:
    """The Orlicz function phi(u) = u^p, held as its exponent p."""

    def __init__(self, p: float):
        if not 1 <= p < np.inf:  # also rejects NaN
            raise InputError("power Orlicz functions need a finite p >= 1")
        self.p = float(p)

    @classmethod
    def power(cls, p: float):
        return cls(p)


def _pth_root(x: np.ndarray, p: float):
    """(r, q) with x^(1/p) = r 2^q, r in (1/8, 4), for positive floats x.

    x ** (1/p) would be off by up to |ln x| ulps, as 1/p is rounded. So for
    x = m 2^k and p = num / den, |k| = q p + i + g / den in integers, with
    i < p and g = 0 for an integer p, and only (m 2^+-i)^(1/p) and
    2^(+-g / (den p)) are rounded.
    """
    m, k = np.frexp(x)
    num, den = p.as_integer_ratio()
    ks = np.arange(k.min(), k.max() + 1)  # at most 2098 exponents
    k -= ks[0]  # now a row of the tables q, i, g
    qig = [(q,) + divmod(r, den) for q, r in (divmod(abs(j) * den, num) for j in ks.tolist())]
    q, i, g = np.array(qig, dtype=np.int64).T * np.sign(ks)
    np.ldexp(m, i.astype(k.dtype)[k], out=m)
    m **= 1.0 / p
    m *= np.exp2(g / den / p)[k]
    return m, q.astype(k.dtype)[k]


@np.errstate(over="ignore")  # an overflow is reported as a NumericError
def luxemburg_norm(f: MeasurableFunction, phi: OrliczFunction) -> float:
    """Luxemburg norm, the least a with sum_i w_i phi(|v_i| / a) <= 1: for
    phi(u) = u^p, (sum_i u_i^p)^(1/p) with u_i = w_i^(1/p) |v_i|.

    Each u_i is held as a mantissa and a power of two, so no weight and
    modulus leave float64's range together, and is divided by the largest:
    each term is at most 1 and the largest is 1, so one that underflows is
    negligible and the sum cannot overflow. The zero function has norm 0; a
    norm past float64's range raises NumericError.
    """
    u, e = np.frexp(np.abs(f.values))
    if not u.any():
        return 0.0
    p, w = phi.p, f.space.weights
    # the root of equal weights is taken once, of the first
    r, q = _pth_root(w[:1] if w.min() == w.max() else w, p)
    u *= r  # in (1/16, 4), or 0 where v_i = 0
    e += q
    top = int(np.max(e, where=u > 0, initial=np.iinfo(e.dtype).min))
    e -= top
    big = float(np.max(np.ldexp(u, e, out=u)))
    u /= big
    u **= p
    r, q = _pth_root(np.sum(u, keepdims=True), p)  # of a sum in [1, n]
    return _finite(float(np.ldexp(big * r[0], top + int(q[0]))), "Luxemburg norm")


class LorentzWeight:
    """Increasing concave piecewise-linear phi with phi(0) = 0.

    knots start at 0 and are strictly increasing; slopes[i] applies on
    [knots[i], knots[i+1]) and the last slope extends to infinity. Slopes
    must be nonnegative and non-increasing (concavity).
    """

    def __init__(self, knots, slopes):
        kn = np.asarray(knots, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        if kn.ndim != 1 or sl.ndim != 1 or kn.size != sl.size or kn.size == 0:
            raise InputError("need one slope per knot")
        if kn[0] != 0.0 or np.any(np.diff(kn) <= 0):
            raise InputError("knots must start at 0 and increase strictly")
        _finite_input("Lorentz weight data", kn, sl)
        if np.any(sl < 0) or np.any(np.diff(sl) > 0):
            raise InputError("slopes must be nonnegative and non-increasing")
        self.knots = kn
        self.slopes = sl
        with np.errstate(over="ignore"):  # as in Rearrangement
            self._knot_values = np.concatenate(([0.0], np.cumsum(sl[:-1] * np.diff(kn))))

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):  # also rejects NaN
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


@np.errstate(over="ignore", invalid="ignore")  # reported as a NumericError
def lorentz_norm(f: MeasurableFunction, w: LorentzWeight) -> float:
    """Exact Stieltjes integral of the rearrangement against dphi.

    The rearrangement is a step function, so the integral collapses to
    sum_i plateau_i * (phi(t_i) - phi(t_{i-1})). A norm past float64's range
    raises NumericError.
    """
    r = rearrangement(f)
    bp = r.breakpoints
    pv = np.empty(bp.size)
    for a in range(0, bp.size, _BLOCK):
        pv[a : a + _BLOCK] = w.evaluate(bp[a : a + _BLOCK])
    # the differences phi(t_i) - phi(t_(i-1)) in place: pv[i + 1] is read
    # before pv[i] is written
    d = np.subtract(pv[1:], pv[:-1], out=pv[:-1])
    d *= r.plateaus
    return _finite(float(np.sum(d)), "Lorentz norm")
