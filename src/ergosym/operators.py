"""Operators on atomic measure spaces and their contraction certificates.

An operator is Dunford-Schwartz (DS) when it contracts both the L1 and the
Linf norm. On a weighted atom set both conditions reduce to finite sums:
L1 contraction holds iff every weighted column sum of the kernel stays
within the target atom's weight, Linf contraction iff every row sum of
moduli stays within 1. `ds_certificate` evaluates exactly these sums, so
the certificate is necessary and sufficient, not just sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .spaces import AtomicMeasureSpace, MeasurableFunction

# slack allowed in contraction sums before a certificate fails
DS_TOL = 1e-12
# componentwise slack allowed in modulus domination checks
DOMINATION_TOL = 1e-9


def _check_measure_preserving(pm: np.ndarray, space: AtomicMeasureSpace) -> None:
    """Require an in-range point map to be a bijection matching weights
    within 1e-12 (relative to the largest weight, floored at 1). A map of
    the atom set into itself is a bijection iff no atom is hit twice."""
    if np.bincount(pm, minlength=space.n_atoms).max() > 1:
        raise InputError("measure-preserving map must be a bijection")
    w = space.weights
    if np.max(np.abs(w[pm] - w)) > 1e-12 * max(1.0, float(np.max(w))):
        raise InputError("measure-preserving map must match weights")


@dataclass(eq=False)
class KernelOperator:
    """Dense kernel operator (Tf)_i = sum_j K[i, j] f_j."""

    matrix: np.ndarray
    space: AtomicMeasureSpace

    def __post_init__(self):
        k = np.asarray(self.matrix, dtype=complex)
        n = self.space.n_atoms
        if k.shape != (n, n):
            raise InputError(f"kernel must be {n}x{n} for this space")
        if not np.all(np.isfinite(k)):
            raise InputError("kernel entries must be finite")
        self.matrix = k

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v


@dataclass(eq=False)
class CompositionOperator:
    """Weighted composition (Tf)_i = multiplier_i * f[point_map_i].

    Applying T costs one gather per atom, so large windows stay cheap.
    When declared measure-preserving the point map must be a bijection
    matching weights within 1e-12.
    """

    point_map: np.ndarray
    multiplier: np.ndarray
    space: AtomicMeasureSpace
    measure_preserving: bool = False

    def __post_init__(self):
        n = self.space.n_atoms
        pm = np.asarray(self.point_map, dtype=int)
        mult = np.asarray(self.multiplier, dtype=complex)
        if pm.shape != (n,) or mult.shape != (n,):
            raise InputError("point map and multiplier must have one entry per atom")
        if np.any(pm < 0) or np.any(pm >= n):
            raise InputError("point map leaves the atom set")
        if not np.all(np.isfinite(mult)):
            raise InputError("multiplier must be finite")
        if np.any(np.abs(mult) > 1.0 + DS_TOL):
            raise InputError("multiplier magnitudes must stay within 1")
        if self.measure_preserving:
            _check_measure_preserving(pm, self.space)
        self.point_map = pm
        self.multiplier = mult

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        return self.multiplier * v[self.point_map]


Operator = KernelOperator | CompositionOperator


def apply(T: Operator, f: MeasurableFunction) -> MeasurableFunction:
    """Apply T to f; the function must live on the operator's space."""
    if not T.space.is_compatible(f.space):
        raise InputError("operator and function live on different spaces")
    return MeasurableFunction(T.apply_values(f.values), T.space)


@dataclass(frozen=True)
class DSReport:
    """Contraction sums and the verdicts derived from them.

    worst_column_sum = max_j sum_i w_i |K[i, j]| / w_j  (L1 side)
    worst_row_sum    = max_i sum_j |K[i, j]|            (Linf side)
    """

    l1_ok: bool
    linf_ok: bool
    worst_column_sum: float
    worst_row_sum: float

    @property
    def ds_ok(self) -> bool:
        return self.l1_ok and self.linf_ok


def _contraction_sums(T: Operator) -> tuple[float, float]:
    w = T.space.weights
    if isinstance(T, KernelOperator):
        a = np.abs(T.matrix)
        col = float(np.max((w @ a) / w))
        row = float(np.max(np.sum(a, axis=1)))
        return col, row
    m = np.abs(T.multiplier)
    col_mass = np.zeros(T.space.n_atoms)
    np.add.at(col_mass, T.point_map, w * m)
    return float(np.max(col_mass / w)), float(np.max(m))


def ds_certificate(T: Operator) -> DSReport:
    """Exact L1/Linf contraction certificate for a kernel or composition."""
    col, row = _contraction_sums(T)
    return DSReport(
        l1_ok=col <= 1.0 + DS_TOL,
        linf_ok=row <= 1.0 + DS_TOL,
        worst_column_sum=col,
        worst_row_sum=row,
    )


def linear_modulus(T: Operator) -> Operator:
    """Entrywise modulus |T|.

    |T| realizes sup{|T g| : |g| <= f} for f >= 0 and shares T's operator
    norms on L1 and Linf (the contraction sums only see moduli).
    """
    if isinstance(T, KernelOperator):
        return KernelOperator(np.abs(T.matrix), T.space)
    return CompositionOperator(
        T.point_map, np.abs(T.multiplier), T.space, T.measure_preserving
    )


def adjoint(T: KernelOperator) -> KernelOperator:
    """Adjoint for the weighted pairing <u, v> = sum_i w_i u_i conj(v_i).

    K*[j, i] = conj(K[i, j]) * w_i / w_j; applying it twice returns K.
    """
    if not isinstance(T, KernelOperator):
        raise InputError("adjoints are provided for kernel operators")
    w = T.space.weights
    k_adj = np.conj(T.matrix).T * (w[np.newaxis, :] / w[:, np.newaxis])
    return KernelOperator(k_adj, T.space)


def pairing(
    f: MeasurableFunction, g: MeasurableFunction
) -> complex:
    """Weighted sesquilinear pairing sum_i w_i f_i conj(g_i)."""
    if not f.space.is_compatible(g.space):
        raise InputError("pairing needs a common space")
    return complex(np.sum(f.space.weights * f.values * np.conj(g.values)))


@dataclass(frozen=True)
class DominationResult:
    """Worst componentwise slack of |T|^k |f| - |T^k f| over k = 1..kmax."""

    ok: bool
    min_slack: float
    at: tuple[int, int] | None = None  # (power k, atom index)

    def __bool__(self) -> bool:
        return self.ok


def modulus_domination_check(
    T: Operator, f: MeasurableFunction, kmax: int, tol: float = DOMINATION_TOL
) -> DominationResult:
    """Verify |T^k f| <= |T|^k |f| componentwise for k = 1..kmax."""
    if kmax < 1:
        raise InputError("kmax must be at least 1")
    if not T.space.is_compatible(f.space):
        raise InputError("operator and function live on different spaces")
    mod = linear_modulus(T)
    g = f.values.copy()
    h = np.abs(f.values)
    min_slack = np.inf
    where: tuple[int, int] | None = None
    for k in range(1, kmax + 1):
        g = T.apply_values(g)
        h = mod.apply_values(h).real
        slack = h - np.abs(g)
        i = int(np.argmin(slack))
        if slack[i] < min_slack:
            min_slack = float(slack[i])
            where = (k, i)
    return DominationResult(min_slack >= -tol, min_slack, where)


def adjoint_modulus_commutation(T: KernelOperator, tol: float = DS_TOL) -> bool:
    """Check |T*| == |T|* entrywise within tol."""
    lhs = linear_modulus(adjoint(T)).matrix
    rhs = adjoint(linear_modulus(T)).matrix
    return float(np.max(np.abs(lhs - rhs))) <= tol


def signed_shift_operator(
    breakpoints, grid: int, window: int
) -> CompositionOperator:
    """Unit shift with a sign flip on the cell before each breakpoint.

    The interval (0, window) is cut into window * grid atoms of weight
    1/grid. The operator reads the value one unit to the right and
    multiplies by the cell sign: -1 on unit cells [n-1, n) for each
    breakpoint n, +1 elsewhere. Atoms whose shift leaves the window get
    multiplier 0 (absorbing edge), which keeps the contraction certificate
    intact. The averages of interest sit on (0, 1) and never reach the edge.
    """
    bps = [int(b) for b in breakpoints]
    if len(bps) == 0 or bps[0] < 1 or any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        raise InputError("breakpoints must be strictly increasing integers >= 1")
    if any(int(b) != float(b) for b in np.asarray(breakpoints).tolist()):
        raise InputError("breakpoints must be integers")
    if grid < 1 or int(grid) != grid:
        raise InputError("grid must be a positive integer (atoms per unit cell)")
    if window < bps[-1]:
        raise InputError(
            f"window {window} is shorter than the last breakpoint {bps[-1]}"
        )
    grid = int(grid)
    n_atoms = int(window) * grid
    space = AtomicMeasureSpace(np.full(n_atoms, 1.0 / grid), truncated=True)
    cells = np.arange(n_atoms) // grid
    neg = np.isin(cells, np.asarray(bps) - 1)
    mult = np.where(neg, -1.0, 1.0).astype(complex)
    absorbed = np.arange(n_atoms) + grid >= n_atoms
    mult[absorbed] = 0.0
    pm = np.where(absorbed, np.arange(n_atoms), np.arange(n_atoms) + grid)
    return CompositionOperator(pm, mult, space)
