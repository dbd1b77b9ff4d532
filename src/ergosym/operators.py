"""Operators on atomic measure spaces and their contraction certificates.

An operator is Dunford-Schwartz (DS) when it contracts both the L1 and the
Linf norm. On a weighted atom set both conditions reduce to finite sums:
L1 contraction holds iff every weighted column sum of the kernel stays
within the target atom's weight, Linf contraction iff every row sum of
moduli stays within 1. `ds_certificate` evaluates exactly these sums, so
the certificate is necessary and sufficient, not just sufficient.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .spaces import (
    _BLOCK,
    AtomicMeasureSpace,
    MeasurableFunction,
    _count,
    _finite,
    _finite_input,
    _integers,
    _schedule,
    _slack,
)

# slack allowed in contraction sums before a certificate fails
DS_TOL = 1e-12
# a kernel adds RUN_SLOTS or more later slots of one width, up to
# RUN_WIDTH entries, in one run
RUN_SLOTS = 8
RUN_WIDTH = 2048


def _check_measure_preserving(pm: np.ndarray, space: AtomicMeasureSpace) -> None:
    """Require an in-range point map to be a bijection matching weights
    within 1e-12 (relative to the largest weight, floored at 1). A map of
    the N atoms into themselves is a bijection iff it hits every atom,
    checked in one byte per atom; on equal weights it matches them exactly,
    so w[pm] - w is not formed."""
    hit = np.zeros(space.n_atoms, dtype=bool)
    hit[pm] = True
    if not hit.all():
        raise InputError("measure-preserving map must be a bijection")
    w = space.weights
    if w.min() == w.max():
        return
    if np.max(np.abs(w[pm] - w)) > _slack(1e-12, float(np.max(w))):
        raise InputError("measure-preserving map must match weights")


def _index_dtype(size: int, n: int):
    """The width of `size` indices into range(n): int32 from one block of
    them on, when n is below 2^31, else intp. Below one block int32 would
    save under 32 KiB, less than numpy's int32 index paths cost in RSS on
    their first use."""
    return np.int32 if size >= _BLOCK and n < 2**31 else np.intp


def _index_array(x, key: str, n: int) -> np.ndarray:
    """x as a 1-d array of atom indices in range(n), of `_index_dtype`'s
    width, or InputError."""
    a = np.asarray(x)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise InputError(f"{key}: must be a list of integers")
    bad = np.flatnonzero((a < 0) | (a >= n))
    if bad.size:
        raise InputError(f"{key}[{bad[0]}]: {a[bad[0]]} is not an atom of 0..{n - 1}")
    return a.astype(_index_dtype(a.size, n), copy=False)


def _gather(v: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = v[s] for in-range indices s, read _BLOCK of them at a time:
    np.take copies indices that are not intp to intp, so an int32 map is
    copied one block at a time, never whole ("clip" skips the range check,
    which would buffer out). A float64 v read into a complex out goes in
    through its real part and the imaginary part is zeroed: v cast to
    complex, as numpy casts it in a complex product."""
    dst = out if out.dtype == v.dtype else out.real
    for a in range(0, s.size, _BLOCK):
        np.take(v, s[a : a + _BLOCK], out=dst[a : a + _BLOCK], mode="clip")
    if dst is not out:
        out.imag = 0.0
    return out


def _row_block_entries(blocks, n: int):
    """(rows, columns, values) of the nonzero entries of each row block
    (re, im) in turn, sorted by (row, column); a block's temporaries go
    with it. InputError unless each block is 2-d and n wide, with im None
    or of its shape, and the blocks hold n rows in all."""
    square = f"kernel must be {n}x{n} for this space"
    first = 0
    for re, im in blocks:
        re = np.asarray(re, dtype=float)
        im = None if im is None else np.asarray(im, dtype=float)
        if re.ndim != 2 or re.shape[1] != n:
            raise InputError(square)
        if im is not None and im.shape != re.shape:
            raise InputError("kernel: im must have the shape of re")
        nonzero = re != 0
        if im is not None:
            nonzero |= im != 0
        r, c = np.nonzero(nonzero)  # row-major, so sorted
        yield r + first, c, re[r, c] + 1j * (0.0 if im is None else im[r, c])
        first += re.shape[0]
    if first != n:
        raise InputError(square)


class KernelOperator:
    """Kernel operator (Tf)_i = sum_j K[i, j] f_j, held once, in the layout
    its rows are summed in ("jagged diagonals").

    Only nonzero entries are stored. Rows are ordered by decreasing entry
    count (a stable sort, so equal counts keep row order): row `order[i]`
    sits at row position i. Entry k of each row that has one, in column
    order, forms slot k; the rows that hold a k-th entry come first in that
    order, so slot k covers a prefix of it, m_k rows with m_0 >= m_1 >= ...
    `layout` holds slots 1, 2, ..., K - 1, then slot 0, with each entry's
    column as a row position in `layout_cols`, so T steps in row order
    without permuting. Row i holds the CSR entries `indptr[i]` to
    `indptr[i + 1]`, sorted by column, and `place` maps each of them to its
    place in the layout: 28 bytes per entry (32 below one block of entries,
    where `place` stays intp; see `_index_dtype`) and 16 per row, and no
    N x N array. `data`, `indices` and `entry_rows()` read the entries, their
    columns and their rows in that CSR order, sorted by (row, column).

    A sum over the rows copies the layout into a buffer P, followed by
    N - m_0 places that stay +0 for the rows without entries. Adding slots
    2, 3, ... into slot 1 in turn, then slot 1 into slot 0, leaves the sum
    of a row with entries a_0, ..., a_(c-1) in column order as

        a_0 + ((... ((a_1 + a_2) + a_3) ...) + a_(c-1)),

    a_0 itself for c = 1 and +0 for c = 0, in the last N places of P. The
    order holds for rows of any length; it does not follow numpy's pairwise
    blocking of long reductions, nor a BLAS build. An application costs
    O(nnz): one gather, one product and one addition per entry, and one
    in-place addition per slot after the first, K - 1 numpy calls for K
    entries in the longest row, except that a run of RUN_SLOTS or more
    slots of one width takes two or three (see `_buffer`): a dense kernel
    sums its rows in three calls, and one row longer than all others costs
    no call per entry.

    Build one from a dense matrix with `KernelOperator(matrix, space)`, from
    its real and imaginary parts with `KernelOperator.from_parts` (or a few
    rows at a time with `KernelOperator.from_row_blocks`), or from (row,
    column, value) triplets with `KernelOperator.from_triplets`.
    """

    def __init__(self, matrix, space: AtomicMeasureSpace):
        k = np.asarray(matrix, dtype=complex)
        n = space.n_atoms
        if k.shape != (n, n):
            raise InputError(f"kernel must be {n}x{n} for this space")
        rows, cols = np.nonzero(k)  # row-major, so sorted by (row, column)
        self._store(space, rows, cols, k[rows, cols])

    @classmethod
    def from_parts(cls, re, im, space: AtomicMeasureSpace):
        """K = re + 1j im for real N x N arrays re and im (None: 0), formed
        only at the entries where re or im is nonzero: no complex N x N
        array is made, and each entry has the bits of the dense sum."""
        return cls.from_row_blocks([(re, im)], space)

    @classmethod
    def from_row_blocks(cls, blocks, space: AtomicMeasureSpace):
        """K from its rows in consecutive blocks (re, im), float arrays of a
        few whole rows each (im None: 0), that together hold the N rows.
        Each entry is formed as in `from_parts`, so the entries have the
        same bits however the rows are split, and the rows never need to
        exist as one N x N array. Blocks that are not N wide, an im not of
        its re's shape, or rows that do not add up to N raise InputError."""
        entries = _row_block_entries(blocks, space.n_atoms)
        rows, cols, data = map(np.concatenate, zip(*entries))
        return cls._from_sorted(space, rows, cols, data)

    @classmethod
    def from_triplets(cls, rows, cols, data, space: AtomicMeasureSpace):
        """K[rows[t], cols[t]] = data[t], every other entry 0.

        A (row, column) pair given twice is an InputError rather than a sum,
        so each entry has one meaning. Zero values are dropped.
        """
        n = space.n_atoms
        rows, cols = _index_array(rows, "rows", n), _index_array(cols, "cols", n)
        data = np.asarray(data, dtype=complex)
        for key, a in (("cols", cols), ("data", data)):
            if a.shape != rows.shape:
                raise InputError(f"{key}: expected {rows.size} values, got {a.size}")
        order = np.lexsort((cols, rows))  # stable: repeats keep input order
        r, c = rows[order], cols[order]
        dup = np.flatnonzero((r[1:] == r[:-1]) & (c[1:] == c[:-1]))
        if dup.size:
            i, j = order[dup[0]], order[dup[0] + 1]
            raise InputError(
                f"cols[{j}]: entry ({r[dup[0]]}, {c[dup[0]]}) is already"
                f" given at index {i}"
            )
        del r, c  # the sorted copies go before the layout is made
        order = order[(data != 0)[order]]  # zero values are dropped
        return cls._from_sorted(space, rows, cols, data, order)

    @classmethod
    def _from_sorted(cls, space, rows, cols, data, order=None):
        """An operator from entries sorted by (row, column) through order:
        entry order[r] of rows, cols and data is the r-th (None: entry r)."""
        op = cls.__new__(cls)
        op._store(space, rows, cols, data, order)
        return op

    def _store(self, space, rows, cols, data, order=None) -> None:
        """Lay out the entries, CSR entry r being entry order[r] (None:
        entry r): they are scattered into the layout through order a block
        at a time, so no sorted copy of them is made."""
        _finite_input("kernel entries", data)
        n = space.n_atoms
        nnz = rows.size if order is None else order.size
        counts = np.bincount(rows if order is None else rows[order], minlength=n)
        self.space = space
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.order = np.argsort(-counts, kind="stable")
        pos = self.unpermute(np.arange(n))  # the row position of each row
        start = self._slots()[1]
        self.place = np.empty(nnz, _index_dtype(nnz, nnz))
        self.layout = np.empty(nnz, data.dtype)
        self.layout_cols = np.empty(nnz, dtype=np.intp)
        for a in range(0, nnz, _BLOCK):
            b = min(a + _BLOCK, nnz)
            src = slice(a, b) if order is None else order[a:b]
            r = rows[src]
            # entry k of a row sits in slot k, at the row's position
            place = start[np.arange(a, b) - self.indptr[r]] + pos[r]
            self.place[a:b] = place
            self.layout[place] = data[src]
            self.layout_cols[place] = pos[cols[src]]

    @property
    def data(self) -> np.ndarray:
        """The stored entries, in CSR order."""
        return self.layout[self.place]

    @property
    def indices(self) -> np.ndarray:
        """The column of each stored entry, in CSR order."""
        return self.order[self.layout_cols[self.place]]

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry, aligned with `indices` and `data`."""
        return np.repeat(np.arange(self.space.n_atoms), np.diff(self.indptr))

    def _slots(self):
        """The width m[k] of each slot k (m[1] = 0 when no row has two
        entries) and its start in the layout: slot k >= 1 after slots
        1..k-1, slot 0 after them all."""
        counts = np.diff(self.indptr)
        filled = np.count_nonzero(counts)
        m = counts.size - np.cumsum(np.bincount(counts, minlength=3))[:-1]
        start = np.cumsum(m) - m - filled
        start[:1] = self.indptr[-1] - filled
        return m, start

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        """Per-row sums of per-entry values x (in CSR order), in atom order,
        added in the layout's order; +0 on rows without entries."""
        P, steps, out = self._buffer(x.dtype)
        P[self.place] = x
        _add_slots(steps)
        return self.unpermute(out)

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        return self.unpermute(self.stepper()(v[self.order]))

    def stepper(self):
        """A function g -> T g for complex g in row order. Each result is a
        view of one buffer, overwritten by the next call."""
        P, steps, out = self._buffer(complex)
        entries, data, cols = P[: self.layout.size], self.layout, self.layout_cols

        def step(g):
            np.multiply(data, g[cols], out=entries)
            _add_slots(steps)
            return out

        return step

    def _buffer(self, dtype):
        """A zeroed buffer P, the steps (x, y, run) that sum the rows in
        order (see `_add_slots`), and the view of the sums. The views are
        cut once, here.

        Later slots of one width m lie side by side in P, so RUN_SLOTS or
        more of them, from slot k on, form a (count, m) block, summed as
        one run. A run needs m <= RUN_WIDTH: it makes one more pass over m
        entries than the additions it replaces, which costs more than the
        calls it saves when the slots are wide and few. The slots of width
        1, the longest row's entries past the second-longest row's, form a
        run held as one column: numpy adds the rows of a block one after
        another, but sums a single column pairwise, so that run is
        accumulated in order instead.
        """
        widths, start = self._slots()
        head, width = int(start[0]), int(widths[1])  # slot 0 and the sums; slot 1
        P = np.zeros(head + self.order.size, dtype=dtype)
        acc = P[:width]
        steps = []
        later = zip(start[2:].tolist(), widths[2:].tolist())
        for m, slots in groupby(later, key=itemgetter(1)):
            starts = [a for a, _ in slots]
            if m <= RUN_WIDTH and len(starts) >= RUN_SLOTS:
                a = starts[0]
                run = P[a : a + len(starts) * m]
                if m > 1:
                    run = run.reshape(-1, m)
                steps.append((acc[:m], P[a : a + m], run))
            else:
                steps.extend((acc[:m], P[a : a + m], None) for a in starts)
        if width:
            steps.append((P[head : head + width], acc, None))
        return P, steps, P[head:]

    def unpermute(self, r: np.ndarray) -> np.ndarray:
        """A vector in row order as a new vector in atom order."""
        out = np.empty_like(r)
        out[self.order] = r
        return out


def _add_slots(steps) -> None:
    """Run a kernel's steps (x, y, run): x += y in place, or for a run x +=
    its slots in order, the first of them y. The run's first row is
    overwritten by x + y, and one np.add.reduce adds the rows into x, in
    order: the bits of one addition per slot, in one numpy call. The
    reduction starts from -0.0, which leaves every value as it is; numpy 2
    starts an add reduction from +0.0, which turns a first row's -0.0 into
    +0.0. A run of width 1 is one column: np.add.accumulate turns it into
    its running sums in place, in order and from its first entry as it is,
    and x reads the last."""
    for x, y, run in steps:
        if run is None:
            np.add(x, y, out=x)
        else:
            np.add(x, y, out=y)
            if run.ndim == 1:
                np.add.accumulate(run, out=run)
                x[0] = run[-1]
            else:
                np.add.reduce(run, axis=0, out=x, initial=-run.dtype.type(0))


class CompositionOperator:
    """Weighted composition (Tf)_i = multiplier_i * f[point_map_i].

    Applying T costs one gather per atom, so large windows stay cheap. The
    point map is held as int32 from one block of atoms on (see
    `_index_dtype`), 4 bytes per atom, and read a block at a time by
    `_gather`; a smaller map stays intp. When declared measure-preserving
    the point map must be a bijection matching weights within 1e-12. A
    multiplier given without a complex dtype is held as float64: numpy
    casts it to complex inside each complex product, so T f has the bits of
    the complex multiplier with imaginary part +0.0, at half the memory.
    One whose entries are all exactly -1, +0 or +1 is held as int8 signs,
    which numpy casts to the same complex values, at an eighth of that; a
    broadcast one, such as the default 1.0, is kept as it is. An int8
    multiplier is held as it is, without the float64 round trip.
    """

    def __init__(
        self, point_map, multiplier, space: AtomicMeasureSpace,
        measure_preserving: bool = False,
    ):
        n = space.n_atoms
        mult = np.asarray(multiplier)
        signed = mult.dtype == np.int8
        if not signed:
            mult = mult.astype(complex if mult.dtype.kind == "c" else float, copy=False)
        if np.shape(point_map) != (n,) or mult.shape != (n,):
            raise InputError("point map and multiplier must have one entry per atom")
        pm = _index_array(point_map, "map", n)
        if signed:  # |-128| wraps to -128 in int8, so the range is read
            too_large = mult.min() < -1 or mult.max() > 1
        else:
            _finite_input("multiplier", mult)
            too_large = np.any(np.abs(mult) > 1.0 + DS_TOL)
        if too_large:
            raise InputError("multiplier magnitudes must stay within 1")
        if measure_preserving:
            _check_measure_preserving(pm, space)
        if mult.dtype == float and mult.strides != (0,):
            signs = mult.astype(np.int8)  # in range: |mult| <= 1 + DS_TOL
            # -0.0 == 0, but its sign would be lost
            if np.array_equal(signs, mult) and not np.signbit(mult[signs == 0]).any():
                mult = signs
        self.point_map = pm
        self.multiplier = mult
        self.space = space
        self.measure_preserving = measure_preserving

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        g = _gather(v, self.point_map, np.empty(self.point_map.size, v.dtype))
        m = self.multiplier
        return np.multiply(m, g, out=g if np.result_type(m, g) == g.dtype else None)


Operator = KernelOperator | CompositionOperator


def apply(T: Operator, f: MeasurableFunction) -> MeasurableFunction:
    """Apply T to f; the function must live on the operator's space."""
    if not T.space.is_compatible(f.space):
        raise InputError("operator and function live on different spaces")
    return MeasurableFunction(T.apply_values(f.values), T.space)


class DSReport(NamedTuple):
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
        a = np.abs(T.data)
        col_mass = np.bincount(T.indices, w[T.entry_rows()] * a, T.space.n_atoms)
        return float(np.max(col_mass / w)), float(np.max(T.row_sums(a)))
    # np.add.at adds in index order, as np.bincount does, but reads an
    # int32 or read-only map in place, where np.bincount copies it to intp
    m = np.abs(T.multiplier)
    col_mass = np.zeros(T.space.n_atoms)
    np.add.at(col_mass, T.point_map, w * m)
    return float(np.max(col_mass / w)), float(np.max(m))


def ds_certificate(T: Operator) -> DSReport:
    """Exact L1/Linf contraction certificate for a kernel or composition; a
    sum past float64's range raises NumericError."""
    with np.errstate(over="ignore"):
        col, row = _contraction_sums(T)
    _finite(col, "worst column sum")
    _finite(row, "worst row sum")
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
        return KernelOperator._from_sorted(
            T.space, T.entry_rows(), T.indices, np.abs(T.data)
        )
    return CompositionOperator(
        T.point_map, np.abs(T.multiplier), T.space, T.measure_preserving
    )


def adjoint(T: KernelOperator) -> KernelOperator:
    """Adjoint for the weighted pairing <u, v> = sum_i w_i u_i conj(v_i).

    K*[j, i] = conj(K[i, j]) * w_i / w_j; applying it twice returns K. The
    entries are transposed by a stable sort on the column, which keeps each
    new row in column order. K* keeps K's pattern even where an entry
    underflows to 0, so |K*| and |K|* always share one.
    """
    if not isinstance(T, KernelOperator):
        raise InputError("adjoints are provided for kernel operators")
    w = T.space.weights
    i, j = T.entry_rows(), T.indices
    return KernelOperator._from_sorted(
        T.space, j, i, np.conj(T.data) * (w[i] / w[j]), np.argsort(j, kind="stable")
    )


def pairing(
    f: MeasurableFunction, g: MeasurableFunction
) -> complex:
    """Weighted sesquilinear pairing sum_i w_i f_i conj(g_i), summed as
    complex values whatever the functions' dtypes."""
    if not f.space.is_compatible(g.space):
        raise InputError("pairing needs a common space")
    gc = np.conj(g.values.astype(complex, copy=False))
    return complex(np.sum(f.space.weights * f.values * gc))


def adjoint_modulus_commutation(T: KernelOperator, tol: float = DS_TOL) -> bool:
    """Check |T*| == |T|* entrywise within tol. Both sides hold the
    transpose of T's pattern, so their CSR data arrays align entry by entry."""
    lhs = linear_modulus(adjoint(T)).data
    rhs = adjoint(linear_modulus(T)).data
    return float(np.max(np.abs(lhs - rhs), initial=0.0)) <= tol


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
    The signs are int8, one per unit cell repeated over its atoms: with the
    point map, int32 from one block of atoms on, the operator holds 5 bytes
    per atom (9 below one block, where the map stays intp).
    """
    bps = _schedule(breakpoints, "breakpoints")
    grid = _count(grid, "grid")
    (window,) = _integers((window,), "window")
    if window < bps[-1]:
        raise InputError(
            f"window {window} is shorter than the last breakpoint {bps[-1]}"
        )
    n_atoms = window * grid
    space = AtomicMeasureSpace.uniform(n_atoms, 1.0 / grid, truncated=True)
    signs = np.ones(window, dtype=np.int8)  # one sign per unit cell
    signs[np.asarray(bps) - 1] = -1
    mult = np.repeat(signs, grid)
    # the last cell's shift leaves the window: it is absorbed, in place
    mult[-grid:] = 0
    pm = np.arange(n_atoms, dtype=_index_dtype(n_atoms, n_atoms))
    pm[:-grid] += grid  # the last cell's atoms map to themselves
    return CompositionOperator(pm, mult, space)
