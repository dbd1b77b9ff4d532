"""Streaming Cesaro and weighted ergodic averages with checkpoint reports.

Averages a_n = (1/n) sum_{k<n} beta_k T^k f are reported at requested
checkpoints by one of three lanes:

- A composition (Tf)_i = m_i f[s(i)] is lifted. T^a is again a composition
  (s^a, m_a), with s^(2a) = s^a[s^a] and m_(2a) = m_a m_a[s^a], and sums
  split exactly: S_(a+b) = S_a + (beta shifted by a) T^a S_b. The lane holds
  T^c with the sum S_c, so a gap equal to c doubles both, with one
  composition and one shifted sum: a geometric checkpoint list costs
  O(N log n) for N atoms and horizon n, instead of O(N n). Any other gap d
  extends the sum through the binary digits of d, in O(N log d), holding
  one power of T at a time beside what the lane carries, and one spare
  N-vector for the updates. A periodic gap is lifted by T^p from whatever
  residue it starts at, and no n-long table is held while the lane runs.
- A probe-only run without norms on a composition follows just the probe
  atoms' orbits, so its cost does not grow with the number of atoms.
- Kernel operators, and explicit weights on any operator, stream: one
  operator application per step into one running Kahan-compensated sum,
  with beta_k read as table[k % p] from a period-p table (a periodic,
  constant or explicit weight's own). A kernel steps in the row order of
  its one stored layout (see `operators.KernelOperator`) on fixed buffers:
  f is permuted in once and each checkpoint's sum out once. A step costs
  O(nnz) for its nnz stored entries rather than O(N^2), and its sums do not
  depend on a BLAS build.

A weighted run reads its weights through one rule for every lane: one
table t with beta_k = t[k % t.size] (a periodic, constant or explicit
weight's own, the n values of the other kinds), and from it one bound
M = max(1, max_(k<n) |beta_k|), a lambda_power's powers on the lifted lane
and beta_k on the Kahan lanes.

Each running sum is handed, at its checkpoint, to the report's consumers
in one fixed order: the probe values read total[probes] / n, the L1 and
Linf norms and then, with `majorize`, the majorization flag each fill one
float64 moduli buffer from the sum a block at a time, and the average
a_n = total / n is made only when `store_averages` keeps it. The buffer
is the bytes of a complex N-vector that the lane yields idle beside the
sum, so a run that keeps no average holds the lane's few N-vectors and C
report rows for C checkpoints. An average or its L1 norm that overflows
float64 raises NumericError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, CapabilityError, InputError
from .operators import CompositionOperator, Operator, _gather
from .spaces import (
    _BLOCK,
    MAJORIZATION_TOL,
    MeasurableFunction,
    _atoms,
    _count,
    _finite,
    _schedule,
    submajorization_check,
)
from .weights import WeightSequence, _max_modulus

# default cap on the last checkpoint, the number of terms averaged per run
DEFAULT_BUDGET = 1_000_000


def geometric_checkpoints(limit: int) -> tuple[int, ...]:
    """Powers of two up to `limit`, with `limit` itself appended."""
    limit = _count(limit, "checkpoint limit")
    cps = []
    n = 1
    while n <= limit:
        cps.append(n)
        n *= 2
    if cps[-1] != limit:
        cps.append(limit)
    return tuple(cps)


def _horizon(checkpoints, max_iterations: int) -> tuple[int, ...]:
    """Validated checkpoints whose last one fits the iteration budget, a
    count by `_count`."""
    cps = _schedule(checkpoints, "checkpoints")
    max_iterations = _count(max_iterations, "max_iterations")
    if cps[-1] > max_iterations:
        raise BudgetError(
            f"last checkpoint {cps[-1]} exceeds the iteration budget {max_iterations}"
        )
    return cps


class AveragingReport:
    """Per-checkpoint averages, norms, and probe values.

    `averages` is populated only by runs with `store_averages`; the others
    keep just the probe columns (norms are still exact, they are read off
    the running sum at checkpoint time). Runs with `norms=False` leave `l1_norms` and
    `linf_norms` as None. `weight_bound` is the normalization constant
    M = max(1, sup_k |beta_k|) for weighted runs, None for plain Cesaro.
    `majorized` is filled by a run with `majorize=True` or by
    `majorization_trace`.
    """

    def __init__(
        self,
        checkpoints: tuple[int, ...],
        probes: tuple[int, ...],
        probe_values: np.ndarray,
        l1_norms: np.ndarray | None,
        linf_norms: np.ndarray | None,
        averages: tuple[MeasurableFunction, ...] | None = None,
        weight_bound: float | None = None,
        majorized: tuple[bool, ...] | None = None,
    ):
        self.checkpoints = checkpoints
        self.probes = probes
        self.probe_values = probe_values
        self.l1_norms = l1_norms
        self.linf_norms = linf_norms
        self.averages = averages
        self.weight_bound = weight_bound
        self.majorized = majorized


def _orbit(step, g, steps):
    """g, step(g), step(step(g)), ...: `steps` vectors, one step per term.
    A kernel's stepper overwrites each yielded vector by the next step."""
    for k in range(steps):
        yield g
        if k + 1 < steps:
            g = step(g)


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
            # the positions stay intp, cast in place from an int32 map:
            # numpy indexes by int32 more slowly
            pos[:] = T.point_map[pos]


def _kahan_sums(orbit, table, width, cps):
    """Running sums of beta_k g_k over the orbit, beta_k = table[k % p] for
    a table of p weights (None: every beta_k = 1), yielded at each
    checkpoint beside the idle buffer t. Both are overwritten by the steps
    that follow."""
    # Kahan state and step buffers, updated in place; total and t swap
    total, comp, y, t = (np.zeros(width, dtype=complex) for _ in range(4))
    term = np.empty(width, dtype=complex) if table is not None else None
    ptr = 0
    for k, g in enumerate(orbit):
        if table is not None:
            g = np.multiply(table[k % table.size], g, out=term)
        # Kahan step: the compensation vector carries the lost low bits
        np.subtract(g, comp, out=y)
        np.add(total, y, out=t)
        np.subtract(t, total, out=comp)
        np.subtract(comp, y, out=comp)
        total, t = t, total
        if k + 1 == cps[ptr]:
            yield total, t
            ptr += 1


# A power T^a of a composition is the composition (s^a, m_a), kept as the
# pair (point map, multiplier): (T^a v)_i = m_a[i] v[s^a[i]]. s^a has the
# width of T's map, int32 from one block of atoms on, and every read
# through it goes through `operators._gather`.


def _compose(a, b):
    """The pair of T^(x+y) from the pairs a of T^x and b of T^y; None stands
    for T^0."""
    if a is None or b is None:
        return b if a is None else a
    (sa, ma), (sb, mb) = a, b
    m = _gather(mb, sa, np.empty(sa.size, mb.dtype))
    m *= ma  # products commute bit for bit, complex ones too
    return _gather(sb, sa, np.empty_like(sb)), m


def _shifted(op, v, scale=None, out=None):
    """scale * T^x v for the pair op of T^x (None: 1), written into out
    when given, else into a new vector of the product's dtype. A float64 v
    read into a complex vector is cast by `_gather`, without an N-long
    temporary."""
    s, m = op
    if out is None:
        out = np.empty(s.size, np.result_type(v, m, 1.0 if scale is None else scale))
    _gather(v, s, out)
    out *= m
    if scale is not None:
        out *= scale
    return out


def _at(pows, e):
    """lam^e from one term's powers; None stands for lam = 1."""
    return None if pows is None else pows[e]


def _power(op, e):
    """The pair of T^e for e >= 1, by repeated squaring."""
    acc = None
    while True:
        if e & 1:
            acc = op if acc is None else _compose(acc, op)
        e >>= 1
        if not e:
            return acc
        op = _compose(op, op)


def _segment(op, blocks, d, pows, g):
    """R_j = sum_{k<d} lam_j^k T^k v for each term j, and the vector g moved
    on by T^d (d >= 1; a g of None stays None).

    blocks[j] holds v on entry and is doubled in place, so a caller may
    hand over a buffer it no longer needs; pows[j] maps an exponent e to
    lam_j^e (None for lam_j = 1). The digits of d are read low to high with
    P = T^e and the block sums A_j = S_e(v), e = 2^i. A set digit turns
    R_j = S_a(v), a < e, into S_(e+a)(v) = A_j + lam^e P R_j and g into P g.
    Then A_j = S_(2e)(v) = A_j + lam^e P A_j and P = T^(2e) = P P, so only
    the current power of T is ever held.
    """
    sums = [None] * len(blocks)
    e = 1
    while True:
        if d & e:
            for j, (A, pw) in enumerate(zip(blocks, pows)):
                if sums[j] is None:  # the top digit takes A itself
                    sums[j] = A if d < 2 * e else A.copy()
                else:
                    sums[j] = _shifted(op, sums[j], _at(pw, e))
                    sums[j] += A
            if g is not None:
                g = _shifted(op, g)
        if d < 2 * e:
            return sums, g
        for A, pw in zip(blocks, pows):
            A += _shifted(op, A, _at(pw, e))  # A + x has the bits of x + A
        op = _compose(op, op)
        e *= 2


def _lifted_terms(beta, table, cps):
    """terms (z_j, powers of lam_j) for `_lifted_sums`, with beta_k =
    sum_j z_j lam_j^k, the powers at every exponent `_lifted_sums` reads:
    each segment start and each 2^i below the widest gap. Cesaro and periodic
    weights give one term with lam = 1 (None); a lambda_power reads its
    powers off `table`, the run's table of its n values.
    """
    if beta is None or beta.kind == "periodic":
        return [(1.0, None)]
    n = cps[-1]
    gaps = np.diff((0,) + cps)
    ks = {0, *cps[:-1]} | {1 << i for i in range(int(gaps.max()).bit_length())}
    ks = np.array(sorted(k for k in ks if k < n), dtype=np.int64)
    if beta.kind == "lambda_power":
        return [(1.0, dict(zip(ks.tolist(), table[ks])))]
    return [
        (t.coefficient, dict(zip(ks.tolist(), t.powers(ks, n))))
        for t in beta.poly.terms
    ]


def _combined(terms, sums):
    """sum_j z_j S_j; for a single term with z = 1, its sum itself."""
    if len(sums) == 1 and terms[0][0] == 1:
        return sums[0]
    total = np.zeros_like(sums[0])
    for (z, _), S in zip(terms, sums):
        total += z * S
    return total


def _lifted_sums(T, f, table, terms, cps):
    """Running sums at each checkpoint for a composition T.

    The lane holds one sum per weight term: S_j = sum_(k<c) lam_j^k T^k f
    for geometric weights (Cesaro, lambda_power, trig_poly), or the weighted
    sum itself for a periodic weight, beta_k = table[k % p] (table None for
    the others). A gap equal to c doubles:
    S_(2c) = S_c + w T^c S_c and T^(2c) = T^c T^c, with w = lam_j^c, or 1
    for a periodic weight whose period p divides c. A geometric checkpoint
    list thus takes one composition and one shifted sum per checkpoint,
    O(N log n) in all. A doubling after a gap that did not double first
    builds T^c by `_power`, in O(N log c).

    Any other gap d extends the sums from T^c f by `_segment`, in
    O(N log d): geometric weights as S_j(c+d) = S_j(c) + lam_j^c R_j(T^c f, d).
    Periodic weights lift U = T^p from whatever residue c starts the gap:
    the q = d // p whole periods add sum_(r<p) b_((c+r) mod p) T^r V with
    V = sum_(q'<q) U^q' T^c f, in p - 1 applications, and the d mod p steps
    after the last whole period are taken one application at a time.
    Geometric weights run the same loop with p = 1, where both are empty.

    One spare N-vector serves the whole run: a doubling writes each new sum
    into it and keeps the old sum's buffer as the next spare, and a gap of
    geometric weights doubles its first block in it; it is idle at every
    checkpoint, and yielded beside the sum. Between checkpoints the lane
    holds T^c f, stepped to through each gap, or the pair of T^c from a
    doubling on when the weights are geometric and every multiplier entry
    is -1, 0 or +1 (int8 signs, or one broadcast value such as the default
    1.0): products of signs are exact in any order, so T^c f built from
    T^c into the spare has the bits of the stepped one. A gap of signs moves
    nothing on; T^c is built again by `_power` when next read.
    """
    periodic = table is not None
    p = table.size if periodic else 1
    pows = [pw for _, pw in terms]
    m = T.multiplier
    op = (T.point_map, m)
    pairs = not periodic and (
        m.dtype == np.int8 or (m.strides == (0,) and m[0] in (-1, 0, 1))
    )
    lift = None
    # every sum starts at zeros, so none holds a negative zero
    sums = [np.zeros(T.space.n_atoms, dtype=complex) for _ in terms]
    spare = np.empty_like(sums[0])
    # T^c f and the pair of T^c, each None when not at hand
    g, pc, c = f.values, None, 0

    def steps(g, c, stop):
        """Adds b_(k mod p) T^(k-c) g to the periodic sum for c <= k < stop;
        returns T^(stop-c) g."""
        for k in range(c, stop):
            sums[0] += table[k % p] * g
            g = T.apply_values(g)
        return g

    for i, n in enumerate(cps):
        if n == 2 * c and c % p == 0:
            pc = pc or _power(op, c)
            for j, pw in enumerate(pows):
                new = _shifted(pc, sums[j], _at(pw, c), out=spare)
                new += sums[j]  # the bits of sums[j] + w T^c sums[j]
                sums[j], spare = new, sums[j]
            g = None
            if i + 1 < len(cps):
                pc = _compose(pc, pc)
        else:
            if g is None:  # T^c f, from T^c (for pairs, built again after a gap)
                pc = pc or _power(op, c)
                g = _shifted(pc, f.values, out=spare if pairs else None)
            pc = None  # no pair is held through the gap
            q = (n - c) // p
            if q:  # V doubled in the spare; its block sums die here
                lift = lift or _power(op, p)
                if g is not spare:
                    np.copyto(spare, g)
                blocks = [spare] + [spare.copy() for _ in pows[1:]]
                # for pairs, T^c f is doubled in the spare, and nothing moves on
                blocks, g = _segment(lift, blocks, q, pows, None if pairs else g)
                if periodic:  # the p residue shifts of V, from residue c
                    last = steps(blocks[0], c, c + p - 1)
                    sums[0] += table[(c + p - 1) % p] * last
                else:
                    for S, pw, R in zip(sums, pows, blocks):
                        if pw is not None:
                            np.multiply(pw[c], R, out=R)
                        S += R  # the bits of S + pw[c] * R
                c += q * p
            g = steps(g, c, n)  # after the last whole period
        c = n
        yield _combined(terms, sums), spare


def _moduli(total, n, scale, out):
    """out = |(total / n) * scale|, the moduli of the average a_n = total / n
    divided by M = 1 / scale, filled a block at a time: the entries have the
    bits of the whole-vector expression, and no complex N-vector is made."""
    for a in range(0, out.size, _BLOCK):
        block = total[a : a + _BLOCK] / n
        if scale != 1.0:  # |a * 1.0| has the bits of |a|
            block *= scale
        np.abs(block, out=out[a : a + _BLOCK])
    return out


# float64 overflow is checked at each checkpoint, so numpy's warnings for it
# (and for the inf - inf and 0 * inf it leads to) are not raised
@np.errstate(over="ignore", invalid="ignore")
def _stream(
    T, f, checkpoints, beta, probes, store_averages, norms, majorize, max_iterations
):
    cps = _horizon(checkpoints, max_iterations)
    if not T.space.is_compatible(f.space):
        raise InputError("operator and function live on different spaces")
    n_atoms = T.space.n_atoms
    probes = _atoms(probes, "probes", n_atoms)

    composition = isinstance(T, CompositionOperator)
    # probe-orbit lane: nothing but the probe atoms is ever read
    lane = composition and not (store_averages or norms or majorize)
    # one weight rule for every lane: beta_k = table[k % table.size], and
    # M = max(1, max_(k<n) |beta_k|) read off the table's first n entries
    table = weight_bound = None
    if beta is not None:
        table = beta.cycle(cps[-1])
        weight_bound = max(1.0, _max_modulus(table[: cps[-1]]))
    if composition and not lane and (beta is None or beta.kind != "explicit"):
        terms = _lifted_terms(beta, table, cps)
        if beta is None or beta.kind != "periodic":
            table = None  # n values, read; the lane holds no n-long table
        sums = _lifted_sums(T, f, table, terms, cps)
    else:  # the Kahan lanes: one application per term
        if lane:
            orbit, width = _probe_orbit(T, f, probes, cps[-1]), len(probes)
        elif composition:
            orbit, width = _orbit(T.apply_values, f.values, cps[-1]), n_atoms
        else:  # a kernel steps in its row order, its sums leave it
            orbit, width = _orbit(T.stepper(), f.values[T.order], cps[-1]), n_atoms
        sums = _kahan_sums(orbit, table, width, cps)
        if not composition:
            sums = ((T.unpermute(total), t) for total, t in sums)

    # Each running sum goes to the consumers in this order and is dropped;
    # only a stored average is made as a_n = total / n. The norms and the
    # flag fill one moduli buffer in turn: the first N float64 of the
    # complex N-vector that the lane yields idle beside the sum.
    select = slice(None) if lane else np.array(probes, dtype=np.intp)
    if majorize:  # a_n / M against f
        compare = submajorization_check(f, T.space)
        scale = 1.0 / (weight_bound or 1.0)
    rows, l1s, linfs, avgs, flags = [], [], [], [], []
    for n, (total, idle) in zip(cps, sums):
        mags = idle.view(float)[:n_atoms]
        rows.append(total[select] / n)
        if norms:
            linfs.append(float(np.max(_moduli(total, n, 1.0, mags))))
            mags *= T.space.weights
            l1s.append(float(np.sum(mags)))
        # a finite L1 norm has finite moduli, so a finite Linf norm, sum and
        # average: a run with norms scans the sum only once it overflows
        if not (norms and math.isfinite(l1s[-1])):
            _finite(total, f"average at checkpoint {n}")
            if norms:
                _finite(l1s[-1], f"L1 norm of the average at checkpoint {n}")
        if store_averages:
            avgs.append(MeasurableFunction(total / n, T.space))
        if majorize:
            flags.append(bool(compare(_moduli(total, n, scale, mags))))

    return AveragingReport(
        checkpoints=cps,
        probes=probes,
        probe_values=np.array(rows),
        l1_norms=np.array(l1s) if norms else None,
        linf_norms=np.array(linfs) if norms else None,
        averages=tuple(avgs) if store_averages else None,
        weight_bound=weight_bound,
        majorized=tuple(flags) if majorize else None,
    )


def cesaro(
    T: Operator,
    f: MeasurableFunction,
    checkpoints,
    probes=(),
    store_averages: bool = True,
    max_iterations: int = DEFAULT_BUDGET,
    norms: bool = True,
    majorize: bool = False,
) -> AveragingReport:
    """Plain Cesaro averages (1/n) sum_{k<n} T^k f at the checkpoints.

    T should be a certified or declared DS operator for the norm and
    majorization guarantees to mean anything; the run itself only needs
    apply(). With `store_averages=False` and `norms=False` only the probe
    columns are computed; the report's norms are then None. `majorize`
    fills `report.majorized` as `majorization_trace` would, deciding each
    checkpoint's flag as the stream reaches it, so no average need be kept.
    """
    return _stream(
        T, f, checkpoints, None, probes, store_averages, norms, majorize,
        max_iterations,
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
    majorize: bool = False,
) -> AveragingReport:
    """Weighted averages (1/n) sum_{k<n} beta_k T^k f.

    The report records M = max(1, max_{k<n} |beta_k|) over the n weights
    averaged; the majorization flags (`majorize`, as in `cesaro`, or
    `majorization_trace`) compare a_n / M against f, which is the
    contraction statement that survives unbounded-looking weights.
    """
    return _stream(
        T, f, checkpoints, beta, probes, store_averages, norms, majorize,
        max_iterations,
    )


def majorization_trace(
    report: AveragingReport, f: MeasurableFunction, tol: float = MAJORIZATION_TOL
) -> tuple[bool, ...]:
    """Per-checkpoint flags: a_n (normalized by M for weighted runs) is
    submajorized by f within tol * max(1, int f*). Needs a full-mode report."""
    if report.averages is None:
        raise CapabilityError(
            "majorization trace needs retained averages; rerun in full mode"
        )
    space = report.averages[0].space if report.averages else f.space
    compare = submajorization_check(f, space, tol)
    scale = 1.0 / (report.weight_bound or 1.0)
    mags = np.empty(space.n_atoms)  # a / 1 is exact, so these are |a * scale|
    report.majorized = tuple(
        bool(compare(_moduli(a.values, 1, scale, mags))) for a in report.averages
    )
    return report.majorized
