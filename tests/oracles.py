"""Brute-force reference implementations used to pin test expectations.

Everything here recomputes results from first principles on raw arrays,
deliberately avoiding the library's own code paths. Slow is fine.
"""

from fractions import Fraction

import numpy as np


def distribution_function(values, weights, s):
    """d(s) = total weight where |value| > s."""
    mags = np.abs(np.asarray(values))
    return float(np.sum(np.asarray(weights, dtype=float)[mags > s]))


def mu_oracle(values, weights, t):
    """Rearrangement by the inf definition: inf{s >= 0 : d(s) <= t}.

    Scans the finitely many candidate levels (the distinct magnitudes and 0).
    """
    levels = np.unique(np.concatenate([np.abs(np.asarray(values)), [0.0]]))
    for s in levels:  # ascending, first feasible level is the inf
        if distribution_function(values, weights, s) <= t + 1e-15:
            return float(s)
    return float(levels[-1])


def partial_integral_oracle(values, weights, s):
    """int_0^s mu by greedy mass fill: largest magnitudes first, split the
    atom that straddles s."""
    mags = np.abs(np.asarray(values, dtype=complex))
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-mags, kind="stable")
    total = 0.0
    left = float(s)
    for i in order:
        if left <= 0:
            break
        take = min(left, w[i])
        total += take * mags[i]
        left -= take
    return total


def counterexample_sign(breakpoints, k):
    """Sign picked up by k unit shifts starting inside (0, 1)."""
    flips = sum(1 for b in breakpoints if b <= k)
    return -1.0 if flips % 2 else 1.0


def signed_shift_reference(breakpoints, grid, window):
    """The signed shift's point map and multiplier as lists, atom by atom.

    Atom i lies in unit cell i // grid and reads atom i + grid, times -1
    when its cell is n - 1 for a breakpoint n and +1 otherwise. An atom
    whose shift leaves the window reads itself, times 0, whatever its
    cell's sign.
    """
    n_atoms = window * grid
    point_map, multiplier = [], []
    for i in range(n_atoms):
        if i + grid >= n_atoms:
            point_map.append(i)
            multiplier.append(0)
        else:
            point_map.append(i + grid)
            multiplier.append(-1 if i // grid + 1 in breakpoints else 1)
    return point_map, multiplier


def worst_column_sum_reference(point_map, multiplier, weights):
    """max_j sum_{i : s(i) = j} w_i |m_i| / w_j for the composition
    (Tf)_i = m_i f[s(i)], its column masses added atom by atom in index
    order, in Python floats."""
    w = [float(x) for x in weights]
    mass = [0.0] * len(w)
    for i, j in enumerate(point_map):
        mass[int(j)] += w[i] * abs(float(multiplier[i]))
    return max(m / wj for m, wj in zip(mass, w))


def brute_counterexample_average(profile, breakpoints, t, n):
    """(1/n) sum_{k<n} sign_k * profile(t + k) for t in (0, 1).

    profile is a plain callable giving the non-increasing step function.
    """
    acc = 0.0
    for k in range(n):
        acc += counterexample_sign(breakpoints, k) * profile(t + k)
    return acc / n


def exact_counterexample_averages(values, breakpoints, ns):
    """(1/n) sum_{k<n} sign_k * values[k] at each n of ns, as Fractions: the
    float terms values[k] = profile(t + k) summed without rounding."""
    out, acc, k = [], Fraction(0), 0
    for n in ns:
        for k in range(k, n):
            acc += Fraction(counterexample_sign(breakpoints, k)) * Fraction(float(values[k]))
        k = n
        out.append(acc / n)
    return out


def greedy_breakpoints(profile, support, eps, stages, grid=10, margin=0.0):
    """Smallest-n greedy construction of the alternating-sign times.

    Stage 1 takes n = 1. Stage j then picks the least n > n_{j-1} at which
    every probe average crosses +-(1/2 + margin) with the sign alternating.
    Probes are the grid midpoints inside (eps, 1).
    """
    ts = [(i + 0.5) / grid for i in range(grid)]
    ts = [t for t in ts if eps < t < 1.0]
    bps = [1]
    for stage in range(2, stages + 1):
        want_neg = stage % 2 == 0
        n = bps[-1]
        while True:
            n += 1
            if ts[-1] + n - 1 >= support:
                raise RuntimeError("support exhausted")
            cand = bps + [n]
            vals = [brute_counterexample_average(profile, cand, t, n) for t in ts]
            if want_neg and max(vals) < -(0.5 + margin) - 1e-12:
                bps.append(n)
                break
            if not want_neg and min(vals) > (0.5 + margin) + 1e-12:
                bps.append(n)
                break
    return bps


def modulus_sup_oracle(kernel, f_nonneg):
    """sup{|K g| : |g| <= f} over all sign vectors, componentwise.

    Exact for real kernels: the sup is attained at g = sigma * f with
    sigma in {-1, +1}^n.
    """
    k = np.asarray(kernel, dtype=float)
    f = np.asarray(f_nonneg, dtype=float)
    n = f.size
    best = np.zeros(n)
    for bits in range(1 << n):
        sigma = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n)])
        best = np.maximum(best, np.abs(k @ (sigma * f)))
    return best


def naive_averages(apply_fn, v0, ns):
    """Plain recompute of Cesaro averages by stacking iterates."""
    out = []
    iterates = [np.asarray(v0, dtype=complex)]
    for n in ns:
        while len(iterates) < n:
            iterates.append(apply_fn(iterates[-1]))
        out.append(np.mean(iterates[:n], axis=0))
    return out


def naive_weighted_averages(apply_fn, v0, betas, ns):
    out = []
    iterates = [np.asarray(v0, dtype=complex)]
    for n in ns:
        while len(iterates) < n:
            iterates.append(apply_fn(iterates[-1]))
        stack = np.array([betas[k] * iterates[k] for k in range(n)])
        out.append(np.mean(stack, axis=0))
    return out


def product_average_oracle(order_a, step_a, fa, order_b, step_b, gb, wa, yb, n):
    """Direct enumeration of (1/n) sum f(tau^k w) g(phi^k y) on two cycles."""
    acc = 0.0 + 0.0j
    for k in range(n):
        acc += fa[(wa + k * step_a) % order_a] * gb[(yb + k * step_b) % order_b]
    return acc / n


def splitmix64_uniforms(state, n):
    """n SplitMix64 doubles in [0, 1) from a 64-bit state, one draw at a time
    as published (Steele, Lea, Flood 2014): add gamma, mix, keep the top 53
    bits. Returns (doubles, next state)."""
    mask = (1 << 64) - 1
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append((z >> 11) / float(1 << 53))
    return np.array(out, dtype=float), state


def splitmix64_uniforms_blocked(state, n):
    """The block formula that SplitMix64.uniforms used before it mixed in
    place, kept as a reference: n doubles in [0, 1) and the next state."""
    k = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(state) + k * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53, (state + n * 0x9E3779B97F4A7C15) % (1 << 64)


def random_function_reference(state, n, kind, scale):
    """A `random` function spec's values by the one-shot formula: 2n
    uniforms at once, 2u - 1 (or u for "nonnegative") from the first n,
    the imaginary part 2u - 1 from the next n for "complex", then
    scale * v, with scale a Python float. Returns (complex values, next
    state)."""
    u, state = splitmix64_uniforms_blocked(state, 2 * n)
    if kind == "complex":
        v = (2 * u[:n] - 1) + 1j * (2 * u[n:] - 1)
    elif kind == "real":
        v = 2 * u[:n] - 1
    else:
        v = u[:n]
    return np.asarray(scale * v, dtype=complex), state


def rearrangement_unique_reference(values, weights):
    """A rearrangement's (breakpoints, plateaus) by np.unique: one plateau
    per distinct nonzero modulus, its length the bincount of the weights
    of the atoms that hold it, in decreasing order of modulus."""
    mags = np.abs(np.asarray(values, dtype=complex))
    vals, inverse = np.unique(mags, return_inverse=True)
    lengths = np.bincount(inverse, weights=np.asarray(weights, dtype=float))
    keep = vals > 0
    vals, lengths = vals[keep][::-1], lengths[keep][::-1]
    return np.concatenate(([0.0], np.cumsum(lengths))), vals


def reduceat_row_sums_reference(indptr, x):
    """Per-row sums of per-entry values x (CSR order) as kernels formed them
    before they summed rows slot by slot: one np.add.reduceat over the rows
    that hold an entry, 0 elsewhere. reduceat gives an empty row the next
    row's first entry, so only filled rows are reduced."""
    indptr = np.asarray(indptr)
    out = np.zeros(indptr.size - 1, dtype=x.dtype)
    starts = indptr[:-1]
    filled = np.flatnonzero(indptr[1:] > starts)
    if filled.size:
        out[filled] = np.add.reduceat(x, starts[filled])
    return out


def row_sums_in_order_reference(indptr, x):
    """Per-row sums of per-entry values x (CSR order) in the documented
    order a_0 + ((a_1 + a_2) + ... + a_(c-1)), one scalar addition at a
    time: a_0 itself for one entry, +0 for none."""
    out = np.zeros(len(indptr) - 1, dtype=x.dtype)
    for i in range(out.size):
        a = x[indptr[i] : indptr[i + 1]]
        if a.size == 1:
            out[i] = a[0]
        elif a.size > 1:
            rest = a[1]
            for v in a[2:]:
                rest = rest + v
            out[i] = a[0] + rest
    return out


def row_sum_layout_reference(k):
    """(order, layout, layout_cols) of the kernel with dense matrix k, built
    one slot at a time as `KernelOperator` documents them: the rows by
    decreasing entry count, equal counts in row order; slots 1, 2, ...,
    then slot 0, each over the rows that hold it in that order; columns as
    row positions."""
    k = np.asarray(k, dtype=complex)
    entries = [np.flatnonzero(row) for row in k]
    order = sorted(range(len(entries)), key=lambda i: -entries[i].size)
    pos = np.empty(len(order), dtype=np.intp)
    pos[order] = np.arange(len(order))
    longest = max((e.size for e in entries), default=0)
    layout, cols = [], []
    for slot in [*range(1, longest), 0]:
        for i in order:
            if slot < entries[i].size:
                j = entries[i][slot]
                layout.append(k[i, j])
                cols.append(pos[j])
    return (np.array(order, dtype=np.intp), np.array(layout, dtype=complex),
            np.array(cols, dtype=np.intp))


def equal_weight_rearrangement_reference(values, weight):
    """(breakpoints, plateaus, prefix) of the rearrangement of values on
    atoms of one weight, as formed before the one-sort rule: runs of equal
    sorted moduli found by flatnonzero, a run of c atoms a plateau of length
    w + ... + w (c terms, in order), and the prefix integrals by
    concatenate and cumsum."""
    mags = np.sort(np.abs(np.asarray(values, dtype=complex)))
    first = np.flatnonzero(np.concatenate(([True], mags[1:] != mags[:-1])))
    vals, counts = mags[first], np.diff(first, append=mags.size)
    lengths = np.cumsum(np.full(counts.max(), float(weight)))[counts - 1]
    keep = vals > 0
    vals, lengths = vals[keep][::-1], lengths[keep][::-1]
    bp = np.concatenate(([0.0], np.cumsum(lengths)))
    with np.errstate(over="ignore"):
        prefix = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
    return bp, vals, prefix


def integrals_reference(bp, pl, prefix, s):
    """Partial integrals of the step function (bp, pl) at s >= 0, with the
    arithmetic Rearrangement.integrals had when it took s all at once."""
    if pl.size == 0:
        return np.zeros_like(s)
    i = np.clip(np.searchsorted(bp, s, side="right") - 1, 0, pl.size - 1)
    with np.errstate(over="ignore"):
        inside = prefix[i] + pl[i] * (s - bp[i])
    return np.where(s >= bp[-1], prefix[-1], inside)


def submajorized_at_atoms_reference(rf, weights, tol, mags):
    """Submajorization of g by f at g's atom boundaries by the argsort rule,
    for any atom weights: order g's atoms by decreasing modulus, lay their
    weights end to end as s = cumsum(w[order]) and compare the partial
    integrals there. rf is f's rearrangement, so the integrals of f* take its
    arithmetic; mags are the moduli |g|. Returns (ok, witness_s,
    integral_f, integral_g), the Nones on success."""
    order = np.argsort(mags)[::-1]
    w = np.asarray(weights, dtype=float)[order]
    s = np.cumsum(w)
    int_f, int_g = rf.integrals(s), np.cumsum(w * mags[order])
    bad = np.flatnonzero(int_g > int_f + tol)
    if bad.size == 0:
        return True, None, None, None
    i = bad[0]
    return False, float(s[i]), float(int_f[i]), float(int_g[i])


ORLICZ_SPOT_GRID = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])


def check_orlicz_function(phi):
    """Spot checks that phi, a callable on numpy arrays, is an Orlicz
    function: phi(0) = 0, and on ORLICZ_SPOT_GRID phi is finite,
    nonnegative, positive somewhere and midpoint convex. Raises ValueError
    naming the first check that fails."""
    if abs(float(phi(np.array(0.0)))) > 1e-12:
        raise ValueError("Orlicz function must vanish at 0")
    grid = ORLICZ_SPOT_GRID
    vals = np.asarray(phi(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("Orlicz function must be finite on the spot grid")
    if np.any(vals < 0) or not np.any(vals > 0):
        raise ValueError(
            "Orlicz function must be nonnegative, and positive somewhere, "
            "on the spot grid"
        )
    i, j = np.triu_indices(grid.size, 1)
    mids = np.asarray(phi((grid[i] + grid[j]) / 2.0), dtype=float)
    if np.any(mids > (vals[i] + vals[j]) / 2.0 + 1e-12):
        raise ValueError("midpoint convexity spot-check failed")


def luxemburg_bisection_oracle(values, weights, phi, tol=1e-12):
    """Luxemburg norm by its definition, the least a with
    sum_i w_i phi(|v_i| / a) <= 1, for any phi that passes
    `check_orlicz_function`. The modular falls as a grows, so a feasible
    hi is found by doubling from max |v_i|, an infeasible lo by halving, and
    [lo, hi] is bisected until hi - lo <= tol * hi. Returns the midpoint,
    within tol / 2 relative of the norm up to the modular's roundoff."""
    check_orlicz_function(phi)
    mags = np.abs(np.asarray(values, dtype=complex))
    w = np.asarray(weights, dtype=float)
    if not np.any(mags > 0):
        return 0.0

    def feasible(a):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = float(np.sum(w * np.asarray(phi(mags / a), dtype=float)))
        return np.isfinite(m) and m <= 1.0  # an overflow counts as above 1

    hi = float(np.max(mags))
    while not feasible(hi):
        hi *= 2.0
    assert hi < np.inf, "the norm passes float64's range"
    lo = hi / 2.0
    while feasible(lo):
        lo /= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def luxemburg_power_reference(values, weights, p):
    """(sum_i w_i |v_i|^p)^(1/p) in long double, for phi(u) = u^p; where
    long double is the x87 80-bit type, its 64-bit significand and 15-bit
    exponent hold every power of moduli from 1e-300 to 1e300 with p <= 10."""
    ld = np.longdouble
    mags = np.abs(np.asarray(values, dtype=complex)).astype(ld)
    w = np.asarray(weights, dtype=float).astype(ld)
    return float(np.sum(w * mags ** ld(p)) ** (ld(1) / ld(p)))


# CSV writers as they were when each built its whole report in one string:
# the header lines, then one line per row, joined. The library's emitters
# return the same text in chunks.


def _meta_line_reference(seed, extra=""):
    line = f"# schema=1 seed={seed}"
    return line + (f" {extra}" if extra else "")


def rearrangement_csv_reference(r, seed):
    lines = [_meta_line_reference(seed), "t_left,t_right,value"]
    bps = r.breakpoints.tolist()
    for left, right, v in zip(bps, bps[1:], r.plateaus.tolist()):
        lines.append(f"{left!r},{right!r},{v!r}")
    return "\n".join(lines) + "\n"


def averaging_csv_reference(report, seed):
    lines = [_meta_line_reference(seed), "n,probe_id,re,im,l1_norm,linf_norm,majorized"]
    flags = report.majorized
    values = report.probe_values.tolist()
    if report.l1_norms is None:
        norms = [","] * len(report.checkpoints)
    else:
        norms = [f"{a!r},{b!r}" for a, b in
                 zip(report.l1_norms.tolist(), report.linf_norms.tolist())]
    for ci, n in enumerate(report.checkpoints):
        flag = "" if flags is None else ("true" if flags[ci] else "false")
        tail = f"{norms[ci]},{flag}"
        for p, v in zip(report.probes, values[ci]):
            lines.append(f"{n},{p},{v.real!r},{v.imag!r},{tail}")
    return "\n".join(lines) + "\n"


def sweep_csv_reference(sweep, seed, oracle=None, resonant=None):
    extra = ""
    if resonant is not None and len(resonant) > 0:
        extra = "resonant_lambdas=" + ";".join(str(j) for j in resonant)
    header = "lambda_index,lambda_re,lambda_im,probe,n,avg_re,avg_im"
    if oracle is not None:
        header += ",oracle_re,oracle_im,abs_err"
    lines = [_meta_line_reference(seed, extra), header]
    for j, lam in enumerate(sweep.lambdas.tolist()):
        for pi, p in enumerate(sweep.probes):
            lead = f"{j},{lam.real!r},{lam.imag!r},{p},"
            trace = sweep.averages[j, pi].tolist()
            refs = None if oracle is None else oracle[j, pi].tolist()
            for ci, (n, v) in enumerate(zip(sweep.checkpoints, trace)):
                row = f"{lead}{n},{v.real!r},{v.imag!r}"
                if refs is not None:
                    o = refs[ci]
                    row += f",{o.real!r},{o.imag!r},{abs(v - o)!r}"
                lines.append(row)
    return "\n".join(lines) + "\n"


def product_csv_reference(report, seed):
    lines = [_meta_line_reference(seed), "n,omega,y,re,im"]
    for n, row in zip(report.checkpoints, report.averages.tolist()):
        for (w, y), v in zip(report.probes, row):
            lines.append(f"{n},{w},{y},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


def traces_csv_reference(ts, checkpoints, values, seed):
    lines = [_meta_line_reference(seed), "n,t,value"]
    ts = np.asarray(ts, dtype=float).tolist()
    for n, row in zip(checkpoints, np.asarray(values, dtype=float).tolist()):
        for t, v in zip(ts, row):
            lines.append(f"{n},{t!r},{v!r}")
    return "\n".join(lines) + "\n"


def rotation_table_reference(q, qns, resonant, fronts, ns):
    """The rotation closed-form table front (1 - q^n) / (n (1 - q)), as
    formed before one array held it: one Python complex value and one numpy
    scalar store per front and n; the front itself at resonance."""
    if resonant:
        return np.repeat(np.array(fronts)[:, None], len(ns), axis=1)
    out = np.empty((len(fronts), len(ns)), dtype=complex)
    for c, (n, qn) in enumerate(zip(ns, qns)):
        for p, front in enumerate(fronts):
            out[p, c] = front * (1.0 - qn) / (n * (1.0 - q))
    return out
