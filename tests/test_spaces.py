"""Rearrangements, majorization, and the symmetric-space norms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosym import (
    AtomicMeasureSpace,
    CompositionOperator,
    InputError,
    LorentzWeight,
    MeasurableFunction,
    NumericError,
    OrliczFunction,
    PointSystem,
    Rearrangement,
    TrigTerm,
    besicovitch_deviation,
    cesaro,
    construct_certificate,
    dft_interpolant,
    direct_averages,
    geometric_checkpoints,
    lorentz_norm,
    luxemburg_norm,
    majorizes,
    norm,
    product_average,
    rearrangement,
    WeightSequence,
    rotation_closed_form,
    signed_shift_operator,
    verify_certificate,
    wiener_wintner_sweep,
)
from ergosym.return_times import rotation_oracle
from ergosym.spaces import MAJORIZATION_TOL, _slack, submajorization_check
from oracles import (
    check_orlicz_function,
    distribution_function,
    equal_weight_rearrangement_reference,
    integrals_reference,
    luxemburg_bisection_oracle,
    luxemburg_power_reference,
    mu_oracle,
    partial_integral_oracle,
    rearrangement_unique_reference,
    submajorized_at_atoms_reference,
)


def unit_space(n, truncated=False):
    return AtomicMeasureSpace(np.ones(n), truncated=truncated)


def mk(values, weights=None, truncated=False):
    v = np.asarray(values, dtype=complex)
    sp = AtomicMeasureSpace(
        np.ones(v.size) if weights is None else np.asarray(weights, dtype=float),
        truncated=truncated,
    )
    return MeasurableFunction(v, sp)


# ------------------------------------------------------------- construction


def test_space_rejects_bad_weights():
    with pytest.raises(InputError):
        AtomicMeasureSpace(np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        AtomicMeasureSpace(np.array([1.0, -2.0]))
    with pytest.raises(InputError):
        AtomicMeasureSpace(np.array([]))
    with pytest.raises(InputError):
        AtomicMeasureSpace(np.array([1.0, np.inf]))


def test_function_rejects_nonfinite_and_mismatched():
    sp = unit_space(3)
    with pytest.raises(InputError):
        MeasurableFunction(np.array([1.0, np.nan, 0.0]), sp)
    with pytest.raises(InputError):
        MeasurableFunction(np.array([1.0, 2.0]), sp)


def test_uniform_weights_are_one_read_only_value():
    sp = AtomicMeasureSpace.uniform(5, 0.1, truncated=True)
    assert sp.weights.strides == (0,) and sp.weights.shape == (5,)
    with pytest.raises(ValueError):
        sp.weights[0] = 1.0
    with pytest.raises(ValueError):
        sp.weights *= 2.0
    full = AtomicMeasureSpace(np.full(5, 0.1), truncated=True)
    assert sp.is_compatible(full) and full.is_compatible(sp)
    assert sp.total_measure == full.total_measure
    assert not sp.is_compatible(AtomicMeasureSpace(np.full(5, 0.1)))
    assert not sp.is_compatible(AtomicMeasureSpace.uniform(5, 0.2, truncated=True))


def test_total_measure():
    sp = AtomicMeasureSpace(np.array([0.5, 1.0, 2.0]))
    assert sp.total_measure == pytest.approx(3.5, abs=1e-12)
    assert sp.n_atoms == 3


# ------------------------------------------------------------ rearrangement


def test_rearrangement_sorts_unit_atoms():
    r = rearrangement(mk([3.0, 1.0, 2.0]))
    assert np.allclose(r.plateaus, [3.0, 2.0, 1.0])
    assert np.allclose(r.breakpoints, [0.0, 1.0, 2.0, 3.0])


def test_rearrangement_indicator():
    sp = unit_space(4)
    f = MeasurableFunction.indicator(sp, [1, 3])
    r = rearrangement(f)
    assert np.allclose(r.plateaus, [1.0])
    assert np.allclose(r.breakpoints, [0.0, 2.0])


def test_rearrangement_weighted_atoms():
    # brute-forced against the inf definition
    r = rearrangement(mk([0.5, 0.5, 2.0], weights=[2.0, 1.0, 0.5]))
    assert np.allclose(r.plateaus, [2.0, 0.5])
    assert np.allclose(r.breakpoints, [0.0, 0.5, 3.5])


def test_rearrangement_merges_ties_and_drops_zeros():
    r = rearrangement(mk([1.0, -1.0, 0.0, 1.0]))
    assert r.plateaus.size == 1
    assert np.allclose(r.breakpoints, [0.0, 3.0])
    assert rearrangement(mk([0.0, 0.0])).plateaus.size == 0


def test_rearrangement_ignores_phase():
    f = mk([3.0, 1.0, 2.0])
    g = mk([3j, -1.0, 2.0 * np.exp(1j)])
    rf, rg = rearrangement(f), rearrangement(g)
    assert np.allclose(rf.plateaus, rg.plateaus)
    assert np.allclose(rf.breakpoints, rg.breakpoints)


def test_rearrangement_matches_inf_definition_randomized():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.uniform(0.1, 3.0, size=n)
        f = mk(v, weights=w)
        r = rearrangement(f)
        for t in rng.uniform(0.0, w.sum() * 1.1, size=8):
            assert r.values_at(t) == pytest.approx(mu_oracle(v, w, t), abs=1e-12)


def test_equimeasurability_randomized():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        v = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, size=n)
        f = mk(v, weights=w)
        r = rearrangement(f)
        for lam in np.unique(np.abs(v)):
            d_f = distribution_function(v, w, lam)
            # Leb{t : mu_t > lam} = breakpoint after the last plateau > lam
            k = int(np.sum(r.plateaus > lam))
            d_mu = float(r.breakpoints[k])
            assert abs(d_f - d_mu) <= 1e-12 * max(1.0, w.sum())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rearrangement_keeps_the_unique_rule_bits(data):
    # equal weights, among them ones whose run sums round (held as one value
    # or as a full array), and unequal ones; moduli with ties (of either
    # sign), zeros, an all-zero f and n = 1
    n = data.draw(st.integers(1, 64), label="n")
    kind = data.draw(st.sampled_from(["uniform", "full", "unequal"]), label="w")
    w0 = data.draw(st.sampled_from([1.0, 0.1, 1 / 3, 7.3, 2.0**-12]), label="w0")
    if kind == "uniform":
        space = AtomicMeasureSpace.uniform(n, w0)
    elif kind == "full":
        space = AtomicMeasureSpace(np.full(n, w0))
    else:
        space = AtomicMeasureSpace(np.array(data.draw(st.lists(
            st.sampled_from([0.1, 0.5, 1.0, 3.7]), min_size=n, max_size=n))))
    level = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-4.0, 4.0)
    v = np.array(data.draw(st.lists(level, min_size=n, max_size=n)))
    if data.draw(st.booleans(), label="complex"):
        v = v + 1j * np.array(data.draw(st.lists(level, min_size=n, max_size=n)))
    if data.draw(st.integers(0, 9), label="zero") == 0:
        v = np.zeros(n)
    r = rearrangement(MeasurableFunction(v, space))
    bp, pl = rearrangement_unique_reference(v, space.weights)
    assert r.breakpoints.tobytes() == bp.tobytes()
    assert r.plateaus.tobytes() == pl.tobytes()


def test_rearrangement_scaling():
    rng = np.random.default_rng(13)
    v = rng.normal(size=15)
    f = mk(v)
    for c in (2.5, -3.0, 1j):
        rc = rearrangement(f * c)
        r = rearrangement(f)
        assert np.allclose(rc.plateaus, abs(c) * r.plateaus, atol=1e-12)
        assert np.allclose(rc.breakpoints, r.breakpoints, atol=1e-12)


def test_rearrangement_invariants_rejected():
    with pytest.raises(InputError):
        Rearrangement(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))  # increasing
    with pytest.raises(InputError):
        Rearrangement(np.array([1.0, 2.0]), np.array([1.0]))  # must start at 0
    with pytest.raises(InputError):
        Rearrangement(np.array([0.0, 1.0]), np.array([-1.0]))  # negative plateau
    for bp, pl, message in [
        ([0.0, 1.0], [1.0, 0.5], "need len"),
        ([[0.0, 1.0]], [1.0], "need len"),
        ([], [], "need len"),
        ([0.0, 1.0, 1.0], [2.0, 1.0], "breakpoints must be strictly increasing"),
        ([0.0, 1.0, 2.0], [1.0, 1.0], "plateaus must be positive"),
        ([0.0, 1.0], [0.0], "plateaus must be positive"),
        ([0.0, np.inf], [1.0], "must be finite"),
        ([0.0, 1.0], [np.inf], "must be finite"),
    ]:
        with pytest.raises(InputError, match=message):
            Rearrangement(np.array(bp), np.array(pl))
    # a rearrangement built from f is checked only where it can fail: on
    # equal weights, a support whose measure overflows float64
    with np.errstate(over="ignore"), pytest.raises(InputError, match="must be finite"):
        rearrangement(MeasurableFunction([1.0, 2.0], AtomicMeasureSpace.uniform(2, 1e308)))


def bits(a):
    """The bytes of an array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 64) | st.sampled_from([8191, 8193, 20_000]),
    w0=st.sampled_from([1.0, 0.1, 1 / 3, 7.3, 2.0**-12]),
    ties=st.booleans(),
    zeros=st.integers(0, 2),
    kind=st.sampled_from(["real", "complex", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_equal_weight_rearrangement_keeps_the_run_rule_bits(n, w0, ties, zeros, kind, seed):
    # with ties or without, with 0, 1 or 2 zeros, all-zero f and n = 1; the
    # integrals at cumsum(w) as read at once and as the check reads them
    rng = np.random.default_rng(seed)
    v = rng.choice([-2.0, -0.5, 0.5, 1.0, 3.0], n) if ties else rng.normal(size=n)
    if kind == "complex":
        v = v * rng.choice([1.0, 1j, -1j], n) if ties else v + 1j * rng.normal(size=n)
    v[rng.permutation(n)[:zeros]] = 0.0
    if kind == "zero":
        v = np.zeros(n)
    space = AtomicMeasureSpace.uniform(n, w0)
    f = MeasurableFunction(v, space)
    r = rearrangement(f)
    bp, pl, prefix = equal_weight_rearrangement_reference(v, w0)
    assert bits(r.breakpoints) == bits(bp)
    assert bits(r.plateaus) == bits(pl)
    assert bits(r._prefix) == bits(prefix)
    s = np.cumsum(space.weights)
    want = integrals_reference(bp, pl, prefix, s)
    assert bits(r.integrals(s)) == bits(want)
    assert bits(submajorization_check(f, space).args[2]) == bits(want)


def test_values_at_rejects_negative_and_nan_t():
    r = rearrangement(mk([3.0, 1.0, 2.0]))
    for bad in ([np.nan, -1.0], [-1.0], [np.nan], [0.5, -1e-300]):
        with pytest.raises(InputError):
            r.values_at(bad)
    assert list(r.values_at([0.0, 1.0, 2.5, 3.0])) == [3.0, 2.0, 1.0, 0.0]
    empty = rearrangement(mk([0.0, 0.0]))
    with pytest.raises(InputError):
        empty.values_at(-1.0)
    assert list(empty.values_at([0.0, 4.0])) == [0.0, 0.0]


# ---------------------------------------------------------- partial integral


def test_hl_integral_step_area():
    r = Rearrangement(np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))
    assert r.integral(2.0) == pytest.approx(5.0, abs=1e-12)
    assert r.integral(0.5) == pytest.approx(1.5, abs=1e-12)
    # beyond the support: total area
    assert r.integral(10.0) == pytest.approx(6.0, abs=1e-12)


def test_hl_integral_weighted_example():
    r = rearrangement(mk([0.5, 0.5, 2.0], weights=[2.0, 1.0, 0.5]))
    assert r.integral(1.0) == pytest.approx(1.25, abs=1e-9)


def test_hl_integral_rejects_nonpositive_s():
    r = Rearrangement(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(InputError):
        r.integral(0.0)
    with pytest.raises(InputError):
        r.integral(-1.0)
    with pytest.raises(InputError):
        r.integral(np.nan)


def test_integrals_reject_negative_and_nan_s():
    r = rearrangement(mk([3.0, 1.0, 2.0]))
    for bad in ([-1.0, np.nan], [np.nan], [-1.0], [0.5, -1e-300]):
        with pytest.raises(InputError):
            r.integrals(bad)
    assert list(r.integrals([0.0, 1.0, 2.0, 9.0])) == [0.0, 3.0, 5.0, 6.0]
    with pytest.raises(InputError):
        rearrangement(mk([0.0, 0.0])).integrals([np.nan])


def test_hl_integral_matches_greedy_oracle_randomized():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        v = rng.normal(size=n)
        w = rng.uniform(0.05, 2.0, size=n)
        r = rearrangement(mk(v, weights=w))
        for s in rng.uniform(0.01, w.sum() * 1.2, size=6):
            assert r.integral(s) == pytest.approx(
                partial_integral_oracle(v, w, s), abs=1e-9
            )


def test_hl_integral_concave_nondecreasing():
    rng = np.random.default_rng(15)
    v = rng.normal(size=25)
    r = rearrangement(mk(v))
    s = np.linspace(0.1, 30.0, 80)
    vals = r.integrals(s)
    assert np.all(np.diff(vals) >= -1e-12)
    second = np.diff(vals, 2)
    assert np.all(second <= 1e-12)
    assert r.integral(r.support_measure) == pytest.approx(
        norm(mk(v), "L1"), abs=1e-12
    )


# -------------------------------------------------------------- majorization


def test_majorizes_hand_examples():
    f = mk([3.0, 1.0, 2.0])
    g = mk([2.0, 2.0, 2.0])
    assert majorizes(f, g)
    assert not majorizes(g, f)  # 3 > 2 at s=1
    res = majorizes(mk([1.0, 1.0, 1.0]), mk([3.0, 0.0, 0.0]))
    assert not res
    assert res.witness_s == pytest.approx(1.0)
    assert res.integral_g == pytest.approx(3.0)
    assert res.integral_f == pytest.approx(1.0)


def test_majorizes_reflexive_and_transitive_randomized():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(1, 25))
        w = rng.uniform(0.1, 2.0, size=n)
        f = mk(rng.normal(size=n), weights=w)
        assert majorizes(f, f)
        # build g, h below f by damping, then check transitivity endpoints
        g = f * 0.7
        h = g * 0.5
        assert majorizes(f, g) and majorizes(g, h) and majorizes(f, h)


def test_majorizes_mutual_implies_equal_rearrangements():
    rng = np.random.default_rng(17)
    v = rng.normal(size=12)
    f = mk(v)
    g = mk(np.abs(v)[::-1])  # same distribution, permuted and phase-stripped
    assert majorizes(f, g) and majorizes(g, f)
    rf, rg = rearrangement(f), rearrangement(g)
    assert np.allclose(rf.plateaus, rg.plateaus, atol=1e-9)
    assert np.allclose(rf.breakpoints, rg.breakpoints, atol=1e-9)


def test_majorizes_requires_comparable_spaces():
    f = mk([1.0, 1.0])
    g = mk([1.0, 1.0, 1.0])
    with pytest.raises(InputError):
        majorizes(f, g)
    # two truncated windows compare regardless of size
    ft = mk([1.0, 1.0], truncated=True)
    gt = mk([0.5, 0.5, 0.5], truncated=True)
    assert majorizes(ft, gt)


def _oracle_flag(f, g, tol):
    """Submajorization by the oracle's partial integrals at the union of
    both functions' atom boundaries."""
    s = np.union1d(_boundaries(f), _boundaries(g))
    fw, gw = f.space.weights, g.space.weights
    return all(
        partial_integral_oracle(g.values, gw, x)
        <= partial_integral_oracle(f.values, fw, x) + tol
        for x in s
    )


def _boundaries(h):
    """Cumulative atom weights in one order of decreasing modulus."""
    return np.cumsum(h.space.weights[np.argsort(-np.abs(h.values), kind="stable")])


def _is_boundary(h, s):
    """Whether s is a cumulative atom weight of h in some order of decreasing
    modulus (tied atoms may come in any order). Exact for weights that are
    multiples of 1/2."""
    mags, w = np.abs(h.values), h.space.weights
    for v in np.unique(mags):
        sums = {float(np.sum(w[mags > v]))}
        for t in w[mags == v]:
            sums |= {x + t for x in sums}
        if s in sums:
            return True
    return False


def _random_pair(rng):
    """f, g on one space with tied, zero and weighted atoms; sometimes on two
    truncated windows of different sizes and totals."""
    n = int(rng.integers(1, 12))
    m = int(rng.integers(1, 12)) if rng.random() < 0.3 else n
    truncated = m != n or rng.random() < 0.2
    w = rng.choice([0.5, 1.0, 1.5], size=n)
    wg = w if m == n else rng.choice([0.5, 1.0, 2.0], size=m)
    levels = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    fv = rng.choice(levels, size=n) * (-1) ** rng.integers(0, 2, size=n)
    gv = rng.choice(levels, size=m) * np.exp(1j * rng.uniform(0, 6.3, size=m))
    if rng.random() < 0.1:
        fv = np.zeros(n)
    if rng.random() < 0.1:
        gv = np.zeros(m)
    return mk(fv, weights=w, truncated=truncated), mk(gv, weights=wg, truncated=truncated)


def test_majorizes_agrees_with_oracle_on_the_breakpoint_union():
    rng = np.random.default_rng(19)
    verdicts = set()
    for _ in range(400):
        f, g = _random_pair(rng)
        res = majorizes(f, g, tol=1e-9)
        assert bool(res) == _oracle_flag(f, g, 1e-9)
        verdicts.add(bool(res))
        if not res:
            # the witness is an atom boundary of g where the oracle fails
            assert _is_boundary(g, res.witness_s)
            int_f = partial_integral_oracle(f.values, f.space.weights, res.witness_s)
            int_g = partial_integral_oracle(g.values, g.space.weights, res.witness_s)
            assert int_g > int_f + 1e-9
            assert (res.integral_f, res.integral_g) == pytest.approx((int_f, int_g))
    assert verdicts == {True, False}


def _fields(result):
    """A comparison's outcome, each float by its bits."""
    return tuple(x.hex() if isinstance(x, float) else x for x in result)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_submajorization_check_keeps_the_argsort_rule_bits(data):
    # equal weights, among them ones whose partial sums round, and unequal
    # ones; moduli with ties and zeros, or a permutation of f's own, scaled
    # so that a share of the comparisons fails
    n = data.draw(st.integers(1, 48), label="n")
    if data.draw(st.booleans(), label="equal"):
        w = np.full(n, data.draw(st.sampled_from([1.0, 0.1, 2.0**-12, 3.7])))
    else:
        w = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 3.7]),
                                        min_size=n, max_size=n)))
    level = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0)
    fv = np.array(data.draw(st.lists(level, min_size=n, max_size=n)))
    if data.draw(st.booleans(), label="permuted"):
        gv = np.abs(fv)[data.draw(st.permutations(range(n)))]
    else:
        gv = np.array(data.draw(st.lists(level, min_size=n, max_size=n)))
    mags = gv * data.draw(st.sampled_from([0.5, 1.0, 1.25]), label="scale")
    tol = data.draw(st.sampled_from([0.0, MAJORIZATION_TOL]), label="tol")
    f = MeasurableFunction(fv, AtomicMeasureSpace(w))
    got = submajorization_check(f, f.space, tol)(mags.copy())
    got = (got.ok, got.witness_s, got.integral_f, got.integral_g)
    rf = rearrangement(f)
    # the library's slack: tol scaled by the whole integral of f*
    slack = _slack(tol, rf.integrals([rf.support_measure])[0])
    want = submajorized_at_atoms_reference(rf, w, slack, mags)
    assert _fields(got) == _fields(want)


def test_majorizes_zero_functions():
    assert majorizes(mk([0.0, 0.0]), mk([0.0, 0.0]))
    assert majorizes(mk([1.0, 2.0]), mk([0.0, 0.0]))
    res = majorizes(mk([0.0, 0.0]), mk([0.0, 0.5]))
    assert not res and res.witness_s == 1.0 and res.integral_f == 0.0


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_majorizes_rejects_bad_tolerances(tol):
    with pytest.raises(InputError, match="tolerance"):
        majorizes(mk([1.0, 1.0, 1.0]), mk([3.0, 0.0, 0.0]), tol=tol)


def test_majorizes_averaging_contraction():
    # averaging two atoms is a doubly stochastic move, so f majorizes Af
    rng = np.random.default_rng(18)
    for _ in range(25):
        v = rng.normal(size=10)
        f = mk(v)
        u = v.copy()
        u[3] = (v[3] + v[7]) / 2
        u[7] = (v[3] + v[7]) / 2
        assert majorizes(f, mk(u))


# --------------------------------------------------------------------- norms


def test_norm_hand_values():
    f = mk([3.0, 1.0, 2.0])
    assert norm(f, "L1") == pytest.approx(6.0, abs=1e-12)
    assert norm(f, "Linf") == pytest.approx(3.0, abs=1e-12)
    assert norm(f, "L1plusLinf") == pytest.approx(3.0, abs=1e-12)
    assert norm(f, "L1capLinf") == pytest.approx(6.0, abs=1e-12)


def test_norm_zero_and_indicator():
    z = mk([0.0, 0.0, 0.0])
    for which in ("L1", "Linf", "L1plusLinf", "L1capLinf"):
        assert norm(z, which) == 0.0
    f = mk([1.0, 0.0], weights=[0.5, 1.0])
    assert norm(f, "L1plusLinf") == pytest.approx(0.5, abs=1e-12)


def test_norm_unknown_key():
    with pytest.raises(InputError):
        norm(mk([1.0]), "L2")


def test_norms_monotone_under_majorization():
    # symmetric-space property: smaller in majorization order, smaller norm
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        w = rng.uniform(0.1, 2.0, size=n)
        f = mk(rng.normal(size=n), weights=w)
        g = f * rng.uniform(0.0, 1.0)
        assert majorizes(f, g)
        for which in ("L1", "Linf", "L1plusLinf", "L1capLinf"):
            assert norm(g, which) <= norm(f, which) + 1e-9


def test_l1pluslinf_between_halves():
    # rearrangement: 2 on [0,0.25), then 0.25 up to measure 2.25; cut at t=1
    f = mk([2.0, 0.25], weights=[0.25, 2.0])
    assert norm(f, "L1plusLinf") == pytest.approx(2 * 0.25 + 0.25 * 0.75, abs=1e-12)


# -------------------------------------------------------------------- Orlicz


def test_orlicz_validation():
    # the spot checks a callable phi passes before the bisection oracle
    # takes it
    with pytest.raises(ValueError, match="vanish at 0"):
        check_orlicz_function(lambda u: u + 1.0)
    with pytest.raises(ValueError, match="convexity"):
        check_orlicz_function(lambda u: np.sqrt(u))
    with pytest.raises(InputError):
        OrliczFunction.power(0.5)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 0.0, -1.0, 0.5])
def test_orlicz_power_rejects_bad_exponents(p):
    with pytest.raises(InputError, match="p >= 1"):
        OrliczFunction.power(p)


def test_orlicz_positivity_is_checked_on_the_spot_grid():
    # zero on [0, 2] (so zero at 1), positive from 2 on
    phi = lambda u: np.maximum(0.0, u - 2.0) ** 2  # noqa: E731
    # least a with (1/a - 2)^2 <= 1 is a = 1/3
    assert luxemburg_bisection_oracle([1.0], [1.0], phi) == pytest.approx(1 / 3, abs=1e-12)
    with pytest.raises(ValueError, match="positive somewhere"):
        check_orlicz_function(lambda u: 0.0 * u)


def test_orlicz_rejects_negative_values_on_the_spot_grid():
    # convex, zero at 0 and positive from 1/2 on, but phi(1/4) = -1/16
    with pytest.raises(ValueError, match="nonnegative"):
        check_orlicz_function(lambda u: u**2 - u / 2)


def test_luxemburg_reduces_to_l1_for_identity():
    f = mk([3.0, 1.0, 2.0])
    assert luxemburg_norm(f, OrliczFunction.power(1.0)) == pytest.approx(6.0, rel=1e-15)


def test_luxemburg_square_closed_form():
    sp = AtomicMeasureSpace(np.ones(4))
    f = MeasurableFunction.ones(sp)
    phi = OrliczFunction.power(2.0)
    # modular 4/a^2 = 1 at a = 2
    assert luxemburg_norm(f, phi) == 2.0


def test_luxemburg_norm_is_accurate_below_one():
    # the terms are scaled by a power of two before the power, so a small f
    # keeps the digits of a large one
    phi = OrliczFunction.power(2.0)
    for k in range(-300, 1):
        c = 10.0**k
        got = luxemburg_norm(mk([c, c]), phi)
        assert got == pytest.approx(2**0.5 * c, rel=1e-15, abs=0.0), c


def test_luxemburg_norm_near_the_float64_maximum():
    # no power of a modulus passes float64's range, only the norm itself
    phi = OrliczFunction.power(2.0)
    assert luxemburg_norm(mk([1e308, 5e307]), phi) == pytest.approx(1.25**0.5 * 1e308)
    with pytest.raises(NumericError, match="the Luxemburg norm overflows float64"):
        luxemburg_norm(mk([1.5e308, 1.5e308]), phi)


@pytest.mark.parametrize("values, weights, want", [
    # the modular sum_i w_i |v_i|^2 = 2e308 passes float64's range, the norm
    # sqrt(2e308) does not
    ([1.0, 1.0], [1e308, 1e308], 2**0.5 * 1e154),
    # w |v|^2 = [1e-300, 1e-100]: the largest term is the one of the smaller
    # modulus, whose square 1e-400 alone underflows
    ([1.0, 1e-200], [1e-300, 1e300], 1e-50),
], ids=["modular-overflows", "largest-term-of-small-modulus"])
def test_luxemburg_norm_of_extreme_weights(values, weights, want):
    with np.errstate(over="ignore"):  # the space's total measure may overflow
        f = mk(values, weights=weights)
    got = luxemburg_norm(f, OrliczFunction.power(2.0))
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_luxemburg_zero_function():
    assert luxemburg_norm(mk([0.0, 0.0]), OrliczFunction.power(2.0)) == 0.0


def test_luxemburg_sqrt_total_measure_growth():
    # ||1||_phi = sqrt(M) for phi(u)=u^2; strictly increasing in the window
    phi = OrliczFunction.power(2.0)
    prev = 0.0
    for m in (1, 4, 9, 25):
        sp = AtomicMeasureSpace(np.ones(m), truncated=True)
        a = luxemburg_norm(MeasurableFunction.ones(sp), phi)
        assert a == np.sqrt(m)
        assert a > prev
        prev = a


def test_luxemburg_matches_modular_equation_randomized():
    rng = np.random.default_rng(20)
    phi = OrliczFunction.power(2.0)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        v = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, size=n)
        f = mk(v, weights=w)
        if norm(f, "L1") == 0.0:
            continue
        a = luxemburg_norm(f, phi)
        closed = float(np.sqrt(np.sum(w * np.abs(v) ** 2)))
        assert a == pytest.approx(closed, rel=1e-15)


ORACLE_TOL = 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs an x87 80-bit long double")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_luxemburg_norm_matches_long_double_and_the_bisection(data):
    # p in [1, 10]; moduli 10^e for e in [-300, 300], some zero, of either
    # sign; equal weights, or unequal ones in [1e-3, 1e3] or spanning
    # 1e-300 to 1e300
    n = data.draw(st.integers(1, 24), label="n")
    p = data.draw(st.sampled_from([1.0, 2.0, 3.0, 10.0]) | st.floats(1.0, 10.0),
                  label="p")
    top = data.draw(st.floats(-300.0, 300.0), label="top")
    spread = data.draw(st.sampled_from([0.0, 1.0, 20.0, 600.0]), label="spread")
    exps = data.draw(st.lists(st.floats(-spread, 0.0), min_size=n, max_size=n))
    v = 10.0 ** (top + np.clip(exps, -300.0 - top, 300.0 - top))
    v[data.draw(st.lists(st.integers(0, n - 1), max_size=n // 2), label="zeros")] = 0.0
    v *= data.draw(st.sampled_from([1.0, -1.0]), label="sign")
    if data.draw(st.booleans(), label="equal"):
        space = AtomicMeasureSpace.uniform(n, data.draw(
            st.sampled_from([1.0, 0.1, 1 / 3, 7.3, 2.0**-12]), label="w0"))
    else:
        span = data.draw(st.sampled_from([3.0, 300.0]), label="span")
        space = AtomicMeasureSpace(10.0 ** np.array(data.draw(
            st.lists(st.floats(-span, span), min_size=n, max_size=n), label="w")))
    f = MeasurableFunction(v, space)
    want = luxemburg_power_reference(v, space.weights, p)
    if want == np.inf:
        with pytest.raises(NumericError, match="the Luxemburg norm overflows float64"):
            luxemburg_norm(f, OrliczFunction.power(p))
        return
    got = luxemburg_norm(f, OrliczFunction.power(p))
    # below float64's normal range a norm is a multiple of 2^-1074
    assert abs(got - want) <= 1e-15 * want + 2.0**-1074
    # the oracle doubles and halves its bracket within the normal range
    if np.finfo(float).tiny <= want <= np.finfo(float).max / 4:
        oracle = luxemburg_bisection_oracle(v, space.weights, lambda u: u**p, ORACLE_TOL)
        assert abs(got - oracle) <= ORACLE_TOL * oracle


# -------------------------------------------------------------------- Lorentz


def test_lorentz_weight_validation():
    with pytest.raises(InputError):
        LorentzWeight(np.array([0.0, 1.0]), np.array([1.0, 2.0]))  # slopes increase
    with pytest.raises(InputError):
        LorentzWeight(np.array([1.0, 2.0]), np.array([1.0, 0.5]))  # knots off 0
    with pytest.raises(InputError):
        LorentzWeight(np.array([0.0]), np.array([-1.0]))


def test_lorentz_evaluate_rejects_negative_and_nan_t():
    w = LorentzWeight(np.array([0.0, 1.0]), np.array([2.0, 0.5]))
    for bad in ([np.nan], [1.0, -1.0], [-1e-300]):
        with pytest.raises(InputError):
            w.evaluate(bad)
    assert list(w.evaluate([0.0, 1.0, 3.0])) == [0.0, 2.0, 3.0]


def test_lorentz_linear_equals_l1():
    f = mk([3.0, 1.0, 2.0], weights=[0.5, 1.0, 2.0])
    assert lorentz_norm(f, LorentzWeight.linear()) == pytest.approx(
        norm(f, "L1"), abs=1e-12
    )


def test_lorentz_capped_example():
    f = mk([3.0, 1.0, 2.0])
    assert lorentz_norm(f, LorentzWeight.capped(1.0)) == pytest.approx(3.0, abs=1e-12)
    # cap at 2: integral over [0, 2) of the rearrangement
    assert lorentz_norm(f, LorentzWeight.capped(2.0)) == pytest.approx(5.0, abs=1e-12)


def test_lorentz_zero():
    assert lorentz_norm(mk([0.0]), LorentzWeight.linear()) == 0.0


def test_lorentz_capped_equals_hl_integral_randomized():
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = rng.normal(size=12)
        w = rng.uniform(0.1, 2.0, size=12)
        f = mk(v, weights=w)
        c = float(rng.uniform(0.2, w.sum()))
        r = rearrangement(f)
        if r.plateaus.size == 0:
            continue
        assert lorentz_norm(f, LorentzWeight.capped(c)) == pytest.approx(
            r.integral(c), abs=1e-9
        )


# ---------------------------------------------------------------------- tail


def test_tail_constant_function_never_decays():
    sp = unit_space(6)
    f = MeasurableFunction.ones(sp)
    for t0 in (0.0, 2.5, 5.9):
        assert rearrangement(f).values_at(t0) == pytest.approx(1.0, abs=1e-12)


def test_tail_compact_support():
    sp = unit_space(5)
    f = MeasurableFunction.indicator(sp, [0, 1])
    assert rearrangement(f).values_at(3.0) == 0.0


def test_tail_harmonic_profile():
    n = 10
    f = mk([1.0 / i for i in range(1, n + 1)])
    want = 1.0 / (n // 2 + 1)
    assert rearrangement(f).values_at(n / 2) == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------------- integer rule

ONES_64 = Rearrangement(np.array([0.0, 64.0]), np.array([1.0]))
CERT_1_5_17 = construct_certificate(ONES_64, 0.1, 3)
CYCLE_4 = PointSystem.cyclic(4)


def _shift(bps, window):
    T = signed_shift_operator(bps, 1, window)
    return T.point_map.tolist(), T.multiplier.tolist()


def _budget(max_iterations):
    T = signed_shift_operator([1, 3], 1, 4)
    report = cesaro(T, MeasurableFunction.ones(T.space), [1, 2], probes=(0,),
                    max_iterations=max_iterations)
    return report.probe_values.tolist()


# entry point -> (call on a value, a value that is not an integer, an
# integer that the call takes)
INTEGER_RULE_CASES = {
    "verify_certificate breakpoint": (
        lambda v: verify_certificate(
            CERT_1_5_17._replace(breakpoints=(1, v, 17)), ONES_64),
        2.5, 5),
    "direct_averages ns": (
        lambda v: direct_averages(ONES_64, [1, 5], [0.5], [1, v]), 2.5, 2),
    "rotation_closed_form n": (
        lambda v: rotation_closed_form(Fraction(1, 4), 0, 0.0, v), 2.5, 2),
    "geometric_checkpoints limit": (geometric_checkpoints, 2.5, 2),
    "geometric_checkpoints nan limit": (geometric_checkpoints, float("nan"), 2),
    "cesaro max_iterations": (_budget, 2.5, 2),
    "cesaro nan max_iterations": (_budget, float("nan"), 2),
    "construct_certificate grid": (
        lambda v: construct_certificate(ONES_64, 0.1, 3, grid=v), 2.5, 2),
    "construct_certificate stages": (
        lambda v: construct_certificate(ONES_64, 0.1, v), 2.5, 2),
    "signed_shift_operator nan breakpoint": (
        lambda v: _shift([1, v], 8), float("nan"), 5),
    "signed_shift_operator inf breakpoint": (
        lambda v: _shift([1, v], 8), float("inf"), 5),
    "signed_shift_operator window": (
        lambda v: _shift([1, 2], v), 2.5, 2),
    "wiener_wintner_sweep grid_size": (
        lambda v: wiener_wintner_sweep(
            CYCLE_4, MeasurableFunction.ones(CYCLE_4.space), (0,), v, (1, 5)),
        2.5, 2),
    "PointSystem.cycle start": (CYCLE_4.cycle, 1.5, 1),
    "rotation_oracle checkpoint": (
        lambda v: rotation_oracle(4, 1, 1, [0], 2, [1, v]), 2.5, 2),
    "rotation_oracle grid_size": (
        lambda v: rotation_oracle(4, 1, 1, [0], v, [1, 2]), 2.5, 2),
    "WeightSequence.values n": (
        lambda v: WeightSequence.lambda_power(1j).values(v), 2.5, 3),
    "PointSystem.orbit n": (lambda v: CYCLE_4.orbit(0, v), 2.5, 6),
    "AtomicMeasureSpace.uniform n": (
        lambda v: AtomicMeasureSpace.uniform(v).weights, 2.5, 3),
    "PointSystem.cyclic order": (lambda v: PointSystem.cyclic(v).tau, 4.5, 5),
    "PointSystem.cyclic step": (lambda v: PointSystem.cyclic(4, v).tau, 1.5, 1),
    "rotation_oracle order": (
        lambda v: rotation_oracle(v, 1, 1, [1], 2, [1, 2]), 4.5, 4),
    "rotation_oracle character": (
        lambda v: rotation_oracle(4, v, 1, [1], 2, [1, 2]), 0.5, 1),
    "rotation_oracle step": (
        lambda v: rotation_oracle(4, 1, v, [1], 2, [1, 2]), 0.5, 1),
    "rotation_oracle probe": (
        lambda v: rotation_oracle(4, 1, 1, [v], 2, [1, 2]), 0.5, 1),
    "besicovitch_deviation n": (
        lambda v: besicovitch_deviation(
            WeightSequence.constant(1.0), dft_interpolant([1.0]), v), 2.5, 3),
    "MeasurableFunction.indicator atom": (
        lambda v: MeasurableFunction.indicator(CYCLE_4.space, [v]).values, 1.5, 1),
}


@pytest.mark.parametrize("case", sorted(INTEGER_RULE_CASES))
def test_counts_and_schedules_take_integers_only(case):
    call, fraction, integer = INTEGER_RULE_CASES[case]
    want = call(integer)
    for v in (float(integer), np.int64(integer)):  # integral values pass
        got = call(v)
        assert type(got) is type(want) and repr(got) == repr(want)
    with pytest.raises(InputError, match="must be integers"):
        call(fraction)


NAN, INF = float("nan"), float("inf")
# inputs that break one of the rules, each refused with InputError rather
# than accepted or left to numpy's or Python's own error
RULE_ESCAPES = {
    "orbit of negative length": lambda: CYCLE_4.orbit(0, -1),
    "oracle on order 0": lambda: rotation_oracle(0, 1, 1, [0], 2, [1, 2]),
    "oracle on an empty grid": lambda: rotation_oracle(4, 1, 1, [0], 0, [1, 2]),
    "oracle of a fractional character": (
        lambda: rotation_oracle(4, 0.5, 1, [0], 2, [1, 2])),
    "lambda_power of NaN": lambda: WeightSequence.lambda_power(NAN),
    "trig term of NaN frequency": lambda: TrigTerm(1.0, NAN),
    "trig term of NaN coefficient": lambda: TrigTerm(NAN, 1.0),
    "periodic weight of inf": lambda: WeightSequence.periodic([INF]),
    "constant weight of NaN": lambda: WeightSequence.constant(NAN),
    "explicit weight of NaN": lambda: WeightSequence.explicit([NAN]),
    "explicit weight of NaN within a bound": (
        lambda: WeightSequence.explicit([NAN], bound=1.0)),
    "interpolant of NaN": lambda: dft_interpolant([1.0, NAN]),
    "indicator of a fractional atom": (
        lambda: MeasurableFunction.indicator(CYCLE_4.space, [1.5])),
    "indicator of a negative atom": (
        lambda: MeasurableFunction.indicator(CYCLE_4.space, [-1])),
    "product probe pair of one entry": lambda: _product_probes([(0,)]),
    "product probe pair of three entries": lambda: _product_probes([(0, 1, 2)]),
    "product probe of a bare int": lambda: _product_probes([0]),
    "product probes of a bare int": lambda: _product_probes(0),
    # not numbers at all: each was numpy's or Python's own error
    "lambda_power of a string": lambda: WeightSequence.lambda_power("x"),
    "lambda_power of None": lambda: WeightSequence.lambda_power(None),
    "lambda_power of two values": (
        lambda: WeightSequence.lambda_power(np.array([1.0, 1j]))),
    "trig term of a string frequency": lambda: TrigTerm(1.0, "x"),
    "periodic weight of a string": lambda: WeightSequence.periodic("abc"),
    "periodic weight of a ragged list": (
        lambda: WeightSequence.periodic([[1.0], [2.0, 3.0]])),
    "explicit weight of a string": lambda: WeightSequence.explicit("abc"),
    "interpolant of a string": lambda: dft_interpolant("abc"),
    "multiplier of a string": (
        lambda: CompositionOperator([1, 2, 3, 0], "abcd", CYCLE_4.space)),
    "multiplier of strings": (
        lambda: CompositionOperator([1, 2, 3, 0], list("abcd"), CYCLE_4.space)),
}


def _product_probes(probes):
    ones = MeasurableFunction.ones(CYCLE_4.space)
    return product_average(CYCLE_4, ones, CYCLE_4, ones, probes, (1, 4))


@pytest.mark.parametrize("case", sorted(RULE_ESCAPES))
def test_each_rule_refuses_what_its_copies_let_through(case):
    with pytest.raises(InputError):
        RULE_ESCAPES[case]()
