"""Rearrangements, majorization, and the symmetric-space norms."""

import numpy as np
import pytest

from ergosym import (
    AtomicMeasureSpace,
    InputError,
    LorentzWeight,
    MeasurableFunction,
    NumericError,
    OrliczFunction,
    Rearrangement,
    TruncationWarning,
    decompose,
    lorentz_norm,
    luxemburg_norm,
    majorizes,
    norm,
    r_mu_tail,
    rearrangement,
)
from oracles import distribution_function, mu_oracle, partial_integral_oracle


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
    with pytest.raises(InputError):
        OrliczFunction(lambda u: u + 1.0)  # phi(0) != 0
    with pytest.raises(InputError):
        OrliczFunction(lambda u: np.sqrt(u))  # concave, fails midpoint check
    with pytest.raises(InputError):
        OrliczFunction.power(0.5)


def test_orlicz_positivity_is_checked_on_the_spot_grid():
    # zero on [0, 2] (so zero at 1), positive from 2 on
    phi = OrliczFunction(lambda u: np.maximum(0.0, u - 2.0) ** 2)
    # least a with (1/a - 2)^2 <= 1 is a = 1/3
    assert luxemburg_norm(mk([1.0]), phi, tol=1e-12) == pytest.approx(1 / 3, abs=1e-9)
    with pytest.raises(InputError):
        OrliczFunction(lambda u: 0.0 * u)


def test_orlicz_rejects_negative_values_on_the_spot_grid():
    # convex, zero at 0 and positive from 1/2 on, but phi(1/4) = -1/16
    with pytest.raises(InputError, match="nonnegative"):
        OrliczFunction(lambda u: u**2 - u / 2)


def test_luxemburg_reduces_to_l1_for_identity():
    f = mk([3.0, 1.0, 2.0])
    phi = OrliczFunction.power(1.0)
    assert luxemburg_norm(f, phi, tol=1e-12) == pytest.approx(6.0, abs=1e-9)


def test_luxemburg_square_closed_form():
    sp = AtomicMeasureSpace(np.ones(4))
    f = MeasurableFunction.ones(sp)
    phi = OrliczFunction.power(2.0)
    # modular 4/a^2 = 1 at a = 2
    assert luxemburg_norm(f, phi, tol=1e-12) == pytest.approx(2.0, abs=1e-9)


def test_luxemburg_zero_function():
    assert luxemburg_norm(mk([0.0, 0.0]), OrliczFunction.power(2.0)) == 0.0


def test_luxemburg_sqrt_total_measure_growth():
    # ||1||_phi = sqrt(M) for phi(u)=u^2; strictly increasing in the window
    phi = OrliczFunction.power(2.0)
    prev = 0.0
    for m in (1, 4, 9, 25):
        sp = AtomicMeasureSpace(np.ones(m), truncated=True)
        a = luxemburg_norm(MeasurableFunction.ones(sp), phi, tol=1e-12)
        assert a == pytest.approx(np.sqrt(m), abs=1e-9)
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
        a = luxemburg_norm(f, phi, tol=1e-12)
        closed = float(np.sqrt(np.sum(w * np.abs(v) ** 2)))
        assert a == pytest.approx(closed, abs=1e-9)


# -------------------------------------------------------------------- Lorentz


def test_lorentz_weight_validation():
    with pytest.raises(InputError):
        LorentzWeight(np.array([0.0, 1.0]), np.array([1.0, 2.0]))  # slopes increase
    with pytest.raises(InputError):
        LorentzWeight(np.array([1.0, 2.0]), np.array([1.0, 0.5]))  # knots off 0
    with pytest.raises(InputError):
        LorentzWeight(np.array([0.0]), np.array([-1.0]))


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


# ----------------------------------------------------------------- tail, split


def test_tail_constant_function_never_decays():
    sp = unit_space(6)
    f = MeasurableFunction.ones(sp)
    for t0 in (0.0, 2.5, 5.9):
        assert r_mu_tail(f, t0) == pytest.approx(1.0, abs=1e-12)


def test_tail_compact_support():
    sp = unit_space(5)
    f = MeasurableFunction.indicator(sp, [0, 1])
    assert r_mu_tail(f, 3.0) == 0.0


def test_tail_harmonic_profile():
    n = 10
    f = mk([1.0 / i for i in range(1, n + 1)])
    assert r_mu_tail(f, n / 2) == pytest.approx(1.0 / (n // 2 + 1), abs=1e-12)


def test_tail_truncation_warning_and_domain():
    f = mk([1.0, 1.0])
    with pytest.warns(TruncationWarning):
        assert r_mu_tail(f, 2.0) == 0.0
    for t0 in (-0.5, float("nan")):
        with pytest.raises(InputError):
            r_mu_tail(f, t0)


def test_decompose_examples_and_identities():
    f = mk([3.0, 1.0, 2.0])
    g, h = decompose(f, 1.5)
    assert np.allclose(g.values, [3.0, 0.0, 2.0])
    assert np.allclose(h.values, [0.0, 1.0, 0.0])
    f2 = mk([0.1, 5.0, 0.2, 0.3])
    g2, h2 = decompose(f2, 0.25)
    assert np.allclose(g2.values, [0.0, 5.0, 0.0, 0.3])
    assert np.allclose(h2.values, [0.1, 0.0, 0.2, 0.0])
    # boundary: threshold at or above the sup collapses g
    g3, h3 = decompose(f, 3.0)
    assert np.allclose(g3.values, 0.0)
    assert np.allclose(h3.values, f.values)


def test_decompose_randomized_invariants():
    rng = np.random.default_rng(22)
    for _ in range(25):
        v = rng.normal(size=20) + 1j * rng.normal(size=20)
        f = mk(v)
        eps = float(rng.uniform(0.0, 2.0))
        g, h = decompose(f, eps)
        assert np.array_equal(g.values + h.values, f.values)
        assert norm(h, "Linf") <= eps + 1e-15
        assert norm(g, "L1") <= norm(f, "L1") + 1e-12
