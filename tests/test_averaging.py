"""Streaming Cesaro and weighted averaging engines."""

import functools
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosym import (
    AtomicMeasureSpace,
    BudgetError,
    CapabilityError,
    CompositionOperator,
    InputError,
    KernelOperator,
    MeasurableFunction,
    NumericError,
    TrigPolynomial,
    TrigTerm,
    WeightSequence,
    apply,
    cesaro,
    geometric_checkpoints,
    majorization_trace,
    majorizes,
    norm,
    signed_shift_operator,
    weighted,
)
from ergosym import averaging, spaces
from ergosym.formats import operator_from_json
from dense import dense
from oracles import naive_averages, naive_weighted_averages


def unit_space(n):
    return AtomicMeasureSpace(np.ones(n))


def cyclic(n, space):
    return CompositionOperator(
        (np.arange(n) + 1) % n, np.ones(n, dtype=complex), space,
        measure_preserving=True,
    )


def random_ds_kernel(rng, n):
    sp = unit_space(n)
    k = rng.normal(size=(n, n))
    col = np.max(np.sum(np.abs(k), axis=0))
    row = np.max(np.sum(np.abs(k), axis=1))
    k /= max(col, row) * (1.0 + 1e-9)
    return KernelOperator(k, sp)


# --------------------------------------------------------------- checkpoints


def test_geometric_checkpoints():
    assert geometric_checkpoints(1) == (1,)
    assert geometric_checkpoints(8) == (1, 2, 4, 8)
    assert geometric_checkpoints(10) == (1, 2, 4, 8, 10)
    with pytest.raises(InputError):
        geometric_checkpoints(0)


def test_checkpoint_validation():
    sp = unit_space(2)
    T = KernelOperator(np.eye(2), sp)
    f = MeasurableFunction.ones(sp)
    with pytest.raises(InputError):
        cesaro(T, f, (5, 5))
    with pytest.raises(InputError):
        cesaro(T, f, ())
    with pytest.raises(InputError):
        cesaro(T, f, (0, 3))


# -------------------------------------------------------------------- cesaro


def test_identity_fixed_point():
    sp = unit_space(5)
    rng = np.random.default_rng(50)
    f = MeasurableFunction(rng.normal(size=5) + 1j * rng.normal(size=5), sp)
    rep = cesaro(KernelOperator(np.eye(5), sp), f, (1, 3, 10))
    for a in rep.averages:
        assert np.max(np.abs(a.values - f.values)) <= 1e-12


def test_cyclic_full_period_telescopes():
    n = 6
    sp = unit_space(n)
    rng = np.random.default_rng(51)
    v = rng.normal(size=n)
    f = MeasurableFunction(v, sp)
    rep = cesaro(cyclic(n, sp), f, (n,))
    assert np.max(np.abs(rep.averages[0].values - np.mean(v))) <= 1e-14


def test_counterexample_probe_values():
    T = signed_shift_operator([1, 5, 17], grid=2, window=17)
    f = MeasurableFunction.ones(T.space)
    probe = 1  # atom covering t in (0.5, 1.0): inside the unit interval
    rep = cesaro(T, f, (1, 5, 17), probes=(probe,))
    vals = rep.probe_values[:, 0].real
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[1] == pytest.approx(-3.0 / 5.0, abs=1e-12)
    assert vals[2] == pytest.approx(9.0 / 17.0, abs=1e-12)


def test_streaming_matches_naive_randomized():
    rng = np.random.default_rng(52)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        T = random_ds_kernel(rng, n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = MeasurableFunction(v, T.space)
        ns = sorted(set(int(x) for x in rng.integers(1, 200, size=4)))
        rep = cesaro(T, f, ns)
        K = dense(T)
        want = naive_averages(lambda u: K @ u, v, ns)
        for a, b in zip(rep.averages, want):
            assert np.max(np.abs(a.values - b)) <= 1e-12


def test_norm_columns_match_recomputation():
    rng = np.random.default_rng(53)
    T = random_ds_kernel(rng, 8)
    f = MeasurableFunction(rng.normal(size=8), T.space)
    rep = cesaro(T, f, (1, 7, 33), probes=(2,))
    for i, a in enumerate(rep.averages):
        assert rep.l1_norms[i] == pytest.approx(norm(a, "L1"), abs=1e-12)
        assert rep.linf_norms[i] == pytest.approx(norm(a, "Linf"), abs=1e-12)
        assert rep.probe_values[i, 0] == a.values[2]


def test_ds_norm_contraction_along_run():
    rng = np.random.default_rng(54)
    for _ in range(10):
        T = random_ds_kernel(rng, 9)
        f = MeasurableFunction(rng.normal(size=9), T.space)
        rep = cesaro(T, f, (1, 2, 4, 8, 16, 32))
        assert np.all(rep.l1_norms <= norm(f, "L1") * (1 + 1e-12))
        assert np.all(rep.linf_norms <= norm(f, "Linf") * (1 + 1e-12))


def test_budget_error():
    sp = unit_space(2)
    T = KernelOperator(np.eye(2), sp)
    f = MeasurableFunction.ones(sp)
    with pytest.raises(BudgetError):
        cesaro(T, f, (10, 2000), max_iterations=1000)


def test_probe_out_of_range():
    sp = unit_space(2)
    T = KernelOperator(np.eye(2), sp)
    f = MeasurableFunction.ones(sp)
    with pytest.raises(InputError):
        cesaro(T, f, (1,), probes=(5,))


def test_probe_only_mode_skips_averages():
    sp = unit_space(3)
    T = KernelOperator(np.eye(3), sp)
    f = MeasurableFunction.ones(sp)
    rep = cesaro(T, f, (1, 2), probes=(0,), store_averages=False)
    assert rep.averages is None
    # norms still populated from the running sum
    assert np.allclose(rep.l1_norms, [3.0, 3.0])
    with pytest.raises(CapabilityError):
        majorization_trace(rep, f)


# ------------------------------------------------------------ probe-orbit lane


def signed_shift_lanes(values):
    """Full (norms, lifted) and probe-lane reports of one signed-shift run."""
    T = signed_shift_operator([1, 5, 17, 53], grid=4, window=60)
    n = T.space.n_atoms
    f = MeasurableFunction(values(np.random.default_rng(59), n), T.space)
    probes = (0, 1, 3, 100, 230, n - 1)  # the last ones absorb
    cps = (1, 5, 17, 53)
    full = cesaro(T, f, cps, probes=probes, store_averages=False)
    lane = cesaro(T, f, cps, probes=probes, store_averages=False, norms=False)
    assert lane.l1_norms is None and lane.linf_norms is None
    assert lane.averages is None
    assert full.l1_norms is not None and full.linf_norms is not None
    return full, lane


def test_probe_lane_signed_shift_bitwise():
    # the full run is lifted and sums in another order than the probe lane;
    # an integer-valued profile has exact sums in any order
    full, lane = signed_shift_lanes(lambda rng, n: rng.integers(1, 9, n).astype(float))
    assert np.array_equal(lane.probe_values, full.probe_values)


def test_probe_lane_signed_shift_float_profile():
    full, lane = signed_shift_lanes(lambda rng, n: 1.0 + rng.random(n))
    assert np.max(np.abs(lane.probe_values - full.probe_values)) <= 1e-12


@pytest.mark.parametrize("bijective", [True, False])
def test_probe_lane_matches_full_on_random_compositions(bijective):
    rng = np.random.default_rng(60 + bijective)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        sp = unit_space(n)
        pm = rng.permutation(n) if bijective else rng.integers(0, n, n)
        mult = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
        T = CompositionOperator(pm, mult, sp)
        f = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), sp)
        probes = tuple(int(p) for p in rng.integers(0, n, 3))
        cps = sorted(set(int(x) for x in rng.integers(1, 300, size=4)))
        beta = WeightSequence.lambda_power(np.exp(2j * np.pi * rng.uniform()))
        for run in (
            lambda **kw: cesaro(T, f, cps, probes=probes, **kw),
            lambda **kw: weighted(T, f, beta, cps, probes=probes, **kw),
        ):
            full = run()
            lane = run(store_averages=False, norms=False)
            assert lane.l1_norms is None
            assert lane.probe_values.shape == full.probe_values.shape
            assert np.max(np.abs(lane.probe_values - full.probe_values)) <= 1e-12


def test_kernel_without_norms_matches_full_mode():
    rng = np.random.default_rng(62)
    T = random_ds_kernel(rng, 9)
    f = MeasurableFunction(rng.normal(size=9) + 1j * rng.normal(size=9), T.space)
    full = cesaro(T, f, (1, 4, 30), probes=(2, 7))
    bare = cesaro(T, f, (1, 4, 30), probes=(2, 7), store_averages=False,
                  norms=False)
    assert np.array_equal(bare.probe_values, full.probe_values)
    assert bare.l1_norms is None and bare.linf_norms is None


# --------------------------------------------------------------- lifted lane


def random_composition(rng, n, bijective=False):
    """Random point map (rho-shaped orbits unless bijective) with complex
    multipliers of modulus below 1, about a fifth of them 0 (absorbing)."""
    pm = rng.permutation(n) if bijective else rng.integers(0, n, n)
    mult = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
    mult[rng.random(n) < 0.2] = 0.0
    return CompositionOperator(pm, mult, unit_space(n))


def weight_kinds(rng):
    lam = np.exp(2j * np.pi * rng.uniform())
    return {
        "cesaro": None,
        "constant": WeightSequence.constant(complex(rng.normal(), rng.normal())),
        # period 7 divides none of the checkpoints drawn below
        "periodic": WeightSequence.periodic(rng.normal(size=7) + 1j * rng.normal(size=7)),
        # a period longer than every checkpoint is never lifted
        "long_period": WeightSequence.periodic(rng.normal(size=1000)),
        "lambda_power": WeightSequence.lambda_power(lam),
        "trig_poly": WeightSequence.trig_poly(TrigPolynomial((
            TrigTerm.from_phase(0.5 - 0.25j, Fraction(3, 7)),
            TrigTerm(0.25 + 0.1j, lam),
            TrigTerm.from_phase(-0.3, Fraction(5, 64)),
        ))),
    }


def _report_bits(rep):
    """A report's every value, each array by its bytes."""
    arrays = (rep.probe_values, rep.l1_norms, rep.linf_norms)
    return ([None if a is None else a.tobytes() for a in arrays],
            None if rep.averages is None else [a.values.tobytes() for a in rep.averages],
            rep.weight_bound, rep.majorized)


@pytest.mark.parametrize("lane", ["lifted", "probe_orbit", "kahan"])
@pytest.mark.parametrize("kind", ["cesaro", "periodic", "lambda_power", "trig_poly"])
@pytest.mark.parametrize("bijective", [True, False])
def test_real_multiplier_gives_the_bits_of_its_complex_form(lane, kind, bijective):
    # a float64 multiplier and the same one as complex128 with imaginary part
    # +0.0, on f with zeros, negative zeros and real entries: numpy casts
    # the float to complex in each complex product, and the lifted lane's
    # sums start at +0.0, so products of real multipliers (whose complex
    # form may carry -0.0) do not show
    rng = np.random.default_rng(86)
    n, cps = 48, (1, 2, 3, 4, 8, 13, 16, 32, 64, 100)
    pm = rng.permutation(n) if bijective else rng.integers(0, n, n)
    m = rng.choice([-1.0, 1.0, 0.5, -0.75, 0.0], n)
    real, cplx = (CompositionOperator(pm, x, unit_space(n)) for x in (m, m + 0j))
    assert real.multiplier.dtype == np.float64
    assert cplx.multiplier.dtype == np.complex128
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v[::5], v.imag[::3], v.real[::7] = 0.0, 0.0, -0.0
    beta = weight_kinds(rng)[kind]
    if lane == "kahan":  # explicit weights take the Kahan lane
        beta = WeightSequence.explicit(np.ones(cps[-1]) if beta is None
                                       else beta.values(cps[-1]))
    full = lane != "probe_orbit"
    reports = []
    for T in (real, cplx):
        f = MeasurableFunction(v, T.space)
        kw = dict(probes=(0, 7, 31), store_averages=full, norms=full, majorize=full)
        if beta is None:
            reports.append(cesaro(T, f, cps, **kw))
        else:
            reports.append(weighted(T, f, beta, cps, **kw))
    assert _report_bits(reports[0]) == _report_bits(reports[1])


# a geometric list, one with power-of-two gaps past 16, and one with gaps of
# every binary shape
SIGN_CHECKPOINTS = {
    "geometric": (1, 2, 4, 8, 16, 32, 64, 100),
    "dense": (1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64, 96, 128),
    "mixed": (3, 5, 12, 24, 25, 31, 62),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sign_multiplier_gives_the_bits_of_its_float64_form(data):
    # entries -1, +0 and +1 are held as int8 and cast to the same complex
    # values as their float64 form. A product of signs is exact in any
    # order, so the powers differ at most in the sign of a zero product, and
    # the lifted lane, which carries T^c for signs and builds T^c f from it
    # but steps T^c f itself for float64, gives the same bytes on every lane
    n = data.draw(st.integers(1, 40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pm = rng.permutation(n) if data.draw(st.booleans(), label="bijective") else (
        rng.integers(0, n, n))
    levels = data.draw(st.sampled_from([[-1.0, 1.0], [-1.0, 0.0, 1.0]]), label="levels")
    signs = rng.choice(levels, n)
    T = CompositionOperator(pm, signs, unit_space(n))
    F = CompositionOperator(pm, signs, unit_space(n))
    F.multiplier = signs
    assert T.multiplier.dtype == np.int8 and F.multiplier.dtype == np.float64
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v[::5], v.imag[::3], v.real[::7] = 0.0, 0.0, -0.0
    assert T.apply_values(v).tobytes() == F.apply_values(v).tobytes()
    e = data.draw(st.integers(1, 300), label="power")
    (s8, m8), (sf, mf) = (averaging._power((X.point_map, X.multiplier), e)
                          for X in (T, F))
    assert m8.dtype == np.int8 and s8.tobytes() == sf.tobytes()
    assert (m8 + 0.0).tobytes() == (mf + 0.0).tobytes()  # + 0.0 clears -0.0
    cps = SIGN_CHECKPOINTS[data.draw(st.sampled_from(sorted(SIGN_CHECKPOINTS)),
                                     label="checkpoints")]
    kind = data.draw(st.sampled_from(
        ["probe_orbit", "kahan", "cesaro", "lambda_power", "periodic", "trig_poly"]),
        label="lane")
    beta = None if kind in ("probe_orbit", "cesaro") else (
        WeightSequence.explicit(rng.normal(size=cps[-1]) + 1j)
        if kind == "kahan" else weight_kinds(rng)[kind])
    full = kind != "probe_orbit"
    kw = dict(probes=(0, n - 1), store_averages=full, norms=full, majorize=full)
    reports = [cesaro(X, MeasurableFunction(v, X.space), cps, **kw) if beta is None
               else weighted(X, MeasurableFunction(v, X.space), beta, cps, **kw)
               for X in (T, F)]
    assert _report_bits(reports[0]) == _report_bits(reports[1])


@pytest.mark.parametrize("value", [0.5, np.exp(0.3j), -1.0, 1.0],
                         ids=["half", "unit_complex", "minus_one", "one"])
@pytest.mark.parametrize("kind", ["cesaro", "lambda_power", "trig_poly", "periodic"])
@pytest.mark.parametrize("shape", sorted(SIGN_CHECKPOINTS))
def test_broadcast_multiplier_gives_the_bits_of_its_full_form(value, kind, shape):
    # a broadcast multiplier is held as given. Only a sign lets the lifted
    # lane build T^c f from T^c; other values, such as the powers of
    # exp(0.3j) taken by squaring, round otherwise than the T^c f stepped to
    n = 9
    rng = np.random.default_rng(93)
    pm = rng.integers(0, n, n)
    B = CompositionOperator(pm, np.broadcast_to(value, n), unit_space(n))
    F = CompositionOperator(pm, np.full(n, value), unit_space(n))
    assert B.multiplier.strides == (0,) and F.multiplier.strides != (0,)
    v = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), unit_space(n))
    beta = weight_kinds(rng)[kind]
    kw = dict(probes=(0, n - 1), majorize=True)
    cps = SIGN_CHECKPOINTS[shape]
    reports = [cesaro(X, v, cps, **kw) if beta is None else weighted(X, v, beta, cps, **kw)
               for X in (B, F)]
    assert _report_bits(reports[0]) == _report_bits(reports[1])


def test_explicit_weight_above_one_gives_the_same_rows_stored_or_not():
    # M is about 2, so each flag compares |a_n| / M, read off the running sum
    # a block at a time over more than one block, with f; the stored run
    # scales each kept average instead
    rng = np.random.default_rng(89)
    n, cps = 3 * spaces._BLOCK + 5, (1, 2, 3, 7, 16, 40)
    T = CompositionOperator(rng.permutation(n), rng.choice([-1.0, 1.0], n),
                            unit_space(n), measure_preserving=True)
    beta = WeightSequence.explicit(2.0 * np.exp(2j * np.pi * rng.random(cps[-1])),
                                   bound=2.0)
    f = MeasurableFunction(rng.normal(size=n), T.space)
    streamed = weighted(T, f, beta, cps, probes=(0, n - 1), store_averages=False,
                        majorize=True)
    stored = weighted(T, f, beta, cps, probes=(0, n - 1))
    assert streamed.weight_bound == stored.weight_bound > 1.99
    assert streamed.majorized == majorization_trace(stored, f)
    for field in ("probe_values", "l1_norms", "linf_norms"):
        assert getattr(streamed, field).tobytes() == getattr(stored, field).tobytes()


def assert_matches_naive(T, f, beta, cps, tol=1e-12):
    step = T.apply_values
    if beta is None:
        rep = cesaro(T, f, cps)
        want = naive_averages(step, f.values, cps)
    else:
        rep = weighted(T, f, beta, cps)
        want = naive_weighted_averages(step, f.values, beta.values(cps[-1]), cps)
    assert rep.checkpoints == tuple(cps)
    for a, b in zip(rep.averages, want):
        assert np.max(np.abs(a.values - b)) <= tol


@pytest.mark.parametrize("kind", ["cesaro", "constant", "periodic", "long_period",
                                  "lambda_power", "trig_poly"])
@pytest.mark.parametrize("bijective", [True, False])
def test_lifted_lane_matches_naive(kind, bijective):
    rng = np.random.default_rng(70 + bijective)
    beta = weight_kinds(rng)[kind]
    for _ in range(8):
        n = int(rng.integers(1, 30))
        T = random_composition(rng, n, bijective)
        f = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), T.space)
        size = int(rng.integers(1, 6))
        cps = sorted(set(int(x) for x in rng.integers(1, 400, size=size)))
        assert_matches_naive(T, f, beta, cps)


@pytest.mark.parametrize("kind", ["cesaro", "constant", "periodic", "long_period",
                                  "lambda_power", "trig_poly"])
def test_lifted_lane_rho_orbit(kind):
    # tail 0 -> 1 -> 2 -> 3 into the cycle 3 -> 4 -> 5 -> 6 -> 3, atom 7
    # joins the tail at 2, and atom 8 is absorbed at once
    pm = np.array([1, 2, 3, 4, 5, 6, 3, 2, 8])
    mult = np.array([0.9j, -0.5, 1.0, 0.8 - 0.6j, -1.0, 0.7, 1j, 0.3, 0.0])
    T = CompositionOperator(pm, mult, unit_space(9))
    rng = np.random.default_rng(72)
    f = MeasurableFunction(rng.normal(size=9) + 1j * rng.normal(size=9), T.space)
    beta = weight_kinds(rng)[kind]
    for cps in ((1,), (1, 2, 3), (3, 7, 100, 513, 1000), (1023, 1024, 1025)):
        assert_matches_naive(T, f, beta, cps)


def test_lifted_lane_single_atom_single_step():
    T = CompositionOperator([0], [0.5 + 0.5j], unit_space(1))
    f = MeasurableFunction(np.array([2.0 - 1.0j]), T.space)
    for beta in weight_kinds(np.random.default_rng(73)).values():
        assert_matches_naive(T, f, beta, (1,), tol=1e-15)
        assert_matches_naive(T, f, beta, (1, 2, 5, 6))


# a geometric list doubles at every gap after the first; the mixed list
# doubles at 1 -> 2 -> 4 and 5 -> 10 -> 20 and walks the digits of the rest
DOUBLING_LISTS = (geometric_checkpoints(300), (1, 2, 4, 5, 10, 20, 23))


@pytest.mark.parametrize("kind", ["cesaro", "constant", "period_2", "period_5",
                                  "periodic", "lambda_power", "trig_poly"])
@pytest.mark.parametrize("bijective", [True, False])
def test_lifted_lane_doubling_matches_naive(kind, bijective):
    # a periodic weight doubles only from a c that its period divides:
    # period 2 from every c >= 2, period 5 from c = 5 and 10 in the mixed
    # list, period 7 ("periodic") never
    rng = np.random.default_rng(90 + bijective)
    kinds = weight_kinds(rng)
    for p in (2, 5):
        kinds[f"period_{p}"] = WeightSequence.periodic(
            rng.normal(size=p) + 1j * rng.normal(size=p))
    beta = kinds[kind]
    for _ in range(4):
        n = int(rng.integers(1, 30))
        T = random_composition(rng, n, bijective)
        f = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), T.space)
        for cps in DOUBLING_LISTS:
            assert_matches_naive(T, f, beta, cps)


def test_geometric_checkpoints_take_one_composition_each(monkeypatch):
    # 2^62 terms on 4 atoms: from c = 1 on, T^c and the sum double at each
    # gap, so T^2, ..., T^(2^61) are the only compositions (k(k-1)/2 = 1891
    # for a lane that rebuilds the powers of T at every checkpoint)
    calls = []
    compose = averaging._compose
    monkeypatch.setattr(averaging, "_compose",
                        lambda a, b: calls.append(None) or compose(a, b))
    T = cyclic(4, unit_space(4))
    f = MeasurableFunction(np.array([1.0, 2.0, -1.0, 0.5]), T.space)
    cps = geometric_checkpoints(2**62)
    rep = cesaro(T, f, cps, probes=(0, 3), store_averages=False,
                 max_iterations=2**62)
    assert len(cps) == 63 and len(calls) <= 62
    # T^4 = I: from n = 4 on, every average is the mean of f over the cycle,
    # and every partial sum is exact
    assert np.all(rep.probe_values[2:] == 0.625)
    assert np.all(rep.l1_norms[2:] == 4 * 0.625)


def _long_double_averages(T, f, betas, cps):
    """Stacked-iterate averages of sum_k betas[k] T^k f in long double."""
    m = T.multiplier.astype(np.clongdouble)
    g = f.values.astype(np.clongdouble)
    total, out = np.zeros_like(g), []
    for k in range(cps[-1]):
        total += np.clongdouble(betas[k]) * g
        g = m * g[T.point_map]
        if k + 1 in cps:
            out.append(total / (k + 1))
    return out


@pytest.mark.parametrize("kind", ["cesaro", "lambda_power"])
@pytest.mark.parametrize("bijective", [True, False])
def test_lifted_lane_accuracy_against_long_double(kind, bijective):
    # the doubled sums stay within a few roundings of a long-double
    # reference (about 2e-16 here) over 4096 terms
    rng = np.random.default_rng(92 + bijective)
    n_atoms, horizon = 64, 4096
    T = random_composition(rng, n_atoms, bijective)
    f = MeasurableFunction(rng.normal(size=n_atoms) + 1j * rng.normal(size=n_atoms),
                           T.space)
    cps = geometric_checkpoints(horizon)
    if kind == "cesaro":
        rep, betas = cesaro(T, f, cps), np.ones(horizon)
    else:
        beta = WeightSequence.lambda_power(np.exp(2j * np.pi * rng.uniform()))
        rep, betas = weighted(T, f, beta, cps), beta.values(horizon)
    want = _long_double_averages(T, f, betas, cps)
    err = max(float(np.max(np.abs(a.values - b))) for a, b in zip(rep.averages, want))
    assert err <= 1e-15 * max(1.0, float(np.max(np.abs(f.values))))


def test_explicit_weights_on_compositions_match_naive():
    rng = np.random.default_rng(74)
    T = random_composition(rng, 11)
    f = MeasurableFunction(rng.normal(size=11), T.space)
    beta = WeightSequence.explicit(rng.normal(size=60) + 1j * rng.normal(size=60))
    assert_matches_naive(T, f, beta, (1, 7, 33, 60))


@pytest.mark.parametrize("kind", ["cesaro", "constant", "lambda_power", "trig_poly"])
def test_lifted_lane_takes_no_single_steps(monkeypatch, kind):
    # geometric weights are extended by doubling alone; full and norms-only
    # runs take the same lifted path
    rng = np.random.default_rng(75)
    T = random_composition(rng, 16, bijective=True)
    f = MeasurableFunction(rng.normal(size=16), T.space)
    beta = weight_kinds(rng)[kind]
    want = naive_weighted_averages(
        T.apply_values, f.values,
        np.ones(300) if beta is None else beta.values(300), (3, 64, 300),
    )

    def refuse(self, v):
        raise AssertionError("single step in the lifted lane")

    monkeypatch.setattr(CompositionOperator, "apply_values", refuse)
    run = cesaro if beta is None else functools.partial(weighted, beta=beta)
    full = run(T, f, checkpoints=(3, 64, 300), probes=(0, 9))
    bare = run(T, f, checkpoints=(3, 64, 300), probes=(0, 9), store_averages=False)
    for i, (a, b) in enumerate(zip(full.averages, want)):
        assert np.max(np.abs(a.values - b)) <= 1e-12
        assert np.array_equal(full.probe_values[i], a.values[[0, 9]])
    assert np.array_equal(bare.probe_values, full.probe_values)
    assert np.array_equal(bare.l1_norms, full.l1_norms)


def test_periodic_gaps_lift_from_their_own_residue(monkeypatch):
    # a gap of d = 32 terms from any c lifts its 3 whole periods of p = 10
    # from the residue c mod p: p - 1 = 9 single steps for the residues and
    # d mod p = 2 after the last whole period, none to reach a multiple of p.
    # No gap doubles: 64 = 2 * 32, but p does not divide 32.
    rng = np.random.default_rng(93)
    p, cps = 10, tuple(range(32, 1025, 32))
    T = random_composition(rng, 16, bijective=True)
    f = MeasurableFunction(rng.normal(size=16) + 1j * rng.normal(size=16), T.space)
    beta = WeightSequence.periodic(rng.normal(size=p) + 1j * rng.normal(size=p))
    want = naive_weighted_averages(T.apply_values, f.values, beta.values(cps[-1]), cps)
    calls, inner = [], CompositionOperator.apply_values
    monkeypatch.setattr(CompositionOperator, "apply_values",
                        lambda self, v: calls.append(None) or inner(self, v))
    rep = weighted(T, f, beta, cps, probes=(0, 9))
    assert len(calls) == len(cps) * (p - 1 + 32 % p)
    for a, b in zip(rep.averages, want):
        assert np.max(np.abs(a.values - b)) <= 1e-12


def sparse_kernel(rng, n):
    """A DS kernel with rows of 0 to n entries, empty rows among them."""
    k = rng.normal(size=(n, n)) * (rng.random((n, n)) < rng.random((n, 1)))
    k[rng.integers(n)] = 0.0
    k /= max(np.max(np.sum(np.abs(k), axis=0)), np.max(np.sum(np.abs(k), axis=1)))
    return KernelOperator(k, unit_space(n))


@pytest.mark.parametrize("kind", ["cesaro", "periodic", "explicit", "lambda_power"])
def test_kernel_lane_takes_no_operator_applications(monkeypatch, kind):
    # the kernel lane steps the kernel's layout in its row order, so it
    # never calls apply_values, and its averages leave that order
    rng = np.random.default_rng(86)
    T = sparse_kernel(rng, 9)
    f = MeasurableFunction(rng.normal(size=9) + 1j * rng.normal(size=9), T.space)
    cps = (1, 5, 64, 150)
    beta = weight_kinds(rng).get(kind)
    if kind == "explicit":
        beta = WeightSequence.explicit(rng.normal(size=150) + 1j * rng.normal(size=150))
    want = naive_weighted_averages(
        T.apply_values, f.values,
        np.ones(150) if beta is None else beta.values(150), cps,
    )

    def refuse(self, v):
        raise AssertionError("operator application in the kernel lane")

    monkeypatch.setattr(KernelOperator, "apply_values", refuse)
    run = cesaro if beta is None else functools.partial(weighted, beta=beta)
    full = run(T, f, checkpoints=cps, probes=(0, 8), majorize=True)
    bare = run(T, f, checkpoints=cps, probes=(0, 8), store_averages=False, norms=False)
    for i, (a, b) in enumerate(zip(full.averages, want)):
        assert np.max(np.abs(a.values - b)) <= 1e-12
        assert np.array_equal(full.probe_values[i], a.values[[0, 8]])
    assert np.array_equal(bare.probe_values, full.probe_values)


def _kernel_lane_peak(n, horizon, beta, steps=None):
    """tracemalloc's peak for a weighted run of a fresh 4-entries-per-row
    kernel on n atoms to `horizon`, cut after `steps` terms; and the bytes
    of the kernel's layout and row order."""
    rng = np.random.default_rng(87)
    rows = np.repeat(np.arange(n), 4)
    cols = (rows + np.tile([0, 1, 3, 7], n)) % n
    space = AtomicMeasureSpace.uniform(n)
    T = KernelOperator.from_triplets(rows, cols, np.full(rows.size, 0.25), space)
    f = MeasurableFunction(rng.normal(size=n), space)
    orbit = averaging._orbit
    with pytest.MonkeyPatch.context() as mp:
        if steps is not None:
            mp.setattr(averaging, "_orbit",
                       lambda *a: itertools.islice(orbit(*a), steps))
        tracemalloc.start()
        try:
            weighted(T, f, beta, geometric_checkpoints(horizon), probes=(0,),
                     store_averages=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, sum(a.nbytes for a in (T.order, T.layout, T.layout_cols))


def test_kernel_lane_memory_does_not_grow_with_the_horizon():
    # a periodic weight is read from its own table, so the run holds no
    # n-long table of weights or their moduli (24 bytes per term)
    beta = WeightSequence.periodic([1.0, -0.5j, 0.25])
    short, plan = _kernel_lane_peak(64, 1 << 10, beta)
    long, _ = _kernel_lane_peak(64, 1 << 14, beta)
    assert long <= short + plan


def test_kernel_lane_holds_no_n_long_weight_table():
    # the weights are set up before the first term and a term allocates the
    # same at any k, so a run to n = 10^6 cut after 1000 terms shows the
    # set-up; the 10^6 weights and their moduli would take 24 MB
    beta = WeightSequence.periodic([1.0, -0.5j, 0.25])
    peak, _ = _kernel_lane_peak(8, 10**6, beta, steps=1000)
    assert peak < 2**20


def test_kernel_lane_bounds_an_explicit_list_without_its_moduli():
    # the weight bound M is a max over the 10^6 weights given, read a block
    # at a time: the list itself is built before the run, and its 10^6
    # moduli would take 8 MB
    beta = WeightSequence.explicit(np.exp(0.1j * np.arange(10**6)), bound=1.0)
    peak, _ = _kernel_lane_peak(8, 10**6, beta, steps=1000)
    assert peak < 2**20


# one complex vector on 2^16 atoms
MIB_PER_VECTOR = (1 << 16) * 16 / 2**20


@pytest.mark.parametrize("kind", ["cesaro", "lambda_power"])
def test_lifted_lane_memory_stays_linear_in_atoms(kind):
    # n = 1e6 terms on 2^16 atoms take well under a second lifted. Holding
    # the log2(n) = 20 powers of T (point map and multiplier) and their block
    # sums would add about 50 MiB; the lane keeps a few vectors (about 10 MiB).
    # Weighted runs also materialize the n weights once (16 bytes per term;
    # the bound allows 24), and read their moduli for M a block at a time.
    n_atoms, horizon = 1 << 16, 10**6
    rng = np.random.default_rng(76)
    T = CompositionOperator(
        rng.permutation(n_atoms), rng.choice([-1.0, 1.0], n_atoms),
        AtomicMeasureSpace(np.ones(n_atoms)), measure_preserving=True,
    )
    f = MeasurableFunction(rng.normal(size=n_atoms), T.space)
    cps = geometric_checkpoints(horizon)
    beta = None if kind == "cesaro" else WeightSequence.lambda_power(np.exp(0.7j))
    bound = 20 * MIB_PER_VECTOR + (0 if beta is None else 24 * horizon / 2**20)
    tracemalloc.start()
    try:
        if beta is None:
            rep = cesaro(T, f, cps, probes=(0,), store_averages=False)
        else:
            rep = weighted(T, f, beta, cps, probes=(0,), store_averages=False)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= bound
    assert np.all(rep.l1_norms <= norm(f, "L1") * (1 + 1e-12))
    assert np.all(rep.linf_norms <= norm(f, "Linf") * (1 + 1e-12))


def test_sparse_kernel_memory_is_linear_in_entries():
    # A kernel with 4 entries per row on 2^16 atoms, decoded from triplets and
    # averaged to n = 256 with every average kept. As a dense matrix it would
    # take 64 GiB. In CSR form the run peaks at about 28 MiB (numpy 2.4): the
    # decoding temporaries, the entries (24 bytes each), the 9 stored
    # averages and a few vectors. One application costs about 2.5 ms.
    n_atoms, per_row, horizon = 1 << 16, 4, 256
    rng = np.random.default_rng(78)
    # entry k of row i sits in column p[(q[i] + k N/4) mod N] for permutations
    # p, q: each k is a permutation, so K is doubly stochastic, and a row's
    # four columns differ
    p, q = rng.permutation(n_atoms), rng.permutation(n_atoms)
    rows = np.repeat(np.arange(n_atoms), per_row)
    shifts = np.tile(np.arange(per_row) * (n_atoms // per_row), n_atoms)
    cols = p[(q[rows] + shifts) % n_atoms]
    spec = {"kind": "kernel", "rows": rows.tolist(), "cols": cols.tolist(),
            "data_re": np.full(rows.size, 1.0 / per_row).tolist()}
    space = AtomicMeasureSpace.uniform(n_atoms)
    f = MeasurableFunction(rng.normal(size=n_atoms), space)
    cps = geometric_checkpoints(horizon)
    tracemalloc.start()
    try:
        T = operator_from_json(spec, space)
        rep = cesaro(T, f, cps, probes=(0,))
        flags = majorization_trace(rep, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 96 * rows.size + (len(cps) + 8) * n_atoms * 16
    assert T.data.size == rows.size and peak <= bound
    assert all(flags)
    assert np.all(rep.l1_norms <= norm(f, "L1") * (1 + 1e-12))


# ------------------------------------------------------------------ weighted


def test_constant_weight_matches_cesaro_exactly():
    rng = np.random.default_rng(55)
    T = random_ds_kernel(rng, 6)
    f = MeasurableFunction(rng.normal(size=6) + 1j * rng.normal(size=6), T.space)
    cps = (1, 3, 9, 27)
    a = cesaro(T, f, cps)
    b = weighted(T, f, WeightSequence.constant(1.0), cps)
    for x, y in zip(a.averages, b.averages):
        assert np.array_equal(x.values, y.values)


def test_alternating_weight_identity_operator():
    sp = unit_space(4)
    rng = np.random.default_rng(56)
    v = rng.normal(size=4)
    f = MeasurableFunction(v, sp)
    T = KernelOperator(np.eye(4), sp)
    beta = WeightSequence.periodic(np.array([1.0, -1.0]))
    rep = weighted(T, f, beta, (2, 4, 7, 101))
    assert np.max(np.abs(rep.averages[0].values)) <= 1e-15
    assert np.max(np.abs(rep.averages[1].values)) <= 1e-15
    assert np.max(np.abs(rep.averages[2].values - v / 7)) <= 1e-15
    assert np.max(np.abs(rep.averages[3].values - v / 101)) <= 1e-14


def test_lambda_power_cyclic_closed_form():
    # order-4 shift, lambda = i: at n = 4m the sum telescopes to
    # (1/4)(1, -i, -1, i) on the orbit of the unit mass at atom 0
    sp = unit_space(4)
    T = cyclic(4, sp)
    f = MeasurableFunction(np.array([1.0, 0, 0, 0], dtype=complex), sp)
    rep = weighted(T, f, WeightSequence.lambda_power(1j), (4, 8, 400))
    want = 0.25 * np.array([1.0, -1j, -1.0, 1j])
    for a in rep.averages:
        assert np.max(np.abs(a.values - want)) <= 1e-12


def test_weighted_streaming_matches_naive():
    rng = np.random.default_rng(57)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        T = random_ds_kernel(rng, n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = MeasurableFunction(v, T.space)
        lam = np.exp(2j * np.pi * rng.uniform())
        beta = WeightSequence.lambda_power(lam)
        ns = sorted(set(int(x) for x in rng.integers(1, 150, size=3)))
        rep = weighted(T, f, beta, ns)
        betas = lam ** np.arange(ns[-1])
        K = dense(T)
        want = naive_weighted_averages(lambda u: K @ u, v, betas, ns)
        for a, b in zip(rep.averages, want):
            assert np.max(np.abs(a.values - b)) <= 1e-12


def test_weight_bound_recorded():
    sp = unit_space(2)
    T = KernelOperator(np.eye(2), sp)
    f = MeasurableFunction.ones(sp)
    rep = weighted(T, f, WeightSequence.constant(3.0), (4,))
    assert rep.weight_bound == pytest.approx(3.0)
    rep1 = weighted(T, f, WeightSequence.lambda_power(1j), (4,))
    assert rep1.weight_bound == pytest.approx(1.0)
    assert cesaro(T, f, (4,)).weight_bound is None


def test_weighted_norm_bound_scales_with_m():
    rng = np.random.default_rng(58)
    T = random_ds_kernel(rng, 7)
    f = MeasurableFunction(rng.normal(size=7), T.space)
    beta = WeightSequence.constant(3.0)
    rep = weighted(T, f, beta, (1, 5, 25))
    assert np.all(rep.l1_norms <= 3.0 * norm(f, "L1") * (1 + 1e-12))
    assert np.all(rep.linf_norms <= 3.0 * norm(f, "Linf") * (1 + 1e-12))


# --------------------------------------------------------------- oscillation


def test_oscillation_constant_zero():
    sp = unit_space(2)
    T = KernelOperator(np.eye(2), sp)
    f = MeasurableFunction.ones(sp)
    rep = cesaro(T, f, (1, 4, 16), probes=(0,))
    assert np.array_equal(rep.probe_values, np.ones((3, 1)))


def test_oscillation_counterexample_window():
    T = signed_shift_operator([1, 5, 17], grid=10, window=17)
    f = MeasurableFunction.ones(T.space)
    probe = 5  # t = 0.55
    rep = cesaro(T, f, (1, 5, 17), probes=(probe,), store_averages=False)
    v = rep.probe_values[:, 0]
    assert np.allclose(v, [1.0, -0.6, 9.0 / 17.0], rtol=0.0, atol=1e-12)


def test_decomposition_oscillation_stability():
    # split f = g + eps-bounded h: averaging h moves every probe by <= eps,
    # so the probe oscillation of f exceeds that of g by at most 2 eps
    rng = np.random.default_rng(60)
    for _ in range(10):
        T = random_ds_kernel(rng, 8)
        v = rng.normal(size=8) * 2.0
        f = MeasurableFunction(v, T.space)
        eps = float(rng.uniform(0.1, 0.8))
        g = MeasurableFunction(np.where(np.abs(v) > eps, v, 0.0), T.space)
        cps = tuple(range(1, 25))
        rf = cesaro(T, f, cps, probes=(0,), store_averages=False)
        rg = cesaro(T, g, cps, probes=(0,), store_averages=False)
        of, og = (np.ptp(r.probe_values.real) for r in (rf, rg))
        assert of <= og + 2 * eps + 1e-12


# ------------------------------------------------------------------ overflow


@pytest.mark.parametrize("kw", [
    dict(store_averages=False, norms=False),
    dict(store_averages=False, norms=False, majorize=True),
    dict(store_averages=True),
], ids=["probe-lane", "flags-only", "stored-with-norms"])
def test_overflowing_average_raises_numeric_error(kw):
    # atoms of weight 1/2 keep the L1 norm of a_1 = f finite (1e308), so
    # the first value past float64's range is the sum f + Tf behind a_2
    sp = AtomicMeasureSpace(np.full(2, 0.5))
    T = CompositionOperator(np.array([1, 0]), np.ones(2), sp)
    f = MeasurableFunction(np.full(2, 1e308), sp)
    with pytest.raises(NumericError, match="the average at checkpoint 2 overflows"):
        cesaro(T, f, (1, 2, 4), probes=(0,), **kw)


def test_finite_average_with_an_overflowing_l1_norm_is_reported():
    # a_1 = f: each entry is 1e308 but the L1 norm 2e308 is inf, and a
    # report holds no inf
    sp = unit_space(2)
    f = MeasurableFunction(np.full(2, 1e308), sp)
    with pytest.raises(NumericError, match="the L1 norm of the average at checkpoint 1"):
        cesaro(KernelOperator(np.eye(2), sp), f, (1,), probes=(0,), majorize=True)


# --------------------------------------------------------- majorization trace


def test_trace_identity_true_everywhere():
    sp = unit_space(5)
    rng = np.random.default_rng(61)
    f = MeasurableFunction(rng.normal(size=5), sp)
    rep = cesaro(KernelOperator(np.eye(5), sp), f, (1, 2, 3))
    assert majorization_trace(rep, f) == (True, True, True)
    assert rep.majorized == (True, True, True)


def test_trace_random_ds_kernels():
    rng = np.random.default_rng(62)
    for _ in range(10):
        T = random_ds_kernel(rng, 10)
        f = MeasurableFunction(rng.normal(size=10), T.space)
        rep = cesaro(T, f, tuple(range(1, 51)))
        assert all(majorization_trace(rep, f))


def test_trace_rearranges_f_once(monkeypatch):
    rng = np.random.default_rng(64)
    T = random_ds_kernel(rng, 10)
    f = MeasurableFunction(rng.normal(size=10), T.space)
    rep = weighted(T, f, WeightSequence.constant(1.5), tuple(range(1, 21)))
    want = tuple(bool(majorizes(f, (1.0 / 1.5) * a)) for a in rep.averages)
    seen, inner = [], spaces.rearrangement
    monkeypatch.setattr(spaces, "rearrangement", lambda g: seen.append(g) or inner(g))
    assert majorization_trace(rep, f) == want
    # f is rearranged once and no average at all
    assert len(seen) == 1 and seen[0] is f


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_trace_rejects_bad_tolerances(tol):
    sp = unit_space(3)
    f = MeasurableFunction(np.array([3.0, 1.0, 2.0]), sp)
    rep = cesaro(KernelOperator(np.eye(3), sp), f, (1, 2))
    with pytest.raises(InputError, match="tolerance"):
        majorization_trace(rep, f, tol=tol)
    assert rep.majorized is None


# -------------------------------------------------- in-stream majorization


@pytest.mark.parametrize("kind", [
    "kernel", "kernel_expanding", "cesaro", "lambda_power", "periodic", "trig_poly",
    "explicit",
])
def test_majorize_matches_the_stored_trace(monkeypatch, kind):
    # kernels and explicit weights take the Kahan lane, the others the lifted
    # one. 1.5 times a permutation has row sums 1.5, so its averages outgrow
    # f and some flags are False, each with a witness.
    rng = np.random.default_rng(83)
    n, cps = 40, (1, 2, 3, 10, 33, 100)
    space = unit_space(n)
    if kind == "kernel":
        T = random_ds_kernel(rng, n)
    elif kind == "kernel_expanding":
        T = KernelOperator(1.5 * np.eye(n)[rng.permutation(n)], space)
    else:
        T = CompositionOperator(rng.permutation(n), rng.choice([-1.0, 1.0], n),
                                space, measure_preserving=True)
    f = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), T.space)
    if kind == "explicit":
        beta = WeightSequence.explicit(rng.normal(size=cps[-1]))
    else:  # None (Cesaro) for the kernels
        beta = weight_kinds(rng).get(kind)
    results, inner = [], spaces._submajorized_at_atoms
    monkeypatch.setattr(spaces, "_submajorized_at_atoms",
                        lambda *a: results.append(inner(*a)) or results[-1])
    run = cesaro if beta is None else functools.partial(weighted, beta=beta)
    streamed = run(T, f, checkpoints=cps, probes=(0, 7), store_averages=False,
                   majorize=True)
    stored = run(T, f, checkpoints=cps, probes=(0, 7))
    assert streamed.averages is None and stored.majorized is None
    assert streamed.majorized == majorization_trace(stored, f)
    # the same comparisons: witnesses and both integrals at each failure
    assert results == 2 * results[:len(cps)]
    assert streamed.weight_bound == stored.weight_bound
    for field in ("probe_values", "l1_norms", "linf_norms"):
        assert np.array_equal(getattr(streamed, field), getattr(stored, field))
    if kind == "kernel_expanding":
        assert streamed.majorized[0] and not all(streamed.majorized)
        assert all(r.witness_s is not None for r in results if not r)
    else:
        assert all(streamed.majorized)


@pytest.mark.parametrize("weights", [np.full(40, 0.1), np.repeat([0.5, 2.0], 20)])
def test_equal_weights_take_the_integrals_of_f_once(monkeypatch, weights):
    # on an equal-weight space g's atom boundaries do not depend on g, so
    # int f* is read there once per run; otherwise once per checkpoint. The
    # map permutes each half, so it preserves both measures.
    rng = np.random.default_rng(85)
    n, cps = weights.size, (1, 2, 3, 10, 33, 100)
    halves = np.concatenate([rng.permutation(20), 20 + rng.permutation(20)])
    T = CompositionOperator(halves, rng.choice([-1.0, 1.0], n),
                            AtomicMeasureSpace(weights), measure_preserving=True)
    f = MeasurableFunction(rng.normal(size=n), T.space)
    calls, inner = [], spaces.Rearrangement.integrals
    monkeypatch.setattr(spaces.Rearrangement, "integrals",
                        lambda self, s: calls.append(s.size) or inner(self, s))
    rep = weighted(T, f, WeightSequence.constant(1.5), cps, store_averages=False,
                   majorize=True)
    assert all(rep.majorized)
    equal = weights.min() == weights.max()
    assert calls == ([n] if equal else [n] * len(cps))


@pytest.mark.parametrize("horizon", [1, 5, 3000])
@pytest.mark.parametrize("kind", ["constant", "periodic", "long_period"])
def test_periodic_weight_bound_keeps_the_bits_of_the_table(kind, horizon):
    # a lifted periodic run reads M off the first min(n, p) table entries,
    # without the n-long table
    rng = np.random.default_rng(84)
    beta = weight_kinds(rng)[kind]
    cps = geometric_checkpoints(horizon)
    T = cyclic(8, unit_space(8))
    f = MeasurableFunction(rng.normal(size=8), T.space)
    rep = weighted(T, f, beta, cps, probes=(0,), store_averages=False)
    assert rep.weight_bound == max(1.0, float(np.max(np.abs(beta.values(horizon)))))


def test_trace_normalization_with_large_weights():
    sp = unit_space(6)
    rng = np.random.default_rng(63)
    f = MeasurableFunction(rng.normal(size=6), sp)
    T = KernelOperator(np.eye(6), sp)
    rep = weighted(T, f, WeightSequence.constant(3.0), (1, 4, 16))
    # raw averages are 3f: strictly above f in the majorization order
    for a in rep.averages:
        assert not majorizes(f, a)
    # normalized by M = 3 they fall back to f itself
    assert all(majorization_trace(rep, f))
