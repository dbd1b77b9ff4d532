"""Weight sequences, trig-polynomial approximants, exact DFT interpolation."""

import cmath
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ergosym import (
    InputError,
    TrigPolynomial,
    TrigTerm,
    WeightSequence,
    besicovitch_deviation,
    dft_interpolant,
    unit_powers_matrix,
)
from ergosym.weights import RENORM_EVERY, unit_powers


# ---------------------------------------------------------------- evaluation


def test_eval_constant():
    w = WeightSequence.constant(1.0)
    vals = w.values(1001)
    for k in (0, 3, 1000):
        assert vals[k] == 1.0 + 0j


def test_eval_periodic_parity():
    w = WeightSequence.periodic(np.array([1.0, -1.0]))
    assert w.values(8)[7] == -1.0 + 0j
    assert w.values(9)[8] == 1.0 + 0j


def test_eval_trig_poly_power():
    p = TrigPolynomial((TrigTerm(2.0 + 0j, 1j),))
    w = WeightSequence.trig_poly(p)
    assert w.values(4)[3] == pytest.approx(-2j, abs=1e-12)


def test_eval_lambda_power():
    w = WeightSequence.lambda_power(1j)
    assert w.values(6)[5] == pytest.approx(1j, abs=1e-14)


def test_eval_explicit_and_exhaustion():
    w = WeightSequence.explicit(np.array([0.5, 2.0]))
    assert w.values(2)[1] == 2.0 + 0j
    with pytest.raises(InputError):
        w.values(3)[2]
    with pytest.raises(InputError):
        w.values(3)


def test_values_prefixes_are_bitwise_stable():
    # one evaluator per kind: a shorter prefix must be the same bits as the
    # start of a longer one, across the lambda^k renormalization boundary
    free = TrigTerm(0.5 - 2j, np.exp(2j * np.pi * 0.123456789))
    exact = TrigTerm.from_phase(1j, Fraction(3, 7))
    n = 2 * RENORM_EVERY + 5
    specs = [
        WeightSequence.constant(2.0 - 1j),
        WeightSequence.periodic(np.array([1.0, 0.0, -1.0])),
        WeightSequence.explicit(np.arange(n) * (1.0 - 0.5j)),
        WeightSequence.lambda_power(np.exp(0.7j)),
        WeightSequence.trig_poly(TrigPolynomial((free, exact))),
        WeightSequence.trig_poly(dft_interpolant(np.array([1.0, 1j, -1.0]))),
    ]
    for w in specs:
        full = w.values(n)
        assert full.shape == (n,)
        for m in (0, 1, 17, RENORM_EVERY - 1, RENORM_EVERY, RENORM_EVERY + 1,
                  2 * RENORM_EVERY, n):
            assert w.values(m).tobytes() == full[:m].tobytes()
        with pytest.raises(InputError):
            w.values(-1)


@pytest.mark.parametrize("lam", [-1.0, -1j, 0.6 + 0.8j])
def test_lambda_power_is_unit_powers_bitwise(lam):
    # lambda^k keeps its own branch: routing it through a trig polynomial
    # with coefficient 1+0j would flip the sign of zero imaginary parts
    n = 5000
    vals = WeightSequence.lambda_power(lam).values(n)
    assert vals.tobytes() == unit_powers(lam, n).tobytes()
    if lam in (-1.0, -1j):
        assert np.any(np.signbit(vals.imag) & (vals.imag == 0))


def test_lambda_power_requires_unit_modulus():
    with pytest.raises(InputError):
        WeightSequence.lambda_power(0.5)


# -------------------------------------------------------------- power streams


def test_unit_powers_exact_small():
    got = unit_powers(1j, 8)
    want = 1j ** np.arange(8)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_unit_powers_magnitude_drift_bounded():
    lam = np.exp(2j * np.pi * 0.123456789)
    vals = unit_powers(lam, 1_000_001)
    drift = np.abs(np.abs(vals[::997]) - 1.0)
    assert np.max(drift) <= 1e-10


def test_unit_powers_matrix_row_equals_single():
    lams = np.exp(2j * np.pi * np.array([0.1, 0.37, 0.5]))
    m = unit_powers_matrix(lams, 3000)
    for i, lam in enumerate(lams):
        assert np.array_equal(m[i], unit_powers(lam, 3000))


def test_trig_term_rejects_non_unimodular():
    with pytest.raises(InputError):
        TrigTerm(1.0 + 0j, 1.5 + 0j)
    with pytest.raises(InputError):
        TrigPolynomial(())


# ----------------------------------------------------------------- deviation


def test_deviation_self_is_zero():
    p = dft_interpolant(np.array([1.0, 0.5, -0.25, 1j]))
    w = WeightSequence.trig_poly(p)
    for n in (1, 7, 64, 257):
        assert besicovitch_deviation(w, p, n) <= 1e-12


def test_deviation_alternating_vs_zero_poly():
    w = WeightSequence.periodic(np.array([1.0, -1.0]))
    zero = TrigPolynomial((TrigTerm(0j, 1.0 + 0j),))
    for n in (1, 2, 9, 100):
        assert besicovitch_deviation(w, zero, n) == pytest.approx(1.0, abs=1e-15)


def test_deviation_periodic_vs_interpolant_zero_at_every_n():
    vals = np.array([1.0, 0.0, 0.0])
    w = WeightSequence.periodic(vals)
    p = dft_interpolant(vals)
    for n in range(1, 40):
        assert besicovitch_deviation(w, p, n) <= 1e-13


def test_deviation_triangle_mixing():
    # deviation against P1 + P2 <= deviation against P1 + sup |P2|
    rng = np.random.default_rng(70)
    vals = rng.normal(size=6)
    w = WeightSequence.periodic(vals)
    p1 = dft_interpolant(vals)
    p2 = TrigPolynomial((TrigTerm(0.3 + 0.1j, np.exp(0.9j)),))
    combined = TrigPolynomial(p1.terms + p2.terms)
    n = 200
    sup_p2 = float(np.max(np.abs(p2.values(n))))
    lhs = besicovitch_deviation(w, combined, n)
    rhs = besicovitch_deviation(w, p1, n) + sup_p2
    assert lhs <= rhs + 1e-12


def test_deviation_requires_positive_n():
    w = WeightSequence.constant(1.0)
    p = dft_interpolant(np.array([1.0]))
    with pytest.raises(InputError):
        besicovitch_deviation(w, p, 0)


# -------------------------------------------------------------- interpolation


def test_dft_p1_constant():
    p = dft_interpolant(np.array([3.0 - 2.0j]))
    assert len(p.terms) == 1
    assert p.terms[0].coefficient == pytest.approx(3.0 - 2.0j)
    assert p.terms[0].frequency == pytest.approx(1.0 + 0j)


def test_dft_p2_alternating_by_hand():
    p = dft_interpolant(np.array([1.0, -1.0]))
    coeffs = sorted(
        ((t.coefficient, t.frequency) for t in p.terms), key=lambda t: abs(t[0])
    )
    # (1/2)(1 + (-1)) = 0 at frequency 1; (1/2)(1 - (-1)) = 1 at frequency -1
    assert coeffs[0][0] == pytest.approx(0.0, abs=1e-15)
    assert coeffs[1][0] == pytest.approx(1.0, abs=1e-15)
    assert coeffs[1][1] == pytest.approx(-1.0, abs=1e-15)
    vals = p.values(10)
    for k in range(10):
        assert vals[k] == pytest.approx((-1.0) ** k, abs=1e-14)


def test_dft_p4_single_mode():
    p = dft_interpolant(np.array([1.0, 1j, -1.0, -1j]))
    nonzero = [t for t in p.terms if abs(t.coefficient) > 1e-13]
    assert len(nonzero) == 1
    assert nonzero[0].coefficient == pytest.approx(1.0 + 0j, abs=1e-14)
    assert nonzero[0].frequency == pytest.approx(1j, abs=1e-14)
    vals = p.values(12)
    for k in range(12):
        assert vals[k] == pytest.approx(1j**k, abs=1e-13)


def test_dft_reproduction_long_horizon():
    rng = np.random.default_rng(71)
    for p_len in (3, 16, 64):
        vals = rng.normal(size=p_len) + 1j * rng.normal(size=p_len)
        poly = dft_interpolant(vals)
        w = WeightSequence.periodic(vals)
        n = 100_000
        err = np.max(np.abs(w.values(n) - poly.values(n)))
        assert err <= 1e-10


def test_dft_phase_stored_exactly():
    poly = dft_interpolant(np.ones(6))
    assert [t.phase for t in poly.terms] == [Fraction(j, 6) for j in range(6)]


def test_exact_phase_memory_does_not_grow_with_den():
    # only the residues of k < n are evaluated: no table of all den roots
    poly = TrigPolynomial((TrigTerm.from_phase(1.0, Fraction(1, 2**20)),))
    tracemalloc.start()
    try:
        vals = poly.values(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert vals[63] == pytest.approx(cmath.exp(2j * cmath.pi * 63 / 2**20), abs=1e-15)


def test_exact_phase_residues_do_not_wrap():
    # num * k passes 2^63 unless num is reduced mod den first
    phase = Fraction(2**62 + 1, 3)
    vals = TrigPolynomial((TrigTerm.from_phase(1.0, phase),)).values(12)
    want = [cmath.exp(2j * cmath.pi * float(phase * k % 1)) for k in range(12)]
    assert np.max(np.abs(vals - want)) <= 1e-15


@pytest.mark.parametrize("term", [
    TrigTerm(1.0, cmath.exp(0.7j)),
    TrigTerm.from_phase(1.0, Fraction(3, 7)),
    TrigTerm.from_phase(1.0, Fraction(2**62 + 1, 3)),
])
def test_term_powers_are_values_bitwise(term):
    n = 5000
    ks = np.array([0, 1, 2, 6, 7, 1023, 1024, 1025, 4096, n - 1], dtype=np.int64)
    want = TrigPolynomial((term,)).values(n)[ks]
    assert np.array_equal(term.powers(ks, n), want)


def test_exact_phase_denominator_bound():
    TrigTerm.from_phase(1.0, Fraction(1, 2**31 - 1))
    TrigTerm.from_phase(1.0, Fraction(2, 2**31))  # reduces to 1/2^30
    with pytest.raises(InputError, match="below 2\\^31"):
        TrigTerm.from_phase(1.0, Fraction(1, 2**31))


# -------------------------------------------------------------------- bounds


def test_lambda_power_values_stay_unimodular():
    vals = WeightSequence.lambda_power(np.exp(1.3j)).values(10_000)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_explicit_weight_checks_its_declared_bound():
    with pytest.raises(InputError, match="exceed the declared bound"):
        WeightSequence.explicit(np.array([0.5, 2.0]), bound=1.0)
    w = WeightSequence.explicit(np.array([0.5, 2.0]), bound=2.0)
    assert w.values(2)[1] == 2.0
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="finite and nonnegative"):
            WeightSequence.explicit(np.array([0.5]), bound=bad)

