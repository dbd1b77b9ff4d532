"""Bounded weight sequences and trigonometric-polynomial approximants.

A weight sequence is Besicovitch-style admissible when it is bounded and
approximated, in averaged absolute deviation, by trigonometric polynomials
sum_j z_j lam_j^k with unimodular frequencies. Periodic sequences are
reproduced exactly by their DFT interpolant, which is the workhorse here.

Power streams lam^k are materialized by repeated multiplication with the
magnitude reset to 1 every RENORM_EVERY steps, so |lam^k| cannot drift over
long horizons. Frequencies with a known rational phase (the DFT case) are
evaluated through exact integer phase reduction instead, which keeps the
reproduction error at roundoff level even at k ~ 1e5. A rational phase is
one reduced integer pair, read by `_phase`, and every power of one in the
package is taken by `_phase_powers`; no Fraction is built.
"""

from __future__ import annotations

from math import gcd, pi

import numpy as np

from .errors import InputError
from .spaces import _BLOCK, _count, _finite_input, _nonnegative, _slack

# tolerance for |frequency| == 1 checks
UNIT_TOL = 1e-12
# magnitude renormalization cadence for power streams
RENORM_EVERY = 1024
# exact phases need a reduced denominator below this: residues (num mod den)
# times (k mod den) then stay below 2^62 in int64
MAX_PHASE_DEN = 2**31


def cycles(phase):
    """e^{2 pi i phase}, elementwise; a Python complex for a scalar phase.
    The package's one phase evaluator; exact phases reach it through
    `_phase_powers`."""
    z = np.exp(2j * pi * phase)
    return z if np.ndim(z) else complex(z)


def _phase(x, den: int = 1) -> tuple[int, int]:
    """The rational phase x / den in cycles, x an int or a Fraction and den
    a nonzero int, as the reduced integer pair (num, den >= 1). fractions is
    imported only for an x that is not an int: a caller holding a Fraction
    has loaded it already."""
    if not (isinstance(x, int) and isinstance(den, int)):
        from fractions import Fraction

        if not (isinstance(x, Fraction) and isinstance(den, int)):
            raise InputError("rational angles must be Fraction or int")
        x, den = x.numerator, x.denominator * den
    if den == 0:
        raise InputError("phase_den: must not be 0")
    g = gcd(x, den) if den > 0 else -gcd(x, den)
    return x // g, den // g


def _phase_powers(num: int, den: int, ks) -> np.ndarray:
    """e^{2 pi i k num / den} at the integer exponents ks (an int64 array,
    or ints of any size), den >= 1: the one power rule for exact phases.
    k num mod den is reduced in int64 while den < MAX_PHASE_DEN (residue
    products stay below 2^62) and in Python ints beyond, then divided by den
    once: both round the exact quotient to the nearest double, so every
    value has the bits of the reduced pair's."""
    num %= den
    if den >= MAX_PHASE_DEN:
        return cycles(np.array([int(k) * num % den / den for k in ks], dtype=float))
    if not isinstance(ks, np.ndarray):  # ints of any size: reduced first
        ks = np.array([k % den for k in ks], dtype=np.int64)
    return cycles(ks.astype(np.int64, copy=False) % den * num % den / den)


def _max_modulus(v: np.ndarray) -> float:
    """max_k |v_k| over a nonempty array, _BLOCK entries at a time:
    as exact as one max over all of them, without an n-long array of
    moduli."""
    return float(np.max([np.max(np.abs(v[a : a + _BLOCK]))
                         for a in range(0, v.size, _BLOCK)]))


def _unit(z, what: str) -> complex:
    """z as a complex number of modulus 1 within UNIT_TOL: the one rule for
    frequencies (NaN, a string or a list fails)."""
    try:
        if abs(abs(z) - 1.0) <= UNIT_TOL:  # also rejects NaN
            return complex(z)
    except (TypeError, ValueError):
        pass
    raise InputError(f"{what} must be unimodular")


def _weight_list(vals) -> np.ndarray:
    """vals as a nonempty 1-d complex array of finite values: the one rule
    for the lists of periodic, constant, explicit and interpolated weights."""
    try:
        v = np.asarray(vals, dtype=complex)
    except (TypeError, ValueError):
        v = None
    if v is None or v.ndim != 1 or v.size == 0:
        raise InputError("weights need a nonempty 1-d list of values")
    _finite_input("weight values", v)
    return v


def unit_powers_matrix(lams: np.ndarray, n: int) -> np.ndarray:
    """Rows of lam^k, k < n, for several unimodular lam at once."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    out = np.empty((lams.size, n), dtype=complex)
    if n == 0:
        return out
    base = np.ones(lams.size, dtype=complex)
    for start in range(0, n, RENORM_EVERY):
        m = min(RENORM_EVERY, n - start)
        out[:, start] = base
        if m > 1:
            out[:, start + 1 : start + m] = base[:, None] * np.cumprod(
                np.broadcast_to(lams[:, None], (lams.size, m - 1)), axis=1
            )
        nxt = out[:, start + m - 1] * lams
        base = nxt / np.abs(nxt)
    return out


def unit_powers(lam: complex, n: int) -> np.ndarray:
    """lam^k for k < n with periodic magnitude renormalization."""
    return unit_powers_matrix(np.array([lam]), n)[0]


class TrigTerm:
    """One term z * lam^k; `phase` is the exact phase of lam in cycles when
    known (lam = exp(2 pi i num / den)), as the reduced pair (num, den) that
    `_phase` gives, enabling drift-free evaluation."""

    def __init__(self, coefficient: complex, frequency: complex, phase=None):
        frequency = _unit(frequency, "trig polynomial frequencies")
        _finite_input("trig polynomial coefficients", np.atleast_1d(coefficient))
        if phase is not None and phase[1] >= MAX_PHASE_DEN:
            raise InputError("exact phases need a reduced denominator below 2^31")
        self.coefficient = coefficient
        self.frequency = frequency
        self.phase = phase

    @classmethod
    def from_phase(cls, coefficient: complex, phase):
        """The term of lam = e^{2 pi i phase}, phase an int or a Fraction, or
        an integer pair (num, den) as a config gives it."""
        phase = _phase(*phase) if isinstance(phase, tuple) else _phase(phase)
        return cls(coefficient, _phase_powers(*phase, (1,))[0], phase)

    def powers(self, ks: np.ndarray, n: int) -> np.ndarray:
        """lam^k at the int64 exponents ks, each below n: an exact phase by
        `_phase_powers`; a free frequency is read off `unit_powers(lam, n)`,
        so it keeps the bits of `values(n)`."""
        if self.phase is None:
            return unit_powers(self.frequency, n)[ks]
        return _phase_powers(*self.phase, ks)


class TrigPolynomial:
    """P(k) = sum_j z_j lam_j^k with at least one term."""

    def __init__(self, terms):
        terms = tuple(terms)
        if len(terms) == 0:
            raise InputError("trig polynomials need at least one term")
        self.terms = terms

    def values(self, n: int) -> np.ndarray:
        """P(k) for k < n; an exact phase num/den repeats with period den, so
        only min(n, den) residues are evaluated: memory is O(n) for any den."""
        out = np.zeros(n, dtype=complex)
        for t in self.terms:
            if t.phase is not None:
                period = np.arange(min(n, t.phase[1]), dtype=np.int64)
                out += t.coefficient * np.resize(t.powers(period, n), n)
            else:
                out += t.coefficient * unit_powers(t.frequency, n)
        return out


_KINDS = ("periodic", "trig_poly", "lambda_power", "explicit")


class WeightSequence:
    """Bounded sequence k -> beta_k.

    Kinds: periodic (repeating list; `constant` builds period 1), trig_poly,
    lambda_power (beta_k = lam^k, |lam| = 1), explicit (finite list;
    evaluation past the end is a range error).
    """

    def __init__(
        self,
        kind: str,
        table: np.ndarray | None = None,
        poly: TrigPolynomial | None = None,
        lam: complex | None = None,
    ):
        if kind not in _KINDS:
            raise InputError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.table = table
        self.poly = poly
        self.lam = lam

    @classmethod
    def constant(cls, c: complex):
        """beta_k = c, a periodic sequence of period 1."""
        return cls.periodic([c])

    @classmethod
    def periodic(cls, vals):
        return cls("periodic", table=_weight_list(vals))

    @classmethod
    def trig_poly(cls, poly: TrigPolynomial):
        return cls("trig_poly", poly=poly)

    @classmethod
    def lambda_power(cls, lam: complex):
        return cls("lambda_power", lam=_unit(lam, "lambda_power frequencies"))

    @classmethod
    def explicit(cls, vals, bound: float | None = None):
        """Finite list, with an optional declared bound C: every |beta_k|
        must stay within C + 1e-12 * max(1, C)."""
        v = _weight_list(vals)
        if bound is not None:
            bound = _nonnegative(bound, "weight bound")
            if _max_modulus(v) > bound + _slack(UNIT_TOL, bound):
                raise InputError("materialized values exceed the declared bound")
        return cls("explicit", table=v)

    def cycle(self, n: int) -> np.ndarray:
        """A table t with beta_k = t[k % t.size] for k < n: a periodic or
        explicit weight's own table, without a copy, and the n values of
        the other kinds."""
        if self.kind == "explicit" and n > self.table.size:
            raise InputError(
                f"explicit weight list exhausted: need {n} values, have "
                f"{self.table.size}"
            )
        return self.values(n) if self.table is None else self.table

    def values(self, n: int) -> np.ndarray:
        """Materialize beta_k for k < n."""
        n = _count(n, "prefix length", 0)
        if self.kind == "periodic":
            reps = -(-n // self.table.size)
            return np.tile(self.table, reps)[:n]
        if self.kind == "trig_poly":
            return self.poly.values(n)
        if self.kind == "lambda_power":
            return unit_powers(self.lam, n)
        return self.cycle(n)[:n].copy()


def besicovitch_deviation(w: WeightSequence, poly: TrigPolynomial, n: int) -> float:
    """Averaged deviation (1/n) sum_{k<n} |beta_k - P(k)|."""
    n = _count(n, "n")
    return float(np.mean(np.abs(w.values(n) - poly.values(n))))


def dft_interpolant(vals) -> TrigPolynomial:
    """Exact interpolant of a period-p list: frequencies exp(2 pi i j / p),
    coefficients (1/p) sum_k beta_k exp(-2 pi i j k / p).

    All p terms are kept, including (near-)zero coefficients; the phases are
    stored exactly so the interpolant reproduces the source at roundoff
    level over arbitrary horizons.
    """
    v = _weight_list(vals)
    p = v.size
    coeffs = np.fft.fft(v) / p
    return TrigPolynomial(
        TrigTerm.from_phase(complex(coeffs[j]), (j, p)) for j in range(p)
    )
