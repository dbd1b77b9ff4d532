"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

The per-criterion lines bypass output capture, so they show up in a plain
`pytest -v` run. Every tolerance here is pinned; loosening one is a release
decision, not a test fix.
"""

import cmath
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ergosym import (
    AtomicMeasureSpace,
    CompositionOperator,
    KernelOperator,
    MeasurableFunction,
    PointSystem,
    Rearrangement,
    WeightSequence,
    adjoint,
    adjoint_modulus_commutation,
    apply,
    besicovitch_deviation,
    cesaro,
    construct_certificate,
    dft_interpolant,
    ds_certificate,
    geometric_checkpoints,
    linear_modulus,
    majorization_trace,
    majorizes,
    pairing,
    rearrangement,
    rotation_closed_form,
    rotation_q,
    verify_certificate,
    weighted,
    wiener_wintner_sweep,
)
from dense import dense
from oracles import greedy_breakpoints, modulus_sup_oracle, naive_averages

FROZEN_BREAKPOINTS = (1, 5, 17, 53, 161, 485)

_capsys = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def _emit(line: str):
    if _capsys is not None:
        with _capsys.disabled():
            print(line)
    else:
        print(line)


@contextmanager
def criterion(k: int, name: str):
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {k} ({name}): FAIL")
        raise
    _emit(f"ACCEPTANCE {k} ({name}): PASS")


def random_ds_kernel(rng, n, space):
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = space.weights
    col = np.max((w @ np.abs(k)) / w)
    row = np.max(np.sum(np.abs(k), axis=1))
    k /= max(col, row) * (1.0 + 1e-9)
    return KernelOperator(k, space)


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "counterexample reproduction"):
        window = 512
        oracle = greedy_breakpoints(
            lambda t: 1.0 if t < window else 0.0, window, 0.1, 6, grid=10
        )
        assert tuple(oracle) == FROZEN_BREAKPOINTS

        profile = Rearrangement(np.array([0.0, float(window)]), np.array([1.0]))
        t0 = time.perf_counter()
        cert = construct_certificate(profile, 0.1, 6, grid=10)
        result = verify_certificate(cert, profile, tol=1e-9)
        elapsed = time.perf_counter() - t0

        assert cert.breakpoints == FROZEN_BREAKPOINTS
        assert cert.stages[0].worst_value >= 1.0 - 1e-12
        for j, stage in enumerate(cert.stages[1:], start=2):
            if j % 2 == 0:
                assert stage.side == "<-1/2" and stage.worst_value < -0.5
            else:
                assert stage.side == ">1/2" and stage.worst_value > 0.5
        assert result.ok and result.failed_stage is None
        assert result.max_deviation <= 1e-9
        assert all(m >= 0.0 for m in result.stage_margins)
        assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_2_rearrangement_equimeasurability():
    with criterion(2, "rearrangement equimeasurability"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(1000):
            n = int(rng.integers(1, 10_001))
            # dyadic weights keep every partial sum exact in binary
            w = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
            v = (2 * rng.random(n) - 1) + 1j * (2 * rng.random(n) - 1)
            if trial % 3 == 0:
                v = np.round(v.real, 1) + 1j * np.round(v.imag, 1)
            if trial % 7 == 0:
                v[rng.random(n) < 0.2] = 0.0
            f = MeasurableFunction(v, AtomicMeasureSpace(w))
            r = rearrangement(f)

            mags = np.abs(v)
            levels = np.unique(mags)
            if levels.size == 0:
                continue
            order = np.argsort(mags, kind="stable")
            sm, sw = mags[order], w[order]
            suffix = np.concatenate([np.cumsum(sw[::-1])[::-1], [0.0]])
            direct = suffix[np.searchsorted(sm, levels, side="right")]
            asc = r.plateaus[::-1]
            cnt = r.plateaus.size - np.searchsorted(asc, levels, side="right")
            via_mu = r.breakpoints[cnt]
            worst = max(worst, float(np.max(np.abs(direct - via_mu))))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12, f"distribution identity off by {worst}"
        assert elapsed < 10.0, f"suite took {elapsed:.2f}s"


def test_criterion_3_ds_majorization_suite():
    with criterion(3, "ds majorization suite"):
        rng = np.random.default_rng(31)
        cps = tuple(range(1, 51))
        for _ in range(200):
            n = int(rng.integers(2, 65))
            space = AtomicMeasureSpace(rng.uniform(0.1, 2.0, size=n))
            T = random_ds_kernel(rng, n, space)
            assert ds_certificate(T).ds_ok
            f = MeasurableFunction(
                rng.standard_normal(n) + 1j * rng.standard_normal(n), space
            )
            report = cesaro(T, f, cps)
            flags = majorization_trace(report, f, tol=1e-9)
            assert all(flags)


def test_criterion_4_cyclic_exactness():
    with criterion(4, "cyclic exactness"):
        rng = np.random.default_rng(44)
        N = 1000
        system = PointSystem.cyclic(N)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        f = MeasurableFunction(v, system.space)
        T = CompositionOperator(
            system.tau, np.ones(N, dtype=complex), system.space,
            measure_preserving=True,
        )
        cps = tuple(N * k for k in range(1, 6))
        report = cesaro(T, f, cps)
        target = np.full(N, np.mean(v))
        for a in report.averages:
            assert np.max(np.abs(a.values - target)) <= 1e-12


def test_criterion_5_wiener_wintner_closed_form():
    with criterion(5, "wiener-wintner closed form"):
        order, char, grid = 256, 2, 128
        system = PointSystem.cyclic(order)
        f = MeasurableFunction(
            np.exp(2j * np.pi * char * np.arange(order) / order), system.space
        )
        probes = (0, 17, 101)
        cps = geometric_checkpoints(10_000)

        t0 = time.perf_counter()
        sweep = wiener_wintner_sweep(system, f, probes, grid, cps)
        rho = Fraction(char, order)
        worst = 0.0
        resonant = []
        for j in range(grid):
            lam = Fraction(j, grid)
            q, exact = rotation_q(rho, lam)
            if exact and abs(1.0 - q) == 0.0:
                resonant.append(j)
            for pi, w in enumerate(probes):
                omega = float(Fraction(char * w, order))
                for ci, n in enumerate(cps):
                    want = rotation_closed_form(rho, lam, omega, n)
                    got = sweep.averages[j, pi, ci]
                    worst = max(worst, abs(got - want))
        elapsed = time.perf_counter() - t0

        assert worst <= 1e-9, f"closed-form deviation {worst}"
        assert resonant == [127]
        for pi, w in enumerate(probes):
            omega = float(Fraction(char * w, order))
            target = cmath.exp(2j * cmath.pi * omega)
            for n in cps:
                # at resonance the closed form is the character value itself
                assert rotation_closed_form(rho, Fraction(127, 128), omega, n) == target
            assert abs(sweep.averages[127, pi, -1] - target) <= 1e-9
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


def test_criterion_6_besicovitch_interpolation():
    with criterion(6, "besicovitch interpolation"):
        rng = np.random.default_rng(66)
        periods = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
        for p in periods:
            table = rng.uniform(-1, 1, p) + 1j * rng.uniform(-1, 1, p)
            w = WeightSequence.periodic(table)
            poly = dft_interpolant(table)
            dev = besicovitch_deviation(w, poly, 100 * p)
            assert dev <= 1e-10, f"period {p}: deviation {dev}"


def test_criterion_7_linear_modulus_oracle():
    with criterion(7, "linear modulus oracle"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            space = AtomicMeasureSpace.uniform(n)
            k = rng.standard_normal((n, n))
            T = KernelOperator(k, space)
            f = MeasurableFunction(rng.uniform(0.0, 2.0, n), space)
            got = apply(linear_modulus(T), f).values.real
            want = modulus_sup_oracle(k, f.values.real)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_criterion_8_adjoint_duality():
    with criterion(8, "adjoint duality"):
        rng = np.random.default_rng(88)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            space = AtomicMeasureSpace(rng.uniform(0.1, 3.0, size=n))
            k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            T = KernelOperator(k, space)
            f = MeasurableFunction(
                rng.standard_normal(n) + 1j * rng.standard_normal(n), space
            )
            g = MeasurableFunction(
                rng.standard_normal(n) + 1j * rng.standard_normal(n), space
            )
            lhs = pairing(apply(adjoint(T), f), g)
            rhs = pairing(f, apply(T, g))
            assert abs(lhs - rhs) <= 1e-12
            assert adjoint_modulus_commutation(T, tol=1e-12)


def test_criterion_9_weighted_normalization():
    with criterion(9, "weighted-average normalization"):
        rng = np.random.default_rng(99)
        n = 16
        space = AtomicMeasureSpace.uniform(n)
        T = KernelOperator(np.eye(n), space)
        f = MeasurableFunction(rng.uniform(0.5, 2.0, n), space)
        beta = WeightSequence.constant(3.0)
        cps = (1, 2, 5, 10, 50)
        report = weighted(T, f, beta, cps)
        assert report.weight_bound == 3.0
        for a in report.averages:
            assert not majorizes(f, a)  # raw averages triple the mass
        flags = majorization_trace(report, f)
        assert all(flags)


def test_criterion_10_streaming_vs_naive():
    with criterion(10, "streaming vs naive"):
        rng = np.random.default_rng(1010)
        for _ in range(50):
            n = int(rng.integers(2, 33))
            space = AtomicMeasureSpace(rng.uniform(0.2, 2.0, size=n))
            T = random_ds_kernel(rng, n, space)
            f = MeasurableFunction(
                rng.standard_normal(n) + 1j * rng.standard_normal(n), space
            )
            ns = np.unique(rng.integers(1, 201, size=4))
            report = cesaro(T, f, tuple(int(m) for m in ns))
            K = dense(T)
            want = naive_averages(lambda v: K @ v, f.values, list(ns))
            for a, b in zip(report.averages, want):
                assert np.max(np.abs(a.values - b)) <= 1e-12
