"""Product (return-times) averages and unit-circle sweeps."""

import cmath
import time
import tracemalloc
from fractions import Fraction
from math import lcm, pi

import numpy as np
import pytest

from ergosym import (
    AtomicMeasureSpace,
    BudgetError,
    CompositionOperator,
    InputError,
    MeasurableFunction,
    PointSystem,
    WeightSequence,
    cesaro,
    geometric_checkpoints,
    product_average,
    rotation_closed_form,
    rotation_q,
    weighted,
    wiener_wintner_sweep,
)
from ergosym import return_times
from ergosym.spaces import _BLOCK
from ergosym.weights import cycles
from oracles import product_average_oracle, rotation_table_reference


def character(space, c):
    n = space.n_atoms
    return MeasurableFunction(np.exp(2j * pi * c * np.arange(n) / n), space)


# -------------------------------------------------------------- point systems


def test_cyclic_orbit():
    sys_ = PointSystem.cyclic(5, step=2)
    orbit = sys_.orbit(1, 6)
    assert list(orbit) == [1, 3, 0, 2, 4, 1]


def cycles_system(lengths, rng):
    """Uniform atoms permuted by a random bijection with the given cycle
    lengths, the atoms of each cycle shuffled across the whole set."""
    atoms = rng.permutation(sum(lengths))
    tau = np.empty(atoms.size, dtype=int)
    at = 0
    for m in lengths:
        cyc = atoms[at : at + m]
        tau[cyc] = np.roll(cyc, -1)
        at += m
    return PointSystem(AtomicMeasureSpace(np.ones(atoms.size)), tau)


def step_orbit(tau, start, n):
    pos = []
    p = start
    for _ in range(n):
        pos.append(p)
        p = int(tau[p])
    return pos


def test_orbit_matches_step_loop_on_multicycle_bijections():
    rng = np.random.default_rng(85)
    for _ in range(10):
        lengths = [int(m) for m in rng.integers(1, 40, size=int(rng.integers(1, 6)))]
        sys_ = cycles_system(lengths, rng)
        for start in rng.integers(0, sys_.space.n_atoms, size=3):
            for n in (0, 1, 2, 7, 39, 40, 41, 250):
                orbit = sys_.orbit(int(start), n)
                assert orbit.dtype == np.dtype(int)
                assert orbit.tolist() == step_orbit(sys_.tau, int(start), n)


def test_cycle_walks_its_cycle_once():
    rng = np.random.default_rng(87)
    sys_ = cycles_system([13, 5, 1, 23], rng)
    for start in range(sys_.space.n_atoms):
        cyc = sys_.cycle(start)
        assert cyc.dtype == np.dtype(int)
        assert cyc.size in (13, 5, 1, 23)
        assert cyc.tolist() == step_orbit(sys_.tau, start, cyc.size)
        assert int(sys_.tau[cyc[-1]]) == start
        assert len(set(cyc.tolist())) == cyc.size
    for bad in (-1, sys_.space.n_atoms):
        with pytest.raises(InputError):
            sys_.cycle(bad)


def test_point_system_requires_bijection():
    sp = AtomicMeasureSpace(np.ones(3))
    with pytest.raises(InputError):
        PointSystem(sp, np.array([0, 0, 1]))
    with pytest.raises(InputError, match=r"^tau\[2\]: 3 is not an atom of 0\.\.2$"):
        PointSystem(sp, np.array([1, 2, 3]))
    sp2 = AtomicMeasureSpace(np.array([1.0, 2.0, 1.0]))
    with pytest.raises(InputError):
        # swaps atoms of different weight
        PointSystem(sp2, np.array([1, 0, 2]))


# ------------------------------------------------------------ product average


def test_product_unit_second_factor_reduces_to_birkhoff():
    rng = np.random.default_rng(80)
    n = 8
    sys_a = PointSystem.cyclic(n)
    sys_b = PointSystem.cyclic(3)
    v = rng.normal(size=n)
    f = MeasurableFunction(v, sys_a.space)
    g = MeasurableFunction.ones(sys_b.space)
    rep = product_average(sys_a, f, sys_b, g, [(0, 0)], (n,))
    assert rep.averages[0, 0] == pytest.approx(np.mean(v), abs=1e-13)


def test_product_zero_first_factor():
    sys_a = PointSystem.cyclic(4)
    sys_b = PointSystem.cyclic(5)
    f = MeasurableFunction.zeros(sys_a.space)
    g = MeasurableFunction.ones(sys_b.space)
    rep = product_average(sys_a, f, sys_b, g, [(1, 2)], (3, 9))
    assert np.all(rep.averages == 0)


def test_product_coprime_indicator_enumeration():
    # coprime orders p, q: over a full pq period the pair orbit visits every
    # (atom, atom) combination exactly once
    p, q = 4, 7
    sys_a = PointSystem.cyclic(p)
    sys_b = PointSystem.cyclic(q)
    fa = np.zeros(p)
    fa[2] = 1.0
    gb = np.zeros(q)
    gb[5] = 1.0
    f = MeasurableFunction(fa, sys_a.space)
    g = MeasurableFunction(gb, sys_b.space)
    for m in (1, 3):
        n = p * q * m
        rep = product_average(sys_a, f, sys_b, g, [(0, 0), (1, 3)], (n,))
        for pi_, (wa, yb) in enumerate([(0, 0), (1, 3)]):
            want = product_average_oracle(p, 1, fa, q, 1, gb, wa, yb, n)
            assert rep.averages[0, pi_] == pytest.approx(want, abs=1e-13)
            assert rep.averages[0, pi_] == pytest.approx(1.0 / (p * q), abs=1e-13)


def test_product_matches_enumeration_randomized():
    rng = np.random.default_rng(81)
    for _ in range(10):
        p = int(rng.integers(2, 9))
        q = int(rng.integers(2, 9))
        fa = rng.normal(size=p) + 1j * rng.normal(size=p)
        gb = rng.normal(size=q) + 1j * rng.normal(size=q)
        sys_a = PointSystem.cyclic(p)
        sys_b = PointSystem.cyclic(q)
        f = MeasurableFunction(fa, sys_a.space)
        g = MeasurableFunction(gb, sys_b.space)
        ns = sorted(set(int(x) for x in rng.integers(1, 120, size=3)))
        rep = product_average(sys_a, f, sys_b, g, [(1, 0)], ns)
        for ci, n in enumerate(ns):
            want = product_average_oracle(p, 1, fa, q, 1, gb, 1, 0, n)
            assert abs(rep.averages[ci, 0] - want) <= 1e-12


def test_product_probe_validation():
    sys_a = PointSystem.cyclic(3)
    sys_b = PointSystem.cyclic(3)
    f = MeasurableFunction.ones(sys_a.space)
    with pytest.raises(InputError):
        product_average(sys_a, f, sys_b, f, [(0, 5)], (2,))
    with pytest.raises(InputError):
        product_average(sys_a, f, sys_b, f, [], (2,))


# --------------------------------------------------------------------- sweeps


def test_sweep_identity_map_geometric_series():
    sys_ = PointSystem.cyclic(1)
    f = MeasurableFunction.ones(sys_.space)
    grid = 8
    cps = (1, 2, 16)
    sweep = wiener_wintner_sweep(sys_, f, (0,), grid, cps)
    for j in range(grid):
        lam = np.exp(2j * pi * j / grid)
        for ci, n in enumerate(cps):
            if j == 0:
                want = 1.0
            else:
                want = (1 - lam**n) / (n * (1 - lam))
            assert abs(sweep.averages[j, 0, ci] - want) <= 1e-12


def test_sweep_zero_function():
    sys_ = PointSystem.cyclic(6)
    f = MeasurableFunction.zeros(sys_.space)
    sweep = wiener_wintner_sweep(sys_, f, (0, 3), 4, (1, 8))
    assert np.all(sweep.averages == 0)


def test_sweep_matches_rotation_closed_form():
    order = 32
    sys_ = PointSystem.cyclic(order)
    f = character(sys_.space, 3)
    grid = 16
    cps = (1, 7, 50, 400)
    probes = (0, 11)
    sweep = wiener_wintner_sweep(sys_, f, probes, grid, cps)
    rho = Fraction(3, order)
    for j in range(grid):
        for pi_, w in enumerate(probes):
            omega = Fraction(3 * w, order)
            for ci, n in enumerate(cps):
                want = rotation_closed_form(rho, Fraction(j, grid), float(omega), n)
                assert abs(sweep.averages[j, pi_, ci] - want) <= 1e-9


def test_rotation_table_keeps_the_scalar_loop_bits():
    # the benchmark's oracle shape: 128 grid points, 3 probes, 18 checkpoints;
    # rho = 1/128 makes j = 127 exactly resonant, and j = 0 and 126 its
    # neighbours
    order, character_, step, grid = 256, 1, 2, 128
    probes = (0, 37, 200)
    cps = geometric_checkpoints(100_000)
    assert len(cps) == 18
    rho = Fraction(character_ * step, order)
    fronts = [cycles(float(Fraction(character_ * w, order) % 1)) for w in probes]
    oracle, resonant = return_times.rotation_oracle(order, character_, step, probes,
                                                    grid, cps)
    assert resonant == [127]
    for j in range(grid):
        phase = return_times._rotation_phase(rho, Fraction(j, grid))
        q, qns, exact = return_times._rotation_powers(*phase, cps)
        assert exact == (j == 127)
        want = rotation_table_reference(q, qns, exact, fronts, cps)
        got = return_times._rotation_table(q, qns, exact, fronts, cps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert oracle[j].tobytes() == want.tobytes()


def direct_twisted_sums(tau, values, start, grid, n_max):
    """Running sums sum_{k<n} lam_j^k f(tau^k w), n = 1..n_max, with the
    exact phases exp(2 pi i ((j k) mod G) / G); shape (G, n_max)."""
    x = values[step_orbit(tau, start, n_max)]
    jk = np.outer(np.arange(grid), np.arange(n_max)) % grid
    return np.cumsum(np.exp(2j * pi * jk / grid) * x, axis=1)


@pytest.mark.parametrize("grid", [1, 7, 128, 300])
def test_sweep_matches_direct_sum_with_exact_phases(grid):
    # cycles of length 13, 5, 1 and 23 on shuffled atoms; checkpoints off
    # the grid size and the cycle lengths, and G = 300 > n_max
    rng = np.random.default_rng(86 + grid)
    sys_ = cycles_system([13, 5, 1, 23], rng)
    n_atoms = sys_.space.n_atoms
    f = MeasurableFunction(
        rng.normal(size=n_atoms) + 1j * rng.normal(size=n_atoms), sys_.space
    )
    cps = (1, 2, 6, 11, 30, 129, 200, 257)
    probes = tuple(int(p) for p in rng.choice(n_atoms, 4, replace=False))
    sweep = wiener_wintner_sweep(sys_, f, probes, grid, cps)
    assert sweep.averages.shape == (grid, len(probes), len(cps))
    idx = np.array(cps) - 1
    for p, start in enumerate(probes):
        want = direct_twisted_sums(sys_.tau, f.values, start, grid, cps[-1])
        got = sweep.averages[:, p, :] * np.array(cps)
        assert np.max(np.abs(got - want[:, idx])) <= 1e-12


# tracemalloc peak of one product_average or wiener_wintner_sweep call on
# small orders, whatever the horizon: the period walk holds a few blocks of
# _BLOCK terms, and the results C x pairs and G x probes x C values
FOLD_PEAK_BOUND = 4 * 2**20


def test_sweep_memory_is_bounded_at_default_budget():
    # G = 128 at the default budget of 1e6 terms: a G x n table alone would
    # take 2 GB, and an n-long sample vector 16 MB
    sys_ = PointSystem.cyclic(256)
    f = character(sys_.space, 2)
    cps = geometric_checkpoints(1_000_000)
    tracemalloc.start()
    try:
        sweep = wiener_wintner_sweep(sys_, f, (0, 17, 101), 128, cps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < FOLD_PEAK_BOUND, f"sweep peaked at {peak / 2**20:.1f} MiB"
    assert sweep.averages.shape == (128, 3, len(cps))
    # lambda_127 = exp(-2 pi i / 128) cancels the character's rotation, so
    # the average stays at f(0) = 1
    assert abs(sweep.averages[127, 0, -1] - 1.0) <= 1e-9


def test_sweep_equals_weighted_lambda_power():
    # the sweep's folded DFT and the weighted engine's power weights are
    # independent routes to the same twisted averages
    order = 24
    sys_ = PointSystem.cyclic(order)
    rng = np.random.default_rng(82)
    f = MeasurableFunction(
        rng.normal(size=order) + 1j * rng.normal(size=order), sys_.space
    )
    grid = 8
    cps = (1, 3, 300, 2048)
    probe = 5
    sweep = wiener_wintner_sweep(sys_, f, (probe,), grid, cps)
    T = CompositionOperator(
        sys_.tau, np.ones(order, dtype=complex), sys_.space, measure_preserving=True
    )
    for j in range(grid):
        lam = np.exp(2j * pi * j / grid)
        rep = weighted(
            T, f, WeightSequence.lambda_power(lam), cps, probes=(probe,),
            store_averages=False,
        )
        diff = np.max(np.abs(sweep.averages[j, 0, :] - rep.probe_values[:, 0]))
        assert diff <= 1e-12


def test_sweep_budget_error():
    sys_ = PointSystem.cyclic(4)
    f = MeasurableFunction.ones(sys_.space)
    with pytest.raises(BudgetError):
        wiener_wintner_sweep(sys_, f, (0,), 4, (10, 100), max_iterations=50)


# ------------------------------------------------------------ period folding


def random_values(space, rng):
    n = space.n_atoms
    return MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), space)


def block_horizons():
    """Checkpoints around the traversal's block boundaries, each set ending
    at one of n = B - 1, B, B + 1 and 3B + 7."""
    b = _BLOCK
    for n in (b - 1, b, b + 1, 3 * b + 7):
        yield tuple(c for c in (1, b // 2, b - 1, b, b + 1, 2 * b) if c < n) + (n,)


def test_product_below_one_period_is_one_cumsum_bitwise():
    # P = lcm(1009, 512) = 516608 lies past every horizon here: the blocked
    # running sum carries the bits of one cumsum over the whole orbit
    rng = np.random.default_rng(88)
    sys_a, sys_b = PointSystem.cyclic(1009, 3), PointSystem.cyclic(512, 5)
    f, g = random_values(sys_a.space, rng), random_values(sys_b.space, rng)
    pairs = [(0, 0), (700, 311)]
    for cps in block_horizons():
        rep = product_average(sys_a, f, sys_b, g, pairs, cps)
        n, ns = cps[-1], np.array(cps)
        for col, (wa, yb) in enumerate(pairs):
            terms = f.values[sys_a.orbit(wa, n)] * g.values[sys_b.orbit(yb, n)]
            want = np.cumsum(terms)[ns - 1] / ns.astype(float)
            assert rep.averages[:, col].tobytes() == want.tobytes()


def test_sweep_below_one_period_keeps_one_shot_bits():
    # P = lcm(1009, 128) = 129152 lies past every horizon here; the
    # reference bins the whole n-long orbit in one bincount per probe
    rng = np.random.default_rng(90)
    sys_ = PointSystem.cyclic(1009, 3)
    f = random_values(sys_.space, rng)
    grid, probes = 128, (0, 500)
    for cps in block_horizons():
        sweep = wiener_wintner_sweep(sys_, f, probes, grid, cps)
        n, c, ns = cps[-1], len(cps), np.array(cps, dtype=float)
        bins = np.arange(n) % grid
        bins += np.repeat(np.arange(c) * grid, np.diff(cps, prepend=0))
        for p, start in enumerate(probes):
            x = f.values[sys_.orbit(start, n)]
            sums = np.empty(c * grid, dtype=complex)
            sums.real = np.bincount(bins, x.real, c * grid)
            sums.imag = np.bincount(bins, x.imag, c * grid)
            sums = np.cumsum(sums.reshape(c, grid), axis=0)
            want = np.fft.ifft(sums, axis=1, norm="forward").T / ns
            assert sweep.averages[:, p, :].tobytes() == want.tobytes()


def period_checkpoints(period):
    """Checkpoint sets across periods: q P - 1, q P, q P + 1 for q = 1..3
    together, and single checkpoints at P, P + 1 and 3 P."""
    around = sorted({q * period + d for q in (1, 2, 3) for d in (-1, 0, 1)} - {0})
    return [tuple(around), (period,), (period + 1,), (3 * period,)]


def test_product_folds_periods_exactly():
    # cycles of length 13, 1 (a fixed point) and 23 against 6, 1 and 9:
    # periods 1, 6, 13, 78, 207, ...; each pair is run on its own period
    rng = np.random.default_rng(91)
    sys_a = cycles_system([13, 1, 23], rng)
    sys_b = cycles_system([6, 1, 9], rng)
    f, g = random_values(sys_a.space, rng), random_values(sys_b.space, rng)
    starts_a = {sys_a.cycle(a).size: a for a in range(sys_a.space.n_atoms)}
    starts_b = {sys_b.cycle(b).size: b for b in range(sys_b.space.n_atoms)}
    for la, wa in sorted(starts_a.items()):
        for lb, yb in sorted(starts_b.items()):
            for cps in period_checkpoints(lcm(la, lb)):
                rep = product_average(sys_a, f, sys_b, g, [(wa, yb)], cps)
                n = cps[-1]
                terms = (f.values[step_orbit(sys_a.tau, wa, n)]
                         * g.values[step_orbit(sys_b.tau, yb, n)])
                want = np.cumsum(terms)[np.array(cps) - 1] / np.array(cps)
                assert np.max(np.abs(rep.averages[:, 0] - want)) <= 1e-12


@pytest.mark.parametrize("grid", [1, 6, 40])
def test_sweep_folds_periods_exactly(grid):
    # a fixed point (P = G), a 13-cycle and a 23-cycle; with G = 1 the
    # fixed point's period is a single term
    rng = np.random.default_rng(92 + grid)
    sys_ = cycles_system([13, 1, 23], rng)
    f = random_values(sys_.space, rng)
    starts = {sys_.cycle(a).size: a for a in range(sys_.space.n_atoms)}
    for length, start in sorted(starts.items()):
        for cps in period_checkpoints(lcm(length, grid)):
            sweep = wiener_wintner_sweep(sys_, f, (start,), grid, cps)
            want = direct_twisted_sums(sys_.tau, f.values, start, grid, cps[-1])
            got = sweep.averages[:, 0, :] * np.array(cps)
            diff = np.abs(got - want[:, np.array(cps) - 1]) / np.array(cps)
            assert np.max(diff) <= 1e-12


@pytest.mark.parametrize("horizon", [10**6, 10**9])
def test_fold_runs_to_any_horizon_in_bounded_memory(horizon):
    # P = lcm(1009, 512) = 516608 for the products and lcm(256, 128) = 256
    # for the sweep: past one period the walk stops, so the peak and the
    # time are the same at 1e6 and 1e9 terms
    rng = np.random.default_rng(93)
    sys_a, sys_b = PointSystem.cyclic(1009, 3), PointSystem.cyclic(512, 5)
    f, g = random_values(sys_a.space, rng), random_values(sys_b.space, rng)
    sys_w = PointSystem.cyclic(256)
    chi = character(sys_w.space, 2)
    cps = geometric_checkpoints(horizon)
    runs = {
        "product_average": lambda: product_average(
            sys_a, f, sys_b, g, [(0, 0), (5, 7), (100, 3)], cps, max_iterations=horizon
        ),
        "wiener_wintner_sweep": lambda: wiener_wintner_sweep(
            sys_w, chi, (0, 17, 101), 128, cps, max_iterations=horizon
        ),
    }
    results = {}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            start = time.perf_counter()
            results[name] = run()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < FOLD_PEAK_BOUND, f"{name} peaked at {peak / 2**20:.1f} MiB"
        assert elapsed < 1.0, f"{name} took {elapsed:.2f} s"
    sweep = results["wiener_wintner_sweep"]
    assert abs(sweep.averages[127, 0, -1] - 1.0) <= 1e-9
    # the product average tends to the period mean, off by at most
    # 2 P max|f g| / n
    period = 1009 * 512
    mean = product_average(sys_a, f, sys_b, g, [(0, 0)], (period,)).averages[0, 0]
    bound = 2 * period * np.max(np.abs(f.values)) * np.max(np.abs(g.values)) / horizon
    assert abs(results["product_average"].averages[-1, 0] - mean) <= bound


HORIZON_ENGINES = {
    "cesaro": lambda s, f, cps, budget: cesaro(
        CompositionOperator(s.tau, np.ones(4), s.space), f, cps, max_iterations=budget
    ),
    "weighted": lambda s, f, cps, budget: weighted(
        CompositionOperator(s.tau, np.ones(4), s.space), f,
        WeightSequence.constant(1.0), cps, max_iterations=budget,
    ),
    "product_average": lambda s, f, cps, budget: product_average(
        s, f, s, f, [(0, 1)], cps, max_iterations=budget
    ),
    "wiener_wintner_sweep": lambda s, f, cps, budget: wiener_wintner_sweep(
        s, f, (0,), 4, cps, max_iterations=budget
    ),
}


@pytest.mark.parametrize("engine", sorted(HORIZON_ENGINES))
def test_horizon_guard_is_shared(engine):
    run = HORIZON_ENGINES[engine]
    s = PointSystem.cyclic(4)
    f = character(s.space, 1)
    run(s, f, (1, 3, 50), 50)  # a last checkpoint equal to the budget runs
    with pytest.raises(BudgetError) as err:
        run(s, f, (1, 3, 51), 50)
    assert str(err.value) == "last checkpoint 51 exceeds the iteration budget 50"


@pytest.mark.parametrize("engine", sorted(HORIZON_ENGINES))
def test_fractional_checkpoints_are_rejected(engine):
    run = HORIZON_ENGINES[engine]
    s = PointSystem.cyclic(4)
    f = character(s.space, 1)
    run(s, f, (1.0, np.int64(3), np.float64(4.0)), 50)  # integral values pass
    for cps in ((1.5, 3), (1, float("nan")), (1, None)):
        with pytest.raises(InputError, match="checkpoints must be integers"):
            run(s, f, cps, 50)


PROBE_ENGINES = {
    "cesaro": lambda s, f, p: cesaro(
        CompositionOperator(s.tau, np.ones(4), s.space), f, (1, 5), probes=(p,)
    ).probe_values,
    "weighted": lambda s, f, p: weighted(
        CompositionOperator(s.tau, np.ones(4), s.space), f,
        WeightSequence.constant(1.0), (1, 5), probes=(p,),
    ).probe_values,
    "product_average": lambda s, f, p: product_average(
        s, f, s, f, [(0, p)], (1, 5)
    ).averages,
    "wiener_wintner_sweep": lambda s, f, p: wiener_wintner_sweep(
        s, f, (p,), 4, (1, 5)
    ).averages,
}


@pytest.mark.parametrize("engine", sorted(PROBE_ENGINES))
def test_fractional_probes_are_rejected(engine):
    # probe atoms are read by the checkpoints' rule: 1.9 names no atom, and
    # was read as atom 1
    run = PROBE_ENGINES[engine]
    s = PointSystem.cyclic(4)
    f = character(s.space, 1)
    want = run(s, f, 1)
    for p in (1.0, np.int64(1), np.float64(1.0)):  # integral values pass
        assert np.array_equal(run(s, f, p), want)
    for p in (1.9, 0.5, float("nan"), None):
        with pytest.raises(InputError, match="probes must be integers"):
            run(s, f, p)


def test_product_with_character_second_factor_equals_sweep():
    # second system = rotation by 1/q with g the identity character: the
    # product average at (w, 0) is the sweep entry at lambda = e^{2 pi i/q}
    order, q = 12, 8
    sys_a = PointSystem.cyclic(order)
    rng = np.random.default_rng(83)
    f = MeasurableFunction(
        rng.normal(size=order) + 1j * rng.normal(size=order), sys_a.space
    )
    sys_b = PointSystem.cyclic(q)
    g = character(sys_b.space, 1)
    cps = (1, 5, 96)
    probe = 4
    rep = product_average(sys_a, f, sys_b, g, [(probe, 0)], cps)
    sweep = wiener_wintner_sweep(sys_a, f, (probe,), q, cps)
    diff = np.max(np.abs(rep.averages[:, 0] - sweep.averages[1, 0, :]))
    assert diff <= 1e-12


# ----------------------------------------------------------------- closed form


def test_rotation_q_exact_resonance():
    q, resonant = rotation_q(Fraction(1, 4), Fraction(3, 4))
    assert resonant
    assert q == 1.0 + 0j
    q2, r2 = rotation_q(Fraction(1, 4), Fraction(1, 2))
    assert not r2
    assert q2 == pytest.approx(np.exp(2j * pi * 0.75))


def test_closed_form_resonance_exact_value():
    for omega in (0.0, 0.3, 0.75):
        want = cmath.exp(2j * pi * omega)
        for n in (1, 10, 12345):
            got = rotation_closed_form(Fraction(1, 4), Fraction(3, 4), omega, n)
            assert got == want  # bitwise: resonance short-circuits


def test_closed_form_cancellation_examples():
    assert abs(rotation_closed_form(Fraction(1, 2), Fraction(0), 0.0, 2)) <= 1e-15
    assert abs(rotation_closed_form(Fraction(1, 4), Fraction(0), 0.0, 8)) <= 1e-15


def test_closed_form_matches_direct_sum():
    rng = np.random.default_rng(84)
    for _ in range(20):
        num = int(rng.integers(0, 16))
        den = int(rng.integers(1, 16))
        rho = Fraction(num % den if den > 1 else 0, den)
        jnum = int(rng.integers(0, 12))
        lam_phase = Fraction(jnum, 12)
        omega = float(rng.uniform())
        n = int(rng.integers(1, 200))
        lam = cmath.exp(2j * pi * float(lam_phase))
        direct = sum(
            lam**k * cmath.exp(2j * pi * (omega + k * float(rho))) for k in range(n)
        ) / n
        got = rotation_closed_form(rho, lam_phase, omega, n)
        assert abs(got - direct) <= 1e-10


def test_resonance_dichotomy_decay_bound():
    # off resonance the average obeys |a_n| <= 2 / (n |1 - q|)
    for jnum, den in ((1, 3), (5, 8), (2, 7)):
        rho = Fraction(jnum, den)
        lam_phase = Fraction(1, 5)
        q, resonant = rotation_q(rho, lam_phase)
        assert not resonant
        for n in (1, 10, 100, 10_000):
            a = rotation_closed_form(rho, lam_phase, 0.2, n)
            assert abs(a) <= 2.0 / (n * abs(1 - q)) + 1e-15


def test_closed_form_input_checks():
    with pytest.raises(InputError):
        rotation_closed_form(Fraction(1, 3), Fraction(0), 0.0, 0)
    with pytest.raises(InputError):
        rotation_closed_form(0.25, Fraction(0), 0.0, 4)  # float rho rejected


@pytest.mark.parametrize("lam", [
    cmath.exp(2j * pi / 8), (1, 8), 0.125, np.int64(1),
], ids=["complex", "tuple", "float", "numpy-int"])
def test_closed_form_takes_only_fraction_or_int_phases(lam):
    for rho, phase in ((Fraction(1, 8), lam), (lam, Fraction(1, 8))):
        with pytest.raises(InputError, match="Fraction or int"):
            rotation_closed_form(rho, phase, 0.0, 5)
        with pytest.raises(InputError, match="Fraction or int"):
            rotation_q(rho, phase)
    # an int is a whole number of cycles: the same q as Fraction(0)
    assert rotation_q(Fraction(1, 8), 3) == rotation_q(Fraction(1, 8), Fraction(0))
