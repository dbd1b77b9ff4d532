"""Greedy divergence certificates and their independent verification."""

import tracemalloc

import numpy as np
import pytest

from ergosym import (
    BudgetError,
    ConsistencyError,
    InputError,
    MeasurableFunction,
    Rearrangement,
    WindowError,
    cesaro,
    construct_certificate,
    direct_averages,
    ds_certificate,
    probe_points,
    signed_shift_operator,
    verify_certificate,
)
from ergosym import divergence, spaces
from oracles import brute_counterexample_average, greedy_breakpoints

# confirmed by the standalone greedy oracle (see test_frozen_* below)
ONES_BREAKPOINTS_J6 = (1, 5, 17, 53, 161, 485)
VARIANT_BREAKPOINTS = (1, 4, 11, 32)


def constant_profile(window):
    return Rearrangement(np.array([0.0, float(window)]), np.array([1.0]))


def variant_profile(window):
    """mu_t = 1 + 1/(1 + floor(t)) on [0, window): decays toward 1."""
    bps = np.arange(window + 1, dtype=float)
    plateaus = 1.0 + 1.0 / (1.0 + np.arange(window))
    return Rearrangement(bps, plateaus)


def variant_callable(window):
    def mu(t):
        return 1.0 + 1.0 / (1.0 + np.floor(t)) if t < window else 0.0

    return mu


# -------------------------------------------------------------------- probes


def test_probe_points_grid():
    ts = probe_points(0.1, 10)
    assert np.allclose(ts, np.arange(0.15, 1.0, 0.1))
    assert np.all((ts > 0.1) & (ts < 1.0))


def test_probe_points_validation():
    with pytest.raises(InputError):
        probe_points(1.0, 10)
    with pytest.raises(InputError):
        probe_points(-0.1, 10)
    with pytest.raises(InputError):
        probe_points(0.96, 10)  # no midpoint survives the cut
    with pytest.raises(InputError):
        probe_points(0.1, 0)


# -------------------------------------------------------------- construction


def test_constant_profile_three_stages():
    cert = construct_certificate(constant_profile(32), 0.1, 3, grid=10)
    assert cert.breakpoints == (1, 5, 17)
    assert cert.mode == "full-grid"
    sides = [s.side for s in cert.stages]
    assert sides == [">=1", "<-1/2", ">1/2"]
    worst = [s.worst_value for s in cert.stages]
    assert worst[0] == pytest.approx(1.0, abs=1e-12)
    assert worst[1] == pytest.approx(-3.0 / 5.0, abs=1e-12)
    assert worst[2] == pytest.approx(9.0 / 17.0, abs=1e-12)
    assert cert.stages[1].margin == pytest.approx(0.1, abs=1e-12)
    assert cert.stages[2].margin == pytest.approx(9.0 / 17.0 - 0.5, abs=1e-12)


def test_constant_profile_block_sum_closed_forms():
    # for the constant profile the greedy stage values obey
    # a_{n2} = (2 n1 - n2)/n2 and a_{n3} = (2 n1 - 2 n2 + n3)/n3
    cert = construct_certificate(constant_profile(32), 0.1, 3, grid=4)
    n1, n2, n3 = cert.breakpoints
    assert cert.stages[1].worst_value == pytest.approx((2 * n1 - n2) / n2)
    assert cert.stages[2].worst_value == pytest.approx((2 * n1 - 2 * n2 + n3) / n3)


def test_frozen_six_stage_breakpoints_match_oracle():
    window = 512
    got = greedy_breakpoints(
        lambda t: 1.0 if t < window else 0.0, window, 0.1, 6, grid=10
    )
    assert tuple(got) == ONES_BREAKPOINTS_J6
    cert = construct_certificate(constant_profile(window), 0.1, 6, grid=10)
    assert cert.breakpoints == ONES_BREAKPOINTS_J6


def test_frozen_variant_breakpoints_match_oracle():
    window = 64
    got = greedy_breakpoints(variant_callable(window), window, 0.1, 4, grid=10)
    assert tuple(got) == VARIANT_BREAKPOINTS
    cert = construct_certificate(variant_profile(window), 0.1, 4, grid=10)
    assert cert.breakpoints == VARIANT_BREAKPOINTS


def test_unit_cell_mode_for_constant_profile():
    cert = construct_certificate(constant_profile(32), 0.1, 3, grid=1)
    assert cert.mode == "unit-cell"
    assert cert.breakpoints == (1, 5, 17)


def test_margin_pushes_breakpoints_out():
    base = construct_certificate(constant_profile(64), 0.1, 3, grid=10)
    padded = construct_certificate(
        constant_profile(64), 0.1, 3, margin=0.15, grid=10
    )
    assert padded.breakpoints[1] > base.breakpoints[1]
    for s in padded.stages[1:]:
        assert s.margin > 0.15


def test_construction_validation():
    with pytest.raises(InputError):
        construct_certificate(constant_profile(8), 0.1, 0)
    with pytest.raises(InputError):
        construct_certificate(constant_profile(8), 0.1, 2, margin=-0.1)
    with pytest.raises(InputError):
        construct_certificate(constant_profile(8), 1.2, 2)
    # profile dipping below 1 violates the normalization
    low = Rearrangement(np.array([0.0, 8.0]), np.array([0.5]))
    with pytest.raises(InputError):
        construct_certificate(low, 0.1, 2)


def test_window_error_when_support_too_short():
    with pytest.raises(WindowError):
        construct_certificate(constant_profile(16), 0.1, 4, grid=10)


def test_budget_error_when_candidates_capped():
    with pytest.raises(BudgetError):
        construct_certificate(
            constant_profile(64), 0.1, 2, grid=10, max_candidate=3
        )
    # a cap past any reachable term leaves the window to stop the search
    cert = construct_certificate(constant_profile(32), 0.1, 3, grid=10,
                                 max_candidate=2**64)
    assert cert.breakpoints == (1, 5, 17)


def test_greedy_minimality_decrement_breaks_stage():
    cert = construct_certificate(constant_profile(64), 0.1, 4, grid=10)
    ts = probe_points(0.1, 10)
    bps = list(cert.breakpoints)
    for j in range(1, len(bps)):
        smaller = bps[j] - 1
        assert smaller > bps[j - 1]
        vals = direct_averages(
            constant_profile(64), bps[:j] + [smaller], ts, [smaller]
        )[0]
        if j % 2 == 1:  # stage j+1 wants < -1/2 strictly
            assert np.max(vals) >= -0.5 - 1e-12
        else:
            assert np.min(vals) <= 0.5 + 1e-12


# ------------------------------------------------------------------ blocking


def scalar_search(rearr, eps, stages, grid, max_candidate):
    """Term-by-term greedy search: the reference the blocked search matches.

    Returns (breakpoints, worst values) or the exception the search raises.
    """
    ts = probe_points(eps, grid)
    t_m = rearr.support_measure
    tmax = float(ts[-1])
    total = rearr.values_at(ts).copy()
    bps, worsts = [1], [float(np.min(total))]
    n = 1
    for j in range(2, stages + 1):
        sign = -1.0 if (j - 1) % 2 else 1.0
        while True:
            k = n
            if tmax + k >= t_m:
                return WindowError(
                    f"profile window {t_m} too short: stage {j} needs terms "
                    f"past t = {tmax + k}"
                )
            if n + 1 > max_candidate:
                return BudgetError(
                    f"stage {j} threshold not reached within {max_candidate} terms"
                )
            total += sign * rearr.values_at(ts + k)
            n += 1
            a = total / n
            if j % 2 == 0 and float(np.max(a)) < -0.5 - 1e-12:
                worsts.append(float(np.max(a)))
                break
            if j % 2 == 1 and float(np.min(a)) > 0.5 + 1e-12:
                worsts.append(float(np.min(a)))
                break
        bps.append(n)
    return tuple(bps), tuple(worsts)


def blocked_search(rearr, eps, stages, grid, max_candidate):
    try:
        cert = construct_certificate(
            rearr, eps, stages, grid=grid, max_candidate=max_candidate
        )
    except (WindowError, BudgetError) as exc:
        return exc
    return cert.breakpoints, tuple(s.worst_value for s in cert.stages)


def same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


# Stage 7 of the constant profile searches k = 485..1456 and crosses at the
# last of them, 971 terms into the stage. The block sizes put that candidate
# at the first (1, 971), a middle (1943, the default) or the last (3, 243)
# term of a block.
@pytest.mark.parametrize("block", [1, 3, 243, 971, 1943, None])
def test_blocked_search_refuses_at_the_scalar_candidate(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(divergence, "BLOCK", block)
    k_cross = ONES_BREAKPOINTS_J6[-1] + 971
    # the window edge at which the crossing candidate is the first refused
    edge = float(probe_points(0.1, 10)[-1]) + k_cross
    cases = [
        # (window, max_candidate): the crossing candidate allowed or refused
        (k_cross + 1.0, 10**6),
        (k_cross + 0.9, 10**6),
        (1 << 20, k_cross + 1),
        (1 << 20, k_cross),
        # refused at the first candidate of the stage
        (ONES_BREAKPOINTS_J6[-1] + 0.9, 10**6),
        (1 << 20, ONES_BREAKPOINTS_J6[-1]),
        # window and budget refuse the same candidate: the window is named
        (edge, k_cross),
        # the edge one ulp above, at and one ulp below tmax + k_cross
        (np.nextafter(edge, np.inf), 10**6),
        (edge, 10**6),
        (np.nextafter(edge, -np.inf), 10**6),
    ]
    outcomes = []
    for window, cap in cases:
        prof = Rearrangement(np.array([0.0, window]), np.array([1.0]))
        want = scalar_search(prof, 0.1, 7, 10, cap)
        got = blocked_search(prof, 0.1, 7, 10, cap)
        assert same_outcome(got, want), (window, cap, got, want)
        outcomes.append(type(want).__name__)
    assert outcomes == ["tuple", "WindowError", "tuple", "BudgetError",
                        "WindowError", "BudgetError", "WindowError", "tuple",
                        "WindowError", "WindowError"]


@pytest.mark.parametrize("block", [1, 5, None])
def test_blocked_search_matches_scalar_on_varied_profiles(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(divergence, "BLOCK", block)
    rng = np.random.default_rng(91)
    cases = [(variant_profile(64), 0.1, 4, 10)]
    for grid in (1, 3, 7):
        vals = np.sort(1.0 + rng.random(200))[::-1]
        cases.append((Rearrangement(np.arange(201.0), vals), 0.2, 8, grid))
    for prof, eps, stages, grid in cases:
        want = scalar_search(prof, eps, stages, grid, 10**6)
        assert len(want[0]) == stages
        assert same_outcome(blocked_search(prof, eps, stages, grid, 10**6), want)


def scalar_direct(rearr, bps, ts, ns):
    """Term-by-term direct formula: the reference for the blocked one."""
    out = np.empty((len(ns), ts.size))
    total = np.zeros(ts.size)
    ptr = 0
    for k in range(ns[-1]):
        sign = -1.0 if sum(b <= k for b in bps) % 2 else 1.0
        total += sign * rearr.values_at(ts + k)
        if k + 1 == ns[ptr]:
            out[ptr] = total / (k + 1)
            ptr += 1
    return out


@pytest.mark.parametrize("block", [3, None])
def test_blocked_direct_averages_bitwise(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(divergence, "BLOCK", block)
    rng = np.random.default_rng(92)
    prof = Rearrangement(np.arange(10_001.0),
                         np.sort(1.0 + rng.random(10_000))[::-1])
    ts = probe_points(0.1, 7)
    bps = [1, 5, 17, 53, 161, 485, 1457, 4373]
    ns = [1, 2, 3, 4, 5, 6, 17, 4095, 4096, 4097, 8192, 9999]
    for probes in (ts, ts[:0]):  # no probe points: an empty table
        got = direct_averages(prof, bps, probes, ns)
        want = scalar_direct(prof, bps, probes, ns)
        assert got.shape == (len(ns), probes.size)
        assert np.array_equal(got, want)


# ------------------------------------------------------------- direct formula


def test_direct_averages_match_brute_force():
    rng = np.random.default_rng(90)
    prof = variant_profile(64)
    mu = variant_callable(64)
    bps = [1, 4, 11]
    ts = probe_points(0.2, 7)
    ns = [1, 3, 4, 11, 20]
    table = direct_averages(prof, bps, ts, ns)
    for ci, n in enumerate(ns):
        for pi_, t in enumerate(ts):
            want = brute_counterexample_average(mu, bps, float(t), n)
            assert table[ci, pi_] == pytest.approx(want, abs=1e-12)
    del rng


def test_direct_averages_stage_one_is_profile():
    prof = variant_profile(16)
    ts = probe_points(0.1, 5)
    table = direct_averages(prof, [1, 4], ts, [1])
    assert np.allclose(table[0], prof.values_at(ts), atol=1e-15)


# ---------------------------------------------------------------- verification


def test_verify_constant_profile_certificate():
    prof = constant_profile(32)
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    res = verify_certificate(cert, prof)
    assert res
    assert res.failed_stage is None
    assert res.max_deviation <= 1e-9
    assert res.stage_margins[0] == pytest.approx(0.0, abs=1e-12)
    assert res.stage_margins[1] == pytest.approx(0.1, abs=1e-12)
    assert res.stage_margins[2] == pytest.approx(9.0 / 17.0 - 0.5, abs=1e-12)


def test_verify_variant_profile_certificate():
    prof = variant_profile(64)
    cert = construct_certificate(prof, 0.1, 4, grid=10)
    res = verify_certificate(cert, prof)
    assert res.ok
    assert res.max_deviation <= 1e-9


def test_tampered_certificate_fails_at_stage_two():
    prof = constant_profile(32)
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    tampered = type(cert)(
        cert.eps, cert.margin, cert.grid, cert.mode, (1, 4, 17), cert.stages
    )
    res = verify_certificate(tampered, prof)
    assert not res
    assert res.failed_stage == 2
    # a_4 = (2 - 4)/4 = -1/2 exactly: does not clear the strict threshold
    assert res.stage_margins[1] == pytest.approx(0.0, abs=1e-12)


def test_verify_rejects_malformed_breakpoints():
    prof = constant_profile(32)
    cert = construct_certificate(prof, 0.1, 2, grid=5)
    bad = type(cert)(
        cert.eps, cert.margin, cert.grid, cert.mode, (2, 5), cert.stages
    )
    with pytest.raises(InputError):
        verify_certificate(bad, prof)


def test_verify_window_error():
    prof32 = constant_profile(32)
    cert = construct_certificate(prof32, 0.1, 3, grid=5)
    with pytest.raises(WindowError):
        verify_certificate(cert, constant_profile(8))


def test_consistency_error_raised_when_tolerance_zeroed():
    prof = variant_profile(64)
    cert = construct_certificate(prof, 0.1, 4, grid=10)
    res = verify_certificate(cert, prof)
    assert res.max_deviation > 0  # two float paths, different orderings
    with pytest.raises(ConsistencyError):
        verify_certificate(cert, prof, tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_verify_rejects_bad_tolerances(tol):
    prof = constant_profile(32)
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    with pytest.raises(InputError, match="tolerance"):
        verify_certificate(cert, prof, tol=tol)


@pytest.mark.parametrize("margin", [np.nan, np.inf])
def test_construct_rejects_nonfinite_margin(margin):
    with pytest.raises(InputError, match="margin"):
        construct_certificate(constant_profile(8), 0.1, 2, margin=margin)


def test_pipeline_oscillation_lower_bound():
    # any probe sees a value >= 1 at n=1 and a value < -1/2 at n_2
    prof = constant_profile(32)
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    T = signed_shift_operator(cert.breakpoints, cert.grid, window=32)
    mids = (np.arange(T.space.n_atoms) + 0.5) / cert.grid
    f = MeasurableFunction(prof.values_at(mids), T.space)
    probe_atoms = [int(round(t * cert.grid - 0.5)) for t in probe_points(0.1, 10)]
    rep = cesaro(T, f, cert.breakpoints, probes=tuple(probe_atoms),
                 store_averages=False)
    # max - min over every checkpoint, per probe; the averages are real
    v = rep.probe_values.real
    assert np.all(v.max(axis=0) - v.min(axis=0) >= 1.0)


def test_constructed_operator_is_ds():
    cert = construct_certificate(constant_profile(32), 0.1, 3, grid=10)
    T = signed_shift_operator(cert.breakpoints, cert.grid, window=32)
    assert ds_certificate(T).ds_ok


# ------------------------------------------------------------------- memory


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verification_holds_17_bytes_per_atom():
    # the point map (8 B), the int8 signs (1 B) and the float64 profile (8 B)
    # per atom of window x grid, plus one block of temporaries
    prof = constant_profile(1 << 22)
    cert = construct_certificate(prof, 0.1, 10, grid=10)
    n_atoms = cert.breakpoints[-1] * cert.grid
    assert n_atoms == 393_650
    peak = traced_peak(verify_certificate, cert, prof)
    assert peak < 19 * n_atoms + (1 << 20), peak / n_atoms


def test_verification_holds_13_bytes_per_atom():
    # from one block of atoms on the point map is int32 (4 B): with the int8
    # signs (1 B) and the float64 profile (8 B), 13 bytes per atom of window
    # x grid, plus one block of temporaries (17.7 B/atom with an intp map)
    prof = constant_profile(1 << 22)
    cert = construct_certificate(prof, 0.1, 10, grid=10)
    n_atoms = cert.breakpoints[-1] * cert.grid
    assert n_atoms == 393_650
    peak = traced_peak(verify_certificate, cert, prof)
    assert peak < 14 * n_atoms + (1 << 19), peak / n_atoms


def test_search_memory_does_not_grow_with_the_stages():
    # stage 11 walks 78 732 terms to stage 8's 2 916, in blocks of one size
    prof = constant_profile(1 << 22)
    peak8 = traced_peak(construct_certificate, prof, 0.1, 8, grid=10)
    peak11 = traced_peak(construct_certificate, prof, 0.1, 11, grid=10)
    one_block = 8 * spaces._BLOCK  # a block of float64 cells
    assert peak11 <= peak8 + one_block, (peak8, peak11)
