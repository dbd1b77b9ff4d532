"""The numeric guards do not depend on the scale of the data.

Each guard allows tol * max(1, scale) for the size of the quantities it
compares, and every result that overflows float64 is a NumericError (exit
3). The suite turns numpy's RuntimeWarnings into errors, so every run here
also shows that no warning leaks.
"""

import json

import numpy as np
import pytest

from ergosym import (
    AtomicMeasureSpace,
    ConsistencyError,
    MeasurableFunction,
    NumericError,
    Rearrangement,
    cli,
    construct_certificate,
    direct_averages,
    divergence,
    majorizes,
    rearrangement,
    verify_certificate,
)

# 10^k for every k from -12 up to where data of this size stays finite
SCALES = [10.0**k for k in range(-12, 301)]


def profile_cfg(value):
    """A `counterexample` profile config: 64 atoms of weight 1/2."""
    return {"schema": 1, "space": {"weights": [0.5] * 64},
            "function": {"constant": value}}


U_1E20 = {"schema": 1, "space": {"weights": [0.5] * 64},
          "function": {"re": (np.random.default_rng(23).uniform(1, 2, 64) * 1e20).tolist()}}
SHIFT4 = {"kind": "composition", "map": [1, 2, 3, 0]}


def _run(tmp_path, capsys, command, cfg, *args):
    """(exit code, stderr, {file name: text}) of one CLI run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main([command, str(path), *args, "--output-dir", str(out)])
    files = {p.name: p.read_text() for p in out.iterdir()} if out.exists() else {}
    return code, capsys.readouterr().err, files


def _rearranged(values):
    """The profile of `values` on unit atoms, as `counterexample` reads it."""
    return rearrangement(MeasurableFunction(values, AtomicMeasureSpace.uniform(len(values))))


@pytest.mark.parametrize("weights", ["equal", "unequal"])
def test_majorizes_itself_and_its_permutations_at_every_scale(weights):
    rng = np.random.default_rng(20)
    n = 256
    w = np.full(n, 0.1) if weights == "equal" else rng.uniform(0.5, 2.0, n)
    space = AtomicMeasureSpace(w)
    unit = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    perm = rng.permutation(n)
    for scale in SCALES:
        f = MeasurableFunction(scale * unit, space)
        assert majorizes(f, f), scale
        if weights == "equal":  # f o sigma lives on the same space
            assert majorizes(f, MeasurableFunction(f.values[perm], space)), scale


def test_majorization_slack_stays_finite_when_the_integral_overflows():
    # int f* = 2e308 overflows; the slack is then tol * float64's max, so a
    # g that passes f by half its size is still caught, and tol = 0 is exact
    f = MeasurableFunction([1e308, 1e308], AtomicMeasureSpace.uniform(2))
    g = MeasurableFunction([1.5e308, 0.0], f.space)
    for tol in (0.0, 1e-9):
        res = majorizes(f, g, tol)
        assert not res and res.integral_g == 1.5e308, tol
        assert majorizes(f, f, tol), tol


@pytest.mark.parametrize("kind", ["constant", "uniform"])
def test_verify_certificate_at_every_scale(kind):
    rng = np.random.default_rng(21)
    unit = np.ones(512) if kind == "constant" else rng.uniform(1.0, 2.0, 512)
    for scale in SCALES[12:]:  # from 1: a profile must stay >= 1
        rearr = _rearranged(scale * unit)
        cert = construct_certificate(rearr, 0.1, 5, grid=4)
        assert verify_certificate(cert, rearr).ok, scale


def test_explicit_weight_at_its_declared_bound_is_accepted_at_every_scale():
    phases = np.exp(2j * np.pi * np.arange(8) / 8)
    base = {"schema": 1, "space": {"atoms": 2},
            "operator": {"kind": "composition", "map": [1, 0]},
            "function": {"re": [1.0, 2.0]}, "checkpoints": [1, 2, 8]}
    for scale in SCALES:
        vals = scale * phases
        # the bound as one would write it down: the modulus of the list
        weight = {"kind": "explicit", "re": vals.real.tolist(),
                  "im": vals.imag.tolist(), "bound": scale}
        assert cli.validate({**base, "weight": weight}, "weighted-average") == [], scale


def test_cross_check_catches_a_relative_divergence_at_every_scale(monkeypatch):
    inner = divergence.direct_averages
    for scale in SCALES[12::12]:  # 1, 1e12, ..., 1e300
        rearr = _rearranged(np.full(512, scale))
        cert = construct_certificate(rearr, 0.1, 5, grid=4)
        assert verify_certificate(cert, rearr).ok, scale
        monkeypatch.setattr(divergence, "direct_averages",
                            lambda *a: inner(*a) * (1.0 + 1e-6))
        with pytest.raises(ConsistencyError, match="deviate"):
            verify_certificate(cert, rearr)
        monkeypatch.setattr(divergence, "direct_averages", inner)


def test_cross_check_exits_4_on_a_real_divergence_only(tmp_path, capsys, monkeypatch):
    args = ("counterexample", profile_cfg(1e8), "--stages", "5")
    assert _run(tmp_path, capsys, *args)[:2] == (0, "")
    inner = divergence.direct_averages
    monkeypatch.setattr(divergence, "direct_averages",
                        lambda *a: inner(*a) * (1.0 + 1e-6))
    (tmp_path / "off").mkdir()
    code, err, files = _run(tmp_path / "off", capsys, *args)
    assert code == 4 and "streamed averages deviate" in err and not files


def test_direct_averages_that_overflow_raise_numeric_error():
    # no breakpoint: every term is +mu, so the sum behind a_2 overflows
    rearr = Rearrangement(np.array([0.0, 8.0]), np.array([1e308]))
    with pytest.raises(NumericError, match="the direct average overflows"):
        direct_averages(rearr, [], np.array([0.5]), [1, 2])


@pytest.mark.parametrize("args, code", [
    ((profile_cfg(1e307), "--stages", "3"), 0),
    ((profile_cfg(1e308), "--stages", "3"), 0),
    ((profile_cfg(1e8), "--stages", "5"), 0),
    ((profile_cfg(1e20), "--stages", "5"), 0),
    ((U_1E20, "--stages", "5"), 0),
    # stage 2 asks for a_n < -(1/2 + 1e308): the running sum overflows
    ((profile_cfg(1e308), "--stages", "3", "--margin", "1e308"), 3),
], ids=["1e307", "1e308", "1e8", "1e20", "uniform-1e20", "margin-1e308"])
def test_counterexample_on_large_profiles(tmp_path, capsys, args, code):
    got, err, files = _run(tmp_path, capsys, "counterexample", *args)
    assert got == code, err
    if code == 0:
        assert err == ""
        cert = json.loads(files["certificate.json"])
        assert len(cert["breakpoints"]) == int(args[2])
    else:
        assert err == "error: the running sum at n = 4 overflows float64\n"
        assert not files


def test_identity_average_is_majorized_on_large_functions(tmp_path, capsys):
    cfg = {"schema": 1, "space": {"weights": [2.5, 0.3]},
           "operator": {"kind": "composition", "map": [0, 1]},
           "function": {"re": [8.7e7, 8.7e7]}, "checkpoints": [1, 2, 4]}
    code, _, files = _run(tmp_path, capsys, "average", cfg)
    assert code == 0
    rows = files["averages.csv"].splitlines()[2:]
    assert len(rows) == 3 and all(r.endswith(",true") for r in rows)


def test_average_whose_l1_norm_overflows_exits_3(tmp_path, capsys):
    cfg = {"schema": 1, "space": {"atoms": 2},
           "operator": {"kind": "composition", "map": [1, 0]},
           "function": {"re": [1e308, 1e308]}, "checkpoints": [1]}
    code, err, files = _run(tmp_path, capsys, "average", cfg)
    assert code == 3 and not files
    assert err == "error: the L1 norm of the average at checkpoint 1 overflows float64\n"


def test_weights_whose_sum_overflows_exit_2(tmp_path, capsys):
    # the total measure 2e308 is held as inf without numpy's overflow
    # warning, and the rearrangement refuses the space
    cfg = {"schema": 1, "space": {"weights": [1e308, 1e308]},
           "function": {"re": [1e-10, 1e-10]}}
    code, err, files = _run(tmp_path, capsys, "norms", cfg)
    assert (code, err, files) == (2, "error: rearrangement data must be finite\n", {})


def test_trig_poly_weight_is_not_refused_at_its_coefficient_sum(tmp_path, capsys):
    # |P(k)| of this one term passes |z| by 16384 = one ulp
    cfg = {"schema": 1, "space": {"atoms": 4}, "operator": SHIFT4,
           "function": {"re": [1, 2, 3, 4]}, "checkpoints": [1, 2, 4],
           "weight": {"kind": "trig_poly", "terms": [{
               "z_re": 2.074647412628693e19, "z_im": 9.401420377468994e19,
               "phase_num": 27, "phase_den": 5}]}}
    code, err, files = _run(tmp_path, capsys, "weighted-average", cfg)
    assert (code, err) == (0, "")
    assert len(files["averages.csv"].splitlines()) == 5


def test_short_explicit_weight_is_a_config_diagnostic(tmp_path, capsys):
    cfg = {"schema": 1, "space": {"atoms": 4}, "operator": SHIFT4,
           "function": {"re": [1, 2, 3, 4]}, "checkpoints": [1, 2, 4],
           "probes": [7], "weight": {"kind": "explicit", "re": [1, 1]}}
    code, err, files = _run(tmp_path, capsys, "weighted-average", cfg)
    assert code == 2 and not files
    assert err == (
        "config: probes: probe atom out of range\n"
        "config: weight: explicit weight list exhausted: need 4 values, have 2\n"
    )
