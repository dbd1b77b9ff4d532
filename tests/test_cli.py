"""End-to-end command-line runs: exit codes, diagnostics, determinism."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergosym
from ergosym import cli, rotation_closed_form
from ergosym.averaging import DEFAULT_BUDGET
from ergosym.divergence import VerificationResult


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj, indent=1))
    return str(p)


def base_avg_cfg():
    return {
        "schema": 1,
        "seed": 11,
        "space": {"atoms": 4},
        "operator": {
            "kind": "composition",
            "map": [1, 2, 3, 0],
            "measure_preserving": True,
        },
        "function": {"re": [1, 0, 0, 0]},
        "checkpoints": [1, 4, 8],
        "probes": [0],
    }


# ------------------------------------------------------------------ success


def test_rearrange_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, "r.json", {
        "schema": 1, "seed": 3,
        "space": {"weights": [1.0, 1.0, 1.0]},
        "function": {"re": [3.0, 1.0, 2.0]},
    })
    assert cli.main(["rearrange", cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "rearrangement.csv").read_text().splitlines()
    assert lines[0] == "# schema=1 seed=3"
    assert lines[2].split(",") == ["0.0", "1.0", "3.0"]
    assert lines[4].split(",") == ["2.0", "3.0", "1.0"]


def test_output_name_override(tmp_path):
    cfg = write_cfg(tmp_path, "r.json", {
        "schema": 1, "seed": 0,
        "space": {"atoms": 2},
        "function": {"ones": True},
        "outputs": {"rearrangement": "mu.csv"},
    })
    assert cli.main(["rearrange", cfg, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "mu.csv").exists()
    assert not (tmp_path / "rearrangement.csv").exists()


def test_norms_with_orlicz_and_lorentz(tmp_path):
    cfg = write_cfg(tmp_path, "n.json", {
        "schema": 1, "seed": 7,
        "space": {"atoms": 3},
        "function": {"re": [3.0, 1.0, 2.0]},
        "orlicz": {"power": 1.0},
        "lorentz": {"capped": 2.0},
    })
    assert cli.main(["norms", cfg, "--output-dir", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "norms.json").read_text())
    assert obj["schema"] == 1 and obj["seed"] == 7
    assert obj["L1"] == pytest.approx(6.0)
    assert obj["Linf"] == pytest.approx(3.0)
    assert obj["L1capLinf"] == pytest.approx(6.0)
    assert obj["L1plusLinf"] == pytest.approx(3.0)
    assert obj["luxemburg"] == pytest.approx(6.0, abs=1e-8)
    assert obj["lorentz"] == pytest.approx(5.0)  # 3 + 2 over the first 2 units


def test_ds_check_permutation(tmp_path):
    cfg = write_cfg(tmp_path, "d.json", {
        "schema": 1, "seed": 1,
        "space": {"atoms": 3},
        "operator": {"kind": "composition", "map": [1, 2, 0],
                     "measure_preserving": True},
    })
    assert cli.main(["ds-check", cfg, "--output-dir", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "ds_report.json").read_text())
    assert obj["ds_ok"] and obj["l1_ok"] and obj["linf_ok"]
    assert obj["worst_column_sum"] == pytest.approx(1.0)


def test_average_counterexample_operator_needs_no_space(tmp_path):
    cfg = write_cfg(tmp_path, "a.json", {
        "schema": 1, "seed": 5,
        "operator": {"kind": "counterexample", "breakpoints": [1, 5],
                     "grid": 2, "window": 5},
        "function": {"ones": True},
        "checkpoints": [1, 5],
        "probes": [1],
    })
    assert cli.main(["average", cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "averages.csv").read_text().splitlines()
    assert lines[2].startswith("1,1,1.0,")
    n5 = lines[3].split(",")
    assert float(n5[2]) == pytest.approx(-0.6, abs=1e-12)
    assert n5[6] == "true"  # full mode: trace recorded


def test_weighted_average_cyclic_closed_form(tmp_path):
    cfg = dict(base_avg_cfg())
    cfg["weight"] = {"kind": "lambda_power", "lambda_re": 0.0, "lambda_im": 1.0}
    cfg["checkpoints"] = {"geometric": 4}
    path = write_cfg(tmp_path, "w.json", cfg)
    assert cli.main(["weighted-average", path, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "averages.csv").read_text().splitlines()
    # checkpoints 1,2,4: at n=4 the lambda=i average of the delta at 0 is 1/4
    last = lines[-1].split(",")
    assert last[0] == "4"
    assert float(last[2]) == pytest.approx(0.25, abs=1e-12)
    assert float(last[3]) == pytest.approx(0.0, abs=1e-12)


def test_wiener_wintner_emits_oracle_and_resonance(tmp_path):
    cfg = write_cfg(tmp_path, "ww.json", {
        "schema": 1, "seed": 2,
        "system": {"order": 8, "step": 1},
        "function": {"character": 2},
        "probes": [0, 3],
        "lambda_grid": 8,
        "checkpoints": [1, 8, 64, 100],
    })
    assert cli.main(["wiener-wintner", cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# schema=1 seed=2 resonant_lambdas=6"
    assert lines[1].endswith(",oracle_re,oracle_im,abs_err")
    assert len(lines) == 2 + 8 * 2 * 4
    for ln in lines[2:]:
        j, _, _, w, n, _, _, o_re, o_im, err = ln.split(",")
        assert float(err) <= 1e-9
        # the oracle columns are the scalar closed form, to the last bit
        want = rotation_closed_form(
            Fraction(2, 8), Fraction(int(j), 8), float(Fraction(2 * int(w), 8)),
            int(n),
        )
        assert (o_re, o_im) == (repr(want.real), repr(want.imag))


def test_return_times_product(tmp_path):
    cfg = write_cfg(tmp_path, "rt.json", {
        "schema": 1, "seed": 4,
        "system": {"order": 4},
        "function": {"re": [1, 0, 0, 0]},
        "second_system": {"order": 7},
        "second_function": {"re": [1, 0, 0, 0, 0, 0, 0]},
        "probes": [[0, 0]],
        "checkpoints": [28],
    })
    assert cli.main(["return-times", cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "product.csv").read_text().splitlines()
    assert lines[1] == "n,omega,y,re,im"
    row = lines[2].split(",")
    assert row[:3] == ["28", "0", "0"]
    assert float(row[3]) == pytest.approx(1.0 / 28.0, abs=1e-12)


def test_counterexample_default_run(tmp_path):
    assert cli.main(["counterexample", "--output-dir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["breakpoints"] == [1, 5, 17]
    assert cert["verified"] is True
    assert cert["max_pipeline_deviation"] <= 1e-9
    traces = (tmp_path / "traces.csv").read_text().splitlines()
    assert traces[1] == "n,t,value"
    # 3 checkpoints x 9 probe points
    assert len(traces) == 2 + 3 * 9


def test_counterexample_profile_config(tmp_path):
    cfg = write_cfg(tmp_path, "p.json", {
        "schema": 1, "seed": 9,
        "space": {"atoms": 32},
        "function": {"ones": True},
    })
    assert cli.main([
        "counterexample", cfg, "--stages", "3", "--output-dir", str(tmp_path)
    ]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["breakpoints"] == [1, 5, 17]
    assert cert["seed"] == 9


def test_counterexample_last_reachable_stage(tmp_path, capsys):
    # verification is linear in n_11 = 118097; at quadratic cost this run
    # would take about half an hour
    assert cli.main([
        "counterexample", "--stages", "11", "--grid", "10",
        "--output-dir", str(tmp_path),
    ]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verified"] is True
    assert cert["breakpoints"] == [
        1, 5, 17, 53, 161, 485, 1457, 4373, 13121, 39365, 118097
    ]
    # stage 12 needs n = 354293, past the 200000-term candidate cap
    rc = cli.main([
        "counterexample", "--stages", "12", "--grid", "10",
        "--output-dir", str(tmp_path / "s12"),
    ])
    assert rc == 3
    assert "stage 12 threshold not reached" in capsys.readouterr().err


# ---------------------------------------------------------------- determinism


def test_identical_config_identical_bytes(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg = dict(base_avg_cfg())
    cfg["function"] = {"random": {"kind": "complex"}}
    path = write_cfg(tmp_path, "det.json", cfg)
    assert cli.main(["average", path, "--output-dir", str(out1)]) == 0
    assert cli.main(["average", path, "--output-dir", str(out2)]) == 0
    a = (out1 / "averages.csv").read_bytes()
    assert a == (out2 / "averages.csv").read_bytes()
    assert len(a) > 0


def test_seed_changes_random_function_output(tmp_path):
    cfg = dict(base_avg_cfg())
    cfg["function"] = {"random": {"kind": "complex"}}
    p1 = write_cfg(tmp_path, "s1.json", cfg)
    cfg2 = dict(cfg)
    cfg2["seed"] = 12
    p2 = write_cfg(tmp_path, "s2.json", cfg2)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["average", p1, "--output-dir", str(out1)]) == 0
    assert cli.main(["average", p2, "--output-dir", str(out2)]) == 0
    assert (out1 / "averages.csv").read_text() != (out2 / "averages.csv").read_text()


# ------------------------------------------------------------- diagnostics


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "schema": 1,,\n}\n')
    assert cli.main(["rearrange", str(p), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config parse error at line 2, column 15" in err


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["rearrange", missing, "--output-dir", str(tmp_path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
def test_unparsable_config_exits_2(tmp_path, capsys, raw):
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    assert cli.main(["rearrange", str(p), "--output-dir", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err


def test_validation_collects_all_diagnostics(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {
        "schema": 2,
        "seed": "abc",
        "space": {"atoms": 4},
        "operator": {"kind": "kernel",
                     "matrix_re": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
        "function": {"re": [1, 0, 0, 0]},
        "checkpoints": [5, 5],
        "probes": [9],
    })
    assert cli.main(["average", cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "schema must be 1" in err
    assert "seed must be a 64-bit integer" in err
    assert "operator:" in err  # 3x3 kernel on a 4-atom space
    assert "checkpoints:" in err  # not strictly increasing
    assert "probe atom out of range" in err
    assert not list(tmp_path.glob("averages.csv"))


def test_weight_bound_violation_rejected(tmp_path, capsys):
    cfg = dict(base_avg_cfg())
    cfg["weight"] = {"kind": "explicit", "re": [0.5, 2.0], "bound": 1.0}
    path = write_cfg(tmp_path, "wb.json", cfg)
    assert cli.main(["weighted-average", path, "--output-dir", str(tmp_path)]) == 2
    assert "exceed the declared bound" in capsys.readouterr().err


def test_wiener_wintner_requires_grid_and_probes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "ww.json", {
        "schema": 1, "seed": 0,
        "system": {"order": 8},
        "function": {"ones": True},
        "checkpoints": [1, 8],
    })
    assert cli.main(["wiener-wintner", cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "lambda_grid" in err and "probes" in err


# ----------------------------------------------------------------- failures


def test_budget_exhaustion_exits_3(tmp_path, capsys):
    cfg = dict(base_avg_cfg())
    cfg["max_iterations"] = 4
    path = write_cfg(tmp_path, "b.json", cfg)
    assert cli.main(["average", path, "--output-dir", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["decode", "run"])
def test_memory_error_exits_3(tmp_path, monkeypatch, capsys, stage):
    # stands in for a config whose arrays cannot be allocated, while decoding
    # or while running; nothing large is ever requested
    def exhausted(*args):
        raise MemoryError

    if stage == "decode":
        monkeypatch.setattr(cli.formats, "space_from_json", exhausted)
    else:
        monkeypatch.setitem(cli._RUNNERS, "rearrange", exhausted)
    cfg = {"schema": 1, "seed": 1, "space": {"atoms": 4}, "function": {"constant": 1}}
    path = write_cfg(tmp_path, "m.json", cfg)
    assert cli.main(["rearrange", path, "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "m.json"]


def test_counterexample_window_too_small_exits_2(tmp_path, capsys):
    rc = cli.main([
        "counterexample", "--stages", "3", "--window", "8",
        "--output-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "too short" in capsys.readouterr().err


def test_consistency_failure_exits_4(tmp_path, monkeypatch, capsys):
    def reject(cert, rearr, tol=1e-9):
        return VerificationResult(False, (0.0,), 0.0, 1)

    monkeypatch.setattr(cli.divergence, "verify_certificate", reject)
    rc = cli.main(["counterexample", "--output-dir", str(tmp_path)])
    assert rc == 4
    assert "failed verification at stage 1" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


# ------------------------------------------------------------ golden outputs

# SHA-256 of every output file for pinned configs. The configs use
# composition operators only (no kernel matmul), so the digests do not
# depend on the BLAS build. A change to any digest is a change to the
# CLI's deterministic output format or arithmetic.
README_AVERAGE = {
    "schema": 1,
    "seed": 11,
    "space": {"atoms": 4},
    "operator": {"kind": "composition", "map": [1, 2, 3, 0],
                 "measure_preserving": True},
    "function": {"re": [1, 0, 0, 0]},
    "checkpoints": {"geometric": 64},
    "probes": [0],
}
README_SWEEP = {
    "schema": 1,
    "seed": 2,
    "system": {"order": 256, "step": 1},
    "function": {"character": 2},
    "probes": [0, 17, 101],
    "lambda_grid": 128,
    "checkpoints": {"geometric": 10000},
}
GOLDEN_CONFIGS = {
    "readme-average": ("average", README_AVERAGE),
    "readme-sweep": ("wiener-wintner", README_SWEEP),
    "rearrange": ("rearrange", {
        "schema": 1, "seed": 21,
        "space": {"weights": [0.5, 1.0, 2.0, 0.25, 1.5, 1.0]},
        "function": {"random": {"kind": "nonnegative", "scale": 3.0}},
    }),
    "norms": ("norms", {
        "schema": 1, "seed": 22,
        "space": {"atoms": 40, "weight": 0.125},
        "function": {"random": {"kind": "complex", "scale": 2.0}},
        "orlicz": {"power": 2.5, "tol": 1e-12},
        "lorentz": {"knots": [0.0, 1.0, 3.0], "slopes": [2.0, 1.0, 0.25]},
    }),
    "ds-check": ("ds-check", {
        "schema": 1, "seed": 23,
        "space": {"weights": [1.0, 2.0, 1.0, 0.5]},
        "operator": {"kind": "composition", "map": [1, 1, 3, 0],
                     "mult_re": [0.5, -1.0, 0.0, 0.25],
                     "mult_im": [0.5, 0.0, 1.0, 0.0]},
    }),
    "weighted-average": ("weighted-average", {
        "schema": 1, "seed": 24,
        "space": {"atoms": 12},
        "operator": {"kind": "composition",
                     "map": [3, 7, 1, 0, 11, 2, 9, 4, 6, 10, 5, 8],
                     "mult_re": [1, -1, 1, 1, -1, 1, -1, 1, 1, -1, 1, 1],
                     "measure_preserving": True},
        "function": {"random": {"kind": "real"}},
        "weight": {"kind": "lambda_power", "lambda_re": 0.6, "lambda_im": 0.8},
        "checkpoints": {"geometric": 300},
        "probes": [0, 5, 11],
    }),
    "return-times": ("return-times", {
        "schema": 1, "seed": 25,
        "system": {"order": 7, "step": 3},
        "function": {"random": {"kind": "complex"}},
        "second_system": {"order": 5, "step": 2},
        "second_function": {"random": {"kind": "real", "scale": 0.5}},
        "probes": [[0, 0], [6, 4], [3, 1]],
        "checkpoints": {"geometric": 500},
    }),
}
GOLDEN_DIGESTS = {
    "counterexample": {
        "certificate.json":
            "ccad646aa69ec4817885c0db89597d5bc15b86a4c287ca51019d1bb103b9945d",
        "traces.csv":
            "f26ce52de999ea2eb51401fa7c4d48e080debd6c058eb75b247d04ce5de561cf",
    },
    "ds-check": {
        "ds_report.json":
            "c1c4ee0d9e53048a66c3d59c8142327bd054e1982c121960ae498030c3e4a538",
    },
    "norms": {
        "norms.json":
            "ea8b716ede086fd5d2ff651d64187c85ac6f396ac878b7fe17771d8ae85bb4be",
    },
    "readme-average": {
        "averages.csv":
            "646111c819784fe893d3103b338fa1514fe24aa8ecb6e460caf5fd183b3ed6bb",
    },
    "readme-sweep": {
        "sweep.csv":
            "6072ab1ec045ee129cc8b5b4c91260c5a25a2691cdef0c325cb1cb8bae9d8fba",
    },
    "rearrange": {
        "rearrangement.csv":
            "629c3e4ac5bc75f194b7ea4a5b89c3d7c62536d4ac73ac1de73d303aa656c9f5",
    },
    "return-times": {
        "product.csv":
            "850cf98381e40f50f385db97ba63206ae0aca7576cc09ca0aa9dcdf4f81ed024",
    },
    "weighted-average": {
        "averages.csv":
            "130d81a1d75a5ab8008f3abe7dd5a4f40d7decd0dbe9e3e26bebe9fc4ad897ba",
    },
}


def _golden_outputs(tmp_path, case):
    if case == "counterexample":
        argv = ["counterexample", "--stages", "6", "--grid", "10"]
    else:
        command, cfg = GOLDEN_CONFIGS[case]
        argv = [command, write_cfg(tmp_path, "cfg.json", cfg)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--output-dir", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_golden_output_digests(tmp_path, case):
    assert _golden_outputs(tmp_path, case) == GOLDEN_DIGESTS[case]


# ------------------------------------------------------- malformed configs

SMALL_SWEEP = {
    "schema": 1, "seed": 2,
    "system": {"order": 8, "step": 1},
    "function": {"character": 2},
    "probes": [0],
    "lambda_grid": 8,
    "checkpoints": [1, 8],
}


def _with(base, **changes):
    cfg = copy.deepcopy(base)
    cfg.update(changes)
    return cfg


@pytest.mark.parametrize("command, cfg", [
    ("average", _with(README_AVERAGE, probes=3)),
    ("average", _with(README_AVERAGE, max_iterations="lots")),
    ("wiener-wintner", _with(SMALL_SWEEP, lambda_grid="x")),
    ("return-times", _with(GOLDEN_CONFIGS["return-times"][1], probes=[0])),
    ("norms", _with(GOLDEN_CONFIGS["norms"][1], orlicz=3)),
    ("norms", _with(GOLDEN_CONFIGS["norms"][1], lorentz={"knots": [0]})),
    ("average", _with(README_AVERAGE, function={"random": "x"})),
    ("average", _with(README_AVERAGE, operator={**README_AVERAGE["operator"],
                                                "map": [1.5, 2, 3, 0]})),
    ("average", _with(README_AVERAGE, seed=2**80)),
    ("average", _with(README_AVERAGE, seed=-1)),
    ("average", _with(README_AVERAGE, seed=True)),
    ("average", _with(README_AVERAGE, mode="fast")),
    ("wiener-wintner", _with(SMALL_SWEEP, probes=[0, 8])),
    ("return-times", _with(GOLDEN_CONFIGS["return-times"][1], probes=[[0, 5]])),
    ("weighted-average", _with(GOLDEN_CONFIGS["weighted-average"][1],
                               weight={"kind": "trig_poly", "terms": [3]})),
    ("average", _with(README_AVERAGE, outputs={"averages": ""})),
], ids=[
    "probes-int", "max-iterations-str", "lambda-grid-str", "rt-probes-flat",
    "orlicz-int", "lorentz-no-slopes", "random-str", "map-fractional",
    "seed-80-bit", "seed-negative", "seed-bool", "mode-fast",
    "ww-probe-range", "rt-probe-range", "trig-term-int", "output-name-empty",
])
def test_malformed_config_exits_2(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, "bad.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 2
    assert any(ln.startswith("config: ") for ln in capsys.readouterr().err.splitlines())
    assert not out.exists()


# Each config holds one wrong value; the diagnostic names its key path.
WEIGHTED = GOLDEN_CONFIGS["weighted-average"][1]


@pytest.mark.parametrize("command, cfg, line", [
    ("average", _with(README_AVERAGE, space={"atoms": 2.7}),
     "config: space: atoms: must be an integer"),
    ("average", _with(README_AVERAGE, space={"atoms": "3"}),
     "config: space: atoms: must be an integer"),
    ("average", _with(README_AVERAGE, space={"atoms": 4, "truncated": "no"}),
     "config: space: truncated: must be true or false"),
    ("average", _with(README_AVERAGE, function={"ones": "no"}),
     "config: function: ones: must be true or false"),
    ("average", _with(README_AVERAGE, checkpoints=[1.5, 2]),
     "config: checkpoints: must hold integers"),
    ("average", _with(README_AVERAGE, checkpoints={"geometric": 8.5}),
     "config: checkpoints: geometric: must be an integer"),
    ("wiener-wintner", _with(SMALL_SWEEP, system={"order": 8, "step": 1.9},
                             function={"character": 2.5}),
     "config: system: step: must be an integer"),
    ("wiener-wintner", _with(SMALL_SWEEP, function={"character": 2.5}),
     "config: function: character: must be an integer"),
    ("weighted-average", _with(WEIGHTED, weight={"kind": "lambda_power",
                                                 "lambda_re": float("nan")}),
     "config: weight: lambda_re: must be a finite number"),
    ("average", _with(README_AVERAGE, operator={"kind": "composition"}),
     "config: operator: map: missing"),
    ("average", _with(README_AVERAGE, operator={"kind": "kernel",
                                                "matrix_re": [[1, 2], [3]]}),
     "config: operator: matrix_re: must be a rectangular list"),
    ("average", _with(README_AVERAGE, space={"atoms": None}),
     "config: space: atoms: must be an integer"),
    ("weighted-average", _with(WEIGHTED, weight={
        "kind": "trig_poly", "terms": [{"z_re": 1, "phase_num": 1, "phase_den": 0}]}),
     "config: weight: terms[0]: phase_den: must not be 0"),
    ("wiener-wintner", _with(SMALL_SWEEP, system={"order": 8, "step": 2**70}),
     "config: system: step: must be an integer"),
    ("norms", _with(GOLDEN_CONFIGS["norms"][1], orlicz={"power": 2, "tol": "x"}),
     "config: orlicz: tol: must be a finite number"),
    ("average", _with(README_AVERAGE, function={"constant": "abc"}),
     "config: function: constant: must be a finite number"),
    ("average", _with(README_AVERAGE, function={"random": {"kind": 3}}),
     "config: function: random: kind: must be a string"),
    ("average", _with(README_AVERAGE, operator={**README_AVERAGE["operator"],
                                                "mult_re": [1] * 5}),
     "config: operator: mult_re: expected 4 values, got 5"),
    ("wiener-wintner", _with(SMALL_SWEEP, probes=[]),
     "config: probes: must be a nonempty list"),
    ("wiener-wintner", {k: v for k, v in SMALL_SWEEP.items() if k != "probes"},
     "config: probes: missing"),
    ("average", _with(README_AVERAGE, outputs={"averages": "../averages.csv"}),
     "config: outputs: averages: must be a file name"),
], ids=[
    "atoms-fractional", "atoms-str", "truncated-str", "ones-str", "checkpoint-fractional",
    "geometric-fractional", "step-fractional", "character-fractional", "lambda-nan",
    "map-missing", "matrix-ragged", "atoms-null", "phase-den-zero", "step-70-bit",
    "tol-str", "constant-str", "random-kind-int", "mult-too-long", "probes-empty",
    "probes-absent", "output-outside-dir",
])
def test_reader_names_the_key_path(tmp_path, capsys, command, cfg, line):
    path = write_cfg(tmp_path, "bad.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert any(ln.startswith(line) for ln in err.splitlines()), err
    assert "Traceback" not in err and not out.exists()


# numpy refuses each of these arrays before allocating anything
@pytest.mark.parametrize("command, cfg", [
    ("wiener-wintner", _with(SMALL_SWEEP, lambda_grid=2**62)),
    ("wiener-wintner", _with(SMALL_SWEEP, checkpoints={"geometric": 2**62},
                             max_iterations=2**62)),
    ("weighted-average", _with(WEIGHTED, checkpoints={"geometric": 2**62},
                               max_iterations=2**62)),
    ("rearrange", {"schema": 1, "seed": 1, "space": {"atoms": 2**62},
                   "function": {"ones": True}}),
    ("ds-check", {"schema": 1, "seed": 1, "operator": {
        "kind": "counterexample", "breakpoints": [1], "grid": 2**40, "window": 2**40}}),
], ids=["lambda-grid", "ww-horizon", "weighted-horizon", "atoms", "cells-2^80"])
def test_oversize_array_exits_3(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, "big.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory; reduce the config's sizes\n"
    assert not out.exists()


def test_validate_is_empty_for_valid_configs():
    for command, cfg in GOLDEN_CONFIGS.values():
        assert cli.validate(cfg, command) == []


# ------------------------------------------------------ mutated configs

# Where a mutated integer or float sizes an array it stays within a cap.
# Horizon keys (checkpoints, geometric) range up to the default iteration
# budget of 1e6, which every command must handle in bounded memory. Atom
# counts, orders and the lambda grid stay at 128 to keep the 80 examples
# quick; they are not a memory limit. Sized keys are a small share of all
# paths, so about half the mutations overwrite one of them, drawing the cap
# itself and in-range positive integers besides arbitrary values; otherwise
# few examples would reach a valid config at a large horizon.
HORIZON_CAP = DEFAULT_BUDGET
SIZE_CAP = 128
SIZE_CAPS = {"checkpoints": HORIZON_CAP, "geometric": HORIZON_CAP,
             "atoms": SIZE_CAP, "order": SIZE_CAP, "lambda_grid": SIZE_CAP}

TOP_LEVEL_KEYS = {
    "schema", "seed", "outputs", "space", "operator", "function", "second_function",
    "system", "second_system", "weight", "probes", "mode", "checkpoints",
    "max_iterations", "lambda_grid", "orlicz", "lorentz",
}

MUTATION_BASES = [
    *GOLDEN_CONFIGS.values(),
    ("rearrange", _with(GOLDEN_CONFIGS["rearrange"][1],
                        outputs={"rearrangement": "mu.csv"})),
    ("counterexample", {"schema": 1, "seed": 9, "space": {"atoms": 32},
                        "function": {"ones": True}}),
]


def _paths(obj, prefix=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


def _values(cap: int | None):
    if cap is not None:
        num = st.one_of(st.integers(-2, cap), st.floats(-2.0, cap))
    else:
        num = st.one_of(
            st.integers(-3, 3),
            st.sampled_from([2**31, 2**63, 2**64, -(2**64), 10**30, 10**400]),
            st.floats(),
        )
    scalar = st.one_of(num, st.booleans(), st.none(),
                       st.sampled_from(["", "x", "full", "probes", "1"]))
    values = st.one_of(scalar, st.lists(scalar, max_size=4),
                       st.dictionaries(st.sampled_from(["re", "kind", "x"]), scalar,
                                       max_size=2))
    if cap is None:
        return values
    return st.one_of(st.just(cap), st.integers(1, cap), values)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_configs_exit_with_documented_codes(data):
    command, base = data.draw(st.sampled_from(MUTATION_BASES))
    cfg = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(cfg))
        if not paths:
            break
        sized = [p for p in paths if SIZE_CAPS.keys() & set(p)]
        if sized and data.draw(st.booleans()):
            path, delete = data.draw(st.sampled_from(sized)), False
        else:
            path, delete = data.draw(st.sampled_from(paths)), data.draw(st.booleans())
        parent = functools.reduce(operator.getitem, path[:-1], cfg)
        if delete:
            del parent[path[-1]]
        else:
            caps = [SIZE_CAPS[k] for k in path if k in SIZE_CAPS]
            parent[path[-1]] = data.draw(_values(min(caps, default=None)))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err):
        cfg_path = Path(d) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, str(cfg_path), "--output-dir", str(Path(d) / "out")]
        assert cli.main(argv) in (0, 2, 3, 4)
    # every diagnostic starts with the top-level key it is about
    for line in err.getvalue().splitlines():
        if line.startswith("config: "):
            assert re.match(r"config: (\w+)", line)[1] in TOP_LEVEL_KEYS, line


# --------------------------------------------------------- public names


def test_public_names_resolve_once():
    names = ergosym.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(ergosym, name)
    for gone in ("eval_weight", "hl_integral"):
        assert gone not in names and not hasattr(ergosym, gone)


# ------------------------------------------------------------ thread pins

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    ({}, ("1", "1", "1")),
    ({"ERGOSYM_THREADS": "3", "OPENBLAS_NUM_THREADS": "2"}, ("3", "2", "3")),
])
def test_import_pins_blas_threads(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in THREAD_VARS and k != "ERGOSYM_THREADS"}
    src = str(Path(ergosym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(preset)
    code = f"import os, ergosym; print(*(os.environ[v] for v in {THREAD_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert tuple(out.split()) == expected
