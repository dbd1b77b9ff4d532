"""End-to-end command-line runs: exit codes, diagnostics, determinism."""

import collections
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
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergosym
from ergosym import cli, rotation_closed_form
from ergosym.averaging import DEFAULT_BUDGET
from ergosym.divergence import VerificationResult
from oracles import naive_averages, row_sum_layout_reference


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
    def exhausted(*args, **kwargs):
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


def test_counterexample_profile_too_short_exits_2(tmp_path, capsys):
    # a 64-atom profile of ones: stage 5 needs terms past t = 64.95
    path = write_cfg(tmp_path, "profile.json", {
        "schema": 1, "space": {"atoms": 64}, "function": {"ones": True}})
    out = tmp_path / "out"
    rc = cli.main(["counterexample", path, "--stages", "6", "--output-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: profile window 64.0 too short: stage 5 needs terms past t = 64.95\n")
    assert not out.exists()


def test_counterexample_takes_no_window_flag(tmp_path, capsys):
    # the constant profile is as wide as the search can reach, so no flag
    # sets its width: argparse refuses one, without a traceback
    with pytest.raises(SystemExit) as exit_:
        cli.main(["counterexample", "--window", "8", "--output-dir", str(tmp_path)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --window" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_counterexample_nonfinite_margin_exits_2(tmp_path, capsys, margin):
    rc = cli.main(["counterexample", "--margin", margin, "--output-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: margin must be finite and nonnegative\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--grid", str(10**30))], ids=["grid-10^30"])
def test_counterexample_oversize_flag_exits_cleanly(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert cli.main(["counterexample", flag, value, "--output-dir", str(out)]) == 3
    assert capsys.readouterr().err == "error: out of memory; reduce the config's sizes\n"
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["rearrange", "counterexample"])
def test_output_dir_on_a_file_exits_2(tmp_path, capsys, command, below):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / below if below else afile
    argv = [command, "--output-dir", str(out)]
    if command == "rearrange":
        argv.insert(1, write_cfg(tmp_path, "r.json", {
            "schema": 1, "seed": 3, "space": {"atoms": 3}, "function": {"ones": True},
        }))
    else:
        argv[1:1] = ["--stages", "3"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: {afile} is not a directory\n"
    )
    assert afile.read_text() == "kept\n"


def test_output_file_on_a_directory_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "r.json", {
        "schema": 1, "seed": 3, "space": {"atoms": 3}, "function": {"ones": True},
        "outputs": {"rearrangement": "taken"},
    })
    (tmp_path / "taken").mkdir()
    assert cli.main(["rearrange", cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'taken'}: ")
    assert "Traceback" not in err
    assert list((tmp_path / "taken").iterdir()) == []


def test_consistency_failure_exits_4(tmp_path, monkeypatch, capsys):
    def reject(cert, rearr, tol=1e-9):
        return VerificationResult(False, (0.0,), 0.0, 1)

    monkeypatch.setattr(cli.divergence, "verify_certificate", reject)
    rc = cli.main(["counterexample", "--output-dir", str(tmp_path)])
    assert rc == 4
    assert "failed verification at stage 1" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


# ------------------------------------------------------------ golden outputs

# SHA-256 of every output file for pinned configs. No CLI computation calls
# BLAS (kernel operators sum their rows slot by slot, by gathers and adds),
# so the digests do not depend on the BLAS build. A change to any digest is
# a change to the CLI's deterministic output format or arithmetic.
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
# 6 atoms in three weight classes; K = c1 P1 + c2 P2 for two weight-preserving
# permutations P1, P2 and complex c1, c2 with |c1| + |c2| = 1, so K is DS.
# Rows 1 and 4 hold c1 + c2 in one entry, the others two entries.
KERNEL_SPACE = {"weights": [0.5, 1.0, 0.5, 2.0, 1.0, 2.0]}
KERNEL_OPERATOR = {
    "kind": "kernel",
    "matrix_re": [[0, 0, 0.36, 0, 0, 0],
                  [0, 0, 0, 0, 0.36, 0],
                  [0.36, 0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 0, 0.36],
                  [0, 0.36, 0, 0, 0, 0],
                  [0, 0, 0, 0.36, 0, 0]],
    "matrix_im": [[-0.4, 0, 0.48, 0, 0, 0],
                  [0, 0, 0, 0, 0.08, 0],
                  [0.48, 0, -0.4, 0, 0, 0],
                  [0, 0, 0, -0.4, 0, 0.48],
                  [0, 0.08, 0, 0, 0, 0],
                  [0, 0, 0, 0.48, 0, -0.4]],
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
        # tol is no longer read: an old config that gives it still runs
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
    "trig-poly": ("weighted-average", {
        "schema": 1, "seed": 26,
        "space": {"atoms": 6},
        "operator": {"kind": "composition", "map": [2, 0, 4, 1, 5, 3],
                     "measure_preserving": True},
        "function": {"random": {"kind": "complex"}},
        "weight": {"kind": "trig_poly", "terms": [
            {"z_re": 0.5, "z_im": -0.25, "phase_num": 3, "phase_den": 7},
            {"z_re": 0.25, "lam_re": 0.6, "lam_im": -0.8},
        ]},
        "checkpoints": {"geometric": 200},
        "probes": [0, 4],
    }),
    "kernel-average": ("average", {
        "schema": 1, "seed": 27,
        "space": KERNEL_SPACE,
        "operator": KERNEL_OPERATOR,
        "function": {"random": {"kind": "complex"}},
        "checkpoints": {"geometric": 100},
        "probes": [0, 3, 5],
    }),
    "kernel-ds-check": ("ds-check", {
        "schema": 1, "seed": 28,
        "space": KERNEL_SPACE,
        "operator": KERNEL_OPERATOR,
    }),
}
# The two averages again in probes mode: no average is kept and the
# majorized column stays empty. Kept apart from GOLDEN_CONFIGS, which also
# seeds the mutated-config test.
PROBES_CONFIGS = {
    f"{case}-probes": (GOLDEN_CONFIGS[case][0],
                       {**GOLDEN_CONFIGS[case][1], "mode": "probes"})
    for case in ("kernel-average", "weighted-average")
}
# The README sweep on a random function: no closed form applies, so the
# rows carry no oracle columns. Kept apart from GOLDEN_CONFIGS like the
# probes-mode runs.
RANDOM_SWEEP = ("wiener-wintner", {
    **README_SWEEP, "system": {"order": 256, "step": 3},
    "function": {"random": {"kind": "complex"}},
})
# Full-mode averages of 1.5 x a permutation kernel: a_n grows, so the
# majorized column turns from true to false. It is pinned on an equal-weight
# space with weight 0.1 and on an unequal-weight one.
PERMUTATION = [3, 0, 6, 1, 7, 2, 5, 4]
SCALED_PERMUTATION = {"kind": "kernel", "rows": list(range(8)),
                      "cols": PERMUTATION, "data_re": [1.5] * 8}
MAJORIZATION_CONFIGS = {
    f"scaled-permutation-{name}": ("average", {
        "schema": 1, "seed": 29, "space": space,
        "operator": SCALED_PERMUTATION,
        "function": {"random": {"kind": "complex"}},
        "checkpoints": {"geometric": 64}, "probes": [0, 5], "mode": "full",
    })
    for name, space in (
        ("equal", {"atoms": 8, "weight": 0.1}),
        ("unequal", {"weights": [0.5, 1.0, 2.0, 0.25, 1.5, 1.0, 0.75, 3.0]}),
    )
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
    "kernel-average": {
        "averages.csv":
            "7a5354f18dac02cc693f23b46f5a3c0d5b13a01fc4a0b94348fc5f8bf3bf6aca",
    },
    "kernel-ds-check": {
        "ds_report.json":
            "ab5cecf8997f23eb73964bd40506966c44f55078c62d0c9f14d9c7463f714ec4",
    },
    "norms": {
        "norms.json":
            "e118ae831bef72e2a732129c1bd1cfb2a7e94bc1c904cdc2b5fad5eaef69b3e6",
    },
    "readme-average": {
        "averages.csv":
            "646111c819784fe893d3103b338fa1514fe24aa8ecb6e460caf5fd183b3ed6bb",
    },
    "readme-sweep": {
        "sweep.csv":
            "080e7592c4d720e3cdf42365c01d00b1190198866dc20835b784c238624e4f98",
    },
    "rearrange": {
        "rearrangement.csv":
            "629c3e4ac5bc75f194b7ea4a5b89c3d7c62536d4ac73ac1de73d303aa656c9f5",
    },
    "return-times": {
        "product.csv":
            "caf3861bf39913eeba6dbc454e0195a161e7e95a0b24cfae09efe2e23b5cc55e",
    },
    "trig-poly": {
        "averages.csv":
            "23e4e9408d6da2eea1c680602bc363900ce562d4d81435172cad39cc7cd507f5",
    },
    "weighted-average": {
        "averages.csv":
            "90f0df73e64ab1ced21712d1fa85316019ca2a3bf6f60c99f1ce5921582d8e5c",
    },
    "weighted-average-probes": {
        "averages.csv":
            "0ada47efffd6e357e3b2a5d03b9ef118b9aeb387179da3e5dec720c893b2badc",
    },
    "kernel-average-probes": {
        "averages.csv":
            "562baf1c459f3874ce138c8ce9a5deb89419fb2b95c695e23cbe21449a87455c",
    },
    "random-sweep": {
        "sweep.csv":
            "9fc889e8de61adbb113e2931202d9539e4b38eda87dec58076564552b0b536d2",
    },
    "scaled-permutation-equal": {
        "averages.csv":
            "b443881e377a23af0f441c54bc24f159f3c6cd481e9453fd8e58902e2fb187ba",
    },
    "scaled-permutation-unequal": {
        "averages.csv":
            "782537546302dbc1059e3178ba754c28c4487fc22cf8a9bc919502c4608b0626",
    },
}


def _golden_outputs(tmp_path, case):
    if case == "counterexample":
        argv = ["counterexample", "--stages", "6", "--grid", "10"]
    else:
        command, cfg = {**GOLDEN_CONFIGS, **PROBES_CONFIGS, **MAJORIZATION_CONFIGS,
                        "random-sweep": RANDOM_SWEEP}[case]
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


def test_dense_and_triplet_kernels_give_identical_outputs(tmp_path):
    # the golden kernel as triplets in reverse order, plus an explicit zero
    re, im = KERNEL_OPERATOR["matrix_re"], KERNEL_OPERATOR["matrix_im"]
    entries = [(i, j) for i in range(6) for j in range(6) if re[i][j] or im[i][j]]
    entries = [(0, 1)] + entries[::-1]
    triplets = {"kind": "kernel", "rows": [i for i, _ in entries],
                "cols": [j for _, j in entries],
                "data_re": [re[i][j] for i, j in entries],
                "data_im": [im[i][j] for i, j in entries]}
    for case in ("kernel-average", "kernel-ds-check"):
        command, cfg = GOLDEN_CONFIGS[case]
        outputs = []
        for name, op in (("dense", KERNEL_OPERATOR), ("triplets", triplets)):
            path = write_cfg(tmp_path, f"{name}.json", _with(cfg, operator=op))
            out = tmp_path / case / name
            assert cli.main([command, path, "--output-dir", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]


# kernels whose CSR form has a row without entries, no entries, or one atom
@pytest.mark.parametrize("atoms, rows, cols, data", [
    (4, [3, 0, 2, 0], [0, 3, 2, 1], [1.0, 0.5, -1.0, 0.5]),
    (4, [], [], []),
    (1, [0], [0], [-1.0]),
], ids=["empty-row", "no-entries", "one-atom"])
def test_sparse_kernel_edge_cases_exit_0(tmp_path, atoms, rows, cols, data):
    f = [float(i + 1) for i in range(atoms)]
    cps = [1, 2, 5]
    cfg = {"schema": 1, "seed": 5, "space": {"atoms": atoms},
           "operator": {"kind": "kernel", "rows": rows, "cols": cols, "data_re": data},
           "function": {"re": f}, "checkpoints": cps, "probes": list(range(atoms))}
    # ds-check reads only the space and the operator; any other key is unknown
    ds_cfg = {k: cfg[k] for k in ("schema", "seed", "space", "operator")}
    out = tmp_path / "out"
    for command, c in (("average", cfg), ("ds-check", ds_cfg)):
        path = write_cfg(tmp_path, f"{command}.json", c)
        assert cli.main([command, path, "--output-dir", str(out)]) == 0
    k = np.zeros((atoms, atoms))
    k[rows, cols] = data
    want = np.ravel(naive_averages(lambda v: k @ v, np.array(f), cps))
    lines = (out / "averages.csv").read_text().splitlines()[2:]
    got = [complex(float(x.split(",")[2]), float(x.split(",")[3])) for x in lines]
    assert np.max(np.abs(np.array(got) - want)) <= 1e-15
    report = json.loads((out / "ds_report.json").read_text())
    assert report["worst_row_sum"] == max(np.sum(np.abs(k), axis=1))


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


def _triplets(**changes):
    """The 4-cycle of README_AVERAGE as kernel triplets, with changes."""
    return {"kind": "kernel", "rows": [0, 1, 2, 3], "cols": [1, 2, 3, 0],
            "data_re": [1, 1, 1, 1], **changes}


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
    ("weighted-average", _with(WEIGHTED, weight={
        "kind": "trig_poly", "terms": [{"z_re": 1, "phase_num": 1}]}),
     "config: weight: terms[0]: phase_den: missing"),
    ("weighted-average", _with(WEIGHTED, weight={
        "kind": "trig_poly", "terms": [{"z_re": 1, "phase_den": 3}]}),
     "config: weight: terms[0]: phase_num: missing"),
    ("weighted-average", _with(WEIGHTED, weight={
        "kind": "trig_poly",
        "terms": [{"z_re": 1, "phase_num": 1, "phase_den": 2**31}]}),
     "config: weight: terms[0]: exact phases need a reduced denominator below 2^31"),
    ("wiener-wintner", _with(SMALL_SWEEP, system={"order": 8, "step": 2**70}),
     "config: system: step: must be an integer"),
    ("norms", _with(GOLDEN_CONFIGS["norms"][1], orlicz={"power": "x"}),
     "config: orlicz: power: must be a finite number"),
    ("norms", _with(GOLDEN_CONFIGS["norms"][1], orlicz={"power": 0.5}),
     "config: orlicz: power Orlicz functions need a finite p >= 1"),
    ("norms", _with(GOLDEN_CONFIGS["norms"][1], orlicz={}),
     "config: orlicz: power: missing"),
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
    ("average", _with(README_AVERAGE, outputs={"averages": "a\u0000b.csv"}),
     "config: outputs: averages: must be a file name"),
    ("average", _with(README_AVERAGE, operator=_triplets(rows=[0, 1, 2, 0], cols=[1, 2, 3, 1])),
     "config: operator: cols[3]: entry (0, 1) is already given at index 0"),
    ("average", _with(README_AVERAGE, operator=_triplets(rows=[0, -1, 2, 3])),
     "config: operator: rows[1]: -1 is not an atom of 0..3"),
    ("average", _with(README_AVERAGE, operator=_triplets(cols=[1, 2, 3, 4])),
     "config: operator: cols[3]: 4 is not an atom of 0..3"),
    ("average", _with(README_AVERAGE, operator=_triplets(cols=[1, 2, 3])),
     "config: operator: cols: expected 4 values, got 3"),
    ("average", _with(README_AVERAGE, operator=_triplets(data_re=[1] * 5)),
     "config: operator: data_re: expected 4 values, got 5"),
    ("average", _with(README_AVERAGE, operator=_triplets(data_im=[1])),
     "config: operator: data_im: expected the shape of data_re"),
    ("average", _with(README_AVERAGE, operator=_triplets(rows=[[0, 1], [2, 3]])),
     "config: operator: rows: must be a list of integers"),
    ("average", _with(README_AVERAGE, operator=_triplets(matrix_re=[[1]])),
     "config: operator: matrix_re: not allowed beside rows"),
    ("average", _with(README_AVERAGE, operator={"kind": "kernel", "data_re": [1]}),
     "config: operator: rows: missing"),
    ("average", _with(README_AVERAGE, operator={**README_AVERAGE["operator"],
                                                "map": [1, 2, 7, 0]}),
     "config: operator: map[2]: 7 is not an atom of 0..3"),
    ("average", _with(README_AVERAGE, space={"atoms": 3}, function={"re": [1, 0, 0]},
                      operator={"kind": "kernel", "matrix_re": [[0, 1], [1, 0]]}),
     "config: operator: kernel must be 3x3 for this space"),
    ("average", _with(README_AVERAGE, operator={
        "kind": "kernel", "matrix_re": [[0, 1, 0, 0]] * 4, "matrix_im": [[0, 0, 0]] * 4}),
     "config: operator: matrix_im: expected the shape of matrix_re"),
    ("average", _with(README_AVERAGE, operator={"kind": "kernel",
                                                "matrix_im": [[0.5] * 4] * 4}),
     "config: operator: matrix_re: missing"),
], ids=[
    "atoms-fractional", "atoms-str", "truncated-str", "ones-str", "checkpoint-fractional",
    "geometric-fractional", "step-fractional", "character-fractional", "lambda-nan",
    "map-missing", "matrix-ragged", "atoms-null", "phase-den-zero", "phase-den-missing",
    "phase-num-missing", "phase-den-2^31", "step-70-bit",
    "power-str", "power-half", "power-missing", "constant-str", "random-kind-int", "mult-too-long", "probes-empty",
    "probes-absent", "output-outside-dir", "output-nul", "triplet-duplicate", "triplet-row-negative",
    "triplet-col-range", "triplet-cols-short", "triplet-data-long",
    "triplet-im-short", "triplet-rows-nested", "triplet-and-matrix",
    "triplet-rows-missing", "map-out-of-range", "dense-wrong-size",
    "dense-im-shape", "dense-im-without-re",
])
def test_reader_names_the_key_path(tmp_path, capsys, command, cfg, line):
    path = write_cfg(tmp_path, "bad.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert any(ln.startswith(line) for ln in err.splitlines()), err
    assert "Traceback" not in err and not out.exists()


# "probe" and "mod" misspell "probes" and "mode": read silently, the run
# would average in full mode and report probe 0
MISSPELT = {"schema": 1, "seed": 3, "space": {"atoms": 4},
            "operator": {"kind": "composition", "map": [1, 2, 3, 0]},
            "function": {"re": [1, 0, 0, 0]}, "checkpoints": [1, 2],
            "probe": [3], "mod": "probes"}


@pytest.mark.parametrize("argv, cfg, lines", [
    (["average"], MISSPELT,
     ["config: probe: unknown key for average", "config: mod: unknown key for average"]),
    (["average"], _with(MISSPELT, function={"re": [1, 0]}),
     ["config: function: re: expected 4 values, got 2",
      "config: probe: unknown key for average", "config: mod: unknown key for average"]),
    (["ds-check"], _with(MISSPELT, probe=None, mod=None),
     [f"config: {key}: unknown key for ds-check"
      for key in ("function", "checkpoints", "probe", "mod")]),
    (["ds-check"], {"schema": 1, "seed": 1, "space": {"atoms": 4}, "operator": {
        "kind": "counterexample", "breakpoints": [1], "grid": 2, "window": 2}},
     ["config: space: unknown key for ds-check"]),
    (["counterexample", "--stages", "2"],
     {"schema": 1, "seed": 1, "space": {"atoms": 3}, "function": {"re": [2, 1, 1]},
      "checkpoints": [1]},
     ["config: checkpoints: unknown key for counterexample"]),
], ids=["misspelt", "after-other-problems", "average-keys-for-ds-check",
        "space-beside-counterexample-operator", "counterexample-profile"])
def test_unknown_top_level_keys_exit_2(tmp_path, capsys, argv, cfg, lines):
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main([argv[0], path, *argv[1:], "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == lines
    assert not out.exists()


def test_dense_kernel_config_decodes_below_one_mib():
    # a 512-atom dense kernel as its loaded config holds it: decoding it
    # converts a few rows at a time, never the 2 MiB N x N float array
    n = 512
    rng = np.random.default_rng(84)
    k = np.zeros((n, n))
    for c in rng.dirichlet(np.ones(4)):
        k[np.arange(n), rng.permutation(n)] += c
    cfg = {"schema": 1, "seed": 1, "space": {"atoms": n},
           "operator": {"kind": "kernel", "matrix_re": k.tolist()}}
    tracemalloc.start()
    try:
        plan, diags = cli._decode(cfg, "ds-check")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diags == [] and peak < 2**20
    T = plan["operator"]
    assert np.array_equal(T.entry_rows(), np.nonzero(k)[0])
    assert np.array_equal(T.indices, np.nonzero(k)[1])
    assert np.array_equal(T.data, k[k != 0])
    order, layout, layout_cols = row_sum_layout_reference(k)
    assert np.array_equal(T.order, order) and np.array_equal(T.layout_cols, layout_cols)
    assert np.array_equal(T.layout, layout)


# The weighted composition of WEIGHTED as kernel triplets. A kernel's Kahan
# lane reads every weight, so a weighted run on it builds the n-long table.
WEIGHTED_KERNEL = {"kind": "kernel", "rows": list(range(12)),
                   "cols": WEIGHTED["operator"]["map"],
                   "data_re": WEIGHTED["operator"]["mult_re"]}


# numpy refuses each of these arrays before allocating anything
@pytest.mark.parametrize("command, cfg", [
    ("wiener-wintner", _with(SMALL_SWEEP, lambda_grid=2**62)),
    ("weighted-average", _with(WEIGHTED, checkpoints={"geometric": 2**62},
                               max_iterations=2**62)),
    ("weighted-average", _with(WEIGHTED, operator=WEIGHTED_KERNEL,
                               checkpoints={"geometric": 2**62},
                               max_iterations=2**62)),
    ("rearrange", {"schema": 1, "seed": 1, "space": {"atoms": 2**62},
                   "function": {"ones": True}}),
    ("ds-check", {"schema": 1, "seed": 1, "operator": {
        "kind": "counterexample", "breakpoints": [1], "grid": 2**40, "window": 2**40}}),
], ids=["lambda-grid", "weighted-horizon", "weighted-kernel-horizon", "atoms",
      "cells-2^80"])
def test_oversize_array_exits_3(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, "big.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory; reduce the config's sizes\n"
    assert not out.exists()


# both commands walk at most one period of their orbits, so no horizon sizes
# an array: 2^62 terms run on the periods 8 (sweep) and 35 (return-times).
# A lifted composition average with periodic weights reads one period of
# them and lifts T^3, so it takes O(log n) steps as well.
HUGE_HORIZON = {"checkpoints": {"geometric": 2**62}, "max_iterations": 2**62}


@pytest.mark.parametrize("command, cfg", [
    ("wiener-wintner", _with(SMALL_SWEEP, **HUGE_HORIZON)),
    ("return-times", _with(GOLDEN_CONFIGS["return-times"][1], **HUGE_HORIZON)),
    ("weighted-average", _with(WEIGHTED, weight={"kind": "periodic",
                                                 "re": [1, -0.5, 0.25]},
                               **HUGE_HORIZON)),
], ids=["wiener-wintner", "return-times", "weighted-periodic"])
def test_horizon_2_62_runs_on_one_period(tmp_path, command, cfg):
    path = write_cfg(tmp_path, "huge.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 0
    (csv,) = out.iterdir()
    header, *rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 63 * len(cfg["probes"]) * cfg.get("lambda_grid", 1)
    if command == "wiener-wintner":
        col = header.split(",").index("abs_err")
        assert max(float(r.split(",")[col]) for r in rows) <= 1e-12


@pytest.mark.parametrize("command, cfg", [
    ("wiener-wintner", _with(SMALL_SWEEP, max_iterations=7)),
    ("return-times", _with(GOLDEN_CONFIGS["return-times"][1], max_iterations=499)),
], ids=["wiener-wintner", "return-times"])
def test_horizon_past_the_budget_exits_3(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, "over.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 3
    assert "exceeds the iteration budget" in capsys.readouterr().err
    assert not out.exists()


# finite inputs whose averages overflow float64, failing at checkpoint `at`.
# The suite turns numpy's RuntimeWarnings into errors, so the run raises none.
# Atoms of weight 1/2 keep the L1 norm of a_1 = f finite.
SWAP = {"kind": "composition", "map": [1, 0]}
HUGE_F = {"schema": 1, "seed": 1, "space": {"weights": [0.5, 0.5]}, "operator": SWAP,
          "function": {"re": [1e308, 1e308]}, "checkpoints": [1, 2, 4]}


@pytest.mark.parametrize("command, cfg, at", [
    ("average", HUGE_F, 2),
    ("average", _with(HUGE_F, operator={"kind": "kernel",
                                        "matrix_re": [[0, 1], [1, 0]]}), 2),
    ("weighted-average", _with(HUGE_F, weight={"kind": "periodic",
                                               "re": [1e308, -1e308]}), 1),
    # f g overflows in its first term
    ("return-times", {"schema": 1, "system": {"order": 2},
                      "function": {"re": [1e200, 1e200]},
                      "second_system": {"order": 3},
                      "second_function": {"re": [1e200, 1e200, 1e200]},
                      "probes": [[0, 0]], "checkpoints": [1, 2, 6]}, 1),
    ("wiener-wintner", {"schema": 1, "system": {"order": 2},
                        "function": {"re": [1e308, 1e308]}, "probes": [0],
                        "lambda_grid": 2, "checkpoints": [1, 2, 4]}, 2),
], ids=["composition", "kernel", "periodic-weight", "return-times", "wiener-wintner"])
def test_overflowing_average_exits_3(tmp_path, capsys, command, cfg, at):
    path = write_cfg(tmp_path, "huge.json", cfg)
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: the average at checkpoint {at} overflows float64\n"
    assert not out.exists()


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity (RFC 8259)."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


HUGE_NORMS = {"schema": 1, "space": {"atoms": 2}, "function": {"re": [1e308, 1e308]}}


# finite entries whose sums or norms pass float64's range exit 3 and write
# nothing; the other JSON reports parse as RFC 8259 JSON
@pytest.mark.parametrize("command, cfg, error", [
    ("ds-check", {"schema": 1, "space": {"atoms": 2}, "operator": {
        "kind": "kernel", "matrix_re": [[1e308, 1e308], [0, 0]]}},
     "the worst row sum overflows float64"),
    ("ds-check", {"schema": 1, "space": {"weights": [1e-10, 1]}, "operator": {
        "kind": "kernel", "matrix_re": [[0, 0], [1e300, 0]]}},
     "the worst column sum overflows float64"),
    ("norms", _with(HUGE_NORMS, orlicz={"power": 2}), "the L1 norm overflows float64"),
    ("norms", _with(HUGE_NORMS, function={"re": [1e300, 1e300]},
                    lorentz={"knots": [0], "slopes": [1e10]}),
     "the Lorentz norm overflows float64"),
    ("norms", _with(HUGE_NORMS, function={"re": [1e308, 5e307]}, orlicz={"power": 2}),
     None),
    *[GOLDEN_CONFIGS[case] + (None,) for case in ("norms", "ds-check")],
], ids=["row-sum", "column-sum", "l1", "lorentz", "luxemburg-near-max",
        "golden-norms", "golden-ds-check"])
def test_json_reports_hold_no_nan_or_infinity(tmp_path, capsys, command, cfg, error):
    path = write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    code = cli.main([command, path, "--output-dir", str(out)])
    if error is not None:
        assert (code, capsys.readouterr().err) == (3, f"error: {error}\n")
        assert not out.exists()
        return
    assert code == 0
    for report in out.iterdir():
        _strict_json(report.read_text())


def test_large_character_is_reduced_exactly(tmp_path):
    # character 2^40 + 2 is character 2 on 8 atoms: the function and the
    # oracle both reduce c w mod 8 in integers before evaluating a phase
    outputs = []
    for c in (2, 2**40 + 2):
        cfg = _with(SMALL_SWEEP, function={"character": c}, probes=[0, 3, 5],
                    checkpoints=[1, 8, 64, 100])
        out = tmp_path / str(c)
        path = write_cfg(tmp_path, f"{c}.json", cfg)
        assert cli.main(["wiener-wintner", path, "--output-dir", str(out)]) == 0
        outputs.append((out / "sweep.csv").read_text())
    rows = [ln.split(",") for ln in outputs[1].splitlines()[2:]]
    assert max(float(r[-1]) for r in rows) <= 1e-15
    assert outputs[0] == outputs[1]


def test_step_near_2_63_is_reduced_exactly(tmp_path):
    # (k + step) % order in int64 would wrap; the reduced step gives the same tau
    step = 2**63 - 1
    outputs = {}
    for s in (step, step % 1009):
        cfg = _with(SMALL_SWEEP, system={"order": 1009, "step": s}, probes=[0, 500],
                    checkpoints=[1, 8, 64, 1000])
        out = tmp_path / str(s)
        path = write_cfg(tmp_path, f"{s}.json", cfg)
        assert cli.main(["wiener-wintner", path, "--output-dir", str(out)]) == 0
        outputs[s] = (out / "sweep.csv").read_text()
        cfg = _with(GOLDEN_CONFIGS["return-times"][1],
                    second_system={"order": 1009, "step": s},
                    second_function={"random": {"kind": "real"}})
        path = write_cfg(tmp_path, f"rt{s}.json", cfg)
        assert cli.main(["return-times", path, "--output-dir", str(out)]) == 0
        outputs[s, "rt"] = (out / "product.csv").read_text()
    assert outputs[step] == outputs[step % 1009]
    assert outputs[step, "rt"] == outputs[step % 1009, "rt"]
    rows = [ln.split(",") for ln in outputs[step].splitlines()[2:]]
    assert max(float(r[-1]) for r in rows) <= 1e-12


def test_huge_phase_den_runs_in_small_memory(tmp_path):
    # a den-sized table of roots of unity would need 16 GB here; the run
    # gets 2 GiB of address space
    cfg = _with(WEIGHTED, weight={"kind": "trig_poly", "terms": [
        {"z_re": 1, "phase_num": 1, "phase_den": 10**9}]}, checkpoints=[1, 2, 3, 4])
    path = write_cfg(tmp_path, "den.json", cfg)
    out = tmp_path / "out"
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from ergosym import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))")
    src = str(Path(ergosym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["weighted-average", path, "--output-dir", str(out)]
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert len((out / "averages.csv").read_text().splitlines()) == 2 + 4 * 3


@pytest.mark.parametrize("mults", [(-1.0, 1.0), (-1.0, 1.0, 0.5)],
                         ids=["signs", "signs-and-halves"])
def test_full_mode_memory_does_not_grow_with_checkpoints(tmp_path, mults):
    # A full-mode lambda-power average on 2^16 atoms, to n = 1024 with 11
    # and with 41 checkpoints. Each checkpoint's average (1 MiB) is reduced
    # to its report row and majorization flag and dropped, so the 30 extra
    # checkpoints may not raise the peak by one average. Every gap is a
    # power of two, as in the geometric run, so that each lifted segment
    # holds as many vectors at its peak. Signs alone let the lifted lane
    # carry the pair of T^c through a gap; a multiplier of 0.5 makes it
    # carry the vector T^c f instead.
    n_atoms = 1 << 16
    rng = np.random.default_rng(85)
    cfg = {
        "schema": 1, "seed": 29, "space": {"atoms": n_atoms},
        "operator": {"kind": "composition", "map": rng.permutation(n_atoms).tolist(),
                     "mult_re": rng.choice(list(mults), n_atoms).tolist(),
                     "measure_preserving": True},
        "function": {"random": {"kind": "real"}},
        "weight": {"kind": "lambda_power", "lambda_re": 0.6, "lambda_im": 0.8},
        "probes": [0, 12345], "mode": "full",
    }
    # one untraced run first, so that the one-time allocations of a first
    # weighted-average fall in neither traced peak, whatever ran before
    path = write_cfg(tmp_path, "cfg.json", _with(cfg, checkpoints={"geometric": 1024}))
    assert cli.main(["weighted-average", path, "--output-dir", str(tmp_path / "warm")]) == 0
    peaks = {}
    dense_cps = {2**i for i in range(11)} | {*range(16, 64, 8), *range(64, 1025, 32)}
    for cps in ({"geometric": 1024}, sorted(dense_cps)):
        path = write_cfg(tmp_path, "cfg.json", _with(cfg, checkpoints=cps))
        out = tmp_path / f"out{len(peaks)}"
        tracemalloc.start()
        try:
            assert cli.main(["weighted-average", path, "--output-dir", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (out / "averages.csv").read_text().splitlines()[2:]
        assert all(r.endswith(",true") for r in rows)
        peaks[len(rows) // 2] = peak
    assert sorted(peaks) == [11, 41]
    assert peaks[41] - peaks[11] < n_atoms * 16


def test_benchmark_shaped_weighted_run_peaks_below_7_5_mib(tmp_path):
    # the shape of the stream benchmark's weighted-average command: a
    # measure-preserving signed permutation of 2^16 atoms, a real random
    # function, a lambda-power weight to 1024 in full mode. The multiplier
    # is held as float64, the equal weights as one value, the random
    # function is drawn a block at a time and f's rearrangement takes one
    # sort; 8.7 MiB under tracemalloc before these.
    n_atoms = 1 << 16
    rng = np.random.default_rng(87)
    cfg = {
        "schema": 1, "seed": 21, "space": {"atoms": n_atoms},
        "operator": {"kind": "composition", "map": rng.permutation(n_atoms).tolist(),
                     "mult_re": rng.choice([-1.0, 1.0], n_atoms).tolist(),
                     "measure_preserving": True},
        "function": {"random": {"kind": "real"}},
        "weight": {"kind": "lambda_power", "lambda_re": float(np.cos(2.0)),
                   "lambda_im": float(np.sin(2.0))},
        "checkpoints": {"geometric": 1024}, "probes": [5, 777, 40000], "mode": "full",
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert cli.main(["weighted-average", path, "--output-dir", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (out / "averages.csv").read_text().splitlines()[2:]
    assert len(rows) == 11 * 3 and all(r.endswith(",true") for r in rows)
    assert peak < 7.5 * 2**20


def _benchmark_shaped(command):
    """A config of the shape of the stream benchmark's `command`."""
    n_atoms = 1 << 16
    if command == "norms":
        return {"schema": 1, "seed": 4, "space": {"atoms": n_atoms, "weight": 2.0**-12},
                "function": {"random": {"kind": "complex", "scale": 2.0}},
                "orlicz": {"power": 3}, "lorentz": {"capped": 2.5}}
    rng = np.random.default_rng(88)
    return {
        "schema": 1, "seed": 22, "space": {"atoms": n_atoms},
        "operator": {"kind": "composition", "map": rng.permutation(n_atoms).tolist(),
                     "mult_re": rng.choice([-1.0, 1.0], n_atoms).tolist(),
                     "measure_preserving": True},
        "function": {"random": {"kind": "real"}},
        "weight": {"kind": "lambda_power", "lambda_re": float(np.cos(1.3)),
                   "lambda_im": float(np.sin(1.3))},
        "checkpoints": {"geometric": 1024}, "probes": [3, 4000, 65000], "mode": "full",
    }


@pytest.mark.parametrize("command, mib", [("norms", 4.0), ("weighted-average", 6.0)])
def test_benchmark_shaped_runs_peak_below_their_pins(tmp_path, command, mib):
    # norms: the Lorentz norm evaluates phi a block at a time and takes its
    # differences in place, and the Luxemburg norm takes one root of the
    # equal weights (5.05 MiB before). weighted-average: no average is
    # made, the flag sorts and sums one moduli buffer in place, and the
    # signs are int8 (6.63 MiB before).
    path = write_cfg(tmp_path, "cfg.json", _benchmark_shaped(command))
    tracemalloc.start()
    try:
        assert cli.main([command, path, "--output-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_benchmark_shaped_weighted_run_peaks_below_4_7_mib(tmp_path):
    # the composition's map, and with it each power T^c the lifted lane
    # holds, is int32 and read a block at a time, 4 bytes per atom less for
    # each map than intp (4.93 MiB with intp maps)
    path = write_cfg(tmp_path, "cfg.json", _benchmark_shaped("weighted-average"))
    tracemalloc.start()
    try:
        out = str(tmp_path / "out")
        assert cli.main(["weighted-average", path, "--output-dir", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.7 * 2**20, peak / 2**20


# A composition whose mult_re holds -0.0, on f with signed zeros, through the
# lifted, probe-orbit and Kahan lanes; the digests were recorded while the
# multiplier was still held as complex (re + 1j * 0.0)
NEGATIVE_ZERO_MULTIPLIER = {
    "schema": 1, "seed": 5, "space": {"atoms": 6},
    "operator": {"kind": "composition", "map": [1, 2, 3, 4, 5, 0],
                 "mult_re": [-0.0, -1.0, 0.5, -0.0, 1.0, -0.5]},
    "function": {"re": [1.0, -0.0, 0.0, -2.0, 0.5, 0.0],
                 "im": [0.0, 0.0, -0.0, 1.0, 0.0, -0.0]},
    "checkpoints": [1, 2, 3, 5, 8, 16], "probes": [0, 1, 2, 3, 4, 5],
}


@pytest.mark.parametrize("command, changes, digest", [
    ("average", {},
     "da4c7aa39886b17f97ecf8d86cf27df819cb61425b05171fa72384334b305508"),
    ("average", {"mode": "probes"},
     "26c7618aceb6c9da4712807d44f0e8af130f00cf2a749577d68a2eeb2a5ed96e"),
    ("weighted-average", {"weight": {"kind": "explicit", "re": [1.0, -1.0] * 8}},
     "7e2e1b4f82bf076055c2f315fc2f274cfb5e526e1a8f99cf478c587039f28a6c"),
], ids=["lifted", "probe-orbit", "kahan"])
def test_negative_zero_multiplier_keeps_its_output(tmp_path, command, changes, digest):
    path = write_cfg(tmp_path, "cfg.json", _with(NEGATIVE_ZERO_MULTIPLIER, **changes))
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == 0
    assert hashlib.sha256((out / "averages.csv").read_bytes()).hexdigest() == digest


def test_nonnegative_random_function_with_a_negative_scale_exits_2(tmp_path, capsys):
    cfg = _with(README_AVERAGE, function={"random": {"kind": "nonnegative",
                                                     "scale": -2.0}})
    out = tmp_path / "out"
    argv = ["average", write_cfg(tmp_path, "bad.json", cfg), "--output-dir", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config: function: random: scale: must be >= 0 for kind 'nonnegative'\n"
    )
    assert not out.exists()
    # a negative scale is fine for the other kinds, and 0 for this one
    for kind, scale in (("complex", -2.0), ("real", -2.0), ("nonnegative", 0.0)):
        cfg = _with(README_AVERAGE, function={"random": {"kind": kind, "scale": scale}})
        argv[1] = write_cfg(tmp_path, "ok.json", cfg)
        assert cli.main(argv) == 0


def test_validate_is_empty_for_valid_configs():
    for command, cfg in GOLDEN_CONFIGS.values():
        assert cli.validate(cfg, command) == []


# ------------------------------------------------------ mutated configs

# Each example mutates one key of one base config. Where a mutated integer
# or float sizes an array it stays within a cap. Horizon keys (checkpoints,
# geometric) range up to the default iteration budget of 1e6, which every
# command must handle in bounded memory. Atom counts, orders and the lambda
# grid stay at 128 to keep the 80 examples quick; they are not a memory
# limit. The key comes from one of the base's pools, each with equal odds:
# geometric horizons, set within the budget so the config stays valid; sized
# keys, drawing the cap itself and in-range positive integers besides
# arbitrary values; and every key, overwritten or deleted. The share of
# valid runs then rests on these odds, not on the number of bases or on how
# several mutations compound.
HORIZON_CAP = DEFAULT_BUDGET
HORIZON_KEYS = {"geometric"}
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


def _run_mutated(data) -> tuple[str, int]:
    """Mutate one key of one base config, run it, and check the exit code
    and the diagnostics; returns the command and its exit code."""
    command, base = data.draw(st.sampled_from(MUTATION_BASES))
    cfg = copy.deepcopy(base)
    paths = list(_paths(cfg))
    pools = [[p for p in paths if HORIZON_KEYS & set(p)],
             [p for p in paths if SIZE_CAPS.keys() & set(p)]]
    pool = data.draw(st.sampled_from([*filter(None, pools), paths]))
    path = data.draw(st.sampled_from(pool))
    delete = pool is paths and data.draw(st.booleans())
    parent = functools.reduce(operator.getitem, path[:-1], cfg)
    if delete:
        del parent[path[-1]]
    else:
        caps = [SIZE_CAPS[k] for k in path if k in SIZE_CAPS]
        cap = min(caps, default=None)
        if pool is pools[0]:  # a horizon within the budget: still valid
            parent[path[-1]] = data.draw(st.one_of(st.just(cap), st.integers(1, cap)))
        else:
            parent[path[-1]] = data.draw(_values(cap))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err):
        cfg_path = Path(d) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, str(cfg_path), "--output-dir", str(Path(d) / "out")]
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    # every diagnostic starts with the top-level key it is about
    for line in err.getvalue().splitlines():
        if line.startswith("config: "):
            assert re.match(r"config: (\w+)", line)[1] in TOP_LEVEL_KEYS, line
    return command, code


def test_mutated_configs_exit_with_documented_codes():
    valid = collections.Counter()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def examples(data):
        command, code = _run_mutated(data)
        valid[command] += code == 0

    examples()
    # 40 of the 80 run (16 composition averages); across random seeds 25 to
    # 39 did (11 to 23)
    assert sum(valid.values()) >= 20, valid
    assert valid["average"] + valid["weighted-average"] >= 8, valid


# --------------------------------------------------------- public names


def test_public_names_resolve_once():
    names = ergosym.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(ergosym, name)
    for gone in ("eval_weight", "hl_integral"):
        assert gone not in names and not hasattr(ergosym, gone)


# ------------------------------------------------------------ environment


def test_launch_leaves_unused_modules_unloaded():
    """Each command runs in its own process, so whatever `import ergosym.cli`
    does is paid on every run. dataclasses generated and exec'd the methods
    of each class; fractions, which loads decimal, is needed only where a
    config gives an exact phase."""
    src = str(Path(ergosym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ergosym.cli; "
            "print(*sorted({'dataclasses', 'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


# what `import ergosym.cli` leaves on the heap once numpy and the standard
# modules it uses are loaded, on Python 3.11 with bytecode cached: 571 774 B
# (numpy 2.4) before the lifted lane lent its buffer, and 8 KiB more. A
# command's peak RSS moves with this heap well beyond the bytes added
# (about 0.1 MiB for 10 KB), and every command pays it
IMPORT_HEAP_PIN = 571_774 + 8 * 1024


def test_import_heap_stays_within_its_pin():
    src = str(Path(ergosym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = ("import argparse, json, pathlib, tracemalloc\n"
            "import numpy\n"
            "tracemalloc.start()\n"
            "import ergosym.cli\n"
            "print(tracemalloc.get_traced_memory()[0])")
    for _ in range(2):  # the first run caches the bytecode
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
    heap = int(run.stdout)
    assert heap > 0
    if sys.version_info[:2] == (3, 11):  # the Python of the benchmark records
        assert heap < IMPORT_HEAP_PIN, heap


def test_wiener_wintner_run_loads_no_fractions(tmp_path):
    """The rotation oracle reads its phases as integer pairs, so a sweep
    with oracle columns, the README's, loads neither fractions nor
    decimal."""
    path = write_cfg(tmp_path, "sweep.json", README_SWEEP)
    src = str(Path(ergosym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\nfrom ergosym import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, *sorted({'fractions', 'decimal'} & set(sys.modules)))")
    argv = ["wiener-wintner", path, "--output-dir", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0"]
    assert "abs_err" in (tmp_path / "out" / "sweep.csv").read_text()


@pytest.mark.parametrize("call", ["trig-poly", "dft_interpolant"])
def test_exact_phases_load_no_fractions(tmp_path, call):
    """An exact phase is an integer pair from a config's phase_num and
    phase_den, or from dft_interpolant's j / p, to its powers, so neither
    the trig-poly golden run nor an interpolant loads fractions or
    decimal."""
    src = str(Path(ergosym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if call == "trig-poly":
        command, cfg = GOLDEN_CONFIGS["trig-poly"]
        argv = [command, write_cfg(tmp_path, "trig.json", cfg),
                "--output-dir", str(tmp_path / "out")]
        code = "from ergosym import cli\nrc = cli.main(sys.argv[1:])\n"
    else:
        argv = []
        code = ("from ergosym import dft_interpolant\n"
                "rc = len(dft_interpolant([1.0, 2.0, 0.5, -1.0]).terms)\n")
    code = ("import sys\n" + code +
            "print(rc, *sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0" if call == "trig-poly" else "4"]


@pytest.mark.parametrize("preset", [
    {},
    {"ERGOSYM_THREADS": "3", "OPENBLAS_NUM_THREADS": "2"},
], ids=["unset", "preset"])
def test_import_leaves_environment_unchanged(preset):
    # no computation calls BLAS, so importing sets no thread counts, whether
    # the thread variables start unset or some of them are already set
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "ERGOSYM_THREADS"}
    src = str(Path(ergosym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(preset)
    code = ("import os; before = dict(os.environ); import ergosym, ergosym.cli; "
            "print(dict(os.environ) == before)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True"]
