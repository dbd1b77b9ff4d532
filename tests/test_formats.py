"""JSON decoding, CSV emission, and atomic file writes."""

import dataclasses
import functools
import json
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ergosym import (
    AtomicMeasureSpace,
    CompositionOperator,
    InputError,
    KernelOperator,
    MeasurableFunction,
    Rearrangement,
    WeightSequence,
    cesaro,
    construct_certificate,
    ds_certificate,
    verify_certificate,
    weighted,
)
from ergosym.formats import (
    atomic_write_text,
    averaging_csv,
    certificate_payload,
    ds_report_payload,
    function_from_json,
    json_report,
    operator_from_json,
    product_csv,
    rearrangement_csv,
    space_from_json,
    sweep_csv,
    traces_csv,
    weight_from_json,
)
from ergosym.rng import SplitMix64
from dense import dense

# ---------------------------------------------------------------- decoders


def test_space_from_json_weights_and_atoms():
    s = space_from_json({"weights": [1.0, 2.0, 0.5]})
    assert s.n_atoms == 3 and s.weights[1] == 2.0 and not s.truncated
    u = space_from_json({"atoms": 4, "weight": 0.25, "truncated": True})
    assert u.n_atoms == 4 and np.all(u.weights == 0.25) and u.truncated


def test_space_from_json_errors():
    with pytest.raises(InputError):
        space_from_json([1, 2])
    with pytest.raises(InputError):
        space_from_json({"size": 3})


def test_function_from_json_explicit_and_ones():
    sp = AtomicMeasureSpace.uniform(3)
    f = function_from_json({"re": [1, 2, 3], "im": [0, -1, 0]}, sp)
    assert np.allclose(f.values, [1, 2 - 1j, 3])
    g = function_from_json({"ones": True}, sp)
    assert np.all(g.values == 1.0)
    h = function_from_json({"constant": {"re": 0.5, "im": 2.0}}, sp)
    assert np.all(h.values == 0.5 + 2j)


def test_function_from_json_character():
    sp = AtomicMeasureSpace.uniform(4)
    f = function_from_json({"character": 1}, sp)
    assert np.allclose(f.values, [1, 1j, -1, -1j], atol=1e-15)


def test_function_from_json_random_is_seed_deterministic():
    sp = AtomicMeasureSpace.uniform(8)
    a = function_from_json({"random": {"kind": "complex"}}, sp, SplitMix64(7))
    b = function_from_json({"random": {"kind": "complex"}}, sp, SplitMix64(7))
    assert np.array_equal(a.values, b.values)
    c = function_from_json({"random": {"kind": "real", "scale": 3.0}}, sp,
                           SplitMix64(7))
    assert np.all(c.values.imag == 0.0) and np.max(np.abs(c.values)) <= 3.0
    d = function_from_json({"random": {"kind": "nonnegative"}}, sp, SplitMix64(7))
    assert np.all(d.values.real >= 0.0)


def test_function_from_json_errors():
    sp = AtomicMeasureSpace.uniform(3)
    with pytest.raises(InputError):
        function_from_json({"re": [1, 2]}, sp)  # wrong length
    with pytest.raises(InputError):
        function_from_json({"re": [1, 2, 3], "im": [0]}, sp)
    with pytest.raises(InputError):
        function_from_json({"random": {"kind": "complex"}}, sp)  # no rng
    with pytest.raises(InputError):
        function_from_json({"random": {"kind": "gaussian"}}, sp, SplitMix64(1))
    with pytest.raises(InputError):
        function_from_json({"mystery": 1}, sp)


def test_operator_from_json_kernel():
    sp = AtomicMeasureSpace.uniform(2)
    T = operator_from_json(
        {"kind": "kernel", "matrix_re": [[0, 1], [1, 0]],
         "matrix_im": [[0, 0], [0, 0]]}, sp
    )
    assert isinstance(T, KernelOperator)
    assert np.array_equal(dense(T), np.array([[0, 1], [1, 0]], dtype=complex))


def test_dense_kernel_decodes_without_an_n_by_n_complex_array():
    # a convex combination of 4 permutations on 512 atoms, as the parsed
    # config holds it. Beyond those lists the decode keeps matrix_re as one
    # float N x N array, one N x N mask of its nonzeros and O(nnz) for the
    # entries; re + 1j*im over the whole matrix would take 8 N^2 bytes more.
    n = 512
    rng = np.random.default_rng(81)
    k = np.zeros((n, n))
    for c in rng.dirichlet(np.ones(4)):
        k[np.arange(n), rng.permutation(n)] += c
    spec = {"kind": "kernel", "matrix_re": k.tolist()}
    space = AtomicMeasureSpace.uniform(n)
    tracemalloc.start()
    try:
        T = operator_from_json(spec, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nnz = np.count_nonzero(k)
    assert T.data.size == nnz
    assert peak <= n * n * (8 + 1) + 96 * nnz + 32 * n
    assert np.array_equal(dense(T), k)


@pytest.mark.parametrize("with_im", [True, False], ids=["re-im", "re-only"])
def test_dense_kernel_entries_keep_the_bits_of_the_dense_sum(with_im):
    # signed zeros in both parts: an entry that is zero in one part takes
    # its sign from the formula re + 1j*im, which must see the same elements
    rng = np.random.default_rng(82)
    values = np.array([0.0, -0.0, 0.5, -0.25, 1e-300, -3.0])
    re, im = rng.choice(values, (7, 7)), rng.choice(values, (7, 7))
    spec = {"kind": "kernel", "matrix_re": re.tolist()}
    if with_im:
        spec["matrix_im"] = im.tolist()
    else:
        im = np.zeros_like(re)
    T = operator_from_json(spec, AtomicMeasureSpace.uniform(7))
    full = re + 1j * im
    rows, cols = np.nonzero(full)
    assert np.array_equal(T.entry_rows(), rows) and np.array_equal(T.indices, cols)
    assert np.array_equal(T.data.view(np.uint64), full[rows, cols].view(np.uint64))


def test_operator_from_json_composition_multiplier_keys():
    sp = AtomicMeasureSpace.uniform(2)
    T = operator_from_json(
        {"kind": "composition", "map": [1, 0], "mult_re": [0, 0],
         "mult_im": [1, -1], "measure_preserving": True}, sp
    )
    assert isinstance(T, CompositionOperator)
    assert np.allclose(T.multiplier, [1j, -1j])
    assert T.measure_preserving
    plain = operator_from_json({"kind": "composition", "map": [1, 0]}, sp)
    assert np.all(plain.multiplier == 1.0)


def test_operator_from_json_counterexample_needs_no_space():
    T = operator_from_json(
        {"kind": "counterexample", "breakpoints": [1, 5], "grid": 2,
         "window": 5}, None
    )
    assert T.space.n_atoms == 10


def test_operator_from_json_errors():
    sp = AtomicMeasureSpace.uniform(2)
    with pytest.raises(InputError):
        operator_from_json({"matrix_re": [[1]]}, sp)
    with pytest.raises(InputError):
        operator_from_json({"kind": "kernel", "matrix_re": [[1, 0], [0, 1]]},
                           None)
    with pytest.raises(InputError):
        operator_from_json({"kind": "spectral"}, sp)


def test_weight_from_json_kinds():
    w = weight_from_json({"kind": "lambda_power", "lambda_re": 0.0,
                          "lambda_im": 1.0})
    assert w.values(4)[3] == pytest.approx(-1j)
    p = weight_from_json({"kind": "periodic", "re": [1, -1]})
    assert p.values(6)[5] == -1.0
    c = weight_from_json({"kind": "constant", "re": 2.0})
    assert c.values(11)[10] == 2.0
    e = weight_from_json({"kind": "explicit", "re": [0.5, 2.0], "bound": 1.0})
    assert e.values(2)[1] == 2.0 and e.bound == 1.0


def test_weight_from_json_trig_poly_exact_phase():
    w = weight_from_json(
        {"kind": "trig_poly",
         "terms": [{"z_re": 1.0, "phase_num": 1, "phase_den": 6}]}
    )
    term = w.poly.terms[0]
    assert term.phase == Fraction(1, 6)
    assert w.values(7)[6] == pytest.approx(1.0, abs=1e-15)
    v = weight_from_json(
        {"kind": "trig_poly", "terms": [{"z_re": 2.0, "lam_re": -1.0}]}
    )
    assert v.values(4)[3] == pytest.approx(-2.0)


def test_weight_from_json_unknown_kind():
    with pytest.raises(InputError):
        weight_from_json({"kind": "besicovitch"})


# ------------------------------------------------------------- atomic writes


def test_atomic_write_creates_file_and_no_droppings(tmp_path):
    target = tmp_path / "out" / "report.json"
    atomic_write_text(target, '{"a": 1}\n')
    assert target.read_text() == '{"a": 1}\n'
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]


def test_atomic_write_failure_leaves_nothing(tmp_path):
    target = tmp_path / "report.csv"
    with pytest.raises(TypeError):
        atomic_write_text(target, object())  # write() rejects non-str
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "r.csv"
    atomic_write_text(target, "old\n")
    atomic_write_text(target, "new\n")
    assert target.read_text() == "new\n"


# ----------------------------------------------------------------- emitters


def test_rearrangement_csv_layout():
    r = Rearrangement(np.array([0.0, 1.0, 3.0]), np.array([2.0, 0.5]))
    text = rearrangement_csv(r, seed=42)
    lines = text.splitlines()
    assert lines[0] == "# schema=1 seed=42"
    assert lines[1] == "t_left,t_right,value"
    assert lines[2].split(",") == ["0.0", "1.0", "2.0"]
    assert lines[3].split(",") == ["1.0", "3.0", "0.5"]
    assert text.endswith("\n")


def test_averaging_csv_flags_and_shape():
    T = KernelOperator(np.eye(3), AtomicMeasureSpace.uniform(3))
    f = MeasurableFunction(np.array([1.0, -2.0, 0.5]), T.space)
    rep = cesaro(T, f, (1, 4), probes=(0, 2))
    text = averaging_csv(rep, seed=9)
    lines = text.splitlines()
    assert lines[1] == "n,probe_id,re,im,l1_norm,linf_norm,majorized"
    assert len(lines) == 2 + 2 * 2
    # no trace requested: flag column stays empty
    assert all(ln.endswith(",") for ln in lines[2:])
    row = lines[2].split(",")
    assert row[0] == "1" and row[1] == "0" and float(row[2]) == 1.0


def test_averaging_csv_majorized_column():
    T = KernelOperator(np.eye(2), AtomicMeasureSpace.uniform(2))
    f = MeasurableFunction(np.array([1.0, 2.0]), T.space)
    rep = cesaro(T, f, (1, 2), probes=(0,))
    rep = dataclasses.replace(rep, majorized=(True, False))
    lines = averaging_csv(rep, seed=0).splitlines()
    assert lines[2].endswith("true") and lines[3].endswith("false")


@pytest.mark.parametrize("kind", ["cesaro", "weighted"])
def test_averaging_csv_leaves_the_norm_cells_empty_without_norms(kind):
    T = KernelOperator(np.eye(3), AtomicMeasureSpace.uniform(3))
    f = MeasurableFunction(np.array([1.0, -2.0, 0.5]), T.space)
    run = (cesaro if kind == "cesaro"
           else functools.partial(weighted, beta=WeightSequence.constant(0.5)))
    rows = {}
    for norms in (True, False):
        rep = run(T, f, checkpoints=(1, 4), probes=(0, 2), store_averages=False,
                  norms=norms, majorize=True)
        rows[norms] = [ln.split(",") for ln in averaging_csv(rep, 9).splitlines()]
    assert rows[False][:2] == rows[True][:2]
    assert len(rows[False]) == 2 + 2 * 2
    for without, with_norms in zip(rows[False][2:], rows[True][2:]):
        assert without == with_norms[:4] + ["", "", "true"]


def test_traces_and_product_csv_shapes():
    text = traces_csv([0.25, 0.5], (1, 3), [[1.0, 2.0], [0.5, 0.25]], seed=5)
    lines = text.splitlines()
    assert lines[1] == "n,t,value"
    assert lines[2] == "1,0.25,1.0" and lines[5] == "3,0.5,0.25"


def test_sweep_csv_with_and_without_oracle():
    class Sweep:
        lambdas = np.array([1.0 + 0j, -1.0 + 0j])
        probes = (0,)
        checkpoints = (1, 2)
        averages = np.array([[[1.0 + 0j, 0.5 + 0j]], [[1.0 + 0j, 0.0 + 0j]]])

    plain = sweep_csv(Sweep(), seed=3)
    assert plain.splitlines()[0] == "# schema=1 seed=3"
    assert plain.splitlines()[1] == (
        "lambda_index,lambda_re,lambda_im,probe,n,avg_re,avg_im"
    )
    oracle = Sweep.averages.copy()
    oracle[0, 0, 1] += 0.125
    rich = sweep_csv(Sweep(), seed=3, oracle=oracle, resonant=[1])
    lines = rich.splitlines()
    assert lines[0] == "# schema=1 seed=3 resonant_lambdas=1"
    assert lines[1].endswith(",oracle_re,oracle_im,abs_err")
    assert lines[3].split(",")[-1] == "0.125"


def test_json_report_prepends_schema_and_seed():
    text = json_report({"answer": 41}, seed=11)
    obj = json.loads(text)
    assert obj == {"schema": 1, "seed": 11, "answer": 41}
    assert list(obj) == ["schema", "seed", "answer"]


def test_ds_report_payload_keys():
    T = KernelOperator(np.eye(2), AtomicMeasureSpace.uniform(2))
    payload = ds_report_payload(ds_certificate(T))
    assert payload == {
        "l1_ok": True, "linf_ok": True, "ds_ok": True,
        "worst_column_sum": 1.0, "worst_row_sum": 1.0,
    }


def test_certificate_payload_round_trip():
    prof = Rearrangement(np.array([0.0, 32.0]), np.array([1.0]))
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    res = verify_certificate(cert, prof)
    payload = certificate_payload(cert, res)
    assert payload["breakpoints"] == [1, 5, 17]
    assert payload["mode"] == "full-grid"
    assert payload["verified"] is True
    assert "failed_stage" not in payload
    assert len(payload["stages"]) == 3
    assert payload["stages"][1]["side"] == "<-1/2"
    assert json.loads(json_report(payload, seed=1))["breakpoints"] == [1, 5, 17]


def test_certificate_payload_reports_failure():
    prof = Rearrangement(np.array([0.0, 32.0]), np.array([1.0]))
    cert = construct_certificate(prof, 0.1, 3, grid=10)
    bad = type(cert)(cert.eps, cert.margin, cert.grid, cert.mode,
                     (1, 4, 17), cert.stages)
    res = verify_certificate(bad, prof)
    payload = certificate_payload(bad, res)
    assert payload["verified"] is False
    assert payload["failed_stage"] == 2


def test_atomic_write_fsync_free_contract(tmp_path):
    # the temp file must live next to the target so os.replace stays atomic
    target = tmp_path / "x.csv"
    seen = {}
    orig = os.replace

    def spy(src, dst):
        seen["same_dir"] = os.path.dirname(src) == os.path.dirname(dst)
        return orig(src, dst)

    os.replace = spy
    try:
        atomic_write_text(target, "ok\n")
    finally:
        os.replace = orig
    assert seen["same_dir"]
