"""Operator representations, contraction certificates, modulus, adjoints."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosym import (
    AtomicMeasureSpace,
    CompositionOperator,
    InputError,
    KernelOperator,
    MeasurableFunction,
    PointSystem,
    adjoint,
    adjoint_modulus_commutation,
    apply,
    ds_certificate,
    linear_modulus,
    majorizes,
    norm,
    pairing,
    signed_shift_operator,
)
from ergosym.formats import loads, operator_from_json
from ergosym.spaces import _BLOCK
from dense import dense
from ergosym import averaging, operators
from oracles import (
    modulus_sup_oracle,
    reduceat_row_sums_reference,
    row_sum_layout_reference,
    row_sums_in_order_reference,
    signed_shift_reference,
    worst_column_sum_reference,
)


def unit_space(n):
    return AtomicMeasureSpace(np.ones(n))


def mk(values, space):
    return MeasurableFunction(np.asarray(values, dtype=complex), space)


def random_ds_kernel(rng, n, weights=None):
    """Random signed kernel scaled so both contraction sums are <= 1."""
    sp = AtomicMeasureSpace(
        np.ones(n) if weights is None else weights
    )
    k = rng.normal(size=(n, n))
    w = sp.weights
    col = np.max((w @ np.abs(k)) / w)
    row = np.max(np.sum(np.abs(k), axis=1))
    k /= max(col, row) * (1.0 + 1e-9)
    return KernelOperator(k, sp)


# --------------------------------------------------------------------- apply


def test_apply_identity():
    sp = unit_space(3)
    f = mk([1.0, 2.0 + 1j, -3.0], sp)
    T = KernelOperator(np.eye(3), sp)
    assert np.array_equal(apply(T, f).values, f.values)


def test_apply_cyclic_composition():
    sp = unit_space(3)
    T = CompositionOperator(
        np.array([1, 2, 0]), np.ones(3, dtype=complex), sp, measure_preserving=True
    )
    out = apply(T, mk([10.0, 20.0, 30.0], sp))
    assert np.allclose(out.values, [20.0, 30.0, 10.0])


def test_apply_kernel_example():
    sp = unit_space(2)
    T = KernelOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), sp)
    out = apply(T, mk([5.0, 7.0], sp))
    assert np.allclose(out.values, [7.0, 0.0])


# a row without entries reads a place of the row-sum buffer that stays +0
@pytest.mark.parametrize("empty", [(0,), (2,), (4,), (0, 1, 3), (0, 1, 2, 3, 4)])
def test_kernel_rows_without_entries_apply_to_zero(empty):
    rng = np.random.default_rng(41)
    k = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    k[list(empty)] = 0.0
    T = KernelOperator(k, unit_space(5))
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    got = T.apply_values(v)
    assert np.all(got[list(empty)] == 0)
    assert np.max(np.abs(got - k @ v)) <= 1e-14
    rep = ds_certificate(T)
    assert rep.worst_row_sum == pytest.approx(np.max(np.sum(np.abs(k), axis=1)))
    assert rep.worst_column_sum == pytest.approx(np.max(np.sum(np.abs(k), axis=0)))


def bits(a):
    """The bytes of an array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).tobytes()


# component values with both zeros, and sums that round differently by order
PARTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -3.25])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    counts=st.integers(1, 14).flatmap(
        lambda n: st.lists(st.integers(0, min(12, n)), min_size=n, max_size=n)
    ),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sum_plan_keeps_the_documented_order(counts, real, seed):
    # sparse kernels with 0-12 entries per row, empty rows among them, and
    # entries and values with zero components of either sign
    rng = np.random.default_rng(seed)
    n = len(counts)
    rows = np.repeat(np.arange(n), counts)
    cols = np.concatenate([rng.permutation(n)[:c] for c in counts] + [[]])

    def part(k):
        return np.where(rng.random(k) < 0.5, rng.choice(PARTS, k), rng.normal(size=k))

    def draw(k):
        return part(k) if real else part(k) + 1j * part(k)

    T = KernelOperator.from_triplets(rows, cols.astype(np.intp), draw(rows.size),
                                     unit_space(n))
    v, x = draw(n), draw(T.data.size)
    products = T.data * v[T.indices]
    assert bits(T.apply_values(v)) == bits(row_sums_in_order_reference(T.indptr, products))
    got = T.row_sums(x)
    assert bits(got) == bits(row_sums_in_order_reference(T.indptr, x))
    # numpy's reduceat sums the same way while the entries after a row's
    # first fill fewer than 8 float64 lanes; the sign of a zero sum may differ
    short = np.diff(T.indptr) <= (8 if real else 4)
    want = reduceat_row_sums_reference(T.indptr, x)
    assert np.array_equal(got[short], want[short])


def spread(rng, shape):
    """Values over 16 decades, so that a sum's bits depend on its order."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)


def test_reduce_adds_the_rows_of_a_block_in_order():
    # a run's one call: numpy adds the rows of a (511, 512) block one after
    # another, with the bits of 510 in-place additions
    rng = np.random.default_rng(43)
    block = spread(rng, (511, 512)) + 1j * spread(rng, (511, 512))
    block[0, :4] = [0.0, -0.0, -0.0j, -0.0 - 0.0j]
    want = block[0].copy()
    for row in block[1:]:
        np.add(want, row, out=want)
    zero = -np.complex128(0)
    assert bits(np.add.reduce(block, axis=0, initial=zero)) == bits(want)


def runs_in(T):
    return sum(run is not None for _, _, run in T._buffer(complex)[1])


# (entries per row, RUN_SLOTS, RUN_WIDTH or None: the default, runs taken)
@pytest.mark.parametrize("counts, run_slots, run_width, runs", [
    ([512] * 512, None, None, 1),  # dense: slots 2..511 in one run
    ([20] * 3 + [15] * 6 + [2] * 10, 3, None, 2),  # widths 9 and 3
    ([20] * 3 + [15] * 6 + [2] * 10, None, None, 1),  # 5 slots of width 3
    ([40, 40] + [3] * 20 + [0] * 3, None, None, 1),  # width 2, not 1
    ([40] + [3] * 20, 2, None, 1),  # one long row: width 1, accumulated
    ([12] * 5, None, 4, 0),  # wider than RUN_WIDTH
    ([4, 3, 1, 0, 2, 4] * 200, None, None, 0),  # the stream benchmark's shape
    ([512] + [2, 1, 0] * 200, None, None, 1),  # 510 slots of width 1
])
def test_row_sum_plan_runs_keep_the_documented_order(
    monkeypatch, counts, run_slots, run_width, runs
):
    if run_slots is not None:
        monkeypatch.setattr(operators, "RUN_SLOTS", run_slots)
    if run_width is not None:
        monkeypatch.setattr(operators, "RUN_WIDTH", run_width)
    rng = np.random.default_rng(len(counts))
    n = max(len(counts), max(counts))
    counts = counts + [0] * (n - len(counts))
    rows = np.repeat(np.arange(n), counts)
    cols = np.concatenate([np.sort(rng.permutation(n)[:c]) for c in counts])

    def draw(k):  # signed zeros among the values
        parts = np.where(rng.random((2, k)) < 0.2, rng.choice(PARTS, (2, k)),
                         spread(rng, (2, k)))
        return parts[0] + 1j * parts[1]

    T = KernelOperator.from_triplets(rows, cols, draw(rows.size), unit_space(n))
    assert runs_in(T) == runs
    # signed powers of two and zeros: every product is exact, so its bits do
    # not depend on the loop numpy multiplies with (it may fuse a*c - b*d)
    v = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-30, 31, n)
    v[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
    v = v + 1j * np.where(rng.random(n) < 0.5, 0.0, -0.0)
    x = draw(T.data.size)
    x[: T.indptr[1]] = complex(-0.0, -0.0)  # a row that sums to -0.0
    products = T.data * v[T.indices]
    assert bits(T.apply_values(v)) == bits(row_sums_in_order_reference(T.indptr, products))
    for y in (x, x.real):
        assert bits(T.row_sums(y)) == bits(row_sums_in_order_reference(T.indptr, y))


def test_a_row_longer_than_all_others_adds_no_step_per_entry():
    # its entries past the second-longest row's are one width-1 run, so the
    # kernel's steps do not grow with its length
    def steps(long):
        counts = [long] + [2, 1, 0] * 200
        rows = np.repeat(np.arange(len(counts)), counts)
        cols = np.concatenate([np.arange(c) for c in counts])
        T = KernelOperator.from_triplets(rows, cols, np.ones(rows.size),
                                         unit_space(len(counts)))
        return len(T._buffer(complex)[1])

    assert steps(64) == steps(512)


def test_kernel_has_one_csr_form():
    # a dense matrix and its entries as triplets, shuffled and with explicit
    # zeros, store the same arrays: nonzeros only, laid out slot by slot,
    # and read in CSR order, sorted by (row, column)
    rng = np.random.default_rng(42)
    sp = unit_space(6)
    k = rng.normal(size=(6, 6)) * (rng.uniform(size=(6, 6)) < 0.4)
    rows, cols = np.divmod(rng.permutation(36), 6)
    T = KernelOperator(k, sp)
    U = KernelOperator.from_triplets(rows, cols, k[rows, cols], sp)
    for name in ("indptr", "order", "place", "layout", "layout_cols", "indices",
                 "data"):
        assert np.array_equal(getattr(T, name), getattr(U, name))
    order, layout, layout_cols = row_sum_layout_reference(k)
    assert np.array_equal(T.order, order) and np.array_equal(T.layout_cols, layout_cols)
    assert np.array_equal(T.layout, layout)
    assert np.all(T.data != 0) and np.array_equal(dense(T), k)


def test_kernel_holds_its_entries_once():
    # the layout's entries and columns and the CSR-to-layout index take 32
    # bytes per entry, indptr and the row order 16 per row; a CSR copy of
    # the entries beside the layout held 48 bytes per entry
    rng = np.random.default_rng(44)
    n = 512
    k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    space = AtomicMeasureSpace.uniform(n)
    n_big, per_row = 1 << 16, 4
    rows = np.repeat(np.arange(n_big), per_row)
    cols = (rows + np.tile([0, 1, 3, 7], n_big)) % n_big
    data = np.full(rows.size, 0.25 + 0j)
    big = AtomicMeasureSpace.uniform(n_big)
    for build, atoms in ((lambda: KernelOperator(k, space), n),
                         (lambda: KernelOperator.from_triplets(rows, cols, data, big),
                          n_big)):
        tracemalloc.start()  # what the kernel holds once it has been applied
        try:
            T = build()
            T.apply_values(np.ones(atoms, dtype=complex))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 32 * T.data.size + 16 * atoms + 2**14


def test_triplet_kernel_decodes_in_76_bytes_per_entry():
    # 2^16 atoms, 4 entries per row, given in shuffled order and decoded
    # from a loaded config: the entries are scattered into the layout
    # through their sort order, with int32 rows, columns and places; sorted
    # copies of intp rows and columns beside them took 105 bytes per entry
    n, per_row = 1 << 16, 4
    rng = np.random.default_rng(49)
    rows = np.repeat(np.arange(n), per_row)
    cols = (rows + np.tile([0, 1, 3, 7], n)) % n
    data = rng.uniform(-0.25, 0.25, rows.size)
    data[::9] = 0.0  # dropped
    shuffle = rng.permutation(rows.size)
    rows, cols, data = rows[shuffle], cols[shuffle], data[shuffle]
    cfg = loads(json.dumps({"kind": "kernel", "rows": rows.tolist(),
                            "cols": cols.tolist(), "data_re": data.tolist()}))
    space = AtomicMeasureSpace.uniform(n)
    tracemalloc.start()
    try:
        T = operator_from_json(cfg, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 76 * rows.size, peak / rows.size
    assert T.place.dtype == np.int32
    order = np.lexsort((cols, rows))
    order = order[data[order] != 0]
    assert np.array_equal(T.entry_rows(), rows[order])
    assert np.array_equal(T.indices, cols[order])
    assert T.data.tobytes() == (data[order] + 0j).tobytes()


@pytest.mark.parametrize("rows, cols, data, message", [
    ([0, 1, 0], [1, 2, 1], [1.0, 1.0, 0.0], "cols[2]: entry (0, 1) is already given at index 0"),
    ([0, -1], [1, 2], [1.0, 1.0], "rows[1]: -1 is not an atom of 0..2"),
    ([0, 1], [1, 3], [1.0, 1.0], "cols[1]: 3 is not an atom of 0..2"),
    ([0, 1], [1], [1.0, 1.0], "cols: expected 2 values, got 1"),
    ([0, 1], [1, 2], [1.0], "data: expected 2 values, got 1"),
    ([0.0, 1.0], [1, 2], [1.0, 1.0], "rows: must be a list of integers"),
])
def test_kernel_triplets_rejected(rows, cols, data, message):
    with pytest.raises(InputError) as e:
        KernelOperator.from_triplets(rows, cols, data, unit_space(3))
    assert str(e.value) == message


def test_apply_space_mismatch():
    T = KernelOperator(np.eye(2), unit_space(2))
    f = mk([1.0, 2.0, 3.0], unit_space(3))
    with pytest.raises(InputError):
        apply(T, f)


def test_operator_validation():
    sp = unit_space(2)
    with pytest.raises(InputError):
        KernelOperator(np.eye(3), sp)
    with pytest.raises(InputError, match=r"^map\[1\]: 5 is not an atom of 0\.\.1$"):
        CompositionOperator(np.array([0, 5]), np.ones(2), sp)
    with pytest.raises(InputError, match="^map: must be a list of integers$"):
        CompositionOperator(np.array([1.0, 0.0]), np.ones(2), sp)  # not cast
    with pytest.raises(InputError):
        CompositionOperator(np.array([0, 1]), np.array([1.0, 2.0]), sp)
    with pytest.raises(InputError):
        # declared measure preserving but not a bijection
        CompositionOperator(
            np.array([0, 0]), np.ones(2), sp, measure_preserving=True
        )


def test_measure_preserving_accepts_exactly_the_permutations():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pm = rng.permutation(n) if rng.random() < 0.3 else rng.integers(0, n, n)
        sp = unit_space(n)
        if len(set(pm.tolist())) == n:
            CompositionOperator(pm, np.ones(n), sp, measure_preserving=True)
        else:
            with pytest.raises(InputError, match="must be a bijection"):
                CompositionOperator(pm, np.ones(n), sp, measure_preserving=True)


# --------------------------------------------------------------- certificates


def test_ds_certificate_permutation_exactly_one():
    sp = unit_space(4)
    T = CompositionOperator(
        np.array([1, 2, 3, 0]),
        np.exp(1j * np.array([0.3, 1.1, -0.4, 2.0])),
        sp,
        measure_preserving=True,
    )
    rep = ds_certificate(T)
    assert rep.ds_ok
    assert rep.worst_column_sum == pytest.approx(1.0, abs=1e-12)
    assert rep.worst_row_sum == pytest.approx(1.0, abs=1e-12)


def test_ds_certificate_row_violation():
    sp = unit_space(2)
    rep = ds_certificate(KernelOperator(np.array([[1.0, 1.0], [0.0, 0.0]]), sp))
    assert rep.l1_ok
    assert not rep.linf_ok
    assert rep.worst_row_sum == pytest.approx(2.0)


def test_ds_certificate_hand_sums():
    sp = unit_space(2)
    rep = ds_certificate(
        KernelOperator(np.array([[0.5, 0.25], [0.25, 0.5]]), sp)
    )
    assert rep.ds_ok
    assert rep.worst_column_sum == pytest.approx(0.75)
    assert rep.worst_row_sum == pytest.approx(0.75)


def test_ds_certificate_weighted_columns():
    # weights skew the L1 condition: mass moved into a light atom counts more
    sp = AtomicMeasureSpace(np.array([2.0, 0.5]))
    k = np.array([[0.0, 0.0], [1.0, 0.0]])  # sends atom-0 values to atom 1
    rep = ds_certificate(KernelOperator(k, sp))
    # column 0 mass: w_1 * 1 / w_0 = 0.5 / 2? no: sum_i w_i |K[i,0]| / w_0 = 0.5/2
    assert rep.worst_column_sum == pytest.approx(0.25)
    assert rep.ds_ok


def test_ds_certificate_sound_on_random_f():
    rng = np.random.default_rng(31)
    T = random_ds_kernel(rng, 12)
    assert ds_certificate(T).ds_ok
    for _ in range(100):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        f = MeasurableFunction(v, T.space)
        tf = apply(T, f)
        assert norm(tf, "L1") <= norm(f, "L1") * (1 + 1e-12)
        assert norm(tf, "Linf") <= norm(f, "Linf") * (1 + 1e-12)


def test_ds_implies_majorization():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        T = random_ds_kernel(rng, n)
        f = MeasurableFunction(rng.normal(size=n), T.space)
        assert majorizes(f, apply(T, f))


def test_ds_check_reads_a_decoded_map_in_place():
    # a decoded map is held read-only, which np.bincount would copy: one
    # N-vector more than |m|, w |m| and the column masses. The decoder
    # hands it over writable. Signs held as int8 give the sums of their
    # float64 form.
    n = 1 << 16
    rng = np.random.default_rng(31)
    cfg = loads(json.dumps({"map": rng.integers(0, n, n).tolist(),
                            "mult_re": rng.uniform(-1.0, 1.0, n).tolist()}))
    space = AtomicMeasureSpace.uniform(n, 0.5)
    T = operator_from_json({"kind": "composition", **cfg}, space)
    assert T.point_map.flags.writeable
    tracemalloc.start()
    try:
        rep = ds_certificate(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * n * 8
    col = np.bincount(T.point_map.copy(), 0.5 * np.abs(T.multiplier), n) / 0.5
    assert rep.worst_column_sum == float(np.max(col))
    signs = rng.choice([-1.0, 0.0, 1.0], n)
    S = CompositionOperator(T.point_map, signs, space)
    F = CompositionOperator(T.point_map, signs, space)
    F.multiplier = signs
    assert S.multiplier.dtype == np.int8 and ds_certificate(S) == ds_certificate(F)


@pytest.mark.parametrize("n, width", [(_BLOCK - 1, np.intp), (_BLOCK, np.int32)])
def test_maps_hold_int32_indices_from_one_block_on(n, width):
    # a point map, a point system's tau, the signed shift's map, the lifted
    # lane's powers T^c and a kernel's places are int32 from one block of
    # entries on, and give the values of intp indices
    rng = np.random.default_rng(50)
    pm = rng.permutation(n)
    mult = rng.choice([-1.0, 0.5, 1.0], n)
    T = CompositionOperator(pm, mult, unit_space(n))
    assert T.point_map.dtype == width and np.array_equal(T.point_map, pm)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    for x in (v, v.real.copy()):
        assert T.apply_values(x).tobytes() == (mult * x[pm]).tobytes()
    s3, m3 = averaging._power((T.point_map, T.multiplier), 3)
    assert s3.dtype == width and np.array_equal(s3, pm[pm[pm]])
    assert m3.tobytes() == (mult[pm[pm]] * mult[pm] * mult).tobytes()
    system = PointSystem(AtomicMeasureSpace.uniform(n), pm)
    assert system.tau.dtype == width and np.array_equal(system.tau, pm)
    assert PointSystem.cyclic(n).tau.dtype == width
    assert signed_shift_operator([1, 2], 1, n).point_map.dtype == width
    cols = (np.arange(n) + 1) % n
    K = KernelOperator.from_triplets(np.arange(n), cols, np.ones(n), unit_space(n))
    assert K.place.dtype == width and np.array_equal(K.indices, cols)


@pytest.mark.parametrize("n", [500, _BLOCK + 3])
def test_ds_check_column_masses_match_the_atom_by_atom_sum(n):
    # a map that is not a bijection, its columns hit many times: as a
    # read-only intp map below one block, and as int32 from one block on.
    # The masses are added in atom order, as the reference adds them.
    rng = np.random.default_rng(51)
    pm = rng.integers(0, n // 7, n)
    pm.flags.writeable = False
    mult = rng.uniform(-1.0, 1.0, n)
    w = rng.uniform(0.5, 2.0, n)
    T = CompositionOperator(pm, mult, AtomicMeasureSpace(w))
    if n < _BLOCK:
        assert T.point_map is pm
    else:
        assert T.point_map.dtype == np.int32
    want = worst_column_sum_reference(pm, mult, w)
    assert ds_certificate(T).worst_column_sum == want


@pytest.mark.parametrize("mult, dtype", [
    ([-1.0, 0.0, 1.0, 1.0], np.int8),
    ([1, -1, 0, 1], np.int8),
    ([-1.0, -0.0, 1.0, 1.0], np.float64),  # int8 holds no -0.0
    ([-1.0, 0.5, 1.0, 1.0], np.float64),
    ([1.0, 1.0, 1.0, 1.0 + 1e-13], np.float64),
    ([1j, -1.0, 1.0, 0.0], np.complex128),
])
def test_composition_holds_exact_signs_as_int8(mult, dtype):
    T = CompositionOperator([1, 2, 3, 0], mult, unit_space(4))
    assert T.multiplier.dtype == dtype
    assert np.array_equal(T.multiplier, mult)
    # a broadcast multiplier, such as the default 1.0, is kept as it is
    one = np.broadcast_to(1.0, 4)
    assert CompositionOperator([1, 2, 3, 0], one, unit_space(4)).multiplier is one


# -------------------------------------------------------------------- modulus


def test_modulus_hand_example():
    sp = unit_space(2)
    T = KernelOperator(np.array([[0.3, -0.4], [-0.2, 0.1]]), sp)
    out = apply(linear_modulus(T), mk([1.0, 1.0], sp))
    assert np.allclose(out.values, [0.7, 0.3])
    # and this is the sign-vector supremum
    assert np.allclose(modulus_sup_oracle(dense(T).real, [1.0, 1.0]), [0.7, 0.3])


def test_modulus_fixes_nonnegative_kernels():
    sp = unit_space(3)
    k = np.array([[0.1, 0.2, 0.0], [0.0, 0.3, 0.1], [0.2, 0.0, 0.2]])
    T = KernelOperator(k, sp)
    assert np.array_equal(dense(linear_modulus(T)), k)


def test_modulus_matches_sign_vector_sup_randomized():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        k = rng.normal(size=(n, n))
        f = rng.uniform(0.0, 2.0, size=n)
        sp = unit_space(n)
        got = apply(linear_modulus(KernelOperator(k, sp)), mk(f, sp)).values.real
        want = modulus_sup_oracle(k, f)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_modulus_phase_grid_bound_complex():
    # complex kernels: any finite phase grid stays below |K| f and refines up
    rng = np.random.default_rng(34)
    k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    f = np.array([1.0, 1.5])
    sp = unit_space(2)
    exact = apply(linear_modulus(KernelOperator(k, sp)), mk(f, sp)).values.real
    prev_gap = np.inf
    for grid in (8, 64):
        phases = np.exp(2j * np.pi * np.arange(grid) / grid)
        best = np.zeros(2)
        for a in phases:
            for b in phases:
                best = np.maximum(best, np.abs(k @ (f * np.array([a, b]))))
        gap = float(np.max(exact - best))
        assert gap >= -1e-12
        assert gap <= prev_gap + 1e-15
        prev_gap = gap
    assert prev_gap <= 1e-3


def domination_slack(T, f, kmax):
    """min over k = 1..kmax and atoms of |T|^k |f| - |T^k f|."""
    mod = linear_modulus(T)
    g, h = f, mk(np.abs(f.values), f.space)
    slack = np.inf
    for _ in range(kmax):
        g, h = apply(T, g), apply(mod, h)
        slack = min(slack, float(np.min(h.values.real - np.abs(g.values))))
    return slack


def test_modulus_domination_equalizes_under_sign_conjugation():
    # K = D |K| D with D = diag(1, -1), so f = (1, -1) gives exact equality
    sp = unit_space(2)
    T = KernelOperator(np.array([[0.3, -0.4], [-0.2, 0.1]]), sp)
    assert domination_slack(T, mk([1.0, -1.0], sp), 5) == pytest.approx(
        0.0, abs=1e-15
    )


def test_modulus_domination_strict_slack():
    sp = unit_space(2)
    T = KernelOperator(np.array([[0.3, -0.4], [-0.2, 0.1]]), sp)
    f = mk([1.0, 1.0], sp)
    assert domination_slack(T, f, 1) == pytest.approx(0.2, abs=1e-15)  # |Tf|=(0.1,0.1)
    assert domination_slack(T, f, 5) > 0.0  # cancellation in Tf leaves real room


def test_modulus_domination_positive_equality():
    rng = np.random.default_rng(35)
    sp = unit_space(4)
    k = np.abs(rng.normal(size=(4, 4))) / 4
    f = mk(rng.uniform(0.5, 1.0, size=4), sp)
    slack = domination_slack(KernelOperator(k, sp), f, 6)
    assert slack == pytest.approx(0.0, abs=1e-12)


def test_modulus_domination_signed_permutation_isometry():
    sp = unit_space(3)
    T = CompositionOperator(
        np.array([1, 2, 0]), -np.ones(3), sp, measure_preserving=True
    )
    f = mk([0.3, -1.2, 0.7], sp)
    assert domination_slack(T, f, 7) == pytest.approx(0.0, abs=1e-15)


def test_modulus_domination_randomized_holds():
    rng = np.random.default_rng(36)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        T = random_ds_kernel(rng, n)
        f = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), T.space)
        assert domination_slack(T, f, 10) >= -1e-9


def test_modulus_shares_operator_norms():
    # contraction sums only see moduli, so |T| carries the same norms
    rng = np.random.default_rng(37)
    k = rng.normal(size=(5, 5))
    sp = AtomicMeasureSpace(rng.uniform(0.5, 2.0, size=5))
    a, b = ds_certificate(KernelOperator(k, sp)), ds_certificate(
        linear_modulus(KernelOperator(k, sp))
    )
    assert a.worst_column_sum == pytest.approx(b.worst_column_sum, abs=1e-15)
    assert a.worst_row_sum == pytest.approx(b.worst_row_sum, abs=1e-15)


# -------------------------------------------------------------------- adjoint


def test_adjoint_unit_weights_is_conjugate_transpose():
    sp = unit_space(3)
    k = np.array([[1.0, 2.0, 0.0], [0.0, 1j, 0.0], [0.5, 0.0, -1.0]])
    assert np.allclose(dense(adjoint(KernelOperator(k, sp))), np.conj(k).T)


def test_adjoint_weighted_hand_example():
    sp = AtomicMeasureSpace(np.array([1.0, 2.0]))
    T = KernelOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), sp)
    Ts = adjoint(T)
    assert np.allclose(dense(Ts), [[0.0, 0.0], [0.5, 0.0]])
    f = mk([0.0, 1.0], sp)
    g = mk([1.0, 0.0], sp)
    lhs = pairing(apply(T, f), g)
    rhs = pairing(f, apply(Ts, g))
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_adjoint_involution_and_duality_randomized():
    rng = np.random.default_rng(38)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        sp = AtomicMeasureSpace(rng.uniform(0.2, 3.0, size=n))
        k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        T = KernelOperator(k, sp)
        assert np.max(np.abs(dense(adjoint(adjoint(T))) - k)) <= 1e-12
        f = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), sp)
        g = MeasurableFunction(rng.normal(size=n) + 1j * rng.normal(size=n), sp)
        lhs = pairing(apply(adjoint(T), f), g)
        rhs = pairing(f, apply(T, g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_adjoint_of_ds_is_ds():
    rng = np.random.default_rng(39)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        w = rng.uniform(0.5, 2.0, size=n)
        T = random_ds_kernel(rng, n, weights=w)
        assert ds_certificate(T).ds_ok
        # duality swaps the two contraction conditions
        assert ds_certificate(adjoint(T)).ds_ok


def test_adjoint_modulus_commutation():
    rng = np.random.default_rng(40)
    sp = AtomicMeasureSpace(np.array([1.0, 2.0, 0.7]))
    k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert adjoint_modulus_commutation(KernelOperator(k, sp))


def test_adjoint_rejects_composition():
    sp = unit_space(2)
    T = CompositionOperator(np.array([1, 0]), np.ones(2), sp)
    with pytest.raises(InputError):
        adjoint(T)


# --------------------------------------------------------------- signed shift


def test_signed_shift_phi_pattern():
    # breakpoints (1, 5): sign flips on cells [0,1) and [4,5)
    T = signed_shift_operator([1, 5], grid=1, window=6)
    assert np.allclose(T.multiplier[:5].real, [-1, 1, 1, 1, -1])
    # last atom absorbs (shift would leave the window)
    assert T.multiplier[5] == 0
    assert T.point_map[5] == 5
    assert np.all(T.point_map[:5] == np.arange(1, 6))


def test_signed_shift_is_ds_and_unit_cells():
    T = signed_shift_operator([1, 5, 17], grid=10, window=17)
    assert ds_certificate(T).ds_ok
    assert np.all(np.isin(T.multiplier.real, [-1.0, 0.0, 1.0]))
    assert T.space.truncated
    assert T.space.n_atoms == 170
    assert T.space.weights[0] == pytest.approx(0.1)


def test_signed_shift_once_reproduces_phi_on_ones():
    T = signed_shift_operator([1, 5], grid=1, window=6)
    f = MeasurableFunction.ones(T.space)
    out = apply(T, f)
    assert np.allclose(out.values[:5].real, [-1, 1, 1, 1, -1])


def signed_shift_cases():
    rng = np.random.default_rng(47)
    for grid in range(1, 8):
        for _ in range(6):
            window = int(rng.integers(1, 30))
            k = int(rng.integers(1, window + 1))
            bps = sorted(rng.choice(window, k, replace=False) + 1)
            yield bps, grid, window
        # a breakpoint on the last cell: the absorbed atoms keep 0, in place
        yield [1, 3], grid, 3
        yield [3], grid, 3
        yield [1], grid, 1


def test_signed_shift_matches_the_atom_by_atom_reference():
    for bps, grid, window in signed_shift_cases():
        T = signed_shift_operator(bps, grid, window)
        point_map, multiplier = signed_shift_reference(bps, grid, window)
        assert T.multiplier.dtype == np.int8
        assert T.point_map.dtype == np.intp
        assert T.point_map.tolist() == point_map, (bps, grid, window)
        assert T.multiplier.tolist() == multiplier, (bps, grid, window)
        last = slice(window * grid - grid, None)
        assert np.all(T.multiplier[last] == 0)
        assert np.array_equal(T.point_map[last], np.arange(window * grid)[last])


@pytest.mark.parametrize("bad", [2, -2, 127, -128])
def test_composition_checks_the_range_of_int8_signs(bad):
    # |-128| is -128 in int8, so the range must be read from the values
    mult = np.array([1, -1, bad, 0], dtype=np.int8)
    with pytest.raises(InputError, match="multiplier magnitudes must stay within 1"):
        CompositionOperator([1, 2, 3, 0], mult, unit_space(4))
    ok = np.array([1, -1, 0, 1], dtype=np.int8)
    assert CompositionOperator([1, 2, 3, 0], ok, unit_space(4)).multiplier is ok


@pytest.mark.parametrize("blocks, message", [
    ([(np.ones((2, 3)), None)], "kernel must be 3x3 for this space"),
    ([(np.ones((3, 4)), None)], "kernel must be 3x3 for this space"),
    ([(np.ones((2, 3)), None), (np.ones((2, 3)), None)],
     "kernel must be 3x3 for this space"),
    ([(np.ones((3, 3)), np.ones((3, 2)))], "kernel: im must have the shape of re"),
    ([(np.ones(3), None)], "kernel must be 3x3 for this space"),
    ([], "kernel must be 3x3 for this space"),
], ids=["two-rows", "four-columns", "four-rows", "im-shape", "1-d", "no-block"])
def test_row_blocks_must_form_the_kernel(blocks, message):
    with pytest.raises(InputError) as err:
        KernelOperator.from_row_blocks(blocks, unit_space(3))
    assert str(err.value) == message


def test_signed_shift_validation():
    with pytest.raises(InputError):
        signed_shift_operator([], grid=1, window=5)
    with pytest.raises(InputError):
        signed_shift_operator([0, 2], grid=1, window=5)
    with pytest.raises(InputError):
        signed_shift_operator([2, 2], grid=1, window=5)
    with pytest.raises(InputError):
        signed_shift_operator([1, 5], grid=1, window=4)
    with pytest.raises(InputError):
        signed_shift_operator([1, 5], grid=0, window=6)
