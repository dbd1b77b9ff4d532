"""Real functions held as float64: every lane, norm and return-time average
reads one with the bits of the complex function with imaginary part +0.0."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ergosym import (
    AtomicMeasureSpace,
    CompositionOperator,
    KernelOperator,
    LorentzWeight,
    MeasurableFunction,
    OrliczFunction,
    PointSystem,
    TrigPolynomial,
    TrigTerm,
    WeightSequence,
    cesaro,
    geometric_checkpoints,
    lorentz_norm,
    luxemburg_norm,
    majorization_trace,
    majorizes,
    norm,
    pairing,
    product_average,
    rearrangement,
    weighted,
    wiener_wintner_sweep,
)
from ergosym import averaging
from ergosym.formats import function_from_json
from ergosym.rng import SplitMix64

# two blocks and a tail of `_shifted`'s gather into a complex vector
N = 2 * averaging._BLOCK + 37
KERNEL_N = 160
PROBES = (0, 5, 17)
DENSE_CPS = (1, 2, 3, 5, 8, 13, 40, 41, 64, 200, 333)


def real_values(rng, n):
    """Values with both zeros, ties and negatives, so that the signs of
    zero products differ between a real and a complex product."""
    v = rng.choice([-1.5, -0.0, 0.0, 0.25, -2.0, 3.0], n)
    wild = rng.random(n) < 0.5
    v[wild] = rng.normal(size=int(wild.sum()))
    return v


def twins(v, space):
    """The same values as a float64 and as a complex128 function."""
    f, g = MeasurableFunction(v, space), MeasurableFunction(v.astype(complex), space)
    assert f.values.dtype == np.float64 and g.values.dtype == np.complex128
    return f, g


def operator(kind, rng):
    if kind == "kernel-real" or kind == "kernel-complex":
        n = KERNEL_N
        # rows of 0-3 entries and one of 40, whose tail is a width-1 run
        counts = rng.integers(0, 4, n)
        counts[7] = 40
        rows = np.repeat(np.arange(n), counts)
        cols = np.concatenate([np.sort(rng.permutation(n)[:c]) for c in counts])
        data = rng.uniform(-1, 1, rows.size) / 40
        if kind == "kernel-complex":
            data = data + 1j * rng.uniform(-1, 1, rows.size) / 40
        space = AtomicMeasureSpace.uniform(n)
        return KernelOperator.from_triplets(rows, cols, data, space)
    space = AtomicMeasureSpace.uniform(N)
    perm = rng.permutation(N)
    if kind == "signs":  # int8: T^c f is built from the pair of T^c
        mult = rng.choice([-1.0, 0.0, 1.0], N)
    elif kind == "float":
        mult = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], N)
    elif kind == "complex":
        mult = rng.uniform(-0.6, 0.6, N) + 1j * rng.uniform(-0.6, 0.6, N)
    else:  # the default multiplier: one broadcast 1.0
        mult = np.broadcast_to(1.0, (N,))
    return CompositionOperator(perm, mult, space)


def weight(kind, rng):
    if kind is None:
        return None
    if kind == "lambda":
        return WeightSequence.lambda_power(complex(0.6, 0.8))
    if kind == "lambda-real":
        return WeightSequence.lambda_power(-1.0)
    if kind == "periodic":
        return WeightSequence.periodic([1.0, -0.5 + 0.5j, 0.25])
    if kind == "periodic-real":
        return WeightSequence.periodic([1.0, -1.0])
    if kind == "explicit":
        return WeightSequence.explicit(rng.uniform(-1, 1, 400))
    return WeightSequence.trig_poly(TrigPolynomial((
        TrigTerm.from_phase(0.5, Fraction(1, 3)),
        TrigTerm(0.25 - 0.5j, 1j),
    )))


def report_bytes(rep):
    """Every field of an averaging report, as bytes or a repr."""
    assert rep.probe_values.dtype == np.complex128
    out = [rep.checkpoints, rep.probes, rep.probe_values.tobytes(), rep.majorized,
           repr(rep.weight_bound)]
    out += [None if a is None else a.tobytes() for a in (rep.l1_norms, rep.linf_norms)]
    if rep.averages is not None:
        assert all(a.values.dtype == np.complex128 for a in rep.averages)
        out += [a.values.tobytes() for a in rep.averages]
    return out


# composition operators: the probe lane (probes only), the lifted lane
# (doubling on a geometric list, `_segment` on a dense one, and the periodic
# steps) and the Kahan lane (explicit weights); kernels: their Kahan lane
OPERATORS = ("signs", "float", "complex", "broadcast", "kernel-real", "kernel-complex")
WEIGHTS = (None, "lambda", "lambda-real", "periodic", "periodic-real", "explicit",
           "trig")


@pytest.mark.parametrize("full", [True, False], ids=["full", "probes"])
@pytest.mark.parametrize("geometric", [True, False], ids=["geometric", "dense"])
@pytest.mark.parametrize("w", WEIGHTS)
@pytest.mark.parametrize("op", OPERATORS)
def test_every_lane_reads_a_real_function_with_complex_bits(op, w, geometric, full):
    rng = np.random.default_rng([OPERATORS.index(op), WEIGHTS.index(w)])
    T, beta = operator(op, rng), weight(w, rng)
    f, g = twins(real_values(rng, T.space.n_atoms), T.space)
    cps = geometric_checkpoints(333) if geometric else DENSE_CPS
    kw = dict(probes=PROBES, store_averages=full, norms=full, majorize=full)
    if beta is None:
        a, b = cesaro(T, f, cps, **kw), cesaro(T, g, cps, **kw)
    else:
        a, b = weighted(T, f, beta, cps, **kw), weighted(T, g, beta, cps, **kw)
    assert report_bytes(a) == report_bytes(b)
    if full:
        assert majorization_trace(a, f) == majorization_trace(b, g) == a.majorized


@pytest.mark.parametrize("second", ["complex", "real", "negative"])
def test_product_average_reads_a_real_function_with_complex_bits(second):
    rng = np.random.default_rng(7)
    sa, sb = PointSystem.cyclic(64, 3), PointSystem.cyclic(24, 5)
    f, fc = twins(real_values(rng, 64), sa.space)
    if second == "complex":
        g = gc = MeasurableFunction(rng.normal(size=24) + 1j * rng.normal(size=24),
                                    sb.space)
    else:  # two negative factors: each complex product has imaginary part -0.0
        v = -rng.uniform(0.5, 2, 24) if second == "negative" else real_values(rng, 24)
        g, gc = twins(v, sb.space)
    cps = (1, 2, 50, 192, 1000, 5000)
    probes = ((0, 1), (3, 7))
    a = product_average(sa, f, sb, g, probes, cps)
    b = product_average(sa, fc, sb, gc, probes, cps)
    assert a.averages.tobytes() == b.averages.tobytes()


def test_sweep_reads_a_real_function_with_complex_bits():
    rng = np.random.default_rng(8)
    system = PointSystem.cyclic(64, 5)
    f, g = twins(real_values(rng, 64), system.space)
    cps = (1, 7, 64, 100, 1000)
    a = wiener_wintner_sweep(system, f, (0, 3), 16, cps)
    b = wiener_wintner_sweep(system, g, (0, 3), 16, cps)
    assert a.averages.tobytes() == b.averages.tobytes()


@pytest.mark.parametrize("weights", ["equal", "unequal"])
def test_norms_and_rearrangement_read_a_real_function_with_complex_bits(weights):
    rng = np.random.default_rng(9)
    n = 300
    w = np.full(n, 0.5) if weights == "equal" else rng.uniform(0.1, 2, n)
    space = AtomicMeasureSpace(w)
    f, g = twins(real_values(rng, n), space)
    ra, rb = rearrangement(f), rearrangement(g)
    assert ra.breakpoints.tobytes() == rb.breakpoints.tobytes()
    assert ra.plateaus.tobytes() == rb.plateaus.tobytes()
    for which in ("L1", "Linf", "L1plusLinf", "L1capLinf"):
        assert repr(norm(f, which)) == repr(norm(g, which))
    for p in (1.0, 2.5, 3.0):
        phi = OrliczFunction.power(p)
        assert repr(luxemburg_norm(f, phi)) == repr(luxemburg_norm(g, phi))
    for lw in (LorentzWeight.linear(), LorentzWeight.capped(2.5)):
        assert repr(lorentz_norm(f, lw)) == repr(lorentz_norm(g, lw))
    other, other_c = twins(real_values(rng, n) * 0.5, space)
    assert majorizes(f, other) == majorizes(g, other)
    assert majorizes(other, f) == majorizes(other, g)
    assert repr(pairing(f, other)) == repr(pairing(g, other_c))
    assert repr(pairing(other, f)) == repr(pairing(other_c, g))


def test_real_inputs_are_held_as_float64():
    sp = AtomicMeasureSpace.uniform(3)
    for values in ([True, False, True], [1, -2, 3], np.array([1, 2, 3], np.uint8),
                   np.array([0.5, -0.0, 2.0], np.float32)):
        f = MeasurableFunction(values, sp)
        assert f.values.dtype == np.float64
        assert f.values.tobytes() == np.asarray(values, dtype=float).tobytes()
    assert MeasurableFunction([1, 2j, 3], sp).values.dtype == np.complex128
    for make in (MeasurableFunction.ones, MeasurableFunction.zeros):
        assert make(sp).values.dtype == np.float64


@pytest.mark.parametrize("spec, dtype", [
    ({"re": [1.5, -0.0, 2]}, float),
    ({"re": [1, 0, -3]}, float),
    ({"re": [1.5, -0.0, 2], "im": [0, 0, 0]}, complex),
    ({"ones": True}, float),
    ({"constant": -0.75}, float),
    ({"constant": {"re": -0.75}}, complex),
    ({"character": 1}, complex),
    ({"random": {"kind": "real"}}, float),
    ({"random": {"kind": "nonnegative", "scale": 2.0}}, float),
    ({"random": {"kind": "complex"}}, complex),
])
def test_real_sources_decode_to_float64(spec, dtype):
    # a real source's float64 values, cast to complex, have the bits the
    # complex decoding of the parent format gave: re + 0j turns -0.0 to +0.0
    sp = AtomicMeasureSpace.uniform(3)
    f = function_from_json(spec, sp, SplitMix64(5))
    assert f.values.dtype == dtype
    if "re" in spec:
        re = np.asarray(spec["re"], dtype=float)
        want = re + 1j * np.asarray(spec.get("im", 0.0), dtype=float)
        assert f.values.astype(complex).tobytes() == want.tobytes()


def test_a_real_vector_is_shifted_into_a_complex_one_without_a_copy():
    # gathered through the real part a block at a time: no N-long temporary
    n = 1 << 18
    rng = np.random.default_rng(10)
    v, s = rng.normal(size=n), rng.permutation(n)
    m = rng.choice([-1, 0, 1], n).astype(np.int8)
    out = np.empty(n, dtype=complex)
    tracemalloc.start()
    try:
        averaging._shifted((s, m), v, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block gathered and numpy's cast buffer for the int8 signs: far
    # below the 8 N bytes of a float64 N-vector
    assert peak < 4 * 8 * averaging._BLOCK < 8 * n, peak
    assert out.tobytes() == (v.astype(complex)[s] * m).tobytes()
    # into a new vector, of the product's dtype
    assert averaging._shifted((s, m), v).dtype == np.float64
    got = averaging._shifted((s, m), v, scale=1j)
    assert got.tobytes() == (v.astype(complex)[s] * m * 1j).tobytes()
