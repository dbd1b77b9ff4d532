"""Cesaro averages of the signed shift along the probe atoms' orbits.

The verification lane of `divergence.verify_certificate`. Probe atom p of
the window x grid space visits atom p + k * grid at step k, so term k of
its average is the profile at that atom's midpoint times the signs of the
unit cells before k. The signs are read from one int8 per unit cell, never
from the direct formula's parity rule, and nothing is held over the window
x grid atoms: the n terms are summed in blocks of B ~ sqrt(n), in O(sqrt n)
Python steps holding a few (n / B) x probes float64 arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .spaces import Rearrangement, _finite


def _cell_signs(breakpoints, cells: int) -> np.ndarray:
    """The signed shift as `cells` int8 signs, one per unit cell: -1 on cell
    n - 1 for each breakpoint n, 0 from the last one's cell on (absorbing)."""
    signs = np.ones(cells, dtype=np.int8)
    signs[np.asarray(breakpoints) - 1] = -1
    signs[breakpoints[-1] - 1 :] = 0
    return signs


def _block_starts(own: np.ndarray) -> np.ndarray:
    """Each block's starting sign: the product of the blocks' own sign
    products `own` before it."""
    starts = np.ones_like(own)
    np.cumprod(own[:-1], out=starts[1:])
    return starts


def _add(hi, lo, x, excess):
    """hi + x by TwoSum, its rounding error and x's excess into lo."""
    s = hi + x
    bb = s - hi
    return s, lo + (((hi - (s - bb)) + (x - bb)) - excess)


def shift_averages(rearr: Rearrangement, bps, grid: int, probes) -> np.ndarray:
    """a_n at each breakpoint n (rows) and probe atom p (columns), complex128.

    Term k is mu at atom p + k * grid times the `_cell_signs` of the cells
    before k. The terms come in J blocks of B ~ sqrt(n): each baby step
    adds one term to every block of every probe with Kahan compensation,
    and keeps the partial sums that checkpoints end on. `_block_starts`
    signs the blocks, `_add` carries the total across them, and the total
    divided by the int n as complex128 is the average, as `averaging`
    forms it. A power of two scales the terms so that no block sum, at most
    B mu(0), overflows; it changes no bit.
    """
    n = bps[-1]
    B = math.isqrt(n - 1) + 1  # B * B >= n
    J = -(-n // B)
    cells = _cell_signs(bps, J * B).reshape(J, B)
    h = 1.0 / grid
    top = math.frexp(float(rearr.values_at(0.0)))[1] + B.bit_length()
    scale = math.ldexp(1.0, -max(0, top - 1022))
    # the atoms of every block's current term, from step j * B of block j
    atoms = np.arange(J, dtype=np.int64)[:, None] * (B * grid) + np.array(
        probes, dtype=np.int64
    )
    own = np.ones(J, dtype=np.int8)  # each block's sign product so far
    total, comp = np.zeros(atoms.shape), np.zeros(atoms.shape)
    ends = {}  # baby step -> the checkpoints whose last term it adds
    for c in bps:
        ends.setdefault((c - 1) % B, []).append(c)
    # checkpoint -> its block's partial sum and excess, copied so that the
    # step's (J, probes) arrays can go
    kept = {}
    for b in range(B):
        y = own[:, None] * (rearr.values_at((atoms + 0.5) * h) * scale) - comp
        t = total + y
        total, comp = t, (t - total) - y
        for c in ends.get(b, ()):
            kept[c] = total[(c - 1) // B].copy(), comp[(c - 1) // B].copy()
        own *= cells[:, b]
        atoms += grid

    starts = _block_starts(own)
    rows = np.empty((len(bps), atoms.shape[1]), dtype=complex)
    run, low, done = 0.0, 0.0, 0  # the signed whole blocks summed so far
    for i, c in enumerate(bps):
        j = (c - 1) // B
        for d in range(done, j):
            run, low = _add(run, low, starts[d] * total[d], starts[d] * comp[d])
        done = j
        part, excess = kept[c]
        sums, rest = _add(run, low, starts[j] * part, starts[j] * excess)
        sums = _finite((sums + rest) / scale, f"average at checkpoint {c}")
        rows[i] = sums.astype(complex) / c
    return rows
