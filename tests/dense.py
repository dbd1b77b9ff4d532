"""Dense N x N view of a CSR kernel operator, for comparisons with the
dense oracles. Built from the stored arrays alone."""

import numpy as np


def dense(T) -> np.ndarray:
    """K with K[i, j] the stored entry of row i, column j, 0 elsewhere."""
    n = T.space.n_atoms
    k = np.zeros((n, n), dtype=complex)
    k[np.repeat(np.arange(n), np.diff(T.indptr)), T.indices] = T.data
    return k
