"""The full 2n x 2n real Hessian of the exhaustion as a numpy array, built
from `geometry.hessian_block`: the matrix whose eigenvalues and difference
quotients the tests compare with the per-block closed forms that dimn uses."""

import numpy as np

from cechcert.geometry import hessian_block


def real_hessian(z) -> np.ndarray:
    """Block diagonal, one 2x2 block 2/|z_j|^4 hessian_block(z_j) per coordinate."""
    n = z.n
    H = np.zeros((2 * n, 2 * n))
    for j in range(n):
        block = np.array(hessian_block(z.z(j)))  # DomainError on the axes
        H[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 2.0 / abs(z.z(j)) ** 4 * block
    return H
