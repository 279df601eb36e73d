"""The stencils as sparse matrices: the oracle the row kernels are held to.

`d1_matrix` and `d2_matrix` build the first- and second-difference
matrices on n equispaced nodes, and `csr_along_axis` applies one along an
axis of an nd-array as a CSR product.  The package's kernels in
`hjblab.stencils` must return these products bit for bit.

Boundary closures:
  "periodic"  wrap-around centered rows,
  "onesided"  second-order one-sided end rows (first derivative only),
  "mirror"    even reflection across the boundary node (ghost u[-1]=u[1]).
"""

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from hjblab.stencils import d1_scale, d2_scale


@lru_cache(maxsize=None)
def d1_matrix(n: int, h: float, bc: str) -> sp.csr_matrix:
    """Second-order first-derivative matrix on n equispaced nodes."""
    if bc not in ("periodic", "onesided", "mirror"):
        raise ValueError(f"unknown boundary closure {bc!r}")
    rows, cols, vals = [], [], []
    inv2h = d1_scale(h)
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        vals += [-inv2h, inv2h]
    if bc == "periodic":
        rows += [0, 0, n - 1, n - 1]
        cols += [n - 1, 1, n - 2, 0]
        vals += [-inv2h, inv2h, -inv2h, inv2h]
    elif bc == "onesided":
        # (-3 u0 + 4 u1 - u2) / 2h, exact on quadratics
        rows += [0, 0, 0]
        cols += [0, 1, 2]
        vals += [-3.0 * inv2h, 4.0 * inv2h, -inv2h]
        rows += [n - 1, n - 1, n - 1]
        cols += [n - 1, n - 2, n - 3]
        vals += [3.0 * inv2h, -4.0 * inv2h, inv2h]
    # mirror: ghost u[-1] = u[1] makes the centered derivative vanish
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    return mat


@lru_cache(maxsize=None)
def d2_matrix(n: int, h: float, bc: str) -> sp.csr_matrix:
    """Narrow (three-point) second-derivative matrix."""
    if bc not in ("periodic", "mirror"):
        raise ValueError("narrow second derivative supports periodic or mirror closures")
    invh2 = d2_scale(h)
    rows, cols, vals = [], [], []
    for i in range(1, n - 1):
        rows += [i, i, i]
        cols += [i - 1, i, i + 1]
        vals += [invh2, -2.0 * invh2, invh2]
    if bc == "periodic":
        rows += [0, 0, 0, n - 1, n - 1, n - 1]
        cols += [n - 1, 0, 1, n - 2, n - 1, 0]
        vals += [invh2, -2.0 * invh2, invh2, invh2, -2.0 * invh2, invh2]
    else:  # mirror ghost: row (2 u1 - 2 u0)/h^2
        rows += [0, 0, n - 1, n - 1]
        cols += [0, 1, n - 1, n - 2]
        vals += [-2.0 * invh2, 2.0 * invh2, -2.0 * invh2, 2.0 * invh2]
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    return mat


def csr_along_axis(mat: sp.spmatrix, arr: np.ndarray, axis: int) -> np.ndarray:
    """The CSR product of an (n, n) matrix along one axis of an nd-array."""
    moved = np.moveaxis(np.asarray(arr), axis, 0)
    out = (mat @ moved.reshape(moved.shape[0], -1)).reshape(moved.shape)
    return np.moveaxis(out, 0, axis)
