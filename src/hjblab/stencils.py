"""One-dimensional finite-difference operators shared by every module.

All derivative machinery in the package reduces to sparse 1-D matrices
applied along one axis of an nd-array.  Keeping the matrices in one place
guarantees that e.g. the divergence built as an adjoint really is the
adjoint of the gradient, and that transposed applications are available
for free.

Boundary closures:
  "periodic"  wrap-around centered stencils,
  "onesided"  second-order one-sided rows at the two ends (generic fields,
              no boundary condition assumed),
  "mirror"    even reflection across the boundary node (ghost u[-1]=u[1]),
              which encodes a homogeneous Neumann condition; the centered
              first derivative at the boundary node is then exactly zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

VALID_BC = ("periodic", "onesided", "mirror")


@lru_cache(maxsize=None)
def d1_matrix(n: int, h: float, bc: str) -> sp.csr_matrix:
    """Second-order first-derivative matrix on n equispaced nodes."""
    if bc not in VALID_BC:
        raise ValueError(f"unknown boundary closure {bc!r}")
    if n < 3:
        raise ValueError("need at least 3 nodes per axis")
    rows, cols, vals = [], [], []
    inv2h = 1.0 / (2.0 * h)
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
    else:  # mirror: ghost u[-1] = u[1] makes the centered derivative vanish
        pass
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    return mat


@lru_cache(maxsize=None)
def d2_matrix(n: int, h: float, bc: str) -> sp.csr_matrix:
    """Narrow (three-point) second-derivative matrix.

    Used by the elliptic solvers; the analysis calculus in `fields`
    composes d1 with itself instead so that discrete integration by parts
    and the trace identity hold exactly.
    """
    if bc not in ("periodic", "mirror"):
        raise ValueError("narrow second derivative supports periodic or mirror closures")
    if n < 3:
        raise ValueError("need at least 3 nodes per axis")
    invh2 = 1.0 / (h * h)
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


def apply_along_axis(mat: sp.spmatrix, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply a sparse (n,n) matrix along one axis of an nd-array."""
    arr = np.asarray(arr)
    moved = np.moveaxis(arr, axis, 0)
    lead = moved.shape[0]
    out = mat @ moved.reshape(lead, -1)
    out = out.reshape(moved.shape)
    return np.moveaxis(out, 0, axis)
