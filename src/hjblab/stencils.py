"""One-dimensional finite-difference operators shared by every module.

All derivative machinery in the package reduces to sparse 1-D matrices
applied along one axis of an nd-array.  Keeping the matrices in one place
guarantees that e.g. the divergence built as an adjoint really is the
adjoint of the gradient, and that transposed applications are available
for free.

The solver's hot path applies the periodic and mirror matrices without
them: `d1_rows`, `d1t_rows` and `d2_rows` write D x, D^T x and D2 x into
a given array with shifted-slice arithmetic on a scaled copy of x, with
no axis moves and no field-sized temporaries.  Each forms every row in
the order of the CSR product of `d1_matrix`/`d2_matrix` (0 plus the row's
terms, by ascending column), so it returns the same numbers bit for bit.
The one exception is the sign of a zero that only a -0.0 in x can
produce.

Boundary closures:
  "periodic"  wrap-around centered stencils,
  "onesided"  second-order one-sided rows at the two ends (generic fields,
              no boundary condition assumed),
  "mirror"    even reflection across the boundary node (ghost u[-1]=u[1]),
              which encodes a homogeneous Neumann condition; the centered
              first derivative at the boundary node is then exactly zero.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

VALID_BC = ("periodic", "onesided", "mirror")


def d1_scale(h: float) -> float:
    """The entry s = 1/(2h) of the first-derivative rows."""
    return 1.0 / (2.0 * h)


def d2_scale(h: float) -> float:
    """The entry a = 1/h^2 of the second-derivative rows."""
    return 1.0 / (h * h)


@lru_cache(maxsize=None)
def d1_matrix(n: int, h: float, bc: str) -> sp.csr_matrix:
    """Second-order first-derivative matrix on n equispaced nodes."""
    if bc not in VALID_BC:
        raise ValueError(f"unknown boundary closure {bc!r}")
    if n < 3:
        raise ValueError("need at least 3 nodes per axis")
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


def apply_along_axis(mat: sp.spmatrix, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply a sparse (n,n) matrix along one axis of an nd-array."""
    arr = np.asarray(arr)
    moved = np.moveaxis(arr, axis, 0)
    lead = moved.shape[0]
    out = mat @ moved.reshape(lead, -1)
    out = out.reshape(moved.shape)
    return np.moveaxis(out, 0, axis)


def _at(axis: int, index) -> tuple:
    """The index that takes `index` along `axis` of an array."""
    return (slice(None),) * axis + (index,)


def _flat(arr: np.ndarray, axis: int):
    """arr as a flat view, and the distance k in it between neighbours along
    `axis`.  Shifting the flat view by k pairs every node with its
    neighbours along `axis` except at the axis' two ends, which each kernel
    overwrites after its flat pass."""
    if not arr.flags.c_contiguous:
        raise ValueError("the stencil kernels need C-contiguous arrays")
    return arr.reshape(-1), math.prod(arr.shape[axis + 1 :])


def d1_rows(sx: np.ndarray, axis: int, periodic: bool, out: np.ndarray) -> np.ndarray:
    """out = D x along `axis` for D = d1_matrix(n, h, bc) with the periodic or
    mirror closure, given sx = s x, s = d1_scale(h).

    Row i of D holds -s at i - 1 and s at i + 1, so its CSR product sums
    (-s x[i-1]) + s x[i+1], which is sx[i+1] - sx[i-1].  The mirror
    closure's end rows are empty."""
    xf, k = _flat(sx, axis)
    of, _ = _flat(out, axis)
    np.subtract(xf[2 * k :], xf[: -2 * k], out=of[k:-k])
    if periodic:
        np.subtract(sx[_at(axis, 1)], sx[_at(axis, -1)], out=out[_at(axis, 0)])
        np.subtract(sx[_at(axis, 0)], sx[_at(axis, -2)], out=out[_at(axis, -1)])
    else:
        out[_at(axis, 0)] = 0.0
        out[_at(axis, -1)] = 0.0
    return out


def d1t_rows(sy: np.ndarray, axis: int, periodic: bool, out: np.ndarray) -> np.ndarray:
    """out = D^T y along `axis` for D = d1_matrix(n, h, bc) with the periodic
    or mirror closure, given sy = s y, s = d1_scale(h).

    Row j of D^T holds s at j - 1 and -s at j + 1: sy[j-1] - sy[j+1].
    Under the mirror closure the empty end rows of D drop the first term
    from rows 0 and 1 and the second from rows n - 2 and n - 1, whose sums
    then start from 0 as the CSR product's do."""
    yf, k = _flat(sy, axis)
    of, _ = _flat(out, axis)
    np.subtract(yf[: -2 * k], yf[2 * k :], out=of[k:-k])
    if periodic:
        np.subtract(sy[_at(axis, -1)], sy[_at(axis, 1)], out=out[_at(axis, 0)])
        np.subtract(sy[_at(axis, -2)], sy[_at(axis, 0)], out=out[_at(axis, -1)])
        return out
    np.subtract(0.0, sy[_at(axis, 1)], out=out[_at(axis, 0)])
    np.add(0.0, sy[_at(axis, -2)], out=out[_at(axis, -1)])
    if sy.shape[axis] > 3:
        np.subtract(0.0, sy[_at(axis, 2)], out=out[_at(axis, 1)])
        np.add(0.0, sy[_at(axis, -3)], out=out[_at(axis, -2)])
    else:  # the middle column of a 3-node mirror D is empty
        out[_at(axis, 1)] = 0.0
    return out


def d2_rows(ax: np.ndarray, axis: int, periodic: bool, out: np.ndarray) -> np.ndarray:
    """out = D2 x along `axis` for D2 = d2_matrix(n, h, bc), given
    ax = a x, a = d2_scale(h).

    An interior row sums (a x[i-1] + (-2a) x[i]) + a x[i+1], and
    (-2a) x[i] is -2 ax[i] exactly.  The periodic end rows take their
    columns in ascending order, 0, 1, n - 1 and 0, n - 2, n - 1; the
    mirror end rows are 2 (ax[1] - ax[0]) and 2 (ax[n-2] - ax[n-1])."""
    xf, k = _flat(ax, axis)
    of, _ = _flat(out, axis)
    mid = of[k:-k]
    np.multiply(xf[k:-k], -2.0, out=mid)
    mid += xf[: -2 * k]
    mid += xf[2 * k :]
    first, last = out[_at(axis, 0)], out[_at(axis, -1)]
    if periodic:
        np.multiply(ax[_at(axis, 0)], -2.0, out=first)
        first += ax[_at(axis, 1)]
        first += ax[_at(axis, -1)]
        np.add(ax[_at(axis, 0)], ax[_at(axis, -2)], out=last)
        last += -2.0 * ax[_at(axis, -1)]
    else:
        np.subtract(ax[_at(axis, 1)], ax[_at(axis, 0)], out=first)
        first *= 2.0
        np.subtract(ax[_at(axis, -2)], ax[_at(axis, -1)], out=last)
        last *= 2.0
    return out
