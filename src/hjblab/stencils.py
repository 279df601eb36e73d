"""One-dimensional finite-difference stencils shared by every module.

These row kernels are the package's only stencil code.  Each applies a
three-point stencil along one axis of an nd-array with shifted-slice
arithmetic on a flat view, with no axis moves.  `d1_rows`, `d1t_rows` and
`d2_rows` write D x, D^T x and D2 x into a given array from a scaled copy
of x and allocate nothing; the solver applies its operators through them.
`apply_along_axis` is the analysis calculus' first derivative (`fields`
reaches it through `Grid.partial`): it allocates its result and one
scaled copy of the input.

Every row sums its terms in the order of a CSR matrix-vector product,
0 plus the row's terms by ascending column, so each kernel returns that
product bit for bit.  The one exception is the sign of a zero that only a
-0.0 in x can produce.  `tests/csr_oracle.py` builds the matrices, and the
tests hold the kernels to them.

Boundary closures:
  periodic  wrap-around centered rows (every kernel);
  one-sided second-order rows at the two ends, exact on quadratics, with
            no boundary condition assumed (`apply_along_axis` on
            non-periodic axes, for generic fields);
  mirror    even reflection across the boundary node (ghost u[-1]=u[1]),
            which encodes a homogeneous Neumann condition: the centered
            first derivative's end rows are empty and the second
            difference's are 2 (u1 - u0)/h^2 (the row kernels on
            non-periodic axes, for the solver).
"""

from __future__ import annotations

import math

import numpy as np


def d1_scale(h: float) -> float:
    """The entry s = 1/(2h) of the first-derivative rows."""
    return 1.0 / (2.0 * h)


def d2_scale(h: float) -> float:
    """The entry a = 1/h^2 of the second-derivative rows."""
    return 1.0 / (h * h)


def apply_along_axis(values: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """Second-order first derivative of `values` along `axis`, nodes h apart:
    centered rows, periodic or with the one-sided end rows.

    The one-sided rows are (-3s, 4s, -s) at columns 0, 1, 2 and
    (s, -4s, 3s) at columns n - 3, n - 2, n - 1, s = d1_scale(h); each
    product is taken from the unscaled x with the row's coefficient, as
    the CSR product takes it."""
    x = np.asarray(values)
    if x.shape[axis] < 3:
        raise ValueError("need at least 3 nodes per axis")
    s = d1_scale(h)
    sx = np.empty(x.shape)
    np.multiply(x, s, out=sx)
    out = d1_rows(sx, axis, periodic, np.empty(x.shape))
    if not periodic:
        first, last = out[_at(axis, 0)], out[_at(axis, -1)]
        np.multiply(x[_at(axis, 0)], -3.0 * s, out=first)
        first += (4.0 * s) * x[_at(axis, 1)]
        first += -s * x[_at(axis, 2)]
        np.multiply(x[_at(axis, -3)], s, out=last)
        last += (-4.0 * s) * x[_at(axis, -2)]
        last += (3.0 * s) * x[_at(axis, -1)]
    return out


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
    """out = D x along `axis` for the centered first difference D with the
    periodic or mirror closure, given sx = s x, s = d1_scale(h).

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
    """out = D^T y along `axis` for the centered first difference D with the
    periodic or mirror closure, given sy = s y, s = d1_scale(h).

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
    """out = D2 x along `axis` for the three-point second difference D2 with
    the periodic or mirror closure, given ax = a x, a = d2_scale(h).

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
