"""Nodal fields and metric-aware discrete calculus.

Derivative conventions.  First derivatives are second-order centered
stencils (one-sided second-order rows on non-periodic axes); pure second
derivatives are compositions of two first-derivative applications.  The
composition choice is what makes three structural identities hold to
round-off rather than to O(h^2):

  * laplacian == metric trace of the Hessian, node-wise and bit for bit:
    `laplace_beltrami` builds only the diagonal entries, in the operation
    order `hessian` uses for them, so the off-diagonal second partials are
    never formed to take a Laplacian; callers that need both operators of
    one field take the trace of the Hessian they already hold
    (`_metric_trace`),
  * divergence == negative adjoint of the gradient under the quadrature
    inner product on tori (summation by parts), and div(grad u) == lap u
    on flat tori,
  * the L^2 tensor norm of the Hessian equals the L^2 norm of the
    laplacian on flat tori (discrete Calderon-Zygmund ratio exactly 1).

Vector fields store contravariant components; symmetric 2-tensor fields
store covariant components.  Pointwise norms insert the conformal factors
that orthonormal frames would (e^phi per contravariant slot, e^{-phi} per
covariant slot).

Boundary closures here never assume a boundary condition; solvers impose
Neumann conditions through their own mirrored operators.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import Grid


# ---------------------------------------------------------------------------
# field containers


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("scalar values must match the grid shape")

    @staticmethod
    def from_function(grid: Grid, fn) -> "ScalarField":
        """Evaluate fn on the lattice mesh (cartesian axes, or (r, theta))."""
        return ScalarField(grid, np.asarray(fn(*grid.mesh()), dtype=float))

    @staticmethod
    def zero(grid: Grid) -> "ScalarField":
        return ScalarField(grid, np.zeros(grid.shape))


@dataclass
class VectorField:
    """Contravariant components, shape (naxes, *grid.shape)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        naxes = len(self.grid.shape)
        if self.values.shape != (naxes,) + self.grid.shape:
            raise ValueError("vector values must have shape (naxes, *grid.shape)")

    @staticmethod
    def zero(grid: Grid) -> "VectorField":
        return VectorField(grid, np.zeros((len(grid.shape),) + grid.shape))


@dataclass
class SymTensorField:
    """Covariant symmetric 2-tensor, shape (d, d, *grid.shape).

    Values that are symmetric to round-off (within 1e-10 of the largest
    entry) are stored as the average of the tensor and its transpose;
    anything further from symmetric is rejected.  Values equal to their
    transpose, such as every flat-grid `hessian`, are stored as given:
    averaging them would return the same numbers, 0.5 * (x + x) == x.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        d = len(self.grid.shape)
        if self.values.shape != (d, d) + self.grid.shape:
            raise ValueError("tensor values must have shape (d, d, *grid.shape)")
        swapped = np.swapaxes(self.values, 0, 1)
        if np.array_equal(self.values, swapped):
            return
        if not np.allclose(self.values, swapped, rtol=0.0, atol=1e-10 * (1.0 + np.max(np.abs(self.values)))):
            raise ValueError("tensor is not symmetric")
        self.values = 0.5 * (self.values + swapped)


@dataclass(frozen=True)
class NormReport:
    """One quadrature norm evaluation with the family and exponent that produced it."""

    exponent: float
    value: float
    resolution: tuple
    metric_kind: str
    field_kind: str = "scalar"


# ---------------------------------------------------------------------------
# differential operators


def gradient(u: ScalarField) -> VectorField:
    """Metric gradient; contravariant components e^{-2 phi} du_i.

    On the polar disc the components are (d_r u, r^{-2} d_theta u).
    """
    g = u.grid
    parts = np.stack([g.partial(u.values, a) for a in range(len(g.shape))])
    if g.coord_system == "polar":
        r = g.axes[0][:, None]
        parts[1] = parts[1] / r**2
        return VectorField(g, parts)
    if not g.is_flat:
        parts = parts * g.conformal_factor(-2.0)
    return VectorField(g, parts)


def hessian(u: ScalarField) -> SymTensorField:
    """Covariant metric Hessian.

    Conformal correction: Hess_g u = Hess u - dphi x du - du x dphi
    + <dphi, du> id, all in lattice components.
    """
    g = u.grid
    if g.coord_system == "polar":
        raise NotImplementedError("hessian on the polar disc is not supported")
    d = g.dim
    du = np.stack([g.partial(u.values, a) for a in range(d)])
    out = np.empty((d, d) + g.shape)
    for a in range(d):
        for b in range(a, d):
            out[a, b] = g.partial(du[a], b)
            out[b, a] = out[a, b]
    if not g.is_flat:
        dphi = g.phi_gradient()
        inner = np.sum(dphi * du, axis=0)
        out = out - np.einsum("i...,j...->ij...", dphi, du) - np.einsum(
            "i...,j...->ij...", du, dphi
        )
        for a in range(d):
            out[a, a] += inner
    return SymTensorField(g, out)


def laplace_beltrami(u: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator: the metric trace of `hessian(u)`.

    Only the diagonal second partials d_a(d_a u) are formed.  On conformal
    grids each one takes the diagonal of the Hessian's correction,
    -2 d_a phi d_a u + <dphi, du>, in the order `hessian` applies it, so the
    result equals `_metric_trace(hessian(u))` bit for bit.
    """
    g = u.grid
    if g.coord_system == "polar":
        raise NotImplementedError("laplace_beltrami on the polar disc is not supported")
    tr = np.zeros(g.shape)
    if g.is_flat:
        for a in range(g.dim):
            tr += g.partial(g.partial(u.values, a), a)
        return ScalarField(g, tr)
    du = np.stack([g.partial(u.values, a) for a in range(g.dim)])
    dphi = g.phi_gradient()
    inner = np.sum(dphi * du, axis=0)
    for a in range(g.dim):
        tr += g.partial(du[a], a) - dphi[a] * du[a] - du[a] * dphi[a] + inner
    return ScalarField(g, tr * g.conformal_factor(-2.0))


def _metric_trace(H: SymTensorField) -> ScalarField:
    """Metric trace of a covariant 2-tensor; of a Hessian, the Laplacian."""
    g = H.grid
    tr = np.zeros(g.shape)
    for a in range(g.dim):
        tr += H.values[a, a]
    if not g.is_flat:
        tr = tr * g.conformal_factor(-2.0)
    return ScalarField(g, tr)


def divergence(X: VectorField) -> ScalarField:
    """Metric divergence e^{-d phi} d_i (e^{d phi} X^i).

    With centered periodic stencils this operator is exactly the negative
    adjoint of `gradient` under the quadrature inner product; on boxes the
    defect is the discrete boundary flux.
    """
    g = X.grid
    if g.coord_system == "polar":
        raise NotImplementedError("divergence on the polar disc is not supported")
    if g.is_flat:
        out = np.zeros(g.shape)
        for a in range(g.dim):
            out += g.partial(X.values[a], a)
        return ScalarField(g, out)
    wfac = g.conformal_factor(float(g.dim))
    out = np.zeros(g.shape)
    for a in range(g.dim):
        out += g.partial(wfac * X.values[a], a)
    return ScalarField(g, out * g.conformal_factor(-float(g.dim)))


def normal_derivative(u: ScalarField) -> np.ndarray:
    """du(nu) on boundary nodes (zero elsewhere); nu is the outward g-unit
    normal, derivatives one-sided."""
    g = u.grid
    out = np.zeros(g.shape)
    for a in range(len(g.shape)):
        comp = g.normals[a]
        if np.any(comp != 0.0):
            out += g.partial(u.values, a) * comp
    out[~g.boundary_mask] = 0.0
    return out


# ---------------------------------------------------------------------------
# norms


def pointwise_norm(field) -> np.ndarray:
    """Frame norm of a field at every node."""
    g = field.grid
    if isinstance(field, ScalarField):
        return np.abs(field.values)
    if isinstance(field, VectorField):
        if g.coord_system == "polar":
            r = g.axes[0][:, None]
            return np.sqrt(field.values[0] ** 2 + (r * field.values[1]) ** 2)
        sq = np.sum(field.values**2, axis=0)
        if g.is_flat:
            return np.sqrt(sq)
        return g.conformal_factor(1.0) * np.sqrt(sq)
    if isinstance(field, SymTensorField):
        sq = np.sqrt(np.sum(field.values**2, axis=(0, 1)))
        if g.is_flat:
            return sq
        return g.conformal_factor(-2.0) * sq
    raise TypeError(f"unsupported field type {type(field)!r}")


def lq_norm(field, q: float) -> NormReport:
    """Quadrature L^q norm, q in [1, inf]."""
    if q != np.inf and q < 1:
        raise ValueError("norm exponent must be >= 1 (or inf)")
    g = field.grid
    mag = pointwise_norm(field)
    if q == np.inf:
        value = float(np.max(mag))
    else:
        value = float(np.sum(g.weights * mag**q) ** (1.0 / q))
    kind = {ScalarField: "scalar", VectorField: "vector", SymTensorField: "tensor"}[
        type(field)
    ]
    return NormReport(
        exponent=float(q),
        value=value,
        resolution=g.shape,
        metric_kind=g.metric.kind,
        field_kind=kind,
    )


# ---------------------------------------------------------------------------
# dumps

_MAGIC = b"FLD1"
_KIND_CODE = {"scalar": 0, "vector": 1, "tensor": 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def dump_field_csv(field, path: str) -> None:
    """Node table: index, cartesian coordinates, value components."""
    g = field.grid
    coords = g.cartesian_coords()
    ncoord = coords.shape[0]
    flat_coords = coords.reshape(ncoord, -1)
    vals = field.values
    if isinstance(field, ScalarField):
        comps = vals.reshape(1, -1)
        headers = ["value"]
    elif isinstance(field, VectorField):
        comps = vals.reshape(vals.shape[0], -1)
        headers = [f"v{i+1}" for i in range(vals.shape[0])]
    else:
        d = vals.shape[0]
        pairs = [(a, b) for a in range(d) for b in range(a, d)]
        comps = np.stack([vals[a, b].reshape(-1) for a, b in pairs])
        headers = [f"t{a+1}{b+1}" for a, b in pairs]
    import csv as _csv

    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["node"] + [f"x{i+1}" for i in range(ncoord)] + headers)
        for i in range(comps.shape[1]):
            w.writerow(
                [i]
                + [repr(float(flat_coords[c, i])) for c in range(ncoord)]
                + [repr(float(comps[c, i])) for c in range(comps.shape[0])]
            )


def dump_field_binary(field, path: str) -> None:
    """16-byte header (magic, kind, rank, ncomp, shape) + float64 payload."""
    g = field.grid
    if isinstance(field, ScalarField):
        kind, ncomp = "scalar", 1
    elif isinstance(field, VectorField):
        kind, ncomp = "vector", field.values.shape[0]
    else:
        kind, ncomp = "tensor", field.values.shape[0] * field.values.shape[1]
    shape4 = list(g.shape) + [0] * (4 - len(g.shape))
    header = struct.pack(
        "<4sBBH4H", _MAGIC, _KIND_CODE[kind], len(g.shape), ncomp, *shape4
    )
    assert len(header) == 16
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field_binary(path: str, grid: Grid):
    with open(path, "rb") as fh:
        header = fh.read(16)
        magic, code, rank, ncomp, *shape4 = struct.unpack("<4sBBH4H", header)
        if magic != _MAGIC:
            raise ValueError("not a field dump")
        shape = tuple(s for s in shape4[:rank])
        if shape != grid.shape:
            raise ValueError("dump shape does not match the grid")
        data = np.frombuffer(fh.read(), dtype="<f8").astype(float)
    kind = _CODE_KIND[code]
    if kind == "scalar":
        return ScalarField(grid, data.reshape(shape))
    if kind == "vector":
        return VectorField(grid, data.reshape((ncomp,) + shape))
    d = len(shape)
    return SymTensorField(grid, data.reshape((d, d) + shape))
