"""Nodal fields and metric-aware discrete calculus.

Derivative conventions.  First derivatives are second-order centered
stencils (one-sided second-order rows on non-periodic axes), taken by
`Grid.partial` with the row kernel `stencils.apply_along_axis`; pure
second derivatives are compositions of two first-derivative
applications.  The composition choice is what makes two structural
identities hold to round-off rather than to O(h^2):

  * laplacian == metric trace of the Hessian, node-wise and bit for bit:
    `laplace_beltrami` builds only the diagonal entries, in the operation
    order `hessian` uses for them, so the off-diagonal second partials are
    never formed to take a Laplacian; callers that need both operators of
    one field take the trace of the Hessian they already hold
    (`_metric_trace`),
  * the L^2 tensor norm of the Hessian equals the L^2 norm of the
    laplacian on flat tori (discrete Calderon-Zygmund ratio exactly 1).

Memory.  The operators write each partial into its place in the result,
scale in place, and form sums over components one component at a time
(`_sum_of_products`, `_sum_of_squares`) in the order numpy reduces a
leading axis, so results equal the whole-array expressions bit for bit
while no squared or stacked copy of a field is held.

Vector fields store contravariant components; symmetric 2-tensor fields
store covariant components.  Pointwise norms insert the conformal factors
that orthonormal frames would (e^phi per contravariant slot, e^{-phi} per
covariant slot).

Boundary closures here never assume a boundary condition; solvers impose
Neumann conditions through their own mirrored operators.

Norms are plain floats (`lq_norm`).  Every CSV the package writes, a
field's node table (`dump_field_csv`) or a report's table, goes through
`write_csv`: LF line ends, and floats as repr, so they read back exactly.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# differential operators


def _partials(values: np.ndarray, g: Grid) -> np.ndarray:
    """(naxes, *shape) lattice partials of a nodal array, each written into
    its row of the result as it is formed."""
    out = np.empty((len(g.shape),) + g.shape)
    for a in range(len(g.shape)):
        out[a] = g.partial(values, a)
    return out


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.sum(x * y, axis=0) bit for bit, holding one product at a time.

    numpy reduces a leading axis by adding its slices in order to a sum
    that starts from 0; this does the same, component by component."""
    total = np.zeros(x.shape[1:])
    prod = np.empty(x.shape[1:])
    for xa, ya in zip(x, y):
        total += np.multiply(xa, ya, out=prod)
    return total


def _sum_of_squares(comps) -> np.ndarray:
    """The sum of the squares of the arrays in `comps`, added in order,
    holding one square at a time.

    For the components of a (d, ...) or (d, d, ...) array in C order this
    is np.sum(v**2, axis=0) or np.sum(v**2, axis=(0, 1)) bit for bit: numpy
    adds the squares in that order to 0, and 0 + s == s for a square s."""
    comps = iter(comps)
    total = np.square(next(comps))
    sq = np.empty_like(total)
    for c in comps:
        total += np.square(c, out=sq)
    return total


def gradient(u: ScalarField) -> VectorField:
    """Metric gradient; contravariant components e^{-2 phi} du_i.

    On the polar disc the components are (d_r u, r^{-2} d_theta u).
    """
    g = u.grid
    parts = _partials(u.values, g)
    if g.coord_system == "polar":
        r = g.axes[0][:, None]
        parts[1] = parts[1] / r**2
        return VectorField(g, parts)
    if not g.is_flat:
        parts *= g.conformal_factor(-2.0)
    return VectorField(g, parts)


def hessian(u: ScalarField) -> SymTensorField:
    """Covariant metric Hessian.

    Conformal correction: Hess_g u = Hess u - dphi x du - du x dphi
    + <dphi, du> id, all in lattice components.  Each entry with a <= b is
    formed once, corrected in place and mirrored, so the result is
    symmetric bit for bit.
    """
    g = u.grid
    if g.coord_system == "polar":
        raise NotImplementedError("hessian on the polar disc is not supported")
    d = g.dim
    du = _partials(u.values, g)
    out = np.empty((d, d) + g.shape)
    if not g.is_flat:
        dphi = g.phi_gradient()
        inner = _sum_of_products(dphi, du)
        tmp = np.empty(g.shape)
    for a in range(d):
        for b in range(a, d):
            out[a, b] = g.partial(du[a], b)
            if not g.is_flat:
                out[a, b] -= np.multiply(dphi[a], du[b], out=tmp)
                out[a, b] -= np.multiply(du[a], dphi[b], out=tmp)
                if a == b:
                    out[a, a] += inner
            out[b, a] = out[a, b]
    del du  # before the symmetry check allocates its mask
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
    du = _partials(u.values, g)
    dphi = g.phi_gradient()
    inner = _sum_of_products(dphi, du)
    tmp = np.empty(g.shape)
    for a in range(g.dim):
        term = g.partial(du[a], a)
        term -= np.multiply(dphi[a], du[a], out=tmp)
        term -= np.multiply(du[a], dphi[a], out=tmp)
        term += inner
        tr += term
    tr *= g.conformal_factor(-2.0)
    return ScalarField(g, tr)


def _metric_trace(H: SymTensorField) -> ScalarField:
    """Metric trace of a covariant 2-tensor; of a Hessian, the Laplacian."""
    g = H.grid
    tr = np.zeros(g.shape)
    for a in range(g.dim):
        tr += H.values[a, a]
    if not g.is_flat:
        tr *= g.conformal_factor(-2.0)
    return ScalarField(g, tr)


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
    """Frame norm of a field at every node.

    Vector and tensor norms add the squared components one at a time
    (`_sum_of_squares`) and scale in place, so they hold two field-sized
    arrays, not a squared copy of the field."""
    g = field.grid
    if isinstance(field, ScalarField):
        return np.abs(field.values)
    if isinstance(field, VectorField):
        if g.coord_system == "polar":
            r = g.axes[0][:, None]
            return np.sqrt(field.values[0] ** 2 + (r * field.values[1]) ** 2)
        mag = _sum_of_squares(field.values)
        scale = 1.0
    elif isinstance(field, SymTensorField):
        d = field.values.shape[0]
        mag = _sum_of_squares(field.values[a, b] for a in range(d) for b in range(d))
        scale = -2.0
    else:
        raise TypeError(f"unsupported field type {type(field)!r}")
    np.sqrt(mag, out=mag)
    if not g.is_flat:
        mag *= g.conformal_factor(scale)
    return mag


def lq_norm(field, q: float) -> float:
    """Quadrature L^q norm of the pointwise frame norm, q in [1, inf]."""
    if q != np.inf and q < 1:
        raise ValueError("norm exponent must be >= 1 (or inf)")
    mag = pointwise_norm(field)
    if q == np.inf:
        return float(np.max(mag))
    return float(np.sum(field.grid.weights * mag**q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# dumps


def write_csv(path: str, header, rows) -> None:
    """A header line, then one line per row; floats are written with repr,
    everything else with str, and every line ends with LF."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def dump_field_csv(field: ScalarField, path: str) -> None:
    """Node table of a scalar field: index, cartesian coordinates, value."""
    coords = field.grid.cartesian_coords()
    ncoord = coords.shape[0]
    flat_coords = coords.reshape(ncoord, -1)
    values = field.values.reshape(1, -1)
    table = np.concatenate([flat_coords, values]).T.tolist()  # Python floats, one list per node
    write_csv(
        path,
        ["node"] + [f"x{i+1}" for i in range(ncoord)] + ["value"],
        ([i] + row for i, row in enumerate(table)),
    )

