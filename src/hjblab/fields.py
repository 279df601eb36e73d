"""Nodal fields and metric-aware discrete calculus.

Derivative conventions.  First derivatives are second-order centered
stencils (one-sided second-order rows on non-periodic axes), taken by
`Grid.partial` with the row kernel `stencils.apply_along_axis`; pure
second derivatives are compositions of two first-derivative
applications.  The composition choice is what makes two structural
identities hold to round-off rather than to O(h^2):

  * laplacian == metric trace of the Hessian, node-wise and bit for bit:
    every Hessian entry comes from one formula (`_hessian_component`);
    `laplace_beltrami` forms only the diagonal entries, so the
    off-diagonal second partials are never formed to take a Laplacian,
    and callers that need both operators of one field take the trace
    from the pass that gives them the rest (`hessian_reductions`),
  * the L^2 tensor norm of the Hessian equals the L^2 norm of the
    laplacian on flat tori (discrete Calderon-Zygmund ratio exactly 1).

Memory.  The operators write each partial into its place in the result,
scale in place, and form sums over components one component at a time
(`_sum_of_products`, `_sum_of_squares`) in the order numpy reduces a
leading axis, so results equal the whole-array expressions bit for bit
while no squared or stacked copy of a field is held.  No caller holds a
Hessian to reduce it: `hessian_reductions` streams its components in C
order into the metric trace, the squares of the frame norm and
|Hess u (X)|^2, keeping an off-diagonal entry only until its mirror's
row; `hessian` itself is the tensor form the tests compare against.

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


def _cartesian_only(g: Grid, name: str) -> None:
    if g.coord_system == "polar":
        raise NotImplementedError(name + " on the polar disc is not supported")


def _correction(u: ScalarField):
    """What the conformal correction of the Hessian reads: (dphi, du,
    <dphi, du>, a work array), du the lattice partials of u; None when flat."""
    g = u.grid
    if g.is_flat:
        return None
    du = _partials(u.values, g)
    dphi = g.phi_gradient()
    return dphi, du, _sum_of_products(dphi, du), np.empty(g.shape)


def _first_partial(u: ScalarField, a: int, corr) -> np.ndarray:
    """d_a u: held by the correction on conformal grids, formed when flat."""
    return u.grid.partial(u.values, a) if corr is None else corr[1][a]


def _hessian_component(g: Grid, du_a: np.ndarray, a: int, b: int, corr) -> np.ndarray:
    """H_ab, a <= b, of the covariant metric Hessian, du_a = d_a u.

    The one formula of a Hessian component: d_b(d_a u), and on conformal
    grids Hess_g u = Hess u - dphi x du - du x dphi + <dphi, du> id, so
    less d_a phi d_b u and d_a u d_b phi, plus <dphi, du> when a == b.
    corr is `_correction(u)`, or its like whose du holds only d_b u.
    """
    h = g.partial(du_a, b)
    if corr is not None:
        dphi, du, inner, tmp = corr
        h -= np.multiply(dphi[a], du[b], out=tmp)
        h -= np.multiply(du_a, dphi[b], out=tmp)
        if a == b:
            h += inner
    return h


def hessian(u: ScalarField) -> SymTensorField:
    """Covariant metric Hessian.

    Each entry with a <= b is formed once by `_hessian_component` and
    mirrored, so the result is symmetric bit for bit.
    """
    g = u.grid
    _cartesian_only(g, "hessian")
    d = g.dim
    corr = _correction(u)
    out = np.empty((d, d) + g.shape)
    for a in range(d):
        du_a = _first_partial(u, a, corr)
        for b in range(a, d):
            out[a, b] = out[b, a] = _hessian_component(g, du_a, a, b, corr)
    del du_a, corr  # before the symmetry check allocates its mask
    return SymTensorField(g, out)


def hessian_reductions(u: ScalarField, X=None) -> tuple:
    """(trace, squares, along): what callers reduce Hess u to, from one pass
    over its components with no second-order tensor held.

      * trace: the metric trace, a ScalarField; `laplace_beltrami(u)`,
      * squares: the sum of the squared lattice components H_ab, in C
        order; `_frame_norm(grid, squares, -2.0)` makes |Hess u| of it,
      * along: |Hess u (X)|^2 for the contravariant components X, the sum
        over rows a of (sum_b H_ab X^b)^2 scaled by e^{-2 phi}; None
        without X.

    The pass visits H_ab in C order.  Each entry with a <= b is formed once
    by `_hessian_component`, and one with a < b is kept only until row b
    reads it.  Every sum adds in the order of the tensor expression it
    replaces (`_metric_trace`, `pointwise_norm`'s squares and
    `_sum_of_squares` of each row's `_sum_of_products`), so all three
    equal those of `hessian(u)` bit for bit.
    """
    g = u.grid
    _cartesian_only(g, "hessian_reductions")
    corr = _correction(u)
    work = np.empty(g.shape) if corr is None else corr[3]
    trace = np.zeros(g.shape)
    squares = along = None
    later = {}  # H_ab with a < b, until row b
    for a in range(g.dim):
        du_a = _first_partial(u, a, corr)
        row = None if X is None else np.zeros(g.shape)
        for b in range(g.dim):
            h = later.pop((b, a)) if b < a else _hessian_component(g, du_a, a, b, corr)
            if b == a:
                trace += h
            if squares is None:
                squares = np.square(h)
            else:
                squares += np.square(h, out=work)
            if row is not None:
                row += np.multiply(h, X[b], out=work)
            if b > a:
                later[a, b] = h
            del h
        del du_a
        if row is not None:
            np.square(row, out=row)
            if along is None:
                along = row
            else:
                along += row
            del row
    if corr is not None:
        trace *= g.conformal_factor(-2.0)
        if along is not None:
            along *= g.conformal_factor(-2.0)
    return ScalarField(g, trace), squares, along


def laplace_beltrami(u: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator: the metric trace of `hessian(u)`.

    Only the diagonal entries are formed, by `_hessian_component` and
    summed in `_metric_trace`'s order, so the result equals
    `_metric_trace(hessian(u))` bit for bit.  A diagonal entry H_aa reads
    d_a u alone besides <dphi, du>, so on conformal grids that sum is
    formed first, one partial at a time, and each d_a u is formed again
    for its entry: one partial is held at a time, for d more partials.
    """
    g = u.grid
    _cartesian_only(g, "laplace_beltrami")
    tr = np.zeros(g.shape)
    if g.is_flat:
        for a in range(g.dim):
            tr += _hessian_component(g, g.partial(u.values, a), a, a, None)
        return ScalarField(g, tr)
    dphi = g.phi_gradient()
    inner, tmp = np.zeros(g.shape), np.empty(g.shape)
    for a in range(g.dim):
        inner += np.multiply(dphi[a], g.partial(u.values, a), out=tmp)
    for a in range(g.dim):
        du_a = g.partial(u.values, a)
        tr += _hessian_component(g, du_a, a, a, (dphi, {a: du_a}, inner, tmp))
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
    return _frame_norm(g, mag, scale)


def _frame_norm(g: Grid, squares: np.ndarray, power: float) -> np.ndarray:
    """sqrt(squares) e^{power phi}, formed in squares' storage: the frame
    norm of lattice components whose squares sum to `squares`, with power
    1 for a vector and -2 for a covariant 2-tensor."""
    np.sqrt(squares, out=squares)
    if not g.is_flat:
        squares *= g.conformal_factor(power)
    return squares


def lq_norm(field, q: float) -> float:
    """Quadrature L^q norm of the pointwise frame norm, q in [1, inf]."""
    return _lq(field.grid, pointwise_norm(field), q)


def _lq(g: Grid, mag: np.ndarray, q: float) -> float:
    """Quadrature L^q norm of a pointwise magnitude, q in [1, inf]."""
    if q != np.inf and q < 1:
        raise ValueError("norm exponent must be >= 1 (or inf)")
    if q == np.inf:
        return float(np.max(mag))
    return float(np.sum(g.weights * mag**q) ** (1.0 / q))


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

