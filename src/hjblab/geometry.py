"""Domains, the conformal exponent phi, grids, quadrature, and boundary geometry.

Supported domains are axis-aligned boxes, flat tori (optionally carrying a
conformal metric g = e^{2 phi} * id with smooth periodic phi), and a polar
disc used for boundary-curvature experiments.  Grids are vertex-centered
tensor lattices; quadrature weights realize the Riemannian volume measure
so that sum(weights) reproduces vol(Omega, g).

`Grid.partial` takes first derivatives with `stencils.apply_along_axis`:
periodic rows on periodic axes, one-sided end rows on the others.  It
keeps nothing between calls.  A grid's cache holds what belongs to it
alone: its conformal factors, the lattice gradient of phi (read by the
Hessian, the Laplacian and the curvature alike) and the operators that
`hjb` and `mfg` build on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .stencils import apply_along_axis

DOMAIN_KINDS = ("box", "torus", "disc")


@dataclass(frozen=True)
class DomainSpec:
    """What region we discretize.

    kind: one of box | torus | disc.
    dim: manifold dimension, 2 or 3 (disc is always 2).
    extents: side lengths per axis for box/torus.
    resolution: nodes per axis; for the disc (n_r, n_theta).
    radius: disc radius.
    """

    kind: str
    dim: int = 3
    extents: tuple = (1.0,)
    resolution: tuple = (16,)
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        dim = 2 if self.kind == "disc" else self.dim
        if dim not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        res = self.resolution if isinstance(self.resolution, tuple) else (self.resolution,)
        naxes = 2 if self.kind == "disc" else dim
        if len(res) == 1:
            res = res * naxes
        if len(res) != naxes:
            raise ValueError("resolution must give one entry per lattice axis")
        for n in res:
            if n < 8:
                raise ValueError("resolution too small: need at least 8 nodes per axis")
        object.__setattr__(self, "resolution", tuple(int(n) for n in res))
        if self.kind == "disc":
            object.__setattr__(self, "dim", 2)
            if self.radius <= 0:
                raise ValueError("disc radius must be positive")
        else:
            ext = self.extents if isinstance(self.extents, tuple) else (self.extents,)
            if len(ext) == 1:
                ext = ext * dim
            if len(ext) != dim:
                raise ValueError("extents must give one length per axis")
            for L in ext:
                if L <= 0:
                    raise ValueError("extents must be positive")
            object.__setattr__(self, "extents", tuple(float(L) for L in ext))


@dataclass
class Grid:
    domain: DomainSpec
    dim: int
    shape: tuple
    axes: tuple                 # 1-D lattice coordinates per axis
    spacings: tuple
    periodic: tuple             # per-axis periodicity flags
    coord_system: str           # "cartesian" | "polar"
    phi: Optional[np.ndarray]   # nodal conformal exponent, None when flat
    weights: np.ndarray         # Riemannian quadrature weights
    boundary_mask: np.ndarray
    face_interior_mask: np.ndarray
    normals: np.ndarray         # outward g-unit normal, zero off the boundary
    vol: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    # -- lattice helpers ---------------------------------------------------
    def mesh(self) -> tuple:
        """Lattice coordinate arrays (broadcast to full shape)."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def coords(self) -> np.ndarray:
        """(naxes, *shape) lattice coordinates."""
        return np.stack(self.mesh())

    def cartesian_coords(self) -> np.ndarray:
        if self.coord_system == "cartesian":
            return self.coords()
        r, th = self.mesh()
        return np.stack([r * np.cos(th), r * np.sin(th)])

    def partial(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Euclidean/lattice partial derivative of a nodal array."""
        return apply_along_axis(values, axis, self.spacings[axis], self.periodic[axis])

    # -- conformal helpers -------------------------------------------------
    @property
    def is_flat(self) -> bool:
        return self.phi is None

    def cached(self, key, build):
        """The value kept on this grid under key, made by build() on first
        use.  Every per-grid cache (solver operators, preconditioners,
        mollifier transforms, conformal factors) goes through here."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def conformal_factor(self, power: float) -> np.ndarray:
        """e^{power * phi}, cached; ones when flat."""
        if self.phi is None:
            return np.ones(self.shape)
        return self.cached(("exp", float(power)), lambda: np.exp(power * self.phi))

    def phi_gradient(self) -> np.ndarray:
        """(d, *shape) lattice partials of phi (zeros when flat)."""
        if self.phi is None:
            return np.zeros((len(self.shape),) + self.shape)
        return self.cached("dphi", lambda: np.stack([self.partial(self.phi, a) for a in range(len(self.shape))]))


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def build_grid(domain: DomainSpec, phi: Optional[Callable] = None) -> Grid:
    """Assemble lattice, masks, normals and Riemannian quadrature weights.

    phi, when given, makes the metric conformal, g = e^{2 phi} id: a
    callable taking a (d, ...) coordinate array and returning nodal values,
    smooth and periodic.  Only tori carry one.
    """
    if phi is not None and domain.kind != "torus":
        raise ValueError("a conformal metric needs a torus, not a " + domain.kind)
    if domain.kind == "disc":
        return _build_disc(domain)

    d = domain.dim
    per = domain.kind == "torus"
    axes, spacings, wlists = [], [], []
    for L, n in zip(domain.extents, domain.resolution):
        if per:
            h = L / n
            axes.append(np.arange(n) * h)
            wlists.append(np.full(n, h))
        else:
            h = L / (n - 1)
            axes.append(np.linspace(0.0, L, n))
            wlists.append(_trapezoid_weights(n, h))
        spacings.append(h)
    shape = tuple(domain.resolution)
    weights = wlists[0]
    for w in wlists[1:]:
        weights = np.multiply.outer(weights, w)

    if phi is not None:
        coords = np.stack(np.meshgrid(*axes, indexing="ij"))
        phi = np.asarray(phi(coords), dtype=float)  # nodal values from here on
        if phi.shape != shape:
            phi = np.broadcast_to(phi, shape).copy()
        weights = weights * np.exp(d * phi)

    boundary = np.zeros(shape, dtype=bool)
    face_interior = np.zeros(shape, dtype=bool)
    normals = np.zeros((d,) + shape)
    if not per:
        extreme_count = np.zeros(shape, dtype=int)
        for a in range(d):
            for side, idx in ((-1.0, 0), (1.0, shape[a] - 1)):
                sl = [slice(None)] * d
                sl[a] = idx
                sl = tuple(sl)
                boundary[sl] = True
                extreme_count[sl] += 1
                normals[(a,) + sl] += side
        face_interior = boundary & (extreme_count == 1)
        # normalize to unit length (diagonal normals at edges/corners)
        norm2 = np.sum(normals**2, axis=0)
        norm2[norm2 == 0] = 1.0
        normals *= 1.0 / np.sqrt(norm2)
        normals[:, ~boundary] = 0.0

    grid = Grid(
        domain=domain,
        dim=d,
        shape=shape,
        axes=tuple(axes),
        spacings=tuple(spacings),
        periodic=tuple([per] * d),
        coord_system="cartesian",
        phi=phi,
        weights=weights,
        boundary_mask=boundary,
        face_interior_mask=face_interior,
        normals=normals,
        vol=float(np.sum(weights)),
    )
    return grid


def _build_disc(domain: DomainSpec) -> Grid:
    """Polar annular lattice r in [dr, R], theta periodic.

    The innermost ring sits one cell away from the origin; the grid is used
    for boundary-lemma experiments on the outer circle r = R only.
    """
    n_r, n_th = domain.resolution
    R = domain.radius
    dr = R / n_r
    r_ax = dr * np.arange(1, n_r + 1)
    dth = 2.0 * np.pi / n_th
    th_ax = dth * np.arange(n_th)
    shape = (n_r, n_th)

    wr = _trapezoid_weights(n_r, dr)
    weights = np.multiply.outer(wr, np.full(n_th, dth)) * r_ax[:, None]

    boundary = np.zeros(shape, dtype=bool)
    boundary[-1, :] = True
    face_interior = boundary.copy()
    normals = np.zeros((2,) + shape)
    normals[0, -1, :] = 1.0  # outward = +e_r (unit length in the polar metric)

    return Grid(
        domain=domain,
        dim=2,
        shape=shape,
        axes=(r_ax, th_ax),
        spacings=(dr, dth),
        periodic=(False, True),
        coord_system="polar",
        phi=None,
        weights=weights,
        boundary_mask=boundary,
        face_interior_mask=face_interior,
        normals=normals,
        vol=float(np.sum(weights)),
    )


# ---------------------------------------------------------------------------
# curvature


def _ricci_shift(grid: Grid, dphi: np.ndarray) -> np.ndarray:
    """Lap phi + (d-2)|dphi|^2, which every diagonal Ricci component
    subtracts; Lap phi is summed from the diagonal partials in axis order."""
    d = grid.dim
    lap = np.zeros(grid.shape)
    for a in range(d):
        lap += grid.partial(dphi[a], a)
    grad2 = np.square(dphi[0])
    sq = np.empty(grid.shape)
    for a in range(1, d):
        grad2 += np.square(dphi[a], out=sq)
    grad2 *= d - 2
    lap += grad2
    return lap


def _ricci_component(
    grid: Grid, dphi: np.ndarray, shift: np.ndarray, a: int, b: int, tmp: np.ndarray
) -> np.ndarray:
    """Ric_ab, a <= b, of g = e^{2 phi} id: the one formula of a Ricci
    component, -(d-2)(d_b d_a phi - d_a phi d_b phi), less `_ricci_shift`
    when a == b."""
    ric = grid.partial(dphi[a], b)
    ric -= np.multiply(dphi[a], dphi[b], out=tmp)
    ric *= -(grid.dim - 2)
    if a == b:
        ric -= shift
    return ric


def conformal_ricci(grid: Grid) -> np.ndarray:
    """Covariant Ricci components of g = e^{2 phi} id in lattice coordinates.

    Ric = -(d-2)(Hess phi - dphi x dphi) - (Lap phi + (d-2)|dphi|^2) id,
    with all derivatives Euclidean and dphi the grid's cached
    `phi_gradient`.  Constant shifts of phi drop out, and
    `ricci_lower_bound` normalizes eigenvalues in the mean-zero gauge, so
    reported curvature bounds are invariant under them.

    Each component with a <= b is formed once by `_ricci_component` and
    mirrored.
    """
    if grid.coord_system != "cartesian":
        raise ValueError("curvature is only computed on cartesian lattices")
    d = grid.dim
    if grid.phi is None:
        return np.zeros((d, d) + grid.shape)
    dphi = grid.phi_gradient()
    shift = _ricci_shift(grid, dphi)
    tmp = np.empty(grid.shape)
    ric = np.empty((d, d) + grid.shape)
    for a in range(d):
        for b in range(a, d):
            ric[a, b] = ric[b, a] = _ricci_component(grid, dphi, shift, a, b, tmp)
    return ric


def ricci_quadratic(grid: Grid, X: np.ndarray) -> np.ndarray:
    """Ric(X, X) for the contravariant components X, with no tensor held.

    Sums (Ric_ab X^a) X^b over (a, b) in C order, as
    np.einsum("ij...,i...,j...->...", conformal_ricci(grid), X, X) does, so
    the two agree bit for bit.  Each component with a <= b is formed once
    by `_ricci_component`, and one with a < b is kept only until row b
    reads it.  Zero on flat grids.
    """
    total = np.zeros(grid.shape)
    if grid.phi is None:
        return total
    dphi = grid.phi_gradient()
    shift = _ricci_shift(grid, dphi)
    work = np.empty(grid.shape)
    later = {}  # Ric_ab with a < b, until row b
    for a in range(grid.dim):
        for b in range(grid.dim):
            ric = later.pop((b, a)) if b < a else _ricci_component(grid, dphi, shift, a, b, work)
            np.multiply(ric, X[a], out=work)
            work *= X[b]
            total += work
            if b > a:
                later[a, b] = ric
            del ric
    return total


def ricci_lower_bound(grid: Grid) -> float:
    """kappa = max(0, -lambda_min) over nodes, lambda_min the smallest
    eigenvalue of Ric relative to g.

    Reported in the mean-zero conformal gauge: adding a constant to phi is a
    homothety and leaves the value unchanged.  Flat metrics give exactly 0.
    """
    if grid.phi is None:
        return 0.0
    phi0 = grid.phi - float(np.mean(grid.phi))
    if float(np.max(np.abs(phi0))) < 1e-13:
        return 0.0
    ric = conformal_ricci(grid)
    # move tensor axes last for batched eigensolves
    mats = np.moveaxis(np.moveaxis(ric, 0, -1), 0, -1)
    eigs = np.linalg.eigvalsh(mats)
    rel = eigs[..., 0] / np.exp(2.0 * phi0)
    lam_min = float(np.min(rel))
    return max(0.0, -lam_min)


# ---------------------------------------------------------------------------
# boundary geometry


@dataclass
class SecondFundamentalForm:
    """Shape operator data of the boundary w.r.t. the outward normal.

    values holds a (d-1)x(d-1) symmetric matrix per node in an orthonormal
    tangent frame; only face-interior boundary nodes are meaningful.
    o_plus is True when every eigenvalue is nonnegative (convex boundary).
    """

    grid: Grid
    values: np.ndarray
    o_plus: bool


def second_fundamental_form(grid: Grid) -> SecondFundamentalForm:
    """Boundary curvature form II(X, Y) = -g(D_X Y, nu) on tangent vectors.

    Box faces are totally geodesic (II = 0); the disc's boundary circle has
    II = 1/R on its one-dimensional tangent space.  Errors on closed
    domains without boundary.
    """
    if not np.any(grid.boundary_mask):
        raise ValueError("domain has no boundary")
    d = grid.dim
    k = d - 1
    vals = np.zeros((k, k) + grid.shape)
    if grid.domain.kind == "disc":
        vals[0, 0][grid.face_interior_mask] = 1.0 / grid.domain.radius
    # box faces: flat, already zero
    sub = vals[..., grid.face_interior_mask]          # (k, k, nodes)
    mats = np.moveaxis(np.moveaxis(sub, 0, -1), 0, -1)
    eigs = np.linalg.eigvalsh(mats)
    o_plus = bool(np.min(eigs) >= -1e-12) if mats.size else True
    return SecondFundamentalForm(grid=grid, values=vals, o_plus=o_plus)
