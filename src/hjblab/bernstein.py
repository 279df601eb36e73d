"""Gradient-energy machinery: curvature identities and proof-scale tools.

This module verifies, at grid scale, the algebraic skeleton used to bound
gradients of solutions: the curvature identity for the energy density
w = |grad u|^2/2, its weighted variant driven by the concave profile
h(t) = (2/(1+delta)) (1+t)^{(1+delta)/2}, the boundary sign relation on
convex domains, scalar inequalities for the profile and for symmetric
matrices, level-set quantities of z = h(w), and the shape function phi of
the continuity argument that closes it, with its peak and its roots.

Everything here is either exact algebra (checked to round-off) or a
consistency residual expected to vanish under grid refinement; nothing
mutates its inputs.  The plain and the weighted curvature residuals take
the terms they share (w, the pairing of grad(Lap u) with grad u,
|Hess u|^2, |Hess u (grad u)|^2 and the Ricci term) from one helper,
which holds the Hessian only until it has those three reductions of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import (
    ScalarField,
    _metric_trace,
    _sum_of_products,
    _sum_of_squares,
    gradient,
    hessian,
    laplace_beltrami,
    normal_derivative,
    pointwise_norm,
)
from .geometry import Grid, conformal_ricci, second_fundamental_form


# ---------------------------------------------------------------------------
# profile function family


def _relative_margin(big, small):
    """(big - small) / max(|big|, |small|, 1): >= 0 where big >= small,
    scaled so that huge and tiny samples weigh alike."""
    return (big - small) / np.maximum(np.maximum(np.abs(big), np.abs(small)), 1.0)


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValueError("profile exponent must satisfy 0 < delta < 1")


@dataclass(frozen=True)
class HToolkit:
    """Profile h and derivatives, plus samplers for its inequalities."""

    delta: float

    def h(self, t):
        d = self.delta
        return (2.0 / (1.0 + d)) * (1.0 + np.asarray(t, dtype=float)) ** ((1.0 + d) / 2.0)

    def h1(self, t):
        d = self.delta
        return (1.0 + np.asarray(t, dtype=float)) ** ((d - 1.0) / 2.0)

    def h2(self, t):
        d = self.delta
        return ((d - 1.0) / 2.0) * (1.0 + np.asarray(t, dtype=float)) ** ((d - 3.0) / 2.0)

    def h_inverse(self, z):
        d = self.delta
        return ((1.0 + d) * np.asarray(z, dtype=float) / 2.0) ** (2.0 / (1.0 + d)) - 1.0

    def sample_audit(self, n: int = 2001) -> dict:
        """Worst relative margins of the three profile facts on [0, 1e6].

        margin >= 0 means the fact holds at that sample; values below
        about -1e-12 indicate a genuine violation.
        """
        t = np.concatenate([[0.0], np.geomspace(1e-8, 1e6, n)])
        d = self.delta
        h1 = self.h1(t)
        h2 = self.h2(t)
        z = self.h(t)
        # (root growth)  h'(t) sqrt(t) <= (1+t)^{delta/2}
        m1 = _relative_margin((1.0 + t) ** (d / 2.0), h1 * np.sqrt(t))
        # (convexity defect)  h'(t) + 2 t h''(t) >= delta h'(t)
        m2 = _relative_margin(h1 + 2.0 * t * h2, d * h1)
        # (first-derivative recovery)  h'(t) = ((1+delta) h(t)/2)^{(delta-1)/(1+delta)}
        rec = ((1.0 + d) * z / 2.0) ** ((d - 1.0) / (1.0 + d))
        m3 = -np.abs(rec - h1) / np.maximum(np.abs(h1), 1.0)
        return {
            "root_growth": float(np.min(m1)),
            "convexity_defect": float(np.min(m2)),
            "derivative_recovery": float(np.min(m3)),
            "second_derivative_max": float(np.max(h2)),
            "samples": int(t.size),
        }


def h_toolkit(delta: float) -> HToolkit:
    _check_delta(delta)
    return HToolkit(delta)


def _h_triple(delta: float):
    """(h, h', h'') callables; delta == 1 selects the formal affine limit."""
    if delta == 1.0:
        return (
            lambda t: 1.0 + np.asarray(t, dtype=float),
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
    tk = h_toolkit(delta)
    return tk.h, tk.h1, tk.h2


# ---------------------------------------------------------------------------
# energy density and curvature identities


def energy_density(u: ScalarField) -> ScalarField:
    """w = half the squared metric length of the gradient."""
    return ScalarField(u.grid, _half_square(pointwise_norm(gradient(u))))


def _half_square(mag: np.ndarray) -> np.ndarray:
    """0.5 * mag**2, formed in mag's storage."""
    np.square(mag, out=mag)
    mag *= 0.5
    return mag


def _ricci_quadratic(grid: Grid, gradu_vals: np.ndarray) -> np.ndarray:
    """Ric(X, X) for the contravariant vector X on this grid."""
    if grid.is_flat:
        return np.zeros(grid.shape)
    ric = conformal_ricci(grid)  # covariant components
    return np.einsum("ij...,i...,j...->...", ric, gradu_vals, gradu_vals)


def _bochner_terms(u: ScalarField) -> tuple:
    """(w, inner, hsq, ric, nub): w and the three terms both identities set
    against a Laplacian, inner = g(grad(Lap u), grad u), hsq = |Hess u|^2
    and ric = Ric(grad u, grad u), plus nub = |Hess u (grad u)|^2 for the
    weighted one, with few field-sized arrays alive at a time.

    w is `energy_density(u)`, taken from the gradient already held.  Hess u
    is reduced to the three quantities the identities use (its metric
    trace, |Hess u|^2 and |Hess u (grad u)|^2) and dropped, with
    grad(Lap u), before the Ricci term builds its tensor.  Every sum runs in
    the order of the numpy reductions it replaces (`fields._sum_of_products`,
    `fields._sum_of_squares`), so the terms are those of the whole-array
    expressions bit for bit.
    """
    grid = u.grid
    flat = grid.is_flat
    gradu = gradient(u)
    w = _half_square(pointwise_norm(gradu))
    hess = hessian(u)
    inner = _sum_of_products(gradient(_metric_trace(hess)).values, gradu.values)
    if not flat:
        inner *= grid.conformal_factor(2.0)
    hsq = pointwise_norm(hess)
    np.square(hsq, out=hsq)
    # |Hess u (grad u)|^2 in the metric, from covariant Hessian and
    # contravariant gradient components, one covector component at a time
    nub = _sum_of_squares(_sum_of_products(row, gradu.values) for row in hess.values)
    if not flat:
        nub *= grid.conformal_factor(-2.0)
    del hess
    ric = _ricci_quadratic(grid, gradu.values)
    return w, inner, hsq, ric, nub


def _plain_defect(grid: Grid, terms) -> ScalarField:
    w, inner, hsq, ric, _ = terms
    vals = laplace_beltrami(ScalarField(grid, w)).values
    vals -= inner
    vals -= hsq
    vals -= ric
    return ScalarField(grid, vals)


def _weighted_defect(grid: Grid, terms, delta: float) -> ScalarField:
    h, h1, h2 = _h_triple(delta)
    w, inner, hsq, ric, nub = terms
    vals = laplace_beltrami(ScalarField(grid, h(w))).values
    bracket = inner + hsq
    bracket += ric
    bracket *= h1(w)
    vals -= bracket
    vals -= np.multiply(h2(w), nub, out=bracket)
    return ScalarField(grid, vals)


def bochner_residual(u: ScalarField) -> ScalarField:
    """Defect of the curvature identity for w = |grad u|^2/2.

    Returns  Lap w - g(grad(Lap u), grad u) - |Hess u|^2 - Ric(grad u, grad u)
    node-wise with the analysis-grade operators.  Exact (round-off) for
    affine and quadratic u on flat grids; O(h) or better under refinement
    otherwise.
    """
    return _plain_defect(u.grid, _bochner_terms(u))


def weighted_bochner_residual(u: ScalarField, delta: float) -> ScalarField:
    """Defect of the curvature identity for z = h(w).

    Returns  Lap z - h'(w) [ g(grad(Lap u), grad u) + |Hess u|^2 + Ric(grad u,grad u) ]
                   - h''(w) |Hess u (grad u)|^2.
    delta = 1 selects the affine profile, for which the result coincides
    with bochner_residual.  Exact for constant and affine u; the nonlinear
    chain rule leaves an O(h^2) defect for curved profiles even on
    quadratics.  The bracket's terms are the plain identity's
    (`_bochner_terms`), so the two residuals share every operation but the
    profile's.
    """
    return _weighted_defect(u.grid, _bochner_terms(u), delta)


def bochner_residuals(u: ScalarField, delta: float) -> tuple:
    """(bochner_residual(u), weighted_bochner_residual(u, delta)) bit for
    bit, from one set of shared terms."""
    terms = _bochner_terms(u)
    return _plain_defect(u.grid, terms), _weighted_defect(u.grid, terms, delta)


# ---------------------------------------------------------------------------
# boundary sign relation


@dataclass(frozen=True)
class BoundarySignReport:
    """Both sides of the boundary relation for the energy density."""

    normal_derivative_w: ScalarField     # outward derivative of w on the boundary
    curvature_side: ScalarField          # -II(grad u, grad u) on the boundary
    max_discrepancy: float               # over face-interior boundary nodes
    max_normal_derivative: float         # largest d_nu w (sign check)
    flagged_nodes: int                   # face-interior nodes with d_nu w > tol
    tol: float
    convex_boundary: bool


def boundary_sign_check(u: ScalarField) -> BoundarySignReport:
    """Compare d_nu w with -II(grad u, grad u) on the boundary.

    For convex boundaries the second fundamental form is nonnegative, so
    the relation forces d_nu w <= 0; nodes violating that beyond
    tol = 5 h^2 are counted.  Raises on closed (boundary-free) domains.
    """
    grid = u.grid
    if not bool(grid.boundary_mask.any()):
        raise ValueError("domain has no boundary")
    tol = 5.0 * max(grid.spacings) ** 2
    w = energy_density(u)
    dnu = normal_derivative(w)
    ii = second_fundamental_form(grid)

    form = np.zeros(grid.shape)
    if grid.coord_system == "polar":
        gradu = gradient(u)
        # physical tangential component on the outer ring: r * X^theta
        r = grid.mesh()[0]
        tang = r * gradu.values[1]
        form = np.where(grid.boundary_mask, ii.values[0, 0] * tang**2, 0.0)
    # boxes: form stays zero on faces
    rhs = ScalarField(grid, -form)

    face = grid.face_interior_mask
    disc = np.abs(dnu - rhs.values)
    max_disc = float(np.max(disc[face])) if face.any() else float(np.max(disc[grid.boundary_mask]))
    sel = face if face.any() else grid.boundary_mask
    max_dnu = float(np.max(dnu[sel]))
    flagged = int(np.sum(dnu[sel] > tol))
    return BoundarySignReport(
        normal_derivative_w=ScalarField(grid, dnu),
        curvature_side=rhs,
        max_discrepancy=max_disc,
        max_normal_derivative=max_dnu,
        flagged_nodes=flagged,
        tol=float(tol),
        convex_boundary=ii.o_plus,
    )


# ---------------------------------------------------------------------------
# scalar inequality suite


def pointwise_inequality_suite(samples: int = 100_000, seed: int = 0) -> dict:
    """Randomized audit of the scalar/matrix inequalities of the argument.

    Each entry reports the worst relative margin (>= 0 means the
    inequality held at every sample) and a violation count at 1e-12
    slack.  Failures are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    report = {}

    def _entry(name, margins):
        margins = np.asarray(margins)
        report[name] = {
            "worst_margin": float(np.min(margins)),
            "violations": int(np.sum(margins < -1e-12)),
            "samples": int(margins.size),
        }

    # trace inequality |A|_F^2 >= (tr A)^2 / d for symmetric A; each block
    # of matrices is scaled and symmetrized in place and freed before the
    # next one is drawn
    n_mat = max(1, samples)
    margins = []
    for d in (2, 3, 4, 5, 6):
        A = rng.normal(size=(n_mat // 5 + 1, d, d))
        A *= 10.0 ** rng.uniform(-3, 3, size=(n_mat // 5 + 1, 1, 1))
        for i in range(d):
            for j in range(i + 1, d):
                sym = A[:, i, j] + A[:, j, i]
                sym *= 0.5
                A[:, i, j] = A[:, j, i] = sym  # the diagonal: 0.5 (x + x) == x
        lhs = np.sum(A**2, axis=(-1, -2))
        rhs = np.einsum("...ii->...", A) ** 2 / d
        del A
        margins.append(_relative_margin(lhs, rhs))
    _entry("trace_schwarz", np.concatenate(margins))
    del margins, lhs, rhs

    # (a+b-c)^2 >= a^2 - 2a(|b|+|c|) for a >= 0
    a = np.abs(rng.normal(size=samples)) * 10.0 ** rng.uniform(-3, 3, size=samples)
    b = rng.normal(size=samples) * 10.0 ** rng.uniform(-3, 3, size=samples)
    c = rng.normal(size=samples) * 10.0 ** rng.uniform(-3, 3, size=samples)
    lhs = (a + b - c) ** 2
    rhs = a**2 - 2.0 * a * (np.abs(b) + np.abs(c))
    del a, b, c
    _entry("shifted_square", _relative_margin(lhs, rhs))
    del lhs, rhs

    # (a-b)^2 >= a^2/2 - 2 b^2
    a2 = rng.normal(size=samples) * 10.0 ** rng.uniform(-3, 3, size=samples)
    b2 = rng.normal(size=samples) * 10.0 ** rng.uniform(-3, 3, size=samples)
    lhs = (a2 - b2) ** 2
    rhs = 0.5 * a2**2 - 2.0 * b2**2
    del a2, b2
    _entry("half_square", _relative_margin(lhs, rhs))
    del lhs, rhs

    # composed form: substituting Lap u = (1/gamma)|p|^gamma - f into the
    # trace inequality gives (1/d)(a-f)^2 >= |p|^{2 gamma}/(2 gamma^2 d) - (2/d) f^2
    gam = rng.uniform(1.05, 5.0, size=samples)
    p = np.abs(rng.normal(size=samples)) * 10.0 ** rng.uniform(-2, 2, size=samples)
    f = rng.normal(size=samples) * 10.0 ** rng.uniform(-2, 2, size=samples)
    d_arr = rng.integers(3, 7, size=samples).astype(float)
    ham = (1.0 / gam) * p**gam
    lhs = (ham - f) ** 2 / d_arr
    rhs = p ** (2.0 * gam) / (2.0 * gam**2 * d_arr) - 2.0 * f**2 / d_arr
    del gam, p, f, d_arr, ham
    _entry("substituted_trace", _relative_margin(lhs, rhs))
    del lhs, rhs

    # profile convexity chain for random (delta, w)
    dl = rng.uniform(1e-3, 1.0 - 1e-3, size=samples)
    wv = 10.0 ** rng.uniform(-8, 6, size=samples)
    h1v = (1.0 + wv) ** ((dl - 1.0) / 2.0)
    h2v = ((dl - 1.0) / 2.0) * (1.0 + wv) ** ((dl - 3.0) / 2.0)
    _entry("profile_convexity", _relative_margin(h1v + 2.0 * wv * h2v, dl * h1v))
    report["profile_concavity_max_h2"] = float(np.max(h2v))
    report["all_passed"] = bool(
        all(v["violations"] == 0 for k, v in report.items() if isinstance(v, dict))
    )
    return report


# ---------------------------------------------------------------------------
# level sets of z = h(w)


@dataclass(frozen=True)
class LevelSetData:
    """Truncation data of z = h(w) above one threshold."""

    k: float
    mask: np.ndarray
    z_k: ScalarField
    vol: float
    y: float
    exponent: float
    cheb_bound: float
    within_bound: bool


def level_sets(z: ScalarField, k: float, params: "MaxRegParams") -> LevelSetData:
    """Threshold data plus the root-energy volume bound.

    The bound vol{z > k} <= ||sqrt(w)||_{L^1} / sqrt(((1+delta)k/2)^{2/(1+delta)} - 1)
    is evaluated alongside the measured volume; a nonpositive denominator
    (k below the range of h) reports +inf.
    """
    if k < 0:
        raise ValueError("threshold must be nonnegative")
    grid = z.grid
    mask = z.values > k
    zk = np.where(mask, z.values - k, 0.0)
    vol = float(np.sum(grid.weights[mask]))
    expo = params.q * params.gamma / (1.0 + params.delta)
    y = float(np.sum(grid.weights * zk**expo))
    # recover w from z to evaluate the bound's numerator
    tk = h_toolkit(params.delta)
    w = np.maximum(tk.h_inverse(z.values), 0.0)
    num = float(np.sum(grid.weights * np.sqrt(w)))
    thr = ((1.0 + params.delta) * k / 2.0) ** (2.0 / (1.0 + params.delta)) - 1.0
    bound = num / math.sqrt(thr) if thr > 0 else math.inf
    return LevelSetData(
        k=float(k),
        mask=mask,
        z_k=ScalarField(grid, zk),
        vol=vol,
        y=y,
        exponent=expo,
        cheb_bound=bound,
        within_bound=bool(vol <= bound * (1.0 + 1e-12) or math.isinf(bound)),
    )


# ---------------------------------------------------------------------------
# exponent bookkeeping


@dataclass(frozen=True)
class MaxRegParams:
    """Exponents of the maximal-regularity argument, with identity checks."""

    d: int
    gamma: float
    q: float
    delta: float
    p: float
    p_tilde: Optional[float]
    beta: float
    eta: float
    phi_const: float
    c_gamma: float
    bo1_residual: Optional[float]
    bo2_residual: float


def maxreg_params(d: int, gamma: float, q: float, delta: float) -> MaxRegParams:
    """Closed-form exponents p, beta, eta, Phi, c(gamma) plus identities.

    Requires the integrability gate q > max(d (gamma-1)/gamma, 2).  When
    the interpolation exponent p falls at or below 2, a strict surrogate
    in (2, q) is recorded as p_tilde, which `constants` reports; beta and
    eta keep their closed forms in p.
    """
    if d < 3:
        raise ValueError("dimension must be at least 3")
    if not gamma > 1.0:
        raise ValueError("gradient growth gate (In1): need gamma > 1")
    _check_delta(delta)
    gate = max(d * (gamma - 1.0) / gamma, 2.0)
    if not q > gate:
        raise ValueError(
            "integrability gate: need q > max(d(gamma-1)/gamma, 2) = " + repr(gate)
        )
    p = (2.0 / d) * (d * (gamma - 1.0) / gamma) + ((d - 2.0) / d) * q
    beta = (gamma * (p - 2.0) + 1.0 - delta) / (1.0 + delta)
    eta = (2.0 * gamma + delta - 1.0) / (1.0 + delta)
    phi_const = (delta / (2.0 * gamma**2 * d)) * ((delta + 1.0) / 2.0) ** (
        (2.0 * gamma + delta - 1.0) / (delta + 1.0)
    )
    c_gamma = max(1.0, 2.0 ** (gamma - 2.0) / gamma**2)
    p_tilde = None if p > 2.0 else 0.5 * (max(2.0, p) + q)
    if p > 2.0:
        bo1 = eta - (((delta - 1.0) / (1.0 + delta)) * p / (p - 2.0) + 2.0 * beta / (p - 2.0))
    else:
        bo1 = None
    bo2 = (beta + 1.0) * d / (d - 2.0) - gamma * q / (1.0 + delta)
    return MaxRegParams(
        d=d,
        gamma=gamma,
        q=q,
        delta=delta,
        p=p,
        p_tilde=p_tilde,
        beta=beta,
        eta=eta,
        phi_const=phi_const,
        c_gamma=c_gamma,
        bo1_residual=bo1,
        bo2_residual=bo2,
    )


# ---------------------------------------------------------------------------
# continuity-argument scalar functions


@dataclass(frozen=True)
class ContinuityTools:
    """Shape function phi(y) = y^{(d-2)/d} - y of the continuity argument:
    its maximizer y*, its maximum phi* and the two roots of phi = level."""

    d: int
    y_star: float
    phi_star: float

    def phi(self, y):
        y = np.asarray(y, dtype=float)
        return y ** ((self.d - 2.0) / self.d) - y

    def roots(self, level: float) -> tuple:
        """Both solutions of phi(y) = level, bracketing the maximizer."""
        if level < 0:
            raise ValueError("level must be nonnegative")
        if level >= self.phi_star:
            raise ValueError("level at or above the maximum of phi: no real roots")
        lo = _bisect(lambda y: self.phi(y) - level, 0.0, self.y_star, increasing=True)
        hi = _bisect(lambda y: self.phi(y) - level, self.y_star, 1.0, increasing=False)
        return lo, hi


def _bisect(fn, lo: float, hi: float, increasing: bool) -> float:
    if fn(lo) == 0.0:
        return lo
    if fn(hi) == 0.0:
        return hi
    # run to floating-point exhaustion: the slope of phi blows up near 0,
    # so a fixed interval tolerance would not pin the residual down
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def continuity_tools(d: int, q: float, gamma: float, delta: float) -> ContinuityTools:
    """phi's closed-form peak in dimension d; (d, q, gamma, delta) must pass
    `maxreg_params`'s admissibility gates."""
    maxreg_params(d, gamma, q, delta)
    y_star = ((d - 2.0) / d) ** (d / 2.0)
    phi_star = y_star ** ((d - 2.0) / d) - y_star
    return ContinuityTools(d=d, y_star=y_star, phi_star=phi_star)
