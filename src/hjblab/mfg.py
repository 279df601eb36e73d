"""Stationary mean-field game solver with mollified power coupling.

The system couples an ergodic Hamilton-Jacobi equation for the value
function u with a stationary Fokker-Planck equation for the density m:

    -Lap u + (1/gamma)|grad u|^gamma + b + lam = V_eps(m),   mean u = 0
    -Lap m - div(a(grad u) m) = 0,   integral m = 1,  m > 0

where a(p) = |p|^{gamma-2} p is the optimal drift and V_eps smooths the
power coupling V(m) = m^alpha by a double convolution with a compact
symmetric bump.  The transport operator of the density equation is built
as the exact quadrature adjoint of the value equation's linearized
transport, which makes the discrete duality identity hold up to
truncation error and lets positivity emerge from the M-matrix structure
instead of clipping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
from scipy import ndimage

from .fields import (
    ScalarField,
    gradient,
    hessian,
    lq_norm,
    normal_derivative,
    pointwise_norm,
)
from .geometry import Grid
from .hjb import (
    EPS_REG,
    ProblemSpec,
    SolverConfig,
    _inverter_for,
    _ops_for,
    bordered_solve,
    solve_ergodic,
)


# ---------------------------------------------------------------------------
# specs and state


@dataclass
class MfgSpec:
    """One stationary game: exponents, coupling, shift, and iteration knobs.

    The inner value solves run at the default `SolverConfig`, warm-started
    from the previous outer iterate.
    """

    grid: Grid
    gamma: float
    alpha: float
    c_v: float = 2.0
    shift: Optional[ScalarField] = None   # b; must have d_nu b >= 0 on boxes
    eps: float = 0.1                      # mollifier radius
    tau: float = 0.5                      # outer damping
    max_outer: int = 60
    outer_tol: float = 1e-9

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gradient growth gate (In1): need gamma > 1")
        if not self.alpha > 0.0:
            raise ValueError("coupling exponent must be positive")
        if not self.c_v > 1.0:
            raise ValueError("coupling comparison constant must exceed 1")
        if self.c_v < max(self.alpha, 1.0 / self.alpha) - 1e-12:
            raise ValueError(
                "coupling comparison gate (MFG1): need C_V >= max(alpha, 1/alpha)"
            )
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("outer damping must lie in (0, 1]")
        if self.eps < 0.0:
            raise ValueError("mollifier radius must be nonnegative")
        g = self.grid
        if g.coord_system != "cartesian" or not g.is_flat:
            raise ValueError("mean-field solves run on flat box/torus lattices only")
        if self.shift is not None and self.shift.grid is not g:
            raise ValueError("shift field lives on a different grid")
        if self.shift is not None and not all(g.periodic):
            dnb = normal_derivative(self.shift)
            face = g.face_interior_mask
            # One-sided boundary stencils carry O(h^2) truncation error, so a
            # compliant smooth shift can read slightly negative; the gate only
            # rejects violations above that noise floor.
            hmax = max(float(h) for h in self.grid.spacings)
            noise = 8.0 * hmax * hmax * max(1.0, float(np.max(np.abs(self.shift.values))))
            if face.any() and float(np.min(dnb[face])) < -noise:
                raise ValueError(
                    "shift monotonicity gate (MFG2): need outward derivative "
                    "of the shift nonnegative on the boundary"
                )

    @property
    def gamma_conj(self) -> float:
        return self.gamma / (self.gamma - 1.0)


@dataclass(frozen=True)
class MfgState:
    u: ScalarField
    lam: float
    m: ScalarField

    def validate(self, tol_mass: float = 1e-10) -> None:
        g = self.u.grid
        mass = float(np.sum(g.weights * self.m.values))
        if abs(mass - 1.0) > tol_mass:
            raise ValueError("density mass deviates from 1")
        if float(np.min(self.m.values)) <= 0.0:
            raise ValueError("density must be positive node-wise")
        mean = float(np.sum(g.weights * self.u.values))
        if abs(mean) > 1e-10 * max(1.0, float(np.max(np.abs(self.u.values)))):
            raise ValueError("value function must have zero quadrature mean")


@dataclass
class MfgReport:
    converged: bool
    outer_iterations: int
    outer_residual: float
    history: list = dataclass_field(default_factory=list)
    mass: float = 1.0
    min_density: float = 0.0
    lam: float = 0.0
    gate: dict = dataclass_field(default_factory=dict)
    duality: dict = dataclass_field(default_factory=dict)
    lp_bounds: dict = dataclass_field(default_factory=dict)
    peclet: float = 0.0
    stages: list = dataclass_field(default_factory=list)
    message: str = ""
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# exponent gate


def exponent_gate(d: int, gamma: float, alpha: float) -> dict:
    """Admissibility thresholds for the coupling growth.

    The gradient exponent must beat d/(d-2) and the coupling power must
    stay below gamma'/(d-2-gamma'), read as +inf when the denominator is
    nonpositive (always the case for d = 3).
    """
    if not gamma > 1.0:
        raise ValueError("gradient growth gate (In1): need gamma > 1")
    gamma_conj = gamma / (gamma - 1.0)
    gamma_threshold = d / (d - 2.0) if d > 2 else math.inf
    denom = d - 2.0 - gamma_conj
    alpha_threshold = math.inf if denom <= 0.0 else gamma_conj / denom
    gamma_ok = gamma > gamma_threshold
    alpha_ok = alpha < alpha_threshold
    return {
        "d": int(d),
        "gamma": float(gamma),
        "alpha": float(alpha),
        "gamma_conj": gamma_conj,
        "gamma_threshold": gamma_threshold,
        "gamma_ok": bool(gamma_ok),
        "alpha_threshold": alpha_threshold,
        "alpha_ok": bool(alpha_ok),
        "passed": bool(gamma_ok and alpha_ok),
    }


# ---------------------------------------------------------------------------
# mollified coupling


def _mollifier_kernel(grid: Grid, eps: float) -> Optional[np.ndarray]:
    """Compact polynomial bump sampled on lattice offsets; unit mass."""
    if eps == 0.0:
        return None
    for L in grid.domain.extents:
        if eps > 0.5 * L:
            raise ValueError("mollifier radius exceeds half the domain width")
    halves = [int(math.floor(eps / h)) for h in grid.spacings]
    if all(hw == 0 for hw in halves):
        return None
    grids = np.meshgrid(
        *[np.arange(-hw, hw + 1) * h for hw, h in zip(halves, grid.spacings)],
        indexing="ij",
    )
    r_sq = np.zeros(grids[0].shape)
    for gcoord in grids:
        r_sq = r_sq + gcoord**2
    kern = np.maximum(0.0, 1.0 - r_sq / eps**2) ** 3
    total = float(np.sum(kern))
    if total <= 0.0:
        return None
    return kern / total


def _convolve(grid: Grid, vals: np.ndarray, kern: Optional[np.ndarray]) -> np.ndarray:
    if kern is None:
        return np.array(vals, dtype=float)
    if all(grid.periodic):
        return ndimage.convolve(vals, kern, mode="wrap")
    # boxes: clipped kernel, renormalized by the clipped mass so the
    # kernel seen by each node still integrates to one
    num = ndimage.convolve(vals, kern, mode="constant", cval=0.0)
    den = ndimage.convolve(np.ones_like(vals), kern, mode="constant", cval=0.0)
    return num / den


def mollify_coupling(m: ScalarField, eps: float, alpha: float) -> ScalarField:
    """V_eps = (smooth m) -> power alpha -> smooth again.

    eps = 0 reduces to the plain power coupling.  The kernel is a
    positive symmetric compact bump with unit discrete mass, so constants
    are preserved exactly.
    """
    if alpha <= 0:
        raise ValueError("coupling exponent must be positive")
    grid = m.grid
    kern = _mollifier_kernel(grid, eps)
    smoothed = _convolve(grid, m.values, kern)
    powered = np.abs(smoothed) ** alpha * np.sign(smoothed)
    return ScalarField(grid, _convolve(grid, powered, kern))


def smoothed_density(m: ScalarField, eps: float) -> ScalarField:
    """Single convolution m * kernel (the inner smoothing alone)."""
    kern = _mollifier_kernel(m.grid, eps)
    return ScalarField(m.grid, _convolve(m.grid, m.values, kern))


# ---------------------------------------------------------------------------
# stationary Fokker-Planck solve


def optimal_drift(u: ScalarField, gamma: float) -> np.ndarray:
    """a(grad u) = |grad u|^{gamma-2} grad u on the solver stencils."""
    ops = _ops_for(u.grid)
    d = ops.grad(u.values)
    sq = np.sum(d**2, axis=0)
    return (sq + EPS_REG**2) ** ((gamma - 2.0) / 2.0) * d


def fp_peclet(grid: Grid, drift: np.ndarray) -> float:
    """Largest advection mesh number |a_i| h_i / 2 (M-matrix iff <= 1)."""
    pec = 0.0
    for a, h in enumerate(grid.spacings):
        pec = max(pec, float(np.max(np.abs(drift[a]))) * h / 2.0)
    return pec


def fp_solve(u: ScalarField, gamma: float = 2.0) -> ScalarField:
    """Invariant density of the transport generated by the value field.

    Solves the quadrature adjoint of the linearized value-equation
    transport, with unit-mass constraint; the bordered multiplier comes
    out zero automatically because constants annihilate the forward
    operator.  Positivity is an M-matrix consequence, checked via the
    advection mesh number, never enforced by clipping.
    """
    grid = u.grid
    if not grid.is_flat or grid.coord_system != "cartesian":
        raise ValueError("density solves run on flat box/torus lattices only")
    ops = _ops_for(grid)
    inv = _inverter_for(grid)
    drift = optimal_drift(u, gamma)
    pec = fp_peclet(grid, drift)
    if pec > 1.0:
        raise ValueError(
            "drift too strong for this resolution: advection mesh number "
            + repr(pec)
            + " exceeds 1"
        )
    w = grid.weights

    def adjoint_apply(mvals):
        return ops.transport_transpose_apply(w * mvals, drift) / w

    mvals, mu, info = bordered_solve(
        grid, adjoint_apply, inv, np.zeros(grid.shape), 1.0, 1e-10
    )
    if info != 0:
        raise RuntimeError("density linear solve did not converge")
    # exact mass normalization (GMRES leaves round-off in the constraint)
    mvals = mvals / float(np.sum(w * mvals))
    return ScalarField(grid, mvals)


# ---------------------------------------------------------------------------
# outer fixed point


def _state_change(grid: Grid, a, b) -> float:
    du = float(np.max(np.abs(a[0] - b[0])))
    dl = abs(a[1] - b[1])
    dm = float(np.max(np.abs(a[2] - b[2])))
    return max(du, dl, dm)


def mfg_fixed_point(spec: MfgSpec):
    """Damped outer iteration for the coupled system.

    Returns (MfgState, MfgReport).  The mollifier radius is continued
    from 0.1 down to the target when the target is smaller and the data
    are nontrivial, mirroring the vanishing-smoothing construction.
    """
    t0 = time.perf_counter()
    grid = spec.grid
    gate = exponent_gate(grid.dim, spec.gamma, spec.alpha)
    b_max = 0.0 if spec.shift is None else float(np.max(np.abs(spec.shift.values)))
    if spec.eps >= 0.1 or b_max == 0.0:
        stages = [spec.eps]
    else:
        stages = []
        e = 0.1
        while e > spec.eps * (1.0 + 1e-12):
            stages.append(e)
            e *= 0.5
        stages.append(spec.eps)

    vol = grid.vol
    uvals = np.zeros(grid.shape)
    lam = 0.0
    mvals = np.full(grid.shape, 1.0 / vol)
    history = []
    total_iters = 0
    converged = False
    change = math.inf
    tau = spec.tau
    peclet = 0.0
    message = ""

    for eps in stages:
        stage_converged = False
        prev_change = math.inf
        for _ in range(spec.max_outer):
            v_eps = mollify_coupling(ScalarField(grid, mvals), eps, spec.alpha)
            prob = ProblemSpec(
                grid=grid,
                gamma=spec.gamma,
                c1=1.0,
                shift=spec.shift,
                source=v_eps,
                ergodic=True,
            )
            rep = solve_ergodic(prob, SolverConfig(initial_guess=ScalarField(grid, uvals)))
            if not rep.converged:
                message = "inner value solve failed to converge: " + rep.message
                break
            pec = fp_peclet(grid, optimal_drift(rep.u, spec.gamma))
            peclet = max(peclet, pec)
            # The density solve rejects such a drift; a valid request that
            # drives it there is a failed run, not a rejected one.
            if pec > 1.0:
                message = (
                    "advection mesh number " + repr(pec)
                    + " exceeds 1 at mollifier radius " + repr(eps)
                )
                break
            try:
                m_new = fp_solve(rep.u, spec.gamma)
            except RuntimeError as exc:
                message = str(exc) + " at mollifier radius " + repr(eps)
                break
            m_next = (1.0 - tau) * mvals + tau * m_new.values
            change = _state_change(
                grid, (rep.u.values, rep.lam, m_next), (uvals, lam, mvals)
            )
            if change > prev_change and tau > 2.0**-10:
                tau *= 0.5
            prev_change = change
            uvals, lam, mvals = rep.u.values, rep.lam, m_next
            total_iters += 1
            history.append(
                {
                    "eps": eps,
                    "change": change,
                    "lambda": lam,
                    "mass": float(np.sum(grid.weights * mvals)),
                    "min_m": float(np.min(mvals)),
                }
            )
            if change < spec.outer_tol:
                stage_converged = True
                break
        if message:
            break
        if not stage_converged:
            message = "outer iteration budget exhausted at radius " + repr(eps)
            break
    converged = not message

    state = MfgState(
        u=ScalarField(grid, uvals - float(np.sum(grid.weights * uvals)) / vol),
        lam=float(lam),
        m=ScalarField(grid, mvals),
    )
    report = MfgReport(
        converged=converged,
        outer_iterations=total_iters,
        outer_residual=float(change),
        history=history,
        mass=float(np.sum(grid.weights * mvals)),
        min_density=float(np.min(mvals)),
        lam=float(lam),
        gate=gate,
        peclet=peclet,
        stages=[float(s) for s in stages],
        message=message,
        wall_time=time.perf_counter() - t0,
    )
    if converged:
        if all(grid.periodic):
            report.duality = duality_identity_residual(state, spec)
        if grid.dim >= 3:
            report.lp_bounds = lp_bound_check(state, spec)
    return state, report


# ---------------------------------------------------------------------------
# diagnostics


def _hessian_sup_norm(b: Optional[ScalarField], grid: Grid) -> float:
    if b is None:
        return 0.0
    return float(np.max(pointwise_norm(hessian(b))))


def duality_identity_residual(state: MfgState, spec: MfgSpec) -> dict:
    """Discrete defect of the second-order pairing identity.

    Tests the value equation against Lap m and the density equation
    against Lap u; on tori, with the shift entering the value equation
    additively on its left side, the identity reads

      -int Tr(Hpp(grad u) (Hess u)^2) m = int grad V_eps . grad m
                                         - int grad b . grad m.

    Also evaluates the smoothed coupling energy int V'(m_eps)|grad m_eps|^2
    against the shift curvature bound.
    """
    grid = state.u.grid
    if not all(grid.periodic):
        raise NotImplementedError("the pairing identity is evaluated on tori only")
    w = grid.weights
    gradu = gradient(state.u)
    hess = hessian(state.u)
    p_sq = np.sum(gradu.values**2, axis=0)
    amp = (p_sq + EPS_REG**2) ** ((spec.gamma - 2.0) / 2.0)
    amp2 = (p_sq + EPS_REG**2) ** ((spec.gamma - 4.0) / 2.0)
    hess_sq_frob = np.einsum("ij...,ij...->...", hess.values, hess.values)
    hp = np.einsum("ij...,j...->i...", hess.values, gradu.values)
    p_h2_p = np.sum(hp**2, axis=0)
    trace_term = amp * hess_sq_frob + (spec.gamma - 2.0) * amp2 * p_h2_p
    lhs = -float(np.sum(w * trace_term * state.m.values))

    v_eps = mollify_coupling(state.m, spec.eps, spec.alpha)
    grad_v = gradient(v_eps)
    grad_m = gradient(state.m)
    rhs = float(np.sum(w * np.sum(grad_v.values * grad_m.values, axis=0)))
    if spec.shift is not None:
        grad_b = gradient(spec.shift)
        rhs -= float(np.sum(w * np.sum(grad_b.values * grad_m.values, axis=0)))

    m_eps = smoothed_density(state.m, spec.eps)
    grad_me = gradient(m_eps)
    vprime = spec.alpha * np.abs(m_eps.values) ** (spec.alpha - 1.0)
    energy = float(np.sum(w * vprime * np.sum(grad_me.values**2, axis=0)))
    bound = _hessian_sup_norm(spec.shift, grid)
    return {
        "identity_lhs": lhs,
        "identity_rhs": rhs,
        "identity_residual": lhs - rhs,
        "coupling_energy": energy,
        "curvature_bound": bound,
        "margin": bound + 1e-6 - energy,
        "margin_ok": bool(energy <= bound + 1e-6),
    }


def lp_bound_check(state: MfgState, spec: MfgSpec) -> dict:
    """Smoothed-density integrability report.

    Records the L^{d(alpha+1)/(d-2)} norm of the smoothed density and the
    gradient energy of its (alpha+1)/2 power, against C_V times the shift
    curvature bound.
    """
    grid = state.u.grid
    d = grid.dim
    if d < 3:
        raise ValueError("dimension must be at least 3")
    expo = d * (spec.alpha + 1.0) / (d - 2.0)
    m_eps = smoothed_density(state.m, spec.eps)
    norm = lq_norm(m_eps, expo).value
    root = ScalarField(grid, np.abs(m_eps.values) ** ((spec.alpha + 1.0) / 2.0))
    energy = lq_norm(gradient(root), 2.0).value ** 2
    bound = _hessian_sup_norm(spec.shift, grid)
    from .estimates import sobolev_constant_estimate

    sigma = sobolev_constant_estimate(grid)
    return {
        "exponent": expo,
        "density_norm": norm,
        "root_gradient_energy": energy,
        "curvature_bound": bound,
        "c_v": spec.c_v,
        "sigma_hat": sigma,
        "bound_ok": bool(energy <= spec.c_v * bound + 1e-6),
    }
