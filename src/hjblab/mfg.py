"""Stationary mean-field game solver with mollified power coupling.

The system couples an ergodic Hamilton-Jacobi equation for the value
function u with a stationary Fokker-Planck equation for the density m:

    -Lap u + (1/gamma)|grad u|^gamma + b + lam = V_eps(m),   mean u = 0
    -Lap m - div(a(grad u) m) = 0,   integral m = 1,  m > 0

where a(p) = |p|^{gamma-2} p is the optimal drift and V_eps smooths the
power coupling V(m) = m^alpha by a double convolution with a compact
symmetric bump, applied by FFT.  The drift is the value solver's own
transport coefficient, `hjb.transport_coefficient`, and the density
operator is the quadrature adjoint W^{-1} J^T W of the solver's Newton
Jacobian J (its transport part is `hjb._Ops.adjoint_rest`).  That makes
the discrete duality identity hold up to truncation error and lets
positivity emerge from the M-matrix structure instead of clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from ._kernels import pocketfft as _pocketfft
from .fields import (
    ScalarField,
    _frame_norm,
    _sum_of_products,
    _sum_of_squares,
    gradient,
    hessian_reductions,
    lq_norm,
    normal_derivative,
)
from .geometry import Grid
from .hjb import (
    EPS_REG,
    ProblemSpec,
    SolverConfig,
    _inverter_for,
    _ops_for,
    _preconditioner,
    bordered_solve,
    solve_ergodic,
    transport_coefficient,
    with_reason,
)
# Kept under this name: bench/tracing.py wraps `mfg.fp_peclet` by name, and
# tests/test_bench_hooks.py installs that tracer, so every traced bench run
# needs the alias.
from .hjb import mesh_peclet as fp_peclet


# ---------------------------------------------------------------------------
# specs and state


@dataclass
class MfgSpec:
    """One stationary game: exponents, coupling, shift, and iteration knobs.

    The outer loop damps its density update by a weight that starts at
    `_TAU` = 0.5, runs at most `_MAX_OUTER` = 60 iterations at each
    mollifier radius and stops on an outer change below `outer_tol`.
    Each inner value solve after the first resumes from the previous
    one's report, and each density solve after the first starts from the
    previous undamped density.  Both solve only as tightly as the outer
    loop has converged (see `mfg_fixed_point`); the iteration the loop
    stops on meets `SolverConfig().residual_tol` and the density solve's
    1e-10.
    The coupling comparison constant C_V defaults to max(2, alpha,
    1/alpha), the least that gate (MFG1) admits but at least 2.
    """

    grid: Grid
    gamma: float
    alpha: float
    c_v: Optional[float] = None           # coupling comparison constant C_V
    shift: Optional[ScalarField] = None   # b; must have d_nu b >= 0 on boxes
    eps: float = 0.1                      # mollifier radius
    outer_tol: float = 1e-9

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gradient growth gate (In1): need gamma > 1")
        if not self.alpha > 0.0:
            raise ValueError("coupling exponent alpha must be positive, got " + repr(self.alpha))
        if self.c_v is None:
            self.c_v = max(2.0, self.alpha, 1.0 / self.alpha)
        if not self.c_v > 1.0:
            raise ValueError("coupling comparison constant must exceed 1")
        if self.c_v < max(self.alpha, 1.0 / self.alpha) - 1e-12:
            raise ValueError(
                "coupling comparison gate (MFG1): need C_V >= max(alpha, 1/alpha)"
            )
        if self.eps < 0.0:
            raise ValueError("mollifier radius eps must be nonnegative, got " + repr(self.eps))
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
    mass: float = 1.0
    min_density: float = 0.0
    lam: float = 0.0
    gate: dict = dataclass_field(default_factory=dict)
    duality: dict = dataclass_field(default_factory=dict)
    lp_bounds: dict = dataclass_field(default_factory=dict)
    peclet: float = 0.0
    stages: list = dataclass_field(default_factory=list)
    message: str = ""


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
    # the centre offset weighs 1, so the mass is at least 1
    return kern / float(np.sum(kern))


def _kernel_transform(grid: Grid, eps: float):
    """(rfft of the kernel, FFT shape, clipped-mass denominator) of radius
    eps, or None when the kernel is a single node; kept on the grid per
    radius.

    The kernel's offsets wrap onto an array of the FFT shape: the grid's
    own on tori, where the product of transforms is the circular
    convolution; on boxes each axis is zero-padded by at least the kernel's
    half width, so nothing wraps onto the n nodes kept.  The box
    denominator is the kernel mass each node sees inside the box.
    """
    key = ("mollifier", float(eps))
    if key not in grid._cache:
        kern = _mollifier_kernel(grid, eps)
        if kern is None:
            grid._cache[key] = None
        else:
            halves = [(k - 1) // 2 for k in kern.shape]
            if all(grid.periodic):
                fshape = grid.shape
            else:
                fshape = tuple(_pocketfft.good_size(n + hw, True) for n, hw in zip(grid.shape, halves))
            emb = np.zeros(fshape)
            # add.at: on a torus as narrow as the kernel, offsets +-n/2 land on one node
            np.add.at(emb, np.ix_(*[np.arange(-hw, hw + 1) % n for hw, n in zip(halves, fshape)]), kern)
            khat = _pocketfft.r2c(emb, tuple(range(emb.ndim)), True, 0, None, 1)
            den = None
            if not all(grid.periodic):
                den = _fft_convolve(np.ones(grid.shape), khat, fshape)
            grid._cache[key] = (khat, fshape, den)
    return grid._cache[key]


def _fft_convolve(vals: np.ndarray, khat: np.ndarray, fshape: tuple) -> np.ndarray:
    """scipy.fft's irfftn(rfftn(vals, s=fshape) * khat, s=fshape), cut back
    to vals' shape: vals zero-padded to fshape, pocketfft's forward
    transform with norm code 0 and its inverse with 2 (1/N)."""
    axes = tuple(range(vals.ndim))
    kept = tuple(slice(0, n) for n in vals.shape)
    padded = vals.shape != fshape
    if padded:
        full = np.zeros(fshape)
        full[kept] = vals
        vals = full
    spectrum = _pocketfft.r2c(vals, axes, True, 0, None, 1)
    spectrum *= khat
    out = _pocketfft.c2r(spectrum, axes, fshape[-1], False, 2, None, 1)
    return np.ascontiguousarray(out[kept]) if padded else out


def _convolve(grid: Grid, vals: np.ndarray, eps: float) -> np.ndarray:
    """vals smoothed by the radius-eps kernel, as a product of FFTs.

    On tori the convolution is circular.  On boxes the kernel is clipped
    at the boundary and renormalized by the clipped mass, so the kernel
    seen by each node still integrates to one.  The kernel's transform and
    the clipped mass are computed once per grid and radius.
    """
    ker = _kernel_transform(grid, eps)
    if ker is None:
        return np.array(vals, dtype=float)
    khat, fshape, den = ker
    out = _fft_convolve(vals, khat, fshape)
    if den is not None:
        out /= den
    return out


def mollify_coupling(m: ScalarField, eps: float, alpha: float) -> ScalarField:
    """V_eps = (smooth m) -> power alpha -> smooth again.

    eps = 0 reduces to the plain power coupling.  The kernel is a
    positive symmetric compact bump with unit discrete mass, so constants
    are preserved up to round-off; both smoothings are FFT convolutions
    (`_convolve`), circular on tori and clipped and renormalized on boxes.
    """
    if alpha <= 0:
        raise ValueError("coupling exponent must be positive")
    grid = m.grid
    smoothed = _convolve(grid, m.values, eps)
    if alpha == 1.0:
        # |s| ** 1.0 * sign(s) is s bit for bit, but +0 at s = -0: so is s + 0
        powered = np.add(smoothed, 0.0, out=smoothed)
    else:
        powered = np.abs(smoothed) ** alpha * np.sign(smoothed)
    return ScalarField(grid, _convolve(grid, powered, eps))


def smoothed_density(m: ScalarField, eps: float) -> ScalarField:
    """Single convolution m * kernel (the inner smoothing alone)."""
    return ScalarField(m.grid, _convolve(m.grid, m.values, eps))


# ---------------------------------------------------------------------------
# stationary Fokker-Planck solve


# the density solve's tolerance on the bordered residual
_DENSITY_RTOL = 1e-10


def fp_solve(
    grid: Grid,
    drift: np.ndarray,
    *,
    start: Optional[np.ndarray] = None,
    rtol: float = _DENSITY_RTOL,
) -> ScalarField:
    """Invariant density of the transport with the given drift on grid.

    The drift is a first-order coefficient, one node array per axis: in the
    game, `transport_coefficient` of the value field.  The operator is the
    quadrature adjoint W^{-1} J^T W of the Jacobian with that coefficient,
    solved with unit-mass constraint.  `bordered_solve` takes its transport
    part `_Ops.adjoint_rest`: the diffusion part is the Laplacian that its
    preconditioner inverts, and where one axis' lines carry most of the
    drift the preconditioner also solves those lines' adjoint transport
    exactly (`hjb._preconditioner`).  The bordered multiplier comes out zero
    automatically because constants annihilate the forward operator.
    Positivity is an M-matrix consequence, checked via the advection mesh
    number, never enforced by clipping.

    `start` is a density to start the solve from (with multiplier 0)
    instead of zero; the game loop passes the previous one.  The solve
    stops on the same tolerance either way: the bordered residual at most
    `rtol`, relative to the unit mass constraint.  The game loop loosens
    `rtol` while its own change is large.
    """
    if not grid.is_flat or grid.coord_system != "cartesian":
        raise ValueError("density solves run on flat box/torus lattices only")
    ops = _ops_for(grid)
    pec = fp_peclet(grid, drift)
    if pec > 1.0:
        raise ValueError(
            "drift too strong for this resolution: advection mesh number "
            + repr(pec)
            + " exceeds 1"
        )
    mvals, mu, info = bordered_solve(
        grid,
        lambda m, out: ops.adjoint_rest(m, drift, out),
        _preconditioner(grid, drift, adjoint=True),
        np.zeros(grid.shape),
        1.0,
        rtol,
        x0=None if start is None else (start, 0.0),
    )
    if info != 0:
        raise RuntimeError(with_reason("density linear solve did not converge", info))
    # exact mass normalization (GMRES leaves round-off in the constraint)
    mvals = mvals / float(np.sum(grid.weights * mvals))
    return ScalarField(grid, mvals)


# ---------------------------------------------------------------------------
# outer fixed point

# Inexact inner solves (Dembo-Eisenstat-Steihaug forcing): an outer
# iteration after a change c solves the value and density equations to
# max(final tolerance, _FORCING * c); solving them tighter would not move
# the next iterate by more than the outer loop still moves it.
_FORCING = 1e-2
# Starting weight of the damped density update m <- (1 - tau) m + tau m_new,
# halved whenever the outer change grows.
_TAU = 0.5
# Outer iterations allowed at each mollifier radius.
_MAX_OUTER = 60


def _density_residual(grid: Grid, mvals: np.ndarray, drift: np.ndarray) -> float:
    """||(L + R) m||_2: the residual of `fp_solve`'s bordered system at a
    unit-mass m with multiplier 0, in the norm of its stopping test."""
    r = _inverter_for(grid).apply(mvals)
    r += _ops_for(grid).adjoint_rest(mvals, drift)
    return float(np.linalg.norm(r))


def _state_change(a, b) -> float:
    du = float(np.max(np.abs(a[0] - b[0])))
    dl = abs(a[1] - b[1])
    dm = float(np.max(np.abs(a[2] - b[2])))
    return max(du, dl, dm)


def mfg_fixed_point(spec: MfgSpec):
    """Damped outer iteration for the coupled system.

    Returns (MfgState, MfgReport).  The mollifier radius is continued
    from 0.1 down to the target when the target is smaller and the data
    are nontrivial, mirroring the vanishing-smoothing construction.

    Each outer iteration forms the drift of the new value function once,
    from the gradient the value solve formed for its last iterate, checks
    its Péclet number and hands it to the density solve.  The value solve
    resumes from the previous value solve's report, across mollifier
    stages too: it takes over that solve's last iterate, the residual
    formed there, with the new coupling in place of the old, and the
    iterate's gradient and |grad u|^2, so it evaluates no stencil before
    its first Newton step.  The report is the only state the loop carries
    for it; the coupling and the problem spec are dropped before the
    density solve.  The density solve starts from the previous undamped
    density.  The first value and density solves of a game start from
    zero.

    The inner solves run only as tightly as the loop has converged.  After
    an outer change c, the value solve's residual tolerance is
    max(SolverConfig().residual_tol, _FORCING c) and the density solve's
    max(1e-10, _FORCING c).  The first iteration of each mollifier stage
    has no previous change and runs at the final tolerances.  The loop
    stops only on an iteration whose inner solves met the final
    tolerances.  When the change falls below `outer_tol` after a looser
    iteration, the loop checks what that iteration's solves returned: the
    value solve's reported residual and the density equation's residual
    at the new density.  If either misses its final tolerance, one more
    iteration runs at the final tolerances.
    """
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
    m_start = None  # the last undamped density, where the next density solve starts
    value_rep = None  # the last value solve's report, which the next value solve resumes from
    total_iters = 0
    converged = False
    change = math.inf
    tau = _TAU
    peclet = 0.0
    message = ""

    value_tol = SolverConfig().residual_tol
    for eps in stages:
        stage_converged = False
        prev_change = math.inf
        for _ in range(_MAX_OUTER):
            # a stage's first iteration, and one after a change that already
            # met outer_tol, run at the final tolerances
            slack = _FORCING * prev_change if spec.outer_tol <= prev_change < math.inf else 0.0
            final = slack <= min(value_tol, _DENSITY_RTOL)
            v_eps = mollify_coupling(ScalarField(grid, mvals), eps, spec.alpha)
            prob = ProblemSpec(
                grid=grid,
                gamma=spec.gamma,
                shift=spec.shift,
                source=v_eps,
                ergodic=True,
            )
            cfg = SolverConfig(residual_tol=max(value_tol, slack), initial_guess=value_rep)
            rep = solve_ergodic(prob, cfg)
            if not rep.converged:
                message = "inner value solve failed to converge: " + rep.message
                break
            drift = transport_coefficient(prob, rep.u.values, rep.gradient)
            # the coupling and the specs die before the density solve
            del v_eps, prob, cfg
            pec = fp_peclet(grid, drift)
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
                m_new = fp_solve(grid, drift, start=m_start, rtol=max(_DENSITY_RTOL, slack))
            except RuntimeError as exc:
                message = str(exc) + " at mollifier radius " + repr(eps)
                break
            m_start = m_new.values
            # the damped update in one array, with tau m_new in a work array
            m_next = np.multiply(mvals, 1.0 - tau)
            m_next += np.multiply(m_new.values, tau, out=_ops_for(grid).work(0))
            change = _state_change((rep.u.values, rep.lam, m_next), (uvals, lam, mvals))
            if change > prev_change and tau > 2.0**-10:
                tau *= 0.5
            prev_change = change
            uvals, lam, mvals = rep.u.values, rep.lam, m_next
            total_iters += 1
            # a loose iteration counts when what its solves returned meets the
            # final tolerances anyway; otherwise one more runs at them
            done = change < spec.outer_tol and (
                final
                or (rep.residual <= value_tol and _density_residual(grid, m_new.values, drift) <= _DENSITY_RTOL)
            )
            value_rep = rep
            # the drift and the density die before the next mollification
            del rep, drift, m_new, m_next
            if done:
                stage_converged = True
                break
        if message:
            break
        if not stage_converged:
            message = "outer iteration budget exhausted at radius " + repr(eps)
            break
    converged = not message
    value_rep = None  # its carried arrays are not needed past the loop

    state = MfgState(
        u=ScalarField(grid, uvals - float(np.sum(grid.weights * uvals)) / vol),
        lam=float(lam),
        m=ScalarField(grid, mvals),
    )
    report = MfgReport(
        converged=converged,
        outer_iterations=total_iters,
        outer_residual=float(change),
        mass=float(np.sum(grid.weights * mvals)),
        min_density=float(np.min(mvals)),
        lam=float(lam),
        gate=gate,
        peclet=peclet,
        stages=[float(s) for s in stages],
        message=message,
    )
    if converged:
        if all(grid.periodic):
            report.duality = duality_identity_residual(state, spec)
        if grid.dim >= 3:
            report.lp_bounds = lp_bound_check(state, spec)
    return state, report


# ---------------------------------------------------------------------------
# diagnostics


def _hessian_sup_norm(b: Optional[ScalarField]) -> float:
    if b is None:
        return 0.0
    return float(np.max(_frame_norm(b.grid, hessian_reductions(b)[1], -2.0)))


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
    gradu = gradient(state.u).values
    # ||Hess u||^2 and |H grad u|^2 from one pass over the Hessian's
    # components, and |grad u|^2 one component at a time, each the numpy
    # reduction over the leading axes bit for bit (the grid is flat)
    _, hess_sq_frob, p_h2_p = hessian_reductions(state.u, gradu)
    p_sq = _sum_of_squares(gradu)
    del gradu
    amp = (p_sq + EPS_REG**2) ** ((spec.gamma - 2.0) / 2.0)
    amp2 = (p_sq + EPS_REG**2) ** ((spec.gamma - 4.0) / 2.0)
    trace_term = amp * hess_sq_frob + (spec.gamma - 2.0) * amp2 * p_h2_p
    lhs = -float(np.sum(w * trace_term * state.m.values))
    del p_sq, amp, amp2, hess_sq_frob, p_h2_p, trace_term

    v_eps = mollify_coupling(state.m, spec.eps, spec.alpha)
    grad_m = gradient(state.m).values
    rhs = float(np.sum(w * _sum_of_products(gradient(v_eps).values, grad_m)))
    if spec.shift is not None:
        rhs -= float(np.sum(w * _sum_of_products(gradient(spec.shift).values, grad_m)))
    del grad_m

    m_eps = smoothed_density(state.m, spec.eps)
    vprime = spec.alpha * np.abs(m_eps.values) ** (spec.alpha - 1.0)
    energy = float(np.sum(w * vprime * _sum_of_squares(gradient(m_eps).values)))
    bound = _hessian_sup_norm(spec.shift)
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
    norm = lq_norm(m_eps, expo)
    root = ScalarField(grid, np.abs(m_eps.values) ** ((spec.alpha + 1.0) / 2.0))
    energy = lq_norm(gradient(root), 2.0) ** 2
    bound = _hessian_sup_norm(spec.shift)
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
