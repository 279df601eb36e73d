"""Damped Newton solver for stationary viscous Hamilton-Jacobi problems.

The equation solved at the nodes is

    -Lap_g u + (c1/gamma) |grad u|_g^gamma + g(B, grad u) + lam + b = f

with homogeneous Neumann conditions on boxes (imposed by mirror ghosts)
or periodicity on tori.  The unknown pair is (u, lam): because only
derivatives of u enter, constants are a gauge direction, so every solve
carries a quadrature-mean constraint on u together with the additive
multiplier lam.  In ergodic mode lam is the sought critical value; in
plain mode it is reported as the compatibility defect of the data (zero,
up to truncation, for manufactured sources).

Solver stencils are narrow: three-point second differences and centered
first differences with mirror (even-reflection) closures, so the Jacobian
keeps the classical M-matrix sparsity.  Linear solves are matrix-free
GMRES preconditioned by an exact fast-transform inverse of the flat
constrained Laplacian (FFT on tori, DCT-I on boxes).  A solve either
converges or stops with a named reason: the Newton budget is exhausted,
a linear solve fails, or the line search reaches its backtracking floor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator, gmres

from .fields import (
    ScalarField,
    SymTensorField,
    VectorField,
    _metric_trace,
    gradient,
    hessian,
    lq_norm,
    pointwise_norm,
)
from .geometry import Grid
from .stencils import apply_along_axis, d1_matrix, d2_matrix


@dataclass
class ProblemSpec:
    """Data of one stationary problem on a fixed grid."""

    grid: Grid
    gamma: float
    c1: float = 1.0
    drift: Optional[VectorField] = None
    shift: Optional[ScalarField] = None     # additive zeroth-order data b
    source: Optional[ScalarField] = None    # right-hand side f
    ergodic: bool = False
    lam: float = 0.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gradient growth gate (In1): need gamma > 1")
        if not self.c1 > 0.0:
            raise ValueError("gradient growth gate (In1): need c1 > 0")
        if self.grid.coord_system != "cartesian":
            raise ValueError("solver runs on box/torus lattices only")

    @property
    def gamma_conj(self) -> float:
        return self.gamma / (self.gamma - 1.0)


# eps in (|grad u|^2 + eps^2)^{(gamma-2)/2}, shared by the linearized
# transport here and the game's optimal drift.
EPS_REG = 1e-8


@dataclass
class SolverConfig:
    residual_tol: float = 1e-10
    max_iter: int = 60
    initial_guess: Optional[ScalarField] = None


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    u: ScalarField
    lam: float
    compat_defect: float
    history: list = dataclass_field(default_factory=list)
    message: str = ""
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# solver-side discrete operators (mirror/periodic closures)


class _Ops:
    """Narrow-stencil operators of one grid, with Neumann mirror closures."""

    def __init__(self, grid: Grid):
        if grid.coord_system != "cartesian":
            raise ValueError("solver operators need a cartesian lattice")
        self.grid = grid
        self.naxes = len(grid.shape)
        self.d1 = []
        self.d2 = []
        for a in range(self.naxes):
            bc1 = "periodic" if grid.periodic[a] else "mirror"
            self.d1.append(d1_matrix(grid.shape[a], grid.spacings[a], bc1))
            self.d2.append(d2_matrix(grid.shape[a], grid.spacings[a], bc1))
        self.d1t = [m.T.tocsr() for m in self.d1]
        self.d2t = [m.T.tocsr() for m in self.d2]
        if not grid.is_flat and not all(grid.periodic):
            raise NotImplementedError("conformal solving is supported on tori only")

    def grad(self, vals: np.ndarray) -> np.ndarray:
        return np.stack(
            [apply_along_axis(self.d1[a], vals, a) for a in range(self.naxes)]
        )

    def lap_flat(self, vals: np.ndarray) -> np.ndarray:
        out = apply_along_axis(self.d2[0], vals, 0)
        for a in range(1, self.naxes):
            out += apply_along_axis(self.d2[a], vals, a)
        return out

    def lap_metric(self, vals: np.ndarray, dvals: Optional[np.ndarray] = None) -> np.ndarray:
        flat = self.lap_flat(vals)
        if self.grid.is_flat:
            return flat
        if dvals is None:
            dvals = self.grad(vals)
        d = self.grid.dim
        corr = (d - 2.0) * np.sum(self.grid.phi_gradient() * dvals, axis=0)
        return self.grid.conformal_factor(-2.0) * (flat + corr)

    def transport_apply(self, vals: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """(-Lap_g + coeff . D) vals, the linearized operator.

        On flat grids coeff . D vals is summed axis by axis, in the order of
        np.sum(coeff * dvals, axis=0), with no (d, *shape) temporaries.
        Stacked, they made glibc trim and re-fault several MB of heap on
        every GMRES iteration at 48^3.
        """
        if not self.grid.is_flat:
            dvals = self.grad(vals)
            out = -self.lap_metric(vals, dvals)
            out += np.sum(coeff * dvals, axis=0)
            return out
        adv = coeff[0] * apply_along_axis(self.d1[0], vals, 0)
        for a in range(1, self.naxes):
            adv += coeff[a] * apply_along_axis(self.d1[a], vals, a)
        out = -self.lap_flat(vals)
        out += adv
        return out

    def transport_transpose_apply(self, vals: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """Plain matrix transpose of transport_apply (same coeff frozen)."""
        g = self.grid
        if not g.is_flat:
            raise NotImplementedError("transpose transport is used on flat grids only")
        out = np.zeros(g.shape)
        for a in range(self.naxes):
            out -= apply_along_axis(self.d2t[a], vals, a)
            out += apply_along_axis(self.d1t[a], coeff[a] * vals, a)
        return out


class _FlatInverter:
    """Exact fast-transform inverse of the flat constrained Laplacian.

    Solves  -Lap x + mu = r,  <x>_w = c  for (x, mu); used as the GMRES
    preconditioner for the bordered Newton and density systems.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.periodic = all(grid.periodic)
        if not self.periodic and any(grid.periodic):
            raise ValueError("mixed periodic/box axes are not supported")
        shape = grid.shape
        self.sym = 0.0
        for a, (n, h) in enumerate(zip(shape, grid.spacings)):
            if self.periodic:
                # real FFT shrinks the last axis
                k = np.arange(n // 2 + 1 if a == len(shape) - 1 else n)
                s = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / h**2
            else:
                k = np.arange(n)
                s = (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / h**2
            sh = [1] * len(shape)
            sh[a] = len(k)
            self.sym = self.sym + s.reshape(sh)
        self.inv_sym = np.zeros_like(self.sym)
        mask = self.sym > 1e-14
        self.inv_sym[mask] = 1.0 / self.sym[mask]
        self.w = grid.weights
        self.vol = grid.vol

    def solve(self, r: np.ndarray, c: float = 0.0):
        mu = float(np.sum(self.w * r)) / self.vol
        r0 = r - mu
        if self.periodic:
            rhat = sfft.rfftn(r0)
            x = sfft.irfftn(rhat * self.inv_sym, s=self.grid.shape)
        else:
            rhat = sfft.dctn(r0, type=1)
            x = sfft.idctn(rhat * self.inv_sym, type=1)
        x = x + (c - float(np.sum(self.w * x))) / self.vol
        return x, mu


# ---------------------------------------------------------------------------
# residual and helpers


def _metric_grad_norm_sq(spec: ProblemSpec, dvals: np.ndarray) -> np.ndarray:
    sq = np.sum(dvals**2, axis=0)
    if spec.grid.is_flat:
        return sq
    return spec.grid.conformal_factor(-2.0) * sq


def residual(u: ScalarField, spec: ProblemSpec, lam: Optional[float] = None) -> ScalarField:
    """Node-wise residual of the stationary equation (solver stencils)."""
    if u.grid is not spec.grid and u.grid.shape != spec.grid.shape:
        raise ValueError("field and problem live on different grids")
    ops = _ops_for(spec.grid)
    if lam is None:
        lam_val = spec.lam if spec.ergodic else 0.0
    else:
        lam_val = lam
    vals = _residual_core(spec, ops, u.values) + lam_val
    return ScalarField(spec.grid, vals)


def _residual_core(spec: ProblemSpec, ops: _Ops, uvals: np.ndarray) -> np.ndarray:
    """-Lap_g u + (c1/gamma)|grad u|^gamma + g(B, grad u) + b - f."""
    dvals = ops.grad(uvals)
    out = -ops.lap_metric(uvals, dvals)
    gn2 = _metric_grad_norm_sq(spec, dvals)
    out += (spec.c1 / spec.gamma) * gn2 ** (spec.gamma / 2.0)
    if spec.drift is not None:
        # g(B, grad u) reduces to B^i du_i for conformal metrics as well
        out += np.sum(spec.drift.values * dvals, axis=0)
    if spec.shift is not None:
        out += spec.shift.values
    if spec.source is not None:
        out -= spec.source.values
    return out


def transport_coefficient(spec: ProblemSpec, uvals: np.ndarray) -> np.ndarray:
    """Lattice coefficient of the linearized first-order term.

    a_i = c1 e^{-gamma phi} (|du|^2 + eps^2)^{(gamma-2)/2} du_i + B_i; the
    regularization keeps the coefficient finite at critical points when
    gamma < 2.
    """
    ops = _ops_for(spec.grid)
    dvals = ops.grad(uvals)
    sq = np.sum(dvals**2, axis=0)
    amp = spec.c1 * (sq + EPS_REG**2) ** ((spec.gamma - 2.0) / 2.0)
    if not spec.grid.is_flat:
        amp = amp * spec.grid.conformal_factor(-spec.gamma)
    coeff = amp * dvals
    if spec.drift is not None:
        coeff = coeff + spec.drift.values
    return coeff


def _ops_for(grid: Grid) -> _Ops:
    """Solver operators of `grid`, built on first use and kept on the grid."""
    if "solver_ops" not in grid._cache:
        grid._cache["solver_ops"] = _Ops(grid)
    return grid._cache["solver_ops"]


def _inverter_for(grid: Grid) -> _FlatInverter:
    """Preconditioner of `grid`, built on first use and kept on the grid."""
    if "flat_inverter" not in grid._cache:
        grid._cache["flat_inverter"] = _FlatInverter(grid)
    return grid._cache["flat_inverter"]


# ---------------------------------------------------------------------------
# Newton driver


def _weighted_norm(grid: Grid, vals: np.ndarray) -> float:
    return float(np.sqrt(np.sum(grid.weights * vals**2)))


def bordered_solve(
    grid: Grid,
    apply_fn,
    inv: _FlatInverter,
    rhs_field: np.ndarray,
    rhs_constraint: float,
    rtol: float,
):
    """Constrained system [[A, 1], [w^T, 0]] [x; mu] = [rhs; c] via GMRES.

    apply_fn maps a node array to A x; the preconditioner is the exact
    inverse of the flat constrained Laplacian.  Returns (x, mu, info)
    with info = 0 on GMRES success.
    """
    shape = grid.shape
    n = int(np.prod(shape))
    w = grid.weights

    def matvec(z):
        v = z[:-1].reshape(shape)
        out = np.empty(n + 1)
        np.add(apply_fn(v).reshape(-1), z[-1], out=out[:-1])
        out[-1] = np.sum(w * v)
        return out

    def psolve(z):
        x, mu = inv.solve(z[:-1].reshape(shape), z[-1])
        out = np.empty(n + 1)
        out[:-1] = x.reshape(-1)
        out[-1] = mu
        return out

    A = LinearOperator((n + 1, n + 1), matvec=matvec)
    M = LinearOperator((n + 1, n + 1), matvec=psolve)
    b = np.concatenate([rhs_field.reshape(-1), [rhs_constraint]])
    z0 = psolve(b)
    sol, info = gmres(
        A, b, x0=z0, rtol=rtol, atol=0.0, restart=80, maxiter=400, M=M
    )
    return sol[:-1].reshape(shape), float(sol[-1]), int(info)


def solve(spec: ProblemSpec, cfg: Optional[SolverConfig] = None) -> SolveReport:
    """Damped Newton with mean constraint and additive multiplier.

    Ergodic mode returns the multiplier as the critical constant; plain
    mode reports it as the compatibility defect of the discrete data.
    """
    cfg = cfg or SolverConfig()
    grid = spec.grid
    ops = _ops_for(grid)
    inv = _inverter_for(grid)
    t0 = time.perf_counter()

    if cfg.initial_guess is not None:
        uvals = np.array(cfg.initial_guess.values, dtype=float)
        uvals -= float(np.sum(grid.weights * uvals)) / grid.vol
    else:
        uvals = np.zeros(grid.shape)
    lam = 0.0
    history = []
    message = ""

    def F(uv, lv):
        return _residual_core(spec, ops, uv) + lv

    res = F(uvals, lam)
    res_norm = _weighted_norm(grid, res)
    res0 = max(res_norm, 1e-30)
    history.append(res_norm)
    iters = 0
    converged = res_norm <= cfg.residual_tol

    while not converged and iters < cfg.max_iter:
        coeff = transport_coefficient(spec, uvals)
        rtol = float(np.clip(res_norm / res0, 1e-10, 1e-2))
        delta_u, delta_lam, info = bordered_solve(
            grid,
            lambda v: ops.transport_apply(v, coeff),
            inv,
            -res,
            -float(np.sum(grid.weights * uvals)),
            rtol,
        )
        if info != 0:
            message = (
                "linear solve failed at Newton step " + str(iters + 1)
                + " (GMRES info " + str(info) + ")"
            )
            break
        alpha = 1.0
        accepted = False
        while alpha >= 2.0**-20:
            trial_u = uvals + alpha * delta_u
            trial_lam = lam + alpha * delta_lam
            trial_res = F(trial_u, trial_lam)
            trial_norm = _weighted_norm(grid, trial_res)
            if trial_norm <= (1.0 - 1e-4 * alpha) * res_norm or trial_norm <= cfg.residual_tol:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            message = "stalled: backtracking floor reached"
            break
        uvals, lam, res, res_norm = trial_u, trial_lam, trial_res, trial_norm
        iters += 1
        history.append(res_norm)
        converged = res_norm <= cfg.residual_tol

    # exact gauge fix: constants do not change the residual
    mean = float(np.sum(grid.weights * uvals)) / grid.vol
    uvals = uvals - mean

    if not converged and not message:
        message = "iteration budget exhausted"
    return SolveReport(
        converged=bool(converged),
        iterations=iters,
        residual=res_norm,
        u=ScalarField(grid, uvals),
        lam=float(lam) if spec.ergodic else 0.0,
        compat_defect=0.0 if spec.ergodic else float(lam),
        history=history,
        message=message,
        wall_time=time.perf_counter() - t0,
    )


def solve_ergodic(spec: ProblemSpec, cfg: Optional[SolverConfig] = None) -> SolveReport:
    if not spec.ergodic:
        raise ValueError("solve_ergodic needs a spec with ergodic=True")
    return solve(spec, cfg)


def solution_norm_table(spec: ProblemSpec, u: ScalarField) -> dict:
    """L^2 norms of grad u, Lap u, |grad u|^gamma and Hess u via the
    analysis calculus, as {family: {"2.0": norm}}."""
    gradu = gradient(u)
    hess = hessian(u)
    families = {
        "grad": gradu,
        "lap": _metric_trace(hess),
        "grad_pow_gamma": ScalarField(u.grid, pointwise_norm(gradu) ** spec.gamma),
        "hess": hess,
    }
    return {name: {"2.0": lq_norm(f, 2.0).value} for name, f in families.items()}


# ---------------------------------------------------------------------------
# manufactured problems


def manufactured_solution(grid: Grid) -> ScalarField:
    """Neumann-compatible product-of-cosines reference solution."""
    mesh = grid.mesh()
    vals = np.ones(grid.shape)
    for x, L in zip(mesh, grid.domain.extents):
        vals = vals * np.cos(np.pi * x / L)
    return ScalarField(grid, vals)


def manufactured_source(spec_grid: Grid, gamma: float, c1: float = 1.0, symbolic: bool = True):
    """Source that makes the cosine product an exact (symbolic=True:
    continuum; else discrete) solution of the plain equation."""
    grid = spec_grid
    mesh = grid.mesh()
    Ls = grid.domain.extents
    ustar = manufactured_solution(grid)
    if not symbolic:
        spec = ProblemSpec(grid, gamma=gamma, c1=c1)
        ops = _ops_for(grid)
        vals = _residual_core(spec, ops, ustar.values)
        return ustar, ScalarField(grid, vals)
    lap = np.zeros(grid.shape)
    grad_sq = np.zeros(grid.shape)
    for a, (x, L) in enumerate(zip(mesh, Ls)):
        freq = np.pi / L
        lap -= freq**2 * ustar.values
        prod = np.ones(grid.shape)
        for b2, (y, M) in enumerate(zip(mesh, Ls)):
            t = np.pi * y / M
            prod = prod * (np.sin(t) if b2 == a else np.cos(t))
        grad_sq += (freq * prod) ** 2
    fvals = -lap + (c1 / gamma) * grad_sq ** (gamma / 2.0)
    return ustar, ScalarField(grid, fvals)
