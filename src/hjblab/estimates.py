"""Scaling-law experiments and functional-constant measurements.

Two headline a priori bounds are checked behaviorally at desk scale: the
gradient-integrability bound (the r-norm of the gradient grows no faster
than the data norm) and maximal integrability (Laplacian and gradient
power land in the same Lebesgue space as the source).  "Bounded constant"
is operationalized as a log-log slope threshold on amplitude sweeps,
since the underlying constants are nonconstructive.  The module also
records a lower bound for the Sobolev embedding constant (the quotient of
the constant field), measures the second-derivative/Laplacian norm ratio,
and builds the gate block that every report carries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .bernstein import maxreg_params
from .fields import (
    ScalarField,
    VectorField,
    _frame_norm,
    _lq,
    gradient,
    hessian_reductions,
    laplace_beltrami,
    lq_norm,
    pointwise_norm,
)
from .geometry import Grid, ricci_lower_bound
from .hjb import ProblemSpec, SolverConfig, solve_ergodic


# ---------------------------------------------------------------------------
# closed-form exponents of the gradient-integrability bound


@dataclass(frozen=True)
class ThmOneExponents:
    """Exponent bookkeeping for the gradient-integrability scaling."""

    d: int
    p: float
    r: float
    beta_p: float
    q: float


def thm1_exponents(d: int, p: float) -> ThmOneExponents:
    """r = 2(p+1)d/(d-2), beta_p = (p+1)d/(d+2p), q = 2 beta_p.

    The data exponent q stays strictly between 1 and d and climbs to d as
    p grows, so arbitrarily high gradient integrability is bought with
    data integrability still below the dimension.
    """
    if d < 3:
        raise ValueError("dimension must be at least 3")
    if p < 1:
        raise ValueError("gradient-power parameter must be at least 1")
    r = 2.0 * (p + 1.0) * d / (d - 2.0)
    beta_p = (p + 1.0) * d / (d + 2.0 * p)
    q = 2.0 * beta_p
    out = ThmOneExponents(d=d, p=float(p), r=r, beta_p=beta_p, q=q)
    if not (1.0 < q < d):
        raise AssertionError("exponent bookkeeping out of range: q must lie in (1, d)")
    return out


# ---------------------------------------------------------------------------
# amplitude sweeps


@dataclass
class SweepSpec:
    """Inputs of one amplitude sweep over f = t * f0; gamma must pass (In1)
    here, before any sweep builds its gates or starts a solve."""

    grid: Grid
    gamma: float
    source: ScalarField                     # base profile f0
    amplitudes: tuple
    q: float
    r: Optional[float] = None               # gradient exponent (first sweep kind)
    drift: Optional[VectorField] = None
    drift_s: Optional[float] = None         # integrability exponent of the drift bound
    drift_theta: Optional[float] = None     # declared bound for ||B||_{L^s}
    cfg: Optional[SolverConfig] = None

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gradient growth gate (In1): need gamma > 1")
        amps = tuple(float(t) for t in self.amplitudes)
        if not amps:
            raise ValueError("amplitudes must not be empty")
        if any(t < 0 for t in amps):
            raise ValueError("amplitudes must be nonnegative")
        if any(b <= a for a, b in zip(amps, amps[1:])):
            raise ValueError("amplitudes must be strictly increasing")
        self.amplitudes = amps


@dataclass
class ScalingReport:
    kind: str
    amplitudes: tuple
    ratios: tuple
    slope: Optional[float]                  # None when fewer than two rows fit
    slope_top_decade: Optional[float]
    max_ratio: Optional[float]              # None when no row was measured
    ratio_at_one: Optional[float]
    lambdas: tuple
    K: Optional[float]                      # None when no row was measured
    gates: dict
    converged: tuple
    aborted: bool = False
    message: str = ""
    norm_rows: list = dataclass_field(default_factory=list)
    warnings: list = dataclass_field(default_factory=list)


def _fit_slope(ts, ratios):
    """Least-squares slope of log ratio vs log t over the points with t > 0
    and ratio > 0; None when fewer than two are left, so no slope is fit."""
    pts = [(t, r) for t, r in zip(ts, ratios) if t > 0 and r > 0]
    if len(pts) < 2:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


def _top_decade_slope(ts, ratios):
    tmax = max(ts)
    sel = [(t, r) for t, r in zip(ts, ratios) if t >= tmax / 10.0 - 1e-12]
    return _fit_slope([s[0] for s in sel], [s[1] for s in sel])


def drift_gate(
    grid: Grid, drift: Optional[VectorField], s: Optional[float], theta: Optional[float]
) -> dict:
    """Gate (In2) on a drift B: s > d, and ||B||_{L^s} <= theta when a
    bound theta is declared (an undeclared one is the norm itself).
    Returns the gate entries {"theta": theta, "s": s}: 0 and None when
    there is no drift."""
    if drift is None:
        return {"theta": 0.0, "s": None}
    if s is None or s <= grid.dim:
        raise ValueError(
            "assumption gate (In2) violated: need s > d when a drift is present"
        )
    norm = lq_norm(drift, s)
    if theta is None:
        theta = norm
    if norm > theta * (1.0 + 1e-12):
        raise ValueError(
            "assumption gate (In2) violated: ||B||_{L^s} = " + repr(norm)
            + " exceeds the declared theta = " + repr(theta)
        )
    return {"theta": float(theta), "s": float(s)}


def gate_block(grid: Grid, drift_info: Optional[dict] = None, K=None, c_v=None) -> dict:
    """Structural quantities recorded in every report's gate block.

    kappa is the Ricci lower bound, rho the largest extent (the radius on
    the disc), sigma_hat the Sobolev constant bound (None below d = 3),
    theta and s the drift bound and its exponent, K the data-plus-gradient
    size of a solve and C_V the coupling comparison constant.
    """
    drift_info = drift_info or {}
    return {
        "kappa": ricci_lower_bound(grid),
        "rho": float(
            max(grid.domain.extents)
            if grid.coord_system == "cartesian"
            else grid.domain.radius
        ),
        "sigma_hat": sobolev_constant_estimate(grid) if grid.dim >= 3 else None,
        "theta": drift_info.get("theta", 0.0),
        "s": drift_info.get("s"),
        "K": K,
        "C_V": c_v,
    }


def _sweep_row(spec: SweepSpec, kind: str, cfg: SolverConfig, t: float, warm):
    """Solve at amplitude t, resumed from `warm`, the previous amplitude's
    report (None for the first), and measure the row.

    Returns (report, row) for a converged solve and (None, the solver's
    message) otherwise.  The source, |grad u| and its gamma-th power are
    locals, so they die on return.  |grad u| is formed once and serves
    every norm of the row."""
    f_field = ScalarField(spec.grid, t * spec.source.values)
    prob = ProblemSpec(
        grid=spec.grid,
        gamma=spec.gamma,
        drift=spec.drift,
        source=f_field,
        ergodic=True,
    )
    rep = solve_ergodic(prob, dataclasses.replace(cfg, initial_guess=warm))
    if not rep.converged:
        return None, rep.message
    fq = lq_norm(f_field, spec.q)
    speed = ScalarField(spec.grid, pointwise_norm(gradient(rep.u)))
    grad1 = lq_norm(speed, 1.0)
    if kind == "gradient-integrability":
        num = lq_norm(speed, spec.r)
    else:
        lap_q = lq_norm(laplace_beltrami(rep.u), spec.q)
        ham_q = lq_norm(ScalarField(spec.grid, speed.values ** spec.gamma), spec.q)
        num = lap_q + ham_q
    return rep, {
        "t": t,
        "ratio": num / (1.0 + fq),
        "lambda": rep.lam,
        "f_q": fq,
        "grad_l1": grad1,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "peclet": rep.peclet,
    }


def _run_sweep(spec: SweepSpec, kind: str) -> ScalingReport:
    """Each row records the mesh Peclet number of the solve's last Jacobian,
    and an amplitude where it exceeds 1 adds a warning: there the centered
    first differences no longer keep the M-matrix sign pattern, and the
    discretization runs outside the regime it is valid in.

    Between amplitudes the loop carries the row's scalars and the last
    solve's report, from which the next solve resumes: it takes over the
    report's last iterate, the residual formed there, with the source
    t f replaced by t' f, and that iterate's gradient and |grad u|^2 as
    its own arrays, so it evaluates no stencil before its first Newton
    step.  The report keeps only its u until the next one replaces it.
    `_sweep_row` holds the rest of a row's arrays and drops them before
    the next solve starts, and the last report is dropped before the gate
    block.  A sweep that measured no row reports max_ratio and K as None."""
    # fail fast before any solve
    drift_info = drift_gate(spec.grid, spec.drift, spec.drift_s, spec.drift_theta)
    cfg = spec.cfg or SolverConfig()
    ts, ratios, lambdas, convs, rows, warnings = [], [], [], [], [], []
    warm = None
    aborted = False
    message = ""
    for t in spec.amplitudes:
        rep, row = _sweep_row(spec, kind, cfg, t, warm)
        convs.append(rep is not None)
        if rep is None:
            aborted = True
            message = "solve failed to converge at amplitude " + repr(t) + ": " + row
            break
        warm = rep
        ts.append(t)
        ratios.append(row["ratio"])
        lambdas.append(row["lambda"])
        rows.append(row)
        if row["peclet"] > 1.0:
            warnings.append(
                "mesh Peclet number " + format(row["peclet"], ".3g") + " exceeds 1 at amplitude "
                + repr(t) + ": the discretization is outside its M-matrix regime"
            )
    warm = rep = None  # the last report, with its carried arrays
    # a sweep that measured no row has no data-plus-gradient size
    K = max(row["f_q"] + row["grad_l1"] for row in rows) if rows else None
    gates = gate_block(spec.grid, drift_info, K=K)
    ratio_at_one = None
    for t, r in zip(ts, ratios):
        if abs(t - 1.0) <= 1e-12:
            ratio_at_one = r
    return ScalingReport(
        kind=kind,
        amplitudes=tuple(ts),
        ratios=tuple(ratios),
        slope=_fit_slope(ts, ratios),
        slope_top_decade=_top_decade_slope(ts, ratios) if ts else None,
        max_ratio=max(ratios) if ratios else None,
        ratio_at_one=ratio_at_one,
        lambdas=tuple(lambdas),
        K=K,
        gates=gates,
        converged=tuple(convs),
        aborted=aborted,
        message=message,
        norm_rows=rows,
        warnings=warnings,
    )


def thm1_sweep(spec: SweepSpec) -> ScalingReport:
    """Amplitude sweep of the gradient r-norm against the data q-norm."""
    if spec.r is None:
        raise ValueError("this sweep needs the gradient exponent r")
    return _run_sweep(spec, "gradient-integrability")


def thm2_sweep(spec: SweepSpec) -> ScalingReport:
    """Amplitude sweep of Laplacian + gradient-power norms in L^q.

    Rejects a drift, citing (~In2), and (d, gamma, q) that fail the
    integrability gate of `maxreg_params`; delta does not enter that gate.
    """
    if spec.drift is not None:
        raise ValueError("assumption gate (~In2) violated: this sweep requires zero drift")
    maxreg_params(spec.grid.dim, spec.gamma, spec.q, 0.1)
    return _run_sweep(spec, "maximal-integrability")


# ---------------------------------------------------------------------------
# base source profiles


def source_family(grid: Grid, kind: str, q_norm: float) -> ScalarField:
    """Smooth base profiles f0, normalized to unit L^q norm.

    kind 'mode': single cosine mode; 'bump': concentrated periodic bump;
    'power': mollified inverse-power spike min(A, |x-x0|^{-d/q~}) with
    q~ = 1.1 q, probing unbounded data at desk scale.
    """
    mesh = grid.mesh()
    Ls = grid.domain.extents
    if kind == "mode":
        vals = np.cos(2.0 * np.pi * mesh[0] / Ls[0])
    elif kind == "bump":
        vals = np.ones(grid.shape)
        for x, L in zip(mesh, Ls):
            vals = vals * np.exp(8.0 * (np.cos(2.0 * np.pi * (x - 0.5 * L) / L) - 1.0))
    elif kind == "power":
        qt = q_norm * 1.1
        d = grid.dim
        dist_sq = np.zeros(grid.shape)
        for x, L in zip(mesh, Ls):
            delta = x - 0.5 * L
            if grid.periodic[0]:
                delta = np.minimum(np.abs(delta), L - np.abs(delta))
            dist_sq = dist_sq + delta**2
        h = max(grid.spacings)
        cap = (2.0 * h) ** (-d / qt)
        with np.errstate(divide="ignore"):
            vals = np.minimum(cap, np.sqrt(dist_sq) ** (-d / qt))
    else:
        raise ValueError("unknown source family: " + repr(kind))
    f = ScalarField(grid, vals)
    scale = lq_norm(f, q_norm)
    return ScalarField(grid, vals / scale)


# ---------------------------------------------------------------------------
# Sobolev embedding constant


def sobolev_ratio(u: ScalarField) -> float:
    """R(u) = ||u||_{2d/(d-2)} / (||grad u||_2 + ||u||_2)."""
    d = u.grid.dim
    if d < 3:
        raise ValueError("dimension must be at least 3")
    m = 2.0 * d / (d - 2.0)
    num = lq_norm(u, m)
    den = lq_norm(gradient(u), 2.0) + lq_norm(u, 2.0)
    if den == 0.0:
        raise ValueError("zero field has no quotient")
    return num / den


def sobolev_constant_estimate(grid: Grid) -> float:
    """Lower bound for the embedding constant: the constant field's quotient.

    That quotient is vol^{1/m} / vol^{1/2} = vol^{-1/d}, m = 2d/(d-2)
    (exactly 1 on the unit box and torus), taken here from the grid's
    quadrature volume.  No search is run because the constant field is a
    strict local maximum of R: a mean-zero perturbation raises ||grad u||_2
    at first order but moves ||u||_m / ||u||_2 only at second order.
    """
    d = grid.dim
    if d < 3:
        raise ValueError("dimension must be at least 3")
    m = 2.0 * d / (d - 2.0)
    return float(grid.vol ** (1.0 / m) / grid.vol ** 0.5)


# ---------------------------------------------------------------------------
# second-derivative / Laplacian norm ratio


def cz_ratio(samples, exponents) -> tuple:
    """max ||Hess u||_{L^p} / ||Lap u||_{L^p} over the given fields, one
    ratio for each exponent p in `exponents`, in their order.

    An empirical lower bound for the norm-conversion constant; exactly 1
    at p = 2 on flat tori, where both sides share one Fourier symbol.
    One pass over each field's Hessian components gives its Laplacian and
    its frame norm, which serve every exponent.
    """
    if any(p <= 1 for p in exponents):
        raise ValueError("norm exponent must exceed 1")
    best = [None] * len(exponents)
    for u in samples:
        trace, squares, _ = hessian_reductions(u)
        norm = _frame_norm(u.grid, squares, -2.0)
        for i, p in enumerate(exponents):
            lap = lq_norm(trace, p)
            if lap <= 1e-300:
                continue
            val = _lq(u.grid, norm, p) / lap
            best[i] = val if best[i] is None else max(best[i], val)
    if any(b is None for b in best):
        raise ValueError("all samples are harmonic: the ratio is undefined")
    return tuple(float(b) for b in best)


def random_band_limited(grid: Grid, seed: int = 0) -> ScalarField:
    """Random trigonometric polynomial, wavenumbers -3..3 (periodic grids)."""
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    Ls = grid.domain.extents
    vals = np.zeros(grid.shape)
    naxes = len(grid.shape)
    for _ in range(8):
        ks = rng.integers(-3, 4, size=naxes)
        if not np.any(ks):
            continue
        amp = rng.normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = np.zeros(grid.shape)
        for x, L, k in zip(mesh, Ls, ks):
            arg = arg + 2.0 * np.pi * k * x / L
        vals = vals + amp * np.cos(arg + phase)
    return ScalarField(grid, vals)
