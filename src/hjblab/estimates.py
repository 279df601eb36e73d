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

from .bernstein import MaxRegParams, maxreg_params
from .fields import (
    ScalarField,
    VectorField,
    _metric_trace,
    gradient,
    hessian,
    laplace_beltrami,
    lq_norm,
    pointwise_norm,
)
from .geometry import Grid, ricci_lower_bound
from .hjb import ProblemSpec, SolveReport, SolverConfig, solve_ergodic


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
    """Inputs of one amplitude sweep over f = t * f0."""

    grid: Grid
    gamma: float
    source: ScalarField                     # base profile f0
    amplitudes: tuple
    q: float
    r: Optional[float] = None               # gradient exponent (first sweep kind)
    params: Optional[MaxRegParams] = None   # exponent set (second sweep kind)
    c1: float = 1.0
    drift: Optional[VectorField] = None
    drift_s: Optional[float] = None         # integrability exponent of the drift bound
    drift_theta: Optional[float] = None     # declared bound for ||B||_{L^s}
    shift: Optional[ScalarField] = None
    cfg: Optional[SolverConfig] = None

    def __post_init__(self):
        amps = tuple(float(t) for t in self.amplitudes)
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
    slope: float
    slope_top_decade: float
    max_ratio: float
    ratio_at_one: Optional[float]
    lambdas: tuple
    K: float
    gates: dict
    converged: tuple
    aborted: bool = False
    message: str = ""
    norm_rows: list = dataclass_field(default_factory=list)


def _fit_slope(ts, ratios):
    """Least-squares slope of log ratio vs log t over usable points."""
    pts = [(t, r) for t, r in zip(ts, ratios) if t > 0 and r > 0]
    if len(pts) < 2:
        return 0.0
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


def _top_decade_slope(ts, ratios):
    tmax = max(ts)
    sel = [(t, r) for t, r in zip(ts, ratios) if t >= tmax / 10.0 - 1e-12]
    return _fit_slope([s[0] for s in sel], [s[1] for s in sel])


def _drift_gate(spec: SweepSpec) -> dict:
    gates = {"theta": 0.0, "s": None}
    if spec.drift is None:
        return gates
    if spec.drift_s is None or spec.drift_s <= spec.grid.dim:
        raise ValueError(
            "drift integrability gate: need s > d when a drift is present"
        )
    norm = lq_norm(spec.drift, spec.drift_s).value
    theta = spec.drift_theta if spec.drift_theta is not None else norm
    if norm > theta * (1.0 + 1e-12):
        raise ValueError("drift bound gate: ||B||_{L^s} exceeds the declared theta")
    gates["theta"] = float(theta)
    gates["s"] = float(spec.drift_s)
    return gates


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


def _run_sweep(spec: SweepSpec, kind: str) -> ScalingReport:
    cfg = spec.cfg or SolverConfig()
    ts, ratios, lambdas, convs, rows = [], [], [], [], []
    K = 0.0
    warm = None
    aborted = False
    message = ""
    for t in spec.amplitudes:
        fvals = t * spec.source.values
        f_field = ScalarField(spec.grid, fvals)
        prob = ProblemSpec(
            grid=spec.grid,
            gamma=spec.gamma,
            c1=spec.c1,
            drift=spec.drift,
            shift=spec.shift,
            source=f_field,
            ergodic=True,
        )
        run_cfg = dataclasses.replace(cfg, initial_guess=warm)
        rep = solve_ergodic(prob, run_cfg)
        convs.append(rep.converged)
        if not rep.converged:
            aborted = True
            message = (
                "solve failed to converge at amplitude " + repr(t) + ": " + rep.message
            )
            break
        warm = rep.u
        fq = lq_norm(f_field, spec.q).value
        gradu = gradient(rep.u)
        grad1 = lq_norm(gradu, 1.0).value
        K = max(K, fq + grad1)
        if kind == "gradient-integrability":
            num = lq_norm(gradu, spec.r).value
        else:
            lap_q = lq_norm(laplace_beltrami(rep.u), spec.q).value
            ham = ScalarField(spec.grid, pointwise_norm(gradu) ** spec.gamma)
            ham_q = lq_norm(ham, spec.q).value
            num = lap_q + ham_q
        ratio = num / (1.0 + fq)
        ts.append(t)
        ratios.append(ratio)
        lambdas.append(rep.lam)
        rows.append(
            {
                "t": t,
                "ratio": ratio,
                "lambda": rep.lam,
                "f_q": fq,
                "grad_l1": grad1,
                "iterations": rep.iterations,
                "residual": rep.residual,
            }
        )
    gates = gate_block(spec.grid, _drift_gate(spec), K=K)
    ratio_at_one = None
    for t, r in zip(ts, ratios):
        if abs(t - 1.0) <= 1e-12:
            ratio_at_one = r
    return ScalingReport(
        kind=kind,
        amplitudes=tuple(ts),
        ratios=tuple(ratios),
        slope=_fit_slope(ts, ratios),
        slope_top_decade=_top_decade_slope(ts, ratios) if ts else 0.0,
        max_ratio=max(ratios) if ratios else 0.0,
        ratio_at_one=ratio_at_one,
        lambdas=tuple(lambdas),
        K=K,
        gates=gates,
        converged=tuple(convs),
        aborted=aborted,
        message=message,
        norm_rows=rows,
    )


def thm1_sweep(spec: SweepSpec) -> ScalingReport:
    """Amplitude sweep of the gradient r-norm against the data q-norm."""
    if spec.r is None:
        raise ValueError("this sweep needs the gradient exponent r")
    _drift_gate(spec)  # fail fast before any solve
    return _run_sweep(spec, "gradient-integrability")


def thm2_sweep(spec: SweepSpec) -> ScalingReport:
    """Amplitude sweep of Laplacian + gradient-power norms in L^q."""
    if spec.drift is not None:
        raise ValueError("maximal-integrability sweeps require zero drift")
    params = spec.params or maxreg_params(spec.grid.dim, spec.gamma, spec.q, 0.1)
    if abs(params.q - spec.q) > 1e-12 or abs(params.gamma - spec.gamma) > 1e-12:
        raise ValueError("exponent set disagrees with the sweep parameters")
    return _run_sweep(spec, "maximal-integrability")


# ---------------------------------------------------------------------------
# base source profiles


def source_family(
    grid: Grid,
    kind: str,
    q_norm: float,
    seed: int = 0,
    power_exponent: Optional[float] = None,
) -> ScalarField:
    """Smooth base profiles f0, normalized to unit L^q norm.

    kind 'mode': single cosine mode; 'bump': concentrated periodic bump;
    'power': mollified inverse-power spike min(A, |x-x0|^{-d/q~}) probing
    unbounded data at desk scale.
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
        qt = power_exponent if power_exponent is not None else q_norm * 1.1
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
    scale = lq_norm(f, q_norm).value
    return ScalarField(grid, vals / scale)


# ---------------------------------------------------------------------------
# Sobolev embedding constant


def sobolev_ratio(u: ScalarField) -> float:
    """R(u) = ||u||_{2d/(d-2)} / (||grad u||_2 + ||u||_2)."""
    d = u.grid.dim
    if d < 3:
        raise ValueError("dimension must be at least 3")
    m = 2.0 * d / (d - 2.0)
    num = lq_norm(u, m).value
    den = lq_norm(gradient(u), 2.0).value + lq_norm(u, 2.0).value
    if den == 0.0:
        raise ValueError("zero field has no quotient")
    return num / den


def sobolev_constant_estimate(grid: Grid) -> float:
    """Lower bound for the embedding constant: the constant field's quotient.

    That quotient is vol^{-1/d} (exactly 1 on the unit box and torus).  No
    search is run because the constant field is a strict local maximum of
    R: a mean-zero perturbation raises ||grad u||_2 at first order but
    moves ||u||_{2d/(d-2)} / ||u||_2 only at second order.
    """
    return float(sobolev_ratio(ScalarField(grid, np.ones(grid.shape))))


# ---------------------------------------------------------------------------
# second-derivative / Laplacian norm ratio


def cz_ratio(samples, p: float) -> float:
    """max ||Hess u||_{L^p} / ||Lap u||_{L^p} over the given fields.

    An empirical lower bound for the norm-conversion constant; exactly 1
    at p = 2 on flat tori, where both sides share one Fourier symbol.
    """
    if p <= 1:
        raise ValueError("norm exponent must exceed 1")
    best = None
    for u in samples:
        H = hessian(u)
        lap = lq_norm(_metric_trace(H), p).value
        if lap <= 1e-300:
            continue
        hess = lq_norm(H, p).value
        val = hess / lap
        best = val if best is None else max(best, val)
    if best is None:
        raise ValueError("all samples are harmonic: the ratio is undefined")
    return float(best)


def random_band_limited(grid: Grid, seed: int = 0, modes: int = 3) -> ScalarField:
    """Random low-frequency trigonometric polynomial (periodic grids)."""
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    Ls = grid.domain.extents
    vals = np.zeros(grid.shape)
    naxes = len(grid.shape)
    for _ in range(8):
        ks = rng.integers(-modes, modes + 1, size=naxes)
        if not np.any(ks):
            continue
        amp = rng.normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = np.zeros(grid.shape)
        for x, L, k in zip(mesh, Ls, ks):
            arg = arg + 2.0 * np.pi * k * x / L
        vals = vals + amp * np.cos(arg + phase)
    return ScalarField(grid, vals)
