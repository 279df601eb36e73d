"""Batch front end: config-driven runs, reports, tables, and plots.

Subcommands: solve, ergodic, bochner-check, bernstein-audit, thm1-sweep,
thm2-sweep, constants, mfg.  Every run writes a schema-versioned
report.json (deterministic for a fixed config and seed: sorted keys, no
timestamps) plus CSV tables into the output directory; bochner-check,
the sweeps and manufactured studies also draw an SVG plot.  Exit status
0 means every asserted invariant passed, 1 means an assertion or solve
failed, 2 means the request itself was invalid (usage, config syntax, or
assumption gate).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bernstein, estimates, mfg as mfg_mod
from .config import ConfigError, RunConfig, _phi, parse_config
from .fields import (
    ScalarField,
    VectorField,
    dump_field_csv,
    gradient,
    lq_norm,
    write_csv,
)
from .geometry import DomainSpec, build_grid
from .hjb import (
    ProblemSpec,
    manufactured_source,
    solution_norm_table,
    solve,
)
from .svg import line_plot

_SUBCOMMANDS = (
    "solve",
    "ergodic",
    "bochner-check",
    "bernstein-audit",
    "thm1-sweep",
    "thm2-sweep",
    "constants",
    "mfg",
)

DEFAULT_CONFIG = ""  # all defaults; see config module

# samples per inequality in the bernstein-audit report
_AUDIT_SAMPLES = 100_000

# profile exponent delta of the weighted identity and the Bernstein profile
_DELTA = 0.3

# sweep.csv columns, each a key of the sweep's norm rows
_SWEEP_COLUMNS = ("t", "ratio", "lambda", "f_q", "grad_l1", "iterations", "residual", "peclet")


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# field builders from config blocks


def _mode_field(grid, amplitude: float, axis: int) -> ScalarField:
    mesh = grid.mesh()
    L = grid.domain.extents[axis]
    return ScalarField(grid, amplitude * np.cos(2.0 * np.pi * mesh[axis] / L))


def _build_shift(cfg: RunConfig, grid):
    prob = cfg["problem"]
    if prob["shift_kind"] == "none":
        return None
    return _mode_field(grid, prob["shift_amplitude"], 0)


def _build_drift(cfg: RunConfig, grid):
    prob = cfg["problem"]
    if prob["drift_kind"] == "none":
        return None
    # a shear: flow along the first axis, varying along the second
    mesh = grid.mesh()
    L = grid.domain.extents[1]
    vals = np.zeros((len(grid.shape),) + grid.shape)
    vals[0] = prob["drift_amplitude"] * np.sin(2.0 * np.pi * mesh[1] / L)
    return VectorField(grid, vals)


def _report_skeleton(subcommand: str, seed: int) -> dict:
    return {
        "schema": 1,
        "subcommand": subcommand,
        "seed": seed,
        "failures": [],
        "passed": True,
        "warnings": [],
    }


def _fail(report: dict, message: str) -> None:
    report["failures"].append(message)
    report["passed"] = False


def _require_none(cfg: RunConfig, subcommand: str, reasons: dict) -> None:
    """Reject [problem] data the run would drop; `reasons` maps each such
    key to why the subcommand has no place for it."""
    for key, why in reasons.items():
        if cfg["problem"][key] != "none":
            raise ConfigError(subcommand + ": [problem] " + key + " must be none: " + why)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_solve(cfg: RunConfig, out: str, seed: int, ergodic: bool) -> dict:
    report = _report_skeleton("ergodic" if ergodic else "solve", seed)
    prob_blk = cfg["problem"]
    if ergodic:
        _require_none(cfg, "ergodic", {"manufactured": "a manufactured study runs under solve"})
    elif prob_blk["manufactured"] != "none":
        return _manufactured_study(cfg, out, seed, report)
    grid = build_grid(cfg.domain, cfg.phi)
    drift = _build_drift(cfg, grid)
    drift_info = estimates.drift_gate(grid, drift, prob_blk["drift_s"], prob_blk["drift_theta"])
    shift = _build_shift(cfg, grid)
    kind = prob_blk["source_kind"]
    source = None if kind == "none" else estimates.source_family(grid, kind, 2.0)
    spec = ProblemSpec(
        grid=grid,
        gamma=prob_blk["gamma"],
        drift=drift,
        shift=shift,
        source=source,
        ergodic=ergodic,
    )
    rep = solve(spec)
    if not rep.converged:
        _fail(report, "solve did not converge: " + rep.message)
    fq = lq_norm(source, 2.0) if source is not None else 0.0
    grad1 = lq_norm(gradient(rep.u), 1.0)
    report["gates"] = estimates.gate_block(grid, drift_info, K=fq + grad1)
    norms = solution_norm_table(spec, rep.u)
    report["results"] = {
        "converged": rep.converged,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "lambda": rep.lam,
        "compat_defect": rep.compat_defect,
        "norms": norms,
    }
    rows = []
    for family, table in sorted(norms.items()):
        for expo, value in sorted(table.items()):
            rows.append((family, expo, value))
    write_csv(os.path.join(out, "norms.csv"), ("family", "exponent", "value"), rows)
    if cfg["output"]["dump_fields"]:
        dump_field_csv(rep.u, os.path.join(out, "u.csv"))
    return report


def _manufactured_study(cfg: RunConfig, out: str, seed: int, report: dict) -> dict:
    if cfg.domain.kind != "box":
        raise ConfigError("manufactured studies need a box domain")
    _require_none(cfg, "solve", {
        "drift_kind": "a manufactured study solves the plain equation",
        "shift_kind": "a manufactured study solves the plain equation",
        "source_kind": "a manufactured study builds its source from its exact solution",
    })
    gamma = cfg["problem"]["gamma"]
    resolutions = cfg["experiment"]["resolutions"]
    rows = []
    errors = []
    hs = []
    last_grid = None
    for n in resolutions:
        domain = DomainSpec(kind="box", dim=cfg.domain.dim, resolution=(n,) * cfg.domain.dim)
        grid = build_grid(domain)
        last_grid = grid
        ustar, f = manufactured_source(grid, gamma)
        spec = ProblemSpec(grid=grid, gamma=gamma, source=f)
        rep = solve(spec)
        if not rep.converged:
            _fail(report, "solve did not converge at n = " + str(n))
            break
        shifted = ustar.values - float(np.sum(grid.weights * ustar.values)) / grid.vol
        err = float(np.max(np.abs(rep.u.values - shifted)))
        h = max(grid.spacings)
        hs.append(h)
        errors.append(err)
        rows.append([h, err, ""])
    orders = []
    for i in range(1, len(errors)):
        if errors[i] > 0 and errors[i - 1] > 0:
            order = math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i])
            orders.append(order)
            rows[i][2] = repr(order)
    write_csv(os.path.join(out, "convergence.csv"), ("h", "error_inf", "order"), rows)
    report["results"] = {
        "resolutions": list(resolutions),
        "errors": errors,
        "orders": orders,
        "symbolic_source": True,
    }
    report["gates"] = estimates.gate_block(last_grid) if last_grid is not None else {}
    if not orders or orders[-1] < 1.9:
        _fail(report, "convergence order below 1.9")
    if errors:
        line_plot(
            os.path.join(out, "convergence.svg"),
            [("error", hs, errors)],
            title="manufactured-solution convergence",
            xlabel="h",
            ylabel="max error",
        )
    return report


def _bochner_cases():
    """Canonical refinement cases on tori: (name prefix, conformal exponent
    or None, field maker, least order).  Each case audits the plain and the
    weighted identity on the same fields."""

    def u_flat(grid):
        mesh = grid.mesh()
        return ScalarField(grid, np.cos(2.0 * np.pi * mesh[0]) * np.cos(2.0 * np.pi * mesh[1]))

    def u_conf(grid):
        mesh = grid.mesh()
        return ScalarField(grid, np.sin(2.0 * np.pi * mesh[1]))

    return [
        ("flat", None, u_flat, 1.5),
        ("conformal", _phi, u_conf, 0.9),
    ]


def _refinement_norms(phi, field_fn, resolutions):
    """Sup norms of the plain and of the weighted residual at each
    resolution.  Both come from one grid, one field and one set of terms
    per resolution."""
    plain, weighted = [], []
    for n in resolutions:
        grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(n, n, 8)), phi)
        res_plain, res_weighted = bernstein.bochner_residuals(field_fn(grid), _DELTA)
        plain.append(float(np.max(np.abs(res_plain.values))))
        weighted.append(float(np.max(np.abs(res_weighted.values))))
        # the residuals and the grid, with its conformal caches, die before
        # the next grid is built
        del grid, res_plain, res_weighted
    return plain, weighted


def interior_mask(grid) -> np.ndarray:
    """Nodes whose composed stencils use centered rows only: 3 or more from each box face."""
    margin = 3
    mask = np.ones(grid.shape, dtype=bool)
    for a, per in enumerate(grid.periodic):
        if per:
            continue
        sl = [slice(None)] * len(grid.shape)
        sl[a] = slice(0, margin)
        mask[tuple(sl)] = False
        sl[a] = slice(grid.shape[a] - margin, grid.shape[a])
        mask[tuple(sl)] = False
    return mask


def _exactness_checks() -> list:
    """Round-off residual checks for polynomial data on a flat box.

    Dyadic spacing (h = 1/16) and dyadic polynomial coefficients keep
    every stencil product exactly representable, so the identity
    residuals cancel to literal zero away from the one-sided closure
    rows; the second-difference identities are exact on quadratics.
    """
    domain = DomainSpec(kind="box", dim=3, resolution=(17, 17, 17))
    grid = build_grid(domain)
    x, y, z = grid.mesh()
    inner = interior_mask(grid)
    fields = {
        "constant": np.ones(grid.shape),
        "linear": 1.0 + 2.0 * x - 0.75 * y + 0.25 * z,
        "quadratic": x**2 + y**2 + z**2 + x * y - 0.5 * y * z,
    }
    checks = []
    for name, vals in fields.items():
        u = ScalarField(grid, vals)
        plain = float(np.max(np.abs(bernstein.bochner_residual(u).values[inner])))
        checks.append(("plain_" + name, plain, plain <= 1e-12))
        if name in ("constant", "linear"):
            wres = bernstein.weighted_bochner_residual(u, 0.3)
            wmax = float(np.max(np.abs(wres.values[inner])))
            checks.append(("weighted_" + name, wmax, wmax <= 1e-12))
    # affine-profile limit agrees with the plain identity
    tdom = DomainSpec(kind="torus", dim=3, resolution=(16, 16, 8))
    tgrid = build_grid(tdom)
    mesh = tgrid.mesh()
    u = ScalarField(
        tgrid, 0.1 * np.cos(2.0 * np.pi * mesh[0]) * np.sin(2.0 * np.pi * mesh[1])
    )
    plain, affine = bernstein.bochner_residuals(u, 1.0)
    diff = np.max(np.abs(affine.values - plain.values))
    checks.append(("affine_limit_matches_plain", float(diff), float(diff) <= 1e-12))
    return checks


def _cmd_bochner_check(cfg: RunConfig, out: str, seed: int) -> dict:
    report = _report_skeleton("bochner-check", seed)
    resolutions = (32, 64, 128)
    rows = []
    results = {}
    for prefix, phi, field_fn, min_order in _bochner_cases():
        pair = _refinement_norms(phi, field_fn, resolutions)
        for name, norms in zip((prefix + "_plain", prefix + "_weighted"), pair):
            slope = 0.0
            if len(norms) >= 2 and norms[-1] > 0 and norms[-2] > 0:
                slope = math.log(norms[-2] / norms[-1]) / math.log(
                    resolutions[-1] / resolutions[-2]
                )
            results[name] = {"norms": norms, "order": slope, "min_order": min_order}
            for n, v in zip(resolutions, norms):
                rows.append((name, n, v))
            if slope < min_order:
                _fail(report, name + " refinement order " + repr(slope) + " below " + repr(min_order))
    exact = _exactness_checks()
    results["exactness"] = [
        {"name": n, "value": v, "passed": ok} for n, v, ok in exact
    ]
    for n, v, ok in exact:
        if not ok:
            _fail(report, "exactness check failed: " + n)
    report["results"] = results
    grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(16, 16, 8)))
    report["gates"] = estimates.gate_block(grid)
    write_csv(os.path.join(out, "refinement.csv"), ("case", "n", "residual_sup"), rows)
    series = [
        (name, [1.0 / n for n in resolutions], results[name]["norms"])
        for name in sorted(results)
        if name != "exactness"
    ]
    line_plot(
        os.path.join(out, "refinement.svg"),
        series,
        title="identity residual refinement",
        xlabel="h",
        ylabel="sup residual",
    )
    return report


def _cmd_bernstein_audit(cfg: RunConfig, out: str, seed: int) -> dict:
    report = _report_skeleton("bernstein-audit", seed)
    audit = []

    def entry(name, violation, passed):
        audit.append(
            {"name": name, "max_violation": float(violation), "passed": bool(passed)}
        )
        if not passed:
            _fail(report, "audit item failed: " + name)

    tk = bernstein.h_toolkit(_DELTA)
    prof = tk.sample_audit()
    for key in ("root_growth", "convexity_defect", "derivative_recovery"):
        viol = max(0.0, -prof[key])
        entry("profile_" + key, viol, viol <= 1e-12)
    entry(
        "profile_concavity",
        max(0.0, prof["second_derivative_max"]),
        prof["second_derivative_max"] < 0.0,
    )

    suite = bernstein.pointwise_inequality_suite(samples=_AUDIT_SAMPLES, seed=seed)
    for key in sorted(suite):
        item = suite[key]
        if not isinstance(item, dict):
            continue
        viol = max(0.0, -item["worst_margin"])
        entry("inequality_" + key, viol, item["violations"] == 0)

    for name, value, ok in _exactness_checks():
        entry("identity_" + name, value, ok)

    # continuity scalars: y* is where phi peaks, phi'(y*) = 0 and phi falls
    # on either side; the roots of phi = level are recovered
    worst_root = 0.0
    worst_peak = 0.0
    peaked = True
    for d in range(3, 11):
        tools = bernstein.continuity_tools(d)
        y = tools.y_star
        worst_peak = max(worst_peak, abs((d - 2.0) / d * y ** (-2.0 / d) - 1.0))
        top = float(tools.phi(y))
        peaked = peaked and all(top > float(tools.phi(y * (1.0 + s))) for s in (-1e-3, 1e-3))
        for frac in (0.1, 0.5, 0.9):
            level = frac * tools.phi_star
            lo, hi = tools.roots(level)
            worst_root = max(
                worst_root,
                abs(float(tools.phi(lo)) - level),
                abs(float(tools.phi(hi)) - level),
            )
    entry("continuity_peak_closed_form", worst_peak, worst_peak <= 1e-12 and peaked)
    entry("continuity_root_recovery", worst_root, worst_root <= 1e-12)

    # exponent identities on random admissible parameter sets
    rng = np.random.default_rng(seed)
    worst_bo1 = 0.0
    worst_bo2 = 0.0
    count = 0
    while count < 100:
        d = int(rng.integers(3, 8))
        gamma = float(rng.uniform(1.1, 4.0))
        q = float(rng.uniform(2.0, 8.0))
        dl = float(rng.uniform(0.05, 0.95))
        try:
            params = bernstein.maxreg_params(d, gamma, q, dl)
        except ValueError:
            continue
        count += 1
        scale = max(1.0, abs(params.eta))
        if params.bo1_residual is not None:
            worst_bo1 = max(worst_bo1, abs(params.bo1_residual) / scale)
        worst_bo2 = max(worst_bo2, abs(params.bo2_residual) / scale)
    entry("exponent_identity_bo1", worst_bo1, worst_bo1 <= 1e-12)
    entry("exponent_identity_bo2", worst_bo2, worst_bo2 <= 1e-12)

    # level-set bound on random smooth fields
    grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(16, 16, 16)))
    params = bernstein.maxreg_params(3, 2.0, 3.0, _DELTA)
    profile = bernstein.h_toolkit(_DELTA)
    cheb_viol = 0
    mono_viol = 0
    for i in range(10):
        u = estimates.random_band_limited(grid, seed=seed + i)
        z = ScalarField(grid, profile.h(bernstein.energy_density(u).values))
        zmax = float(np.max(z.values))
        prev_y = math.inf
        for k in np.linspace(1.0, 1.1 * zmax, 20):
            data = bernstein.level_sets(z, float(k), params)
            if not data.within_bound:
                cheb_viol += 1
            if data.y > prev_y * (1.0 + 1e-12):
                mono_viol += 1
            prev_y = data.y
    entry("level_set_volume_bound", float(cheb_viol), cheb_viol == 0)
    entry("level_set_monotone", float(mono_viol), mono_viol == 0)

    report["results"] = {"audit": audit, "delta": _DELTA, "samples": _AUDIT_SAMPLES}
    report["gates"] = estimates.gate_block(grid)
    write_csv(
        os.path.join(out, "audit.csv"),
        ("name", "max_violation", "passed"),
        [(a["name"], a["max_violation"], a["passed"]) for a in audit],
    )
    return report


def _sweep_common(cfg: RunConfig, out: str, seed: int, kind: str) -> dict:
    report = _report_skeleton(kind, seed)
    _require_none(cfg, kind, {
        "shift_kind": "the sweep's equation has no shift",
        "manufactured": "the sweep scales its own source",
    })
    grid = build_grid(cfg.domain, cfg.phi)
    prob_blk = cfg["problem"]
    exp = cfg["experiment"]

    if kind == "thm1-sweep":
        if (exp["q"] is None) != (exp["r"] is None):
            raise ConfigError(
                "thm1-sweep: set both [experiment] q and r, or neither to take them from p = 2"
            )
        if exp["q"] is not None:
            q, r = exp["q"], exp["r"]
        else:
            expo = estimates.thm1_exponents(grid.dim, 2.0)
            q, r = expo.q, expo.r
        default_source = "mode"
    else:
        q = exp["q"] if exp["q"] is not None else 2.5
        r = None
        default_source = "bump"
    src_kind = prob_blk["source_kind"] if prob_blk["source_kind"] != "none" else default_source
    spec = estimates.SweepSpec(
        grid=grid,
        gamma=prob_blk["gamma"],
        source=estimates.source_family(grid, src_kind, q),
        amplitudes=exp["amplitudes"],
        q=q,
        r=r,
        drift=_build_drift(cfg, grid),
        drift_s=prob_blk["drift_s"],
        drift_theta=prob_blk["drift_theta"],
    )
    sweep = (estimates.thm1_sweep if kind == "thm1-sweep" else estimates.thm2_sweep)(spec)

    if sweep.aborted:
        _fail(report, "sweep aborted: " + sweep.message)
    report["gates"] = sweep.gates
    report["results"] = {
        "q": q,
        "r": r,
        "amplitudes": list(sweep.amplitudes),
        "ratios": list(sweep.ratios),
        "lambdas": list(sweep.lambdas),
        "slope": sweep.slope,
        "slope_top_decade": sweep.slope_top_decade,
        "slope_bounded": None if sweep.slope_top_decade is None else sweep.slope_top_decade <= 0.05,
        "max_ratio": sweep.max_ratio,
        "ratio_at_one": sweep.ratio_at_one,
        "K": sweep.K,
    }
    write_csv(
        os.path.join(out, "sweep.csv"),
        _SWEEP_COLUMNS,
        [tuple(row[c] for c in _SWEEP_COLUMNS) for row in sweep.norm_rows],
    )
    report["warnings"] = list(sweep.warnings)
    if sweep.ratios:
        line_plot(
            os.path.join(out, "sweep.svg"),
            [("ratio", list(sweep.amplitudes), list(sweep.ratios))],
            title=kind + " amplitude scaling",
            xlabel="amplitude t",
            ylabel="ratio",
        )
    return report


def _cmd_constants(cfg: RunConfig, out: str, seed: int) -> dict:
    report = _report_skeleton("constants", seed)
    grid = build_grid(cfg.domain, cfg.phi)
    exp = cfg["experiment"]
    sigma = estimates.sobolev_constant_estimate(grid)
    fields_bl = [estimates.random_band_limited(grid, seed=seed + i) for i in range(50)]
    cz2, cz4 = estimates.cz_ratio(fields_bl, (2.0, 4.0))
    gamma = cfg["problem"]["gamma"]
    q = exp["q"] if exp["q"] is not None else 2.5
    params = bernstein.maxreg_params(grid.dim, gamma, q, _DELTA)
    tools = bernstein.continuity_tools(grid.dim)
    results = {
        "sigma_hat": sigma,
        "cz_ratio_p2": cz2,
        "cz_ratio_p4": cz4,
        "exponents": {
            "p": params.p,
            "p_tilde": params.p_tilde,
            "beta": params.beta,
            "eta": params.eta,
            "phi_const": params.phi_const,
            "c_gamma": params.c_gamma,
        },
        "continuity": {
            "y_star": tools.y_star,
            "phi_star": tools.phi_star,
            # t* would be the largest t with zeta(t) = C (t + t^a + t^b) < t
            # up to t; at the prefactor C = 1, zeta(t) > t for every t > 0,
            # so no t* exists
            "t_star": None,
            "zeta_C": 1.0,
        },
    }
    flat_torus = grid.is_flat and all(grid.periodic)
    if flat_torus and abs(cz2 - 1.0) > 1e-6:
        _fail(report, "flat-torus second-derivative ratio at p=2 deviates from 1")
    if not math.isfinite(cz4):
        _fail(report, "p=4 ratio not finite")
    report["results"] = results
    report["gates"] = estimates.gate_block(grid)
    rows = [
        ("sigma_hat", sigma),
        ("cz_ratio_p2", cz2),
        ("cz_ratio_p4", cz4),
        ("p", params.p),
        ("beta", params.beta),
        ("eta", params.eta),
        ("phi_const", params.phi_const),
        ("c_gamma", params.c_gamma),
        ("y_star", tools.y_star),
        ("phi_star", tools.phi_star),
        ("t_star", "none"),
    ]
    write_csv(os.path.join(out, "constants.csv"), ("name", "value"), rows)
    return report


def _cmd_mfg(cfg: RunConfig, out: str, seed: int) -> dict:
    report = _report_skeleton("mfg", seed)
    _require_none(cfg, "mfg", {
        "drift_kind": "the game's value equation has no drift",
        "source_kind": "the game's source is the coupling V_eps(m)",
        "manufactured": "the game has no exact solution to compare with",
    })
    grid = build_grid(cfg.domain, cfg.phi)
    blk = cfg["mfg"]
    spec = mfg_mod.MfgSpec(
        grid=grid,
        gamma=cfg["problem"]["gamma"],
        alpha=blk["alpha"],
        shift=_build_shift(cfg, grid),
        eps=blk["eps"],
    )
    state, mrep = mfg_mod.mfg_fixed_point(spec)
    if not mrep.gate["gamma_ok"]:
        report["warnings"].append(
            "gate (MFG3) gamma condition not met (gamma <= d/(d-2)); recorded, not enforced"
        )
    if not mrep.converged:
        _fail(report, "outer iteration did not converge: " + mrep.message)
    if abs(mrep.mass - 1.0) > 1e-10:
        _fail(report, "density mass deviates from 1")
    if mrep.min_density <= 0.0:
        _fail(report, "density lost positivity")
    if mrep.duality and not mrep.duality.get("margin_ok", True):
        _fail(report, "coupling energy exceeds the shift curvature bound")
    if mrep.lp_bounds and not mrep.lp_bounds.get("bound_ok", True):
        _fail(report, "smoothed-density gradient energy exceeds its bound")
    report["gates"] = estimates.gate_block(grid, c_v=spec.c_v)
    report["results"] = {
        "converged": mrep.converged,
        "outer_iterations": mrep.outer_iterations,
        "outer_residual": mrep.outer_residual,
        "lambda": mrep.lam,
        "mass": mrep.mass,
        "min_density": mrep.min_density,
        "gate": mrep.gate,
        "duality": mrep.duality,
        "lp_bounds": mrep.lp_bounds,
        "peclet": mrep.peclet,
        "stages": mrep.stages,
    }
    if cfg["output"]["dump_fields"]:
        dump_field_csv(state.u, os.path.join(out, "u.csv"))
        dump_field_csv(state.m, os.path.join(out, "m.csv"))
    return report


# ---------------------------------------------------------------------------
# dispatch


def run(subcommand: str, cfg: RunConfig, out_dir: str, seed: int = 0) -> int:
    """Execute one subcommand; returns the process exit status."""
    if subcommand not in _SUBCOMMANDS:
        print("unknown subcommand: " + subcommand, file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    try:
        if subcommand == "solve":
            report = _cmd_solve(cfg, out_dir, seed, ergodic=False)
        elif subcommand == "ergodic":
            report = _cmd_solve(cfg, out_dir, seed, ergodic=True)
        elif subcommand == "bochner-check":
            report = _cmd_bochner_check(cfg, out_dir, seed)
        elif subcommand == "bernstein-audit":
            report = _cmd_bernstein_audit(cfg, out_dir, seed)
        elif subcommand in ("thm1-sweep", "thm2-sweep"):
            report = _sweep_common(cfg, out_dir, seed, subcommand)
        elif subcommand == "constants":
            report = _cmd_constants(cfg, out_dir, seed)
        else:
            report = _cmd_mfg(cfg, out_dir, seed)
    except (ConfigError, ValueError) as exc:
        print("rejected: " + str(exc), file=sys.stderr)
        return 2
    _write_json(os.path.join(out_dir, "report.json"), report)
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjblab",
        description="Finite-difference laboratory for viscous Hamilton-Jacobi "
        "equations, gradient estimates, and mean-field games",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="path to a run config file")
    parser.add_argument("--out", default="hjblab-out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        text = DEFAULT_CONFIG
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        cfg = parse_config(text)
    except OSError as exc:
        print("cannot read config: " + str(exc), file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("rejected: " + str(exc), file=sys.stderr)
        return 2
    return run(args.subcommand, cfg, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
