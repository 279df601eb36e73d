"""Acceptance battery: one test per headline capability, each emitting a
single pass/fail line under ``pytest -v``.

Every test is self-contained, states its numeric thresholds inline, and
enforces the wall-clock budget it is allowed to spend.
"""

import json
import time

import numpy as np
import pytest

from hjblab.bernstein import (
    boundary_sign_check,
    continuity_tools,
    energy_density,
    h_toolkit,
    level_sets,
    maxreg_params,
    pointwise_inequality_suite,
)
from hjblab.cli import main
from hjblab.estimates import (
    SweepSpec,
    cz_ratio,
    random_band_limited,
    thm1_sweep,
    thm2_sweep,
)
from hjblab.fields import ScalarField, VectorField
from hjblab.geometry import DomainSpec, build_grid
from hjblab.hjb import SolverConfig
from hjblab.mfg import MfgSpec, exponent_gate, mfg_fixed_point

TWO_PI = 2.0 * np.pi


def torus(n, dim=3):
    return build_grid(DomainSpec(kind="torus", dim=dim, resolution=(n,)))


def first_mode(grid, amp):
    return ScalarField(grid, amp * np.cos(TWO_PI * grid.mesh()[0]))


# ---------------------------------------------------------------------------


def test_criterion_01_manufactured_solution_convergence(tmp_path):
    """Product-of-cosines exact solution on the unit box, three dyadic
    meshes, sup-norm order at least 1.9, two-minute budget."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[domain]\nkind = box\ndim = 3\nresolution = 17\n"
        "[problem]\ngamma = 2.0\nmanufactured = symbolic\n"
        "[experiment]\nresolutions = 17, 33, 65\n"
    )
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main(["solve", "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    res = report["results"]
    assert res["resolutions"] == [17, 33, 65]
    errors = res["errors"]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert len(res["orders"]) == 2
    assert all(order >= 1.9 for order in res["orders"])
    assert elapsed <= 120.0


def test_criterion_02_hessian_identity_audit(tmp_path):
    """Exactness of the curvature identities on polynomial data plus
    refinement orders 1.5 (flat) / 0.9 (conformal), one-minute budget."""
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main(["bochner-check", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    res = report["results"]
    for case, min_order in (
        ("flat_plain", 1.5),
        ("flat_weighted", 1.5),
        ("conformal_plain", 0.9),
        ("conformal_weighted", 0.9),
    ):
        assert res[case]["order"] >= min_order, case
    exact = {e["name"]: e for e in res["exactness"]}
    for name in ("plain_linear", "plain_quadratic", "weighted_linear"):
        assert exact[name]["passed"] and exact[name]["value"] <= 1e-12, name
    assert all(e["passed"] for e in res["exactness"])
    assert elapsed <= 60.0


def test_criterion_03_boundary_sign_relation():
    """Disc: normal derivative of the gradient energy matches the
    curvature term for a first-harmonic profile; box faces: compatible
    data stays below the mesh-squared tolerance.  Thirty-second budget."""
    start = time.perf_counter()
    disc = build_grid(DomainSpec(kind="disc", dim=2, resolution=(128, 256)))
    r, theta = disc.mesh()
    u = ScalarField(disc, (3.0 * r**2 - 2.0 * r**3) * np.cos(theta))
    rep = boundary_sign_check(u)
    assert rep.convex_boundary
    # continuum relation on the rim: d_nu w = -sin^2(theta)
    assert rep.max_discrepancy <= 5e-2

    box = build_grid(DomainSpec(kind="box", dim=2, resolution=(513,)))
    mesh = box.mesh()
    ub = ScalarField(box, np.cos(np.pi * mesh[0]) * np.cos(np.pi * mesh[1]))
    repb = boundary_sign_check(ub)
    h = max(box.spacings)
    assert repb.tol == 5.0 * h * h
    assert repb.max_normal_derivative <= repb.tol
    assert repb.flagged_nodes == 0
    assert time.perf_counter() - start <= 30.0


def test_criterion_04_pointwise_inequality_suite():
    """Hundred-thousand-sample audit of every scalar inequality the
    gradient bounds lean on: zero violations beyond 1e-12 slack."""
    start = time.perf_counter()
    report = pointwise_inequality_suite(samples=100_000, seed=11)
    assert report["all_passed"]
    for key, entry in report.items():
        if isinstance(entry, dict):
            assert entry["violations"] == 0, key
            assert entry["samples"] >= 100_000, key
    assert report["profile_concavity_max_h2"] < 0.0
    assert time.perf_counter() - start <= 10.0


def test_criterion_05_continuity_argument_scalars():
    """Barrier-profile extremum and roots, exponent identities over random
    admissible tuples, and the truncation-volume bound on random fields."""
    start = time.perf_counter()
    # closed forms of the profile maximum, dimensions three through ten
    for d in range(3, 11):
        tools = continuity_tools(d=d)
        y_ref = ((d - 2.0) / d) ** (d / 2.0)
        assert abs(tools.y_star - y_ref) <= 1e-12
        assert abs(tools.phi_star - (y_ref ** ((d - 2.0) / d) - y_ref)) <= 1e-12
        # independent check that the recorded point is the maximizer
        fd = (tools.phi(tools.y_star + 1e-6) - tools.phi(tools.y_star - 1e-6)) / 2e-6
        assert abs(fd) <= 1e-8
        for frac in (0.25, 0.5, 0.9):
            level = frac * tools.phi_star
            lo, hi = tools.roots(level)
            assert 0.0 < lo < tools.y_star < hi < 1.0
            assert abs(tools.phi(lo) - level) <= 1e-12
            assert abs(tools.phi(hi) - level) <= 1e-12

    # exponent identities across one hundred random admissible tuples
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        d = int(rng.integers(3, 8))
        gamma = float(rng.uniform(1.05, 6.0))
        delta = float(rng.uniform(0.01, 0.99))
        q = max(d * (gamma - 1.0) / gamma, 2.0) + float(rng.uniform(0.05, 4.0))
        params = maxreg_params(d, gamma, q, delta)
        assert abs(params.bo2_residual) <= 1e-12
        if params.bo1_residual is not None:
            assert abs(params.bo1_residual) <= 1e-12
        checked += 1

    # truncation volumes never beat the root-energy Chebyshev bound
    g = torus(24, dim=2)
    params = maxreg_params(d=3, gamma=3.0, q=2.5, delta=0.5)
    tk = h_toolkit(params.delta)
    lo_val = float(tk.h(0.0))
    for seed in range(10):
        u = ScalarField(g, 3.0 * random_band_limited(g, seed=seed).values)
        z = ScalarField(g, tk.h(energy_density(u).values))
        ks = np.linspace(lo_val + 1e-6, float(np.max(z.values)) * 1.05, 20)
        for k in ks:
            assert level_sets(z, float(k), params).within_bound
    assert time.perf_counter() - start <= 10.0


def test_criterion_06_gradient_integrability_scaling():
    """Amplitude sweep of the gradient-norm quotient on a flat torus:
    flat log-log slope over the top decade, with and without a bounded
    drift, five-minute budget."""
    start = time.perf_counter()
    g = torus(48, dim=3)
    f0 = first_mode(g, 1.0)
    amps = (1.0, 3.0, 10.0, 30.0, 100.0)
    plain = thm1_sweep(SweepSpec(g, 3.0, f0, amps, q=18.0 / 7.0, r=18.0))
    assert plain.aborted is False and all(plain.converged)
    assert all(np.isfinite(plain.ratios))
    assert plain.slope_top_decade <= 0.05

    mesh = g.mesh()
    drift = VectorField(
        g,
        np.stack(
            [np.sin(TWO_PI * mesh[1]), np.zeros(g.shape), np.zeros(g.shape)]
        ),
    )
    drifted = thm1_sweep(
        SweepSpec(
            g,
            3.0,
            f0,
            amps,
            q=18.0 / 7.0,
            r=18.0,
            drift=drift,
            drift_s=4.0,
            drift_theta=(3.0 / 8.0) ** 0.25,
        )
    )
    assert drifted.aborted is False and all(drifted.converged)
    assert drifted.slope_top_decade <= 0.05
    assert time.perf_counter() - start <= 300.0


def test_criterion_07_second_derivative_scaling():
    """Amplitude sweep of the maximal-regularity quotient: flat top-decade
    slope, and rejection of data exponents below the admissible window;
    five-minute budget."""
    start = time.perf_counter()
    g = torus(64, dim=3)
    f0 = first_mode(g, 1.0)
    amps = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)
    rep = thm2_sweep(
        SweepSpec(g, 3.0, f0, amps, q=2.5, cfg=SolverConfig(max_iter=120))
    )
    assert rep.aborted is False and all(rep.converged)
    assert all(np.isfinite(rep.ratios)) and all(r > 0 for r in rep.ratios)
    assert rep.slope_top_decade <= 0.05

    small = torus(8, dim=3)
    with pytest.raises(ValueError, match="integrability gate"):
        thm2_sweep(SweepSpec(small, 3.0, first_mode(small, 1.0), (1.0,), q=1.5))
    assert time.perf_counter() - start <= 300.0


def test_criterion_08_second_derivative_ratio_flat():
    """Fifty random band-limited fields on a flat torus: the quadratic
    second-derivative/laplacian ratio is one to round-off; the quartic
    ratio is finite.  Thirty-second budget."""
    start = time.perf_counter()
    g = torus(16, dim=3)
    samples = [random_band_limited(g, seed=s) for s in range(50)]
    ratio2, ratio4 = cz_ratio(samples, (2.0, 4.0))
    assert 1.0 - 1e-6 <= ratio2 <= 1.0 + 1e-6
    assert np.isfinite(ratio4) and ratio4 > 0.0
    assert time.perf_counter() - start <= 30.0


def test_criterion_09_game_constant_state_exactness():
    """With no shift the coupled system lands on the constant state
    (0, 1, 1) to 1e-12 within two outer iterations, five-second budget."""
    start = time.perf_counter()
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, eps=0.1, outer_tol=1e-12)
    state, report = mfg_fixed_point(spec)
    assert report.converged
    assert report.outer_iterations <= 2
    assert float(np.max(np.abs(state.u.values))) <= 1e-12
    assert abs(state.lam - 1.0) <= 1e-12
    assert float(np.max(np.abs(state.m.values - 1.0))) <= 1e-12
    assert time.perf_counter() - start <= 5.0


def test_criterion_10_game_nontrivial_run_with_certificates():
    """Cosine shift on a three-dimensional torus: converged outer loop,
    unit mass, positive density, duality margin, integrability bound with
    the sixth-power exponent, and the closed-form admissibility table;
    three-minute budget."""
    start = time.perf_counter()
    g = torus(32, dim=3)
    spec = MfgSpec(
        g,
        gamma=2.0,
        alpha=1.0,
        shift=first_mode(g, 0.5),
        eps=0.05,
    )
    state, report = mfg_fixed_point(spec)
    assert report.converged
    assert report.outer_residual < 1e-8
    assert abs(report.mass - 1.0) <= 1e-10
    assert report.min_density > 0.0
    state.validate()
    assert report.duality["margin_ok"]
    # the curvature bound is the sup-norm of the shift's second derivative
    assert abs(report.duality["curvature_bound"] - 0.5 * TWO_PI**2) <= 1.0
    assert report.lp_bounds["exponent"] == 6.0
    assert report.lp_bounds["bound_ok"]
    # the enforced half of the admissibility table; the growth half is
    # recorded but deliberately not enforced for quadratic hamiltonians
    assert report.gate["alpha_ok"]

    table = exponent_gate(5, 2.0, 1.9)
    assert table["alpha_threshold"] == 2.0
    assert abs(table["gamma_threshold"] - 5.0 / 3.0) <= 1e-12
    assert table["alpha_ok"]
    assert not exponent_gate(5, 2.0, 2.1)["alpha_ok"]
    assert time.perf_counter() - start <= 180.0


def test_criterion_11_deterministic_reports(tmp_path):
    """Two identically seeded audit runs emit byte-identical reports."""
    payloads = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["bernstein-audit", "--out", str(out), "--seed", "5"]) == 0
        payloads.append((out / "report.json").read_bytes())
    assert payloads[0] == payloads[1]
    assert len(payloads[0]) > 0
