"""Gradient-energy machinery: profile toolkit, curvature identities, boundary
sign relation, scalar inequality audit, level sets, exponent bookkeeping,
continuity-argument shape function."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjblab.bernstein import (
    bochner_residual,
    bochner_residuals,
    boundary_sign_check,
    continuity_tools,
    energy_density,
    h_toolkit,
    level_sets,
    maxreg_params,
    pointwise_inequality_suite,
    weighted_bochner_residual,
)
from hjblab.cli import _bochner_cases
from hjblab.estimates import random_band_limited
from hjblab.fields import ScalarField, gradient, hessian, laplace_beltrami, pointwise_norm
from hjblab.geometry import DomainSpec, MetricSpec, build_grid, conformal_ricci

TWO_PI = 2.0 * np.pi


def torus(n, dim=2, metric=None):
    return build_grid(DomainSpec(kind="torus", dim=dim, resolution=(n,)), metric)


def box(n, dim=3):
    return build_grid(DomainSpec(kind="box", dim=dim, resolution=(n,)))


def interior(grid, margin=3):
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


# ---------------------------------------------------------------------------
# profile toolkit


def test_profile_value_at_zero():
    tk = h_toolkit(0.5)
    assert abs(tk.h(0.0) - 4.0 / 3.0) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_profile_slope_is_one_at_zero(delta):
    tk = h_toolkit(delta)
    assert abs(tk.h1(0.0) - 1.0) <= 1e-15
    assert tk.h2(0.0) < 0.0


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    t=st.floats(min_value=0.0, max_value=1e6),
)
def test_profile_inverse_round_trip(t, delta):
    tk = h_toolkit(delta)
    assert abs(tk.h_inverse(tk.h(t)) - t) <= 1e-9 * max(1.0, t)


@pytest.mark.parametrize("delta", [0.05, 0.3, 0.7, 0.95])
def test_profile_fact_audit_is_clean(delta):
    audit = h_toolkit(delta).sample_audit()
    assert audit["root_growth"] >= -1e-12
    assert audit["convexity_defect"] >= -1e-12
    assert audit["derivative_recovery"] >= -1e-12
    assert audit["second_derivative_max"] < 0.0


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
def test_profile_exponent_range_is_enforced(delta):
    with pytest.raises(ValueError):
        h_toolkit(delta)


# ---------------------------------------------------------------------------
# curvature identity: exactness on low-degree data, second order in general


def dyadic_affine(grid):
    X = grid.mesh()
    return ScalarField(grid, 1.0 + 2.0 * X[0] - 0.75 * X[1] + 0.25 * X[2])


def dyadic_quadratic(grid):
    X = grid.mesh()
    vals = X[0] ** 2 + X[1] ** 2 + X[2] ** 2 + X[0] * X[1] - 0.5 * X[1] * X[2]
    return ScalarField(grid, vals)


def test_identity_exact_on_affine_and_quadratic_data():
    g = box(17)
    inner = interior(g)
    res_aff = bochner_residual(dyadic_affine(g)).values
    assert np.all(res_aff == 0.0)
    # the squared Hessian norm passes through a square root, so the
    # quadratic case closes to round-off rather than to literal zero
    res_quad = bochner_residual(dyadic_quadratic(g)).values
    assert np.max(np.abs(res_quad[inner])) <= 1e-12
    assert np.max(np.abs(res_quad)) <= 1e-11


def test_weighted_identity_exact_on_constant_and_affine_data():
    g = box(17)
    inner = interior(g)
    const = ScalarField(g, np.full(g.shape, 2.5))
    for u in (const, dyadic_affine(g)):
        res = weighted_bochner_residual(u, 0.3).values
        assert np.all(res[inner] == 0.0)
        assert np.max(np.abs(res)) <= 1e-12


def test_affine_profile_limit_recovers_plain_identity():
    g = torus(24, dim=2)
    u = random_band_limited(g, seed=11)
    plain = bochner_residual(u).values
    affine = weighted_bochner_residual(u, 1.0).values
    assert np.max(np.abs(plain - affine)) <= 1e-12 * max(1.0, float(np.max(np.abs(plain))))


def _whole_array_residuals(u, delta):
    """Both residuals from whole-array expressions of the full Hessian and
    Ricci tensor, in the operation order of the shared terms."""
    grid = u.grid
    gradu = gradient(u).values
    w = 0.5 * pointwise_norm(gradient(u)) ** 2
    hess = hessian(u)
    scale2 = 1.0 if grid.is_flat else grid.conformal_factor(2.0)
    inner = scale2 * np.sum(gradient(laplace_beltrami(u)).values * gradu, axis=0)
    hsq = pointwise_norm(hess) ** 2
    ric = np.zeros(grid.shape)
    if not grid.is_flat:
        ric = np.einsum("ij...,i...,j...->...", conformal_ricci(grid), gradu, gradu)
    plain = laplace_beltrami(ScalarField(grid, w)).values - inner - hsq - ric
    tk = h_toolkit(delta)
    cvec = np.einsum("ij...,j...->i...", hess.values, gradu)
    scale_m2 = 1.0 if grid.is_flat else grid.conformal_factor(-2.0)
    nub = scale_m2 * np.sum(cvec**2, axis=0)
    lapz = laplace_beltrami(ScalarField(grid, tk.h(w))).values
    weighted = lapz - tk.h1(w) * (inner + hsq + ric) - tk.h2(w) * nub
    return plain, weighted


@pytest.mark.parametrize("kind", ["conformal torus", "box"])
def test_shared_terms_equal_the_whole_array_expressions_bit_for_bit(kind):
    if kind == "box":
        g = box(11)
    else:
        g = torus(10, dim=3, metric=MetricSpec.conformal(
            lambda c: 0.1 * np.cos(TWO_PI * c[0]) * np.sin(TWO_PI * (c[1] + 2.0 * c[2]))
        ))
    u = random_band_limited(g, seed=12)
    plain, weighted = bochner_residuals(u, 0.4)
    expected = _whole_array_residuals(u, 0.4)
    assert np.array_equal(plain.values, expected[0])
    assert np.array_equal(weighted.values, expected[1])


@pytest.mark.parametrize("case, bound", [("flat", 24), ("conformal", 36)])
def test_bochner_terms_hold_few_field_sized_arrays(case, bound):
    # `bochner-check`'s cases at 64 x 64 x 8.  Whole-array terms held 27
    # (flat) and 53 (conformal) field-sized arrays at once, counting the
    # grid caches the call fills and its two results.
    _, kind, metric, field_fn, _ = next(c for c in _bochner_cases() if c[0] == case)
    grid = build_grid(DomainSpec(kind=kind, dim=3, resolution=(64, 64, 8)), metric)
    u = field_fn(grid)
    tracemalloc.start()
    try:
        bochner_residuals(u, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / u.values.nbytes <= bound, peak / u.values.nbytes


def _pair_order(errs, ns):
    return np.log(errs[-2] / errs[-1]) / np.log(ns[-1] / ns[-2])


def test_identity_refines_on_flat_smooth_data():
    ns = (32, 64, 128)
    errs = []
    for n in ns:
        g = torus(n, dim=2)
        mesh = g.mesh()
        u = ScalarField(g, np.cos(TWO_PI * mesh[0]) * np.cos(TWO_PI * mesh[1]))
        errs.append(float(np.max(np.abs(bochner_residual(u).values))))
    assert _pair_order(errs, ns) >= 1.5


def test_identity_refines_on_conformal_smooth_data():
    ns = (32, 64, 128)
    errs = []
    for n in ns:
        g = build_grid(
            DomainSpec(kind="torus", dim=3, resolution=(n, n, 8)),
            MetricSpec.conformal(lambda c: 0.1 * np.cos(TWO_PI * c[0])),
        )
        mesh = g.mesh()
        u = ScalarField(g, np.sin(TWO_PI * mesh[1]))
        errs.append(float(np.max(np.abs(bochner_residual(u).values))))
    assert _pair_order(errs, ns) >= 0.9


def test_weighted_identity_refines_on_flat_smooth_data():
    ns = (32, 64, 128)
    errs = []
    for n in ns:
        g = torus(n, dim=2)
        mesh = g.mesh()
        u = ScalarField(g, np.cos(TWO_PI * mesh[0]) * np.cos(TWO_PI * mesh[1]))
        errs.append(float(np.max(np.abs(weighted_bochner_residual(u, 0.3).values))))
    assert _pair_order(errs, ns) >= 1.5


# ---------------------------------------------------------------------------
# boundary sign relation


def test_box_boundary_relation_for_compatible_data():
    # the face defect carries a large third-order constant, so the default
    # tolerance needs a fine lattice before clean data reads as clean
    g = build_grid(DomainSpec(kind="box", dim=2, resolution=(513,)))
    mesh = g.mesh()
    u = ScalarField(g, np.cos(np.pi * mesh[0]) * np.cos(np.pi * mesh[1]))
    rep = boundary_sign_check(u)
    assert rep.convex_boundary
    assert rep.flagged_nodes == 0
    assert rep.max_discrepancy <= rep.tol
    assert np.all(rep.curvature_side.values == 0.0)


def test_box_boundary_discrepancy_refines_at_second_order():
    errs = []
    ns = (65, 129)
    for n in ns:
        g = build_grid(DomainSpec(kind="box", dim=2, resolution=(n,)))
        mesh = g.mesh()
        u = ScalarField(g, np.cos(np.pi * mesh[0]) * np.cos(np.pi * mesh[1]))
        errs.append(boundary_sign_check(u).max_discrepancy)
    order = np.log(errs[0] / errs[1]) / np.log((ns[1] - 1) / (ns[0] - 1))
    assert order >= 1.9


def test_disc_boundary_relation_for_radial_data():
    g = build_grid(DomainSpec(kind="disc", dim=2, resolution=(64, 128)))
    r = g.mesh()[0]
    u = ScalarField(g, 3.0 * r**2 - 2.0 * r**3)  # normal derivative of w vanishes
    rep = boundary_sign_check(u)
    hr = g.spacings[0]
    assert rep.max_discrepancy <= 100.0 * hr * hr
    assert rep.flagged_nodes == 0
    assert rep.convex_boundary


def test_closed_domains_are_rejected():
    g = torus(16, dim=2)
    with pytest.raises(ValueError, match="no boundary"):
        boundary_sign_check(random_band_limited(g, seed=0))


# ---------------------------------------------------------------------------
# scalar inequality audit


def test_inequality_audit_has_no_violations():
    report = pointwise_inequality_suite(samples=20_000, seed=3)
    assert report["all_passed"]
    for key, entry in report.items():
        if isinstance(entry, dict):
            assert entry["violations"] == 0, key
    assert report["profile_concavity_max_h2"] < 0.0


def test_trace_inequality_is_tight_on_multiples_of_identity():
    for d in (2, 3, 4):
        A = 1.7 * np.eye(d)
        assert abs(np.sum(A**2) - np.trace(A) ** 2 / d) <= 1e-12


def test_shifted_square_inequality_is_tight_without_shifts():
    a = 3.25
    assert (a + 0.0 - 0.0) ** 2 == a**2 - 2.0 * a * (0.0 + 0.0)


# ---------------------------------------------------------------------------
# level sets


def params_for_levels():
    return maxreg_params(d=3, gamma=3.0, q=2.5, delta=0.5)


def test_threshold_above_range_gives_empty_data():
    g = torus(16, dim=2)
    u = random_band_limited(g, seed=6)
    w = energy_density(u)
    assert np.min(w.values) >= 0.0
    z = ScalarField(g, h_toolkit(0.5).h(w.values))
    k = float(np.max(z.values)) + 1.0
    data = level_sets(z, k, params_for_levels())
    assert not data.mask.any()
    assert data.vol == 0.0
    assert data.y == 0.0
    assert np.all(data.z_k.values == 0.0)


def test_constant_level_truncation_and_volume_bound():
    g = torus(16, dim=2)
    tk = h_toolkit(0.5)
    z0 = float(tk.h(1.0))
    z = ScalarField(g, np.full(g.shape, z0))
    k = float(tk.h(0.5))
    data = level_sets(z, k, params_for_levels())
    assert abs(data.vol - g.vol) <= 1e-12
    assert np.max(np.abs(data.z_k.values - (z0 - k))) <= 1e-12
    # constant w = 1 gives numerator vol * 1 and denominator sqrt(0.5)
    assert abs(data.cheb_bound - g.vol / math.sqrt(0.5)) <= 1e-12
    assert data.within_bound


def test_level_data_is_monotone_and_always_within_chebyshev():
    g = torus(24, dim=2)
    u = ScalarField(g, 3.0 * random_band_limited(g, seed=8).values)
    params = params_for_levels()
    z = ScalarField(g, h_toolkit(params.delta).h(energy_density(u).values))
    lo = float(h_toolkit(params.delta).h(0.0))
    ks = np.linspace(lo + 1e-6, float(np.max(z.values)) * 1.05, 20)
    vols, ys = [], []
    for k in ks:
        data = level_sets(z, float(k), params)
        assert data.within_bound
        vols.append(data.vol)
        ys.append(data.y)
    assert all(a >= b - 1e-15 for a, b in zip(vols, vols[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(ys, ys[1:]))


def test_negative_threshold_is_rejected():
    g = torus(8, dim=2)
    z = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        level_sets(z, -0.5, params_for_levels())


# ---------------------------------------------------------------------------
# exponent bookkeeping


def test_interpolation_exponents_match_hand_computation():
    params = maxreg_params(d=4, gamma=2.0, q=3.0, delta=0.1)
    assert abs(params.p - 2.5) <= 1e-15
    assert abs(params.beta - 1.9 / 1.1) <= 1e-15
    assert abs(params.eta - 3.1 / 1.1) <= 1e-15
    assert params.p_tilde is None


@pytest.mark.parametrize("gamma,expected", [(2.0, 1.0), (10.0, 2.56)])
def test_hamiltonian_constant_values(gamma, expected):
    params = maxreg_params(d=3, gamma=gamma, q=max(3.0, 2.0 * gamma), delta=0.5)
    assert abs(params.c_gamma - expected) <= 1e-12


def test_exponent_identities_vanish_over_random_admissible_inputs():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        d = int(rng.integers(3, 8))
        gamma = float(rng.uniform(1.05, 6.0))
        delta = float(rng.uniform(0.01, 0.99))
        gate = max(d * (gamma - 1.0) / gamma, 2.0)
        q = gate + float(rng.uniform(0.05, 4.0))
        params = maxreg_params(d, gamma, q, delta)
        assert abs(params.bo2_residual) <= 1e-12 * max(1.0, params.gamma * params.q)
        if params.bo1_residual is not None:
            assert abs(params.bo1_residual) <= 1e-11 * max(1.0, abs(params.eta))
        checked += 1


def test_integrability_gate_rejects_small_exponents():
    with pytest.raises(ValueError, match="integrability gate"):
        maxreg_params(d=3, gamma=3.0, q=1.5, delta=0.5)


def test_low_interpolation_exponent_gets_a_strict_surrogate():
    params = maxreg_params(d=3, gamma=1.5, q=2.5, delta=0.5)
    assert abs(params.p - 1.5) <= 1e-15
    assert params.p_tilde is not None
    assert 2.0 < params.p_tilde < params.q
    assert abs(params.p_tilde - 2.25) <= 1e-15
    assert params.bo1_residual is None


def test_exponent_bookkeeping_input_gates():
    with pytest.raises(ValueError, match="at least 3"):
        maxreg_params(d=2, gamma=2.0, q=3.0, delta=0.5)
    with pytest.raises(ValueError, match=r"\(In1\)"):
        maxreg_params(d=3, gamma=1.0, q=3.0, delta=0.5)
    with pytest.raises(ValueError):
        maxreg_params(d=3, gamma=2.0, q=3.0, delta=1.0)


# ---------------------------------------------------------------------------
# continuity-argument scalars


def test_shape_function_peak_location_and_height():
    tools = continuity_tools(d=3, q=2.5, gamma=3.0, delta=0.5)
    assert abs(tools.y_star - 3.0**-1.5) <= 1e-15
    assert abs(tools.phi_star - 2.0 * 3.0**-1.5) <= 1e-15
    tools4 = continuity_tools(d=4, q=3.0, gamma=2.0, delta=0.5)
    assert abs(tools4.y_star - 0.25) <= 1e-15
    assert abs(tools4.phi_star - 0.25) <= 1e-15


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 9, 10])
def test_shape_function_maximum_agrees_with_dense_scan(d):
    gamma = 2.0
    q = max(2.0, d * (gamma - 1.0) / gamma) + 0.5
    tools = continuity_tools(d=d, q=q, gamma=gamma, delta=0.5)
    y = np.linspace(0.0, 1.0, 200_001)
    scan = float(np.max(tools.phi(y)))
    assert scan <= tools.phi_star + 1e-12
    assert scan >= tools.phi_star - 1e-7
    assert abs(float(tools.phi(tools.y_star)) - tools.phi_star) <= 1e-15


@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_root_pair_brackets_the_maximizer(frac):
    tools = continuity_tools(d=3, q=2.5, gamma=3.0, delta=0.5)
    level = frac * tools.phi_star
    lo, hi = tools.roots(level)
    assert 0.0 <= lo < tools.y_star < hi <= 1.0
    assert abs(float(tools.phi(lo)) - level) <= 1e-12
    assert abs(float(tools.phi(hi)) - level) <= 1e-12


def test_roots_reject_levels_at_or_above_the_peak():
    tools = continuity_tools(d=3, q=2.5, gamma=3.0, delta=0.5)
    with pytest.raises(ValueError, match="maximum"):
        tools.roots(tools.phi_star)
    with pytest.raises(ValueError):
        tools.roots(-0.1)
