"""Mean-field fixed point: mollified coupling, invariant-density solve,
admissibility gates, and the coupled iteration — each numerical path is
checked against an oracle built from first principles inside this file."""

import itertools
import math

import numpy as np
import pytest

from hjblab import hjb, mfg
from hjblab.fields import ScalarField
from hjblab.geometry import DomainSpec, MetricSpec, build_grid
from hjblab.mfg import (
    MfgSpec,
    MfgState,
    duality_identity_residual,
    exponent_gate,
    fp_peclet,
    fp_solve,
    mfg_fixed_point,
    mollify_coupling,
    optimal_drift,
    smoothed_density,
)

TWO_PI = 2.0 * np.pi


def torus(n, dim=2):
    return build_grid(DomainSpec(kind="torus", dim=dim, resolution=(n,)))


def box(n, dim=2):
    return build_grid(DomainSpec(kind="box", dim=dim, resolution=(n,)))


# ---------------------------------------------------------------------------
# oracle 1: mollified coupling by direct summation over lattice offsets


def _oracle_kernel(grid, eps):
    halves = [int(math.floor(eps / h)) for h in grid.spacings]
    offsets, weights = [], []
    for off in itertools.product(*[range(-hw, hw + 1) for hw in halves]):
        r_sq = sum((o * h) ** 2 for o, h in zip(off, grid.spacings))
        weights.append(max(0.0, 1.0 - r_sq / eps**2) ** 3)
        offsets.append(off)
    total = sum(weights)
    return offsets, [wgt / total for wgt in weights]


def _oracle_wrap_convolve(grid, vals, eps):
    offsets, weights = _oracle_kernel(grid, eps)
    out = np.zeros_like(vals)
    for off, wgt in zip(offsets, weights):
        out += wgt * np.roll(vals, shift=off, axis=tuple(range(vals.ndim)))
    return out


def oracle_coupling(grid, mvals, eps, alpha):
    inner = _oracle_wrap_convolve(grid, mvals, eps)
    return _oracle_wrap_convolve(grid, inner**alpha, eps)


def test_coupling_matches_direct_summation_oracle():
    g = torus(16, dim=2)
    mesh = g.mesh()
    m = ScalarField(g, 1.0 + 0.5 * np.cos(TWO_PI * mesh[0]))
    got = mollify_coupling(m, 0.1, 2.0).values
    want = oracle_coupling(g, m.values, 0.1, 2.0)
    assert np.max(np.abs(got - want)) <= 1e-10
    inner = smoothed_density(m, 0.1).values
    assert np.max(np.abs(inner - _oracle_wrap_convolve(g, m.values, 0.1))) <= 1e-10


def test_coupling_matches_oracle_in_three_dimensions():
    g = torus(12, dim=3)
    mesh = g.mesh()
    m = ScalarField(g, 1.0 + 0.3 * np.cos(TWO_PI * mesh[0]) * np.cos(TWO_PI * mesh[2]))
    got = mollify_coupling(m, 0.17, 1.5).values
    want = oracle_coupling(g, m.values, 0.17, 1.5)
    assert np.max(np.abs(got - want)) <= 1e-10


# ---------------------------------------------------------------------------
# oracle 2: invariant density against a dense bordered linear system


def _circulant_d1(n, h):
    mat = np.zeros((n, n))
    for j in range(n):
        mat[j, (j + 1) % n] = 1.0 / (2.0 * h)
        mat[j, (j - 1) % n] = -1.0 / (2.0 * h)
    return mat


def _circulant_d2(n, h):
    mat = np.zeros((n, n))
    for j in range(n):
        mat[j, j] = -2.0 / h**2
        mat[j, (j + 1) % n] = 1.0 / h**2
        mat[j, (j - 1) % n] = 1.0 / h**2
    return mat


def oracle_invariant_density(grid, uvals, gamma):
    n0, n1 = grid.shape
    h0, h1 = grid.spacings
    eye0, eye1 = np.eye(n0), np.eye(n1)
    d1x = np.kron(_circulant_d1(n0, h0), eye1)
    d1y = np.kron(eye0, _circulant_d1(n1, h1))
    lap = np.kron(_circulant_d2(n0, h0), eye1) + np.kron(eye0, _circulant_d2(n1, h1))
    du = np.stack(
        [(d1x @ uvals.reshape(-1)).reshape(grid.shape), (d1y @ uvals.reshape(-1)).reshape(grid.shape)]
    )
    amp = (np.sum(du**2, axis=0) + 1e-8**2) ** ((gamma - 2.0) / 2.0)
    a = amp * du
    T = -lap + np.diag(a[0].reshape(-1)) @ d1x + np.diag(a[1].reshape(-1)) @ d1y
    w = grid.weights.reshape(-1)
    nn = w.size
    bordered = np.zeros((nn + 1, nn + 1))
    bordered[:nn, :nn] = T.T
    bordered[:nn, nn] = 1.0
    bordered[nn, :nn] = w
    rhs = np.zeros(nn + 1)
    rhs[nn] = 1.0
    sol = np.linalg.solve(bordered, rhs)
    mvals = sol[:nn]
    mvals = mvals / float(np.sum(w * mvals))
    return mvals.reshape(grid.shape), float(sol[nn])


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_invariant_density_matches_dense_oracle(gamma):
    g = torus(16, dim=2)
    mesh = g.mesh()
    u = ScalarField(g, 0.3 * np.cos(TWO_PI * mesh[0]) + 0.1 * np.sin(TWO_PI * mesh[1]))
    got = fp_solve(u, gamma=gamma).values
    want, mu = oracle_invariant_density(g, u.values, gamma)
    assert abs(mu) <= 1e-8
    assert np.max(np.abs(got - want)) <= 1e-10


def test_invariant_density_of_quadratic_transport_is_gibbs():
    # for quadratic Hamiltonians the continuum density is e^{-u}/Z; the
    # lattice solution approaches it at second order
    devs = []
    for n in (32, 64):
        g = torus(n, dim=2)
        mesh = g.mesh()
        u = ScalarField(g, 0.3 * np.cos(TWO_PI * mesh[0]))
        m = fp_solve(u, gamma=2.0).values
        gibbs = np.exp(-u.values)
        gibbs = gibbs / float(np.sum(g.weights * gibbs))
        devs.append(float(np.max(np.abs(m - gibbs))))
    assert devs[0] <= 5e-3
    assert np.log2(devs[0] / devs[1]) >= 1.9


def test_flat_value_field_gives_uniform_density():
    g = torus(16, dim=2)
    m = fp_solve(ScalarField(g, np.zeros(g.shape)), gamma=2.0)
    assert np.max(np.abs(m.values - 1.0 / g.vol)) <= 1e-12
    assert abs(float(np.sum(g.weights * m.values)) - 1.0) <= 1e-15


def test_density_solve_runs_on_boxes_with_positive_output():
    g = box(17)
    mesh = g.mesh()
    u = ScalarField(g, 0.3 * np.cos(np.pi * mesh[0]))
    m = fp_solve(u, gamma=2.0)
    assert abs(float(np.sum(g.weights * m.values)) - 1.0) <= 1e-14
    assert float(np.min(m.values)) > 0.0


def test_density_solve_input_gates():
    conf = build_grid(
        DomainSpec(kind="torus", dim=2, resolution=(16,)),
        MetricSpec.conformal(lambda c: 0.1 * np.cos(TWO_PI * c[0])),
    )
    with pytest.raises(ValueError, match="flat box/torus"):
        fp_solve(ScalarField(conf, np.zeros(conf.shape)))


def test_strong_advection_is_rejected_not_clipped():
    g = torus(8, dim=2)
    mesh = g.mesh()
    u = ScalarField(g, 10.0 * np.cos(TWO_PI * mesh[0]))
    drift = optimal_drift(u, 2.0)
    assert fp_peclet(g, drift) > 1.0
    with pytest.raises(ValueError, match="advection mesh number"):
        fp_solve(u, gamma=2.0)


# ---------------------------------------------------------------------------
# mollifier behavior at the edges of its parameter range


def test_constants_pass_through_the_coupling_exactly():
    g = torus(16, dim=2)
    m = ScalarField(g, np.ones(g.shape))
    for eps in (0.0, 0.05, 0.2):
        out = mollify_coupling(m, eps, 1.7).values
        assert np.max(np.abs(out - 1.0)) <= 1e-14


def test_zero_radius_reduces_to_the_plain_power():
    g = torus(16, dim=2)
    mesh = g.mesh()
    m = ScalarField(g, 1.0 + 0.4 * np.cos(TWO_PI * mesh[0]))
    out = mollify_coupling(m, 0.0, 2.0).values
    assert np.array_equal(out, m.values**2.0)
    # a radius below one lattice spacing has no nodes to average over
    sub = mollify_coupling(m, 0.9 / 16.0 / 2.0, 2.0).values
    assert np.array_equal(sub, m.values**2.0)


def test_smoothing_preserves_mass_on_tori():
    g = torus(16, dim=2)
    mesh = g.mesh()
    m = ScalarField(g, 1.0 + 0.4 * np.cos(TWO_PI * mesh[0]) * np.sin(TWO_PI * mesh[1]))
    sm = smoothed_density(m, 0.15)
    before = float(np.sum(g.weights * m.values))
    after = float(np.sum(g.weights * sm.values))
    assert abs(before - after) <= 1e-12


def test_oversized_radius_is_rejected():
    g = torus(16, dim=2)
    m = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="half the domain width"):
        smoothed_density(m, 0.6)
    with pytest.raises(ValueError, match="positive"):
        mollify_coupling(m, 0.1, 0.0)


# ---------------------------------------------------------------------------
# admissibility gates


def test_exponent_gate_closed_forms():
    gate = exponent_gate(5, 2.0, 1.9)
    assert abs(gate["gamma_threshold"] - 5.0 / 3.0) <= 1e-15
    assert abs(gate["alpha_threshold"] - 2.0) <= 1e-15
    assert gate["gamma_ok"] and gate["alpha_ok"] and gate["passed"]
    too_big = exponent_gate(5, 2.0, 2.1)
    assert not too_big["alpha_ok"] and not too_big["passed"]
    borderline = exponent_gate(5, 2.0, 2.0)
    assert not borderline["alpha_ok"]


def test_exponent_gate_dimension_three_never_limits_the_coupling():
    for gamma in (1.1, 2.0, 5.0):
        gate = exponent_gate(3, gamma, 1e9)
        assert math.isinf(gate["alpha_threshold"])
        assert gate["alpha_ok"]


def test_exponent_gate_critical_gamma_fails_strictly():
    gate = exponent_gate(4, 2.0, 1.0)
    assert abs(gate["gamma_threshold"] - 2.0) <= 1e-15
    assert not gate["gamma_ok"]
    assert math.isinf(gate["alpha_threshold"])  # denominator hits zero
    with pytest.raises(ValueError, match=r"\(In1\)"):
        exponent_gate(4, 1.0, 1.0)


def test_game_spec_gates():
    g = torus(16, dim=2)
    with pytest.raises(ValueError, match=r"\(In1\)"):
        MfgSpec(g, gamma=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="positive"):
        MfgSpec(g, gamma=2.0, alpha=0.0)
    with pytest.raises(ValueError, match="exceed 1"):
        MfgSpec(g, gamma=2.0, alpha=1.0, c_v=1.0)
    with pytest.raises(ValueError, match=r"\(MFG1\)"):
        MfgSpec(g, gamma=2.0, alpha=1.5, c_v=1.2)
    with pytest.raises(ValueError, match="damping"):
        MfgSpec(g, gamma=2.0, alpha=1.0, tau=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        MfgSpec(g, gamma=2.0, alpha=1.0, eps=-0.1)
    conf = build_grid(
        DomainSpec(kind="torus", dim=2, resolution=(16,)),
        MetricSpec.conformal(lambda c: 0.1 * np.cos(TWO_PI * c[0])),
    )
    with pytest.raises(ValueError, match="flat box/torus"):
        MfgSpec(conf, gamma=2.0, alpha=1.0)
    with pytest.raises(ValueError, match="different grid"):
        MfgSpec(g, gamma=2.0, alpha=1.0, shift=ScalarField(torus(12), np.zeros((12, 12))))


def test_shift_monotonicity_gate_on_boxes():
    g = box(17)
    mesh = g.mesh()
    with pytest.raises(ValueError, match=r"\(MFG2\)"):
        MfgSpec(g, gamma=2.0, alpha=1.0, shift=ScalarField(g, mesh[0].copy()))
    # compliant smooth shift: inward-decaying cosine bump
    ok = ScalarField(g, 0.3 * np.cos(np.pi * mesh[0]) * np.cos(np.pi * mesh[1]))
    MfgSpec(g, gamma=2.0, alpha=1.0, shift=ok)


def test_state_validation():
    g = torus(12, dim=2)
    ones = np.full(g.shape, 1.0 / g.vol)
    good = MfgState(u=ScalarField(g, np.zeros(g.shape)), lam=0.0, m=ScalarField(g, ones))
    good.validate()
    with pytest.raises(ValueError, match="mass"):
        MfgState(good.u, 0.0, ScalarField(g, 2.0 * ones)).validate()
    dip = ones * (1.0 + 2.0 * np.cos(TWO_PI * g.mesh()[0]))  # unit mass, sign change
    with pytest.raises(ValueError, match="positive"):
        MfgState(good.u, 0.0, ScalarField(g, dip)).validate()
    with pytest.raises(ValueError, match="zero quadrature mean"):
        MfgState(ScalarField(g, np.ones(g.shape)), 0.0, good.m).validate()


# ---------------------------------------------------------------------------
# coupled fixed point


def test_trivial_game_settles_in_two_outer_steps():
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, eps=0.1, outer_tol=1e-12)
    state, report = mfg_fixed_point(spec)
    assert report.converged and report.outer_iterations <= 2
    assert float(np.max(np.abs(state.u.values))) <= 1e-13
    assert abs(state.lam - 1.0) <= 1e-13
    assert float(np.max(np.abs(state.m.values - 1.0))) <= 1e-13
    assert abs(report.mass - 1.0) <= 1e-14
    state.validate()


def first_mode_shift(grid, amp=0.3, offset=0.0):
    mesh = grid.mesh()
    return ScalarField(grid, amp * np.cos(TWO_PI * mesh[0]) + offset)


def test_critical_constant_moves_opposite_to_shift_offsets():
    g = torus(16, dim=2)
    base = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
    lifted = MfgSpec(
        g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g, offset=0.8), eps=0.1
    )
    s0, r0 = mfg_fixed_point(base)
    s1, r1 = mfg_fixed_point(lifted)
    assert r0.converged and r1.converged
    assert abs(s1.lam - (s0.lam - 0.8)) <= 1e-7
    assert float(np.max(np.abs(s1.u.values - s0.u.values))) <= 1e-7
    assert float(np.max(np.abs(s1.m.values - s0.m.values))) <= 1e-7


def test_nontrivial_torus_game_with_certificates():
    g = torus(16, dim=3)
    spec = MfgSpec(
        g,
        gamma=2.0,
        alpha=1.0,
        shift=first_mode_shift(g, amp=0.5),
        eps=0.1,
    )
    state, report = mfg_fixed_point(spec)
    assert report.converged
    assert abs(report.mass - 1.0) <= 1e-10
    assert report.min_density > 0.0
    assert report.peclet <= 1.0
    state.validate()
    assert report.duality["margin_ok"]
    assert abs(report.duality["identity_residual"]) <= 0.05
    assert report.lp_bounds["bound_ok"]
    assert report.lp_bounds["sigma_hat"] >= 1.0
    assert report.gate["alpha_ok"]


def test_pairing_identity_residual_shrinks_under_refinement():
    residuals = []
    for n in (16, 32):
        g = torus(n, dim=2)
        spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
        state, report = mfg_fixed_point(spec)
        assert report.converged
        residuals.append(abs(report.duality["identity_residual"]))
    assert np.log2(residuals[0] / residuals[1]) >= 1.0


def test_box_game_converges_without_boundary_certificates():
    g = box(17)
    mesh = g.mesh()
    shift = ScalarField(g, 0.3 * np.cos(np.pi * mesh[0]) * np.cos(np.pi * mesh[1]))
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=shift, eps=0.1)
    state, report = mfg_fixed_point(spec)
    assert report.converged
    assert abs(report.mass - 1.0) <= 1e-12
    assert report.min_density > 0.0
    assert report.duality == {}  # the pairing identity is a torus diagnostic
    state.validate()


def test_failed_density_solve_stops_the_game_with_a_named_reason(monkeypatch):
    def failing(grid, apply_fn, inv, rhs_field, rhs_constraint, rtol):
        return np.zeros(grid.shape), 0.0, 1

    monkeypatch.setattr(mfg, "bordered_solve", failing)
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
    _, report = mfg_fixed_point(spec)
    assert not report.converged
    assert report.outer_iterations == 0
    assert report.message == "density linear solve did not converge at mollifier radius 0.1"
    assert report.duality == {} and report.lp_bounds == {}


def test_failed_value_solve_stops_the_game_with_its_reason(monkeypatch):
    def failing(grid, apply_fn, inv, rhs_field, rhs_constraint, rtol):
        return np.zeros(grid.shape), 0.0, 1

    monkeypatch.setattr(hjb, "bordered_solve", failing)
    g = torus(8, dim=3)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
    _, report = mfg_fixed_point(spec)
    assert not report.converged
    assert report.outer_iterations == 0
    assert report.message == (
        "inner value solve failed to converge: "
        "linear solve failed at Newton step 1 (GMRES info 1)"
    )


def test_duality_diagnostic_rejects_boxes():
    g = box(17)
    state = MfgState(
        u=ScalarField(g, np.zeros(g.shape)),
        lam=0.0,
        m=ScalarField(g, np.full(g.shape, 1.0 / g.vol)),
    )
    spec = MfgSpec(g, gamma=2.0, alpha=1.0)
    with pytest.raises(NotImplementedError):
        duality_identity_residual(state, spec)
