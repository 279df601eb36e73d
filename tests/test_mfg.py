"""Mean-field fixed point: mollified coupling, invariant-density solve,
admissibility gates, and the coupled iteration — each numerical path is
checked against an oracle built from first principles inside this file."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from hjblab import hjb, mfg
from hjblab.fields import ScalarField, gradient, hessian, pointwise_norm
from hjblab.geometry import DomainSpec, build_grid
from hjblab.mfg import (
    MfgSpec,
    MfgState,
    duality_identity_residual,
    exponent_gate,
    fp_peclet,
    fp_solve,
    mfg_fixed_point,
    mollify_coupling,
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


def _oracle_clipped_convolve(grid, vals, eps):
    """Box smoothing: each node sums the kernel over the offsets that stay in
    the box and divides by the kernel mass it kept."""
    offsets, weights = _oracle_kernel(grid, eps)
    num = np.zeros_like(vals)
    den = np.zeros_like(vals)
    for off, wgt in zip(offsets, weights):
        # node i collects vals[i + off] when i + off lies in the box
        src = tuple(slice(max(o, 0), n + min(o, 0)) for o, n in zip(off, vals.shape))
        dst = tuple(slice(max(-o, 0), n + min(-o, 0)) for o, n in zip(off, vals.shape))
        num[dst] += wgt * vals[src]
        den[dst] += wgt
    return num / den


@pytest.mark.parametrize("n, dim, radii", [(16, 2, (0.1, 0.2)), (12, 3, (0.2, 0.3))])
def test_box_coupling_matches_clipped_direct_summation(n, dim, radii):
    g = box(n, dim=dim)
    mesh = g.mesh()
    m = ScalarField(g, 1.0 + 0.4 * np.cos(np.pi * mesh[0]) * np.sin(TWO_PI * mesh[-1]))
    # two radii on one grid, then the first again: each keeps its own kernel
    for eps in radii + radii[:1]:
        inner = _oracle_clipped_convolve(g, m.values, eps)
        assert np.max(np.abs(smoothed_density(m, eps).values - inner)) <= 1e-10
        want = _oracle_clipped_convolve(g, inner**1.5, eps)
        assert np.max(np.abs(mollify_coupling(m, eps, 1.5).values - want)) <= 1e-10


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


def _density_of(u, gamma=2.0):
    """fp_solve with the drift of the value field u, as the game forms it."""
    return fp_solve(u.grid, hjb.transport_coefficient(hjb.ProblemSpec(u.grid, gamma), u.values))


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
    got = _density_of(u, gamma).values
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
        m = _density_of(u).values
        gibbs = np.exp(-u.values)
        gibbs = gibbs / float(np.sum(g.weights * gibbs))
        devs.append(float(np.max(np.abs(m - gibbs))))
    assert devs[0] <= 5e-3
    assert np.log2(devs[0] / devs[1]) >= 1.9


def test_flat_value_field_gives_uniform_density():
    g = torus(16, dim=2)
    m = fp_solve(g, np.zeros((2,) + g.shape))
    assert np.max(np.abs(m.values - 1.0 / g.vol)) <= 1e-12
    assert abs(float(np.sum(g.weights * m.values)) - 1.0) <= 1e-15


def test_density_solve_runs_on_boxes_with_positive_output():
    g = box(17)
    mesh = g.mesh()
    u = ScalarField(g, 0.3 * np.cos(np.pi * mesh[0]))
    m = _density_of(u)
    assert abs(float(np.sum(g.weights * m.values)) - 1.0) <= 1e-14
    assert float(np.min(m.values)) > 0.0


def test_density_solve_input_gates():
    conf = build_grid(
        DomainSpec(kind="torus", dim=2, resolution=(16,)),
        lambda c: 0.1 * np.cos(TWO_PI * c[0]),
    )
    with pytest.raises(ValueError, match="flat box/torus"):
        fp_solve(conf, np.zeros((2,) + conf.shape))


def test_strong_advection_is_rejected_not_clipped():
    g = torus(8, dim=2)
    mesh = g.mesh()
    u = ScalarField(g, 10.0 * np.cos(TWO_PI * mesh[0]))
    drift = hjb.transport_coefficient(hjb.ProblemSpec(g, gamma=2.0), u.values)
    assert fp_peclet(g, drift) > 1.0
    with pytest.raises(ValueError, match="advection mesh number"):
        fp_solve(g, drift)


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


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_linear_coupling_equals_the_general_power_bit_for_bit(kind):
    # At alpha = 1 the coupling skips |s| ** 1.0 * sign(s), which is s with
    # -0 read as +0.  Values and signs of zero match the power, and the
    # density passed in is left as it was.
    g = torus(16, dim=2) if kind == "torus" else box(17, dim=2)
    vals = np.random.default_rng(41).normal(size=g.shape)
    vals[::3] = 0.0
    vals[1::3, ::2] = -0.0
    m = ScalarField(g, vals.copy())
    for eps in (0.0, 0.1):
        s = mfg._convolve(g, vals, eps)
        want = mfg._convolve(g, np.abs(s) ** 1.0 * np.sign(s), eps)
        got = mollify_coupling(m, eps, 1.0).values
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), eps
        assert np.array_equal(m.values, vals) and np.array_equal(np.signbit(m.values), np.signbit(vals))
    assert np.any(np.signbit(vals) & (vals == 0.0))


def _einsum_duality_terms(state, spec):
    """The identity's two sides and the coupling energy, with the Hessian
    contractions as np.einsum and the component sums as np.sum."""
    g = state.u.grid
    w = g.weights
    gradu = gradient(state.u).values
    hess = hessian(state.u).values
    p_sq = np.sum(gradu**2, axis=0)
    amp = (p_sq + hjb.EPS_REG**2) ** ((spec.gamma - 2.0) / 2.0)
    amp2 = (p_sq + hjb.EPS_REG**2) ** ((spec.gamma - 4.0) / 2.0)
    hess_sq_frob = np.einsum("ij...,ij...->...", hess, hess)
    hp = np.einsum("ij...,j...->i...", hess, gradu)
    trace_term = amp * hess_sq_frob + (spec.gamma - 2.0) * amp2 * np.sum(hp**2, axis=0)
    lhs = -float(np.sum(w * trace_term * state.m.values))
    grad_m = gradient(state.m).values
    grad_v = gradient(mollify_coupling(state.m, spec.eps, spec.alpha)).values
    rhs = float(np.sum(w * np.sum(grad_v * grad_m, axis=0)))
    rhs -= float(np.sum(w * np.sum(gradient(spec.shift).values * grad_m, axis=0)))
    m_eps = smoothed_density(state.m, spec.eps)
    vprime = spec.alpha * np.abs(m_eps.values) ** (spec.alpha - 1.0)
    energy = float(np.sum(w * vprime * np.sum(gradient(m_eps).values ** 2, axis=0)))
    return lhs, rhs, energy


@pytest.mark.parametrize("gamma, alpha", [(2.0, 1.0), (3.0, 1.5)])
def test_duality_terms_equal_the_einsum_contractions_bit_for_bit(gamma, alpha):
    g = torus(12, dim=3)
    rng = np.random.default_rng(43)
    x, y, z = g.mesh()
    u = np.cos(TWO_PI * x) * np.sin(TWO_PI * (y + z)) + 0.01 * rng.normal(size=g.shape)
    m = 1.0 + 0.3 * np.cos(TWO_PI * y) + 0.01 * rng.normal(size=g.shape)
    state = MfgState(u=ScalarField(g, u), lam=0.0, m=ScalarField(g, m / float(np.sum(g.weights * m))))
    spec = MfgSpec(g, gamma=gamma, alpha=alpha, shift=ScalarField(g, 0.5 * np.cos(TWO_PI * z)), eps=0.2)
    got = duality_identity_residual(state, spec)
    assert (got["identity_lhs"], got["identity_rhs"], got["coupling_energy"]) == _einsum_duality_terms(state, spec)


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_hessian_sup_norm_equals_its_tensor_form_bit_for_bit(kind):
    rng = np.random.default_rng(47)
    for dim in (2, 3):
        g = torus(10, dim) if kind == "torus" else box(11, dim)
        b = ScalarField(g, rng.normal(size=g.shape))
        assert mfg._hessian_sup_norm(b) == float(np.max(pointwise_norm(hessian(b))))
    assert mfg._hessian_sup_norm(None) == 0.0


def test_duality_identity_residual_holds_no_hessian():
    # On this 32^3 game state the full Hessian and its reductions held 18
    # field-sized arrays at once; the streamed pass holds 12.1.
    g = torus(32, dim=3)
    x, y, z = g.mesh()
    rng = np.random.default_rng(43)
    u = np.cos(TWO_PI * x) * np.sin(TWO_PI * (y + z)) + 0.01 * rng.normal(size=g.shape)
    m = 1.0 + 0.3 * np.cos(TWO_PI * y)
    state = MfgState(u=ScalarField(g, u), lam=0.0, m=ScalarField(g, m / float(np.sum(g.weights * m))))
    spec = MfgSpec(g, gamma=3.0, alpha=1.5, shift=ScalarField(g, 0.5 * np.cos(TWO_PI * z)), eps=0.2)
    duality_identity_residual(state, spec)  # fills the grid's caches
    tracemalloc.start()
    try:
        duality_identity_residual(state, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / u.nbytes <= 13, peak / u.nbytes


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
    with pytest.raises(ValueError, match="nonnegative"):
        MfgSpec(g, gamma=2.0, alpha=1.0, eps=-0.1)
    conf = build_grid(
        DomainSpec(kind="torus", dim=2, resolution=(16,)),
        lambda c: 0.1 * np.cos(TWO_PI * c[0]),
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


def test_state_validation_rejects_small_faults_in_a_converged_game():
    # Each of the three checks fires on a converged game's state with one
    # fault just past its tolerance: the mass off by 1e-9, one density node
    # at 0 (its mass moved to a neighbour, so the total stays 1), and u
    # shifted off zero mean by 1e-8
    g = torus(16, dim=2)
    state, report = mfg_fixed_point(MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1))
    assert report.converged
    state.validate()
    m = state.m.values
    with pytest.raises(ValueError, match="^density mass deviates from 1$"):
        MfgState(state.u, state.lam, ScalarField(g, m * (1.0 + 1e-9))).validate()
    hole = m.copy()
    hole[3, 4] += hole[3, 5]
    hole[3, 5] = 0.0
    assert abs(float(np.sum(g.weights * hole)) - 1.0) <= 1e-14
    with pytest.raises(ValueError, match="^density must be positive node-wise$"):
        MfgState(state.u, state.lam, ScalarField(g, hole)).validate()
    with pytest.raises(ValueError, match="^value function must have zero quadrature mean$"):
        MfgState(ScalarField(g, state.u.values + 1e-8), state.lam, state.m).validate()


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


def test_manufactured_game_converges_at_second_order():
    # u* = 0.5 cos 2 pi x with lam = 0 and the Gibbs density m* = e^{-u*} / Z
    # solve the gamma = 2 game whose shift is b = V_eps[m*] + Lap u* - |grad u*|^2 / 2
    errors = []
    for n in (16, 32, 64):
        g = build_grid(DomainSpec(kind="torus", dim=3, resolution=(n, 8, 8)))
        x = g.mesh()[0]
        ustar = 0.5 * np.cos(TWO_PI * x)
        grad_sq = (0.5 * TWO_PI * np.sin(TWO_PI * x)) ** 2
        mstar = np.exp(-ustar)
        mstar /= float(np.sum(g.weights * mstar))
        shift = mollify_coupling(ScalarField(g, mstar), 0.1, 1.0).values - TWO_PI**2 * ustar - 0.5 * grad_sq
        state, report = mfg_fixed_point(
            MfgSpec(g, gamma=2.0, alpha=1.0, shift=ScalarField(g, shift), eps=0.1)
        )
        assert report.converged, report.message
        errors.append(
            (
                float(np.max(np.abs(state.u.values - ustar))),
                float(np.max(np.abs(state.m.values - mstar))),
                abs(state.lam),
            )
        )
    for coarse, fine in zip(errors, errors[1:]):
        orders = [math.log2(e0 / e1) for e0, e1 in zip(coarse, fine)]
        assert min(orders) >= 1.9, (errors, orders)


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


def test_started_density_solves_leave_the_game_unchanged(monkeypatch):
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
    starts = []
    orig = mfg.transport_solve

    def counting(*args, x0=None, **kwargs):
        starts.append(x0 is not None)
        return orig(*args, x0=x0, **kwargs)

    monkeypatch.setattr(mfg, "transport_solve", counting)
    _, warm = mfg_fixed_point(spec)
    # every density solve but the first starts from the last density
    assert starts == [False] + [True] * (warm.outer_iterations - 1)
    monkeypatch.setattr(mfg, "transport_solve", lambda *args, x0=None, **kwargs: orig(*args, **kwargs))
    _, cold = mfg_fixed_point(spec)
    assert warm.converged and cold.converged
    pairs = [(warm.lam, cold.lam), (warm.mass, cold.mass)]
    pairs += [(warm.duality[k], cold.duality[k]) for k in ("identity_lhs", "identity_rhs", "coupling_energy")]
    for a, b in pairs:
        assert abs(a - b) <= 1e-9 * abs(b)


def test_later_game_iterations_leave_earlier_arrays_unchanged(monkeypatch):
    # Every iteration's value report, drift and density must survive the
    # iterations after it: they are fresh arrays, never the solver's work
    # arrays.  Each is copied when it is handed on and compared at the end.
    # The one exception is a report's gradient, which the next value solve
    # takes over as its own buffer: that report then holds None for it, so
    # every report but the last must have handed it on.
    seen, reports = [], []
    solve, fp = mfg.solve_ergodic, mfg.fp_solve

    def solve_spy(prob, cfg=None):
        rep = solve(prob, cfg)
        reports.append(rep)
        seen.extend((name, arr, arr.copy()) for name, arr in (("u", rep.u.values), ("gradient", rep.gradient)))
        return rep

    def fp_spy(grid, drift, **kwargs):
        m = fp(grid, drift, **kwargs)
        seen.extend((name, arr, arr.copy()) for name, arr in (("drift", drift), ("density", m.values)))
        return m

    monkeypatch.setattr(mfg, "solve_ergodic", solve_spy)
    monkeypatch.setattr(mfg, "fp_solve", fp_spy)
    g = torus(16, dim=2)
    _, report = mfg_fixed_point(MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1))
    assert report.converged and report.outer_iterations >= 3
    assert len(seen) == 4 * report.outer_iterations == 4 * len(reports)
    assert all(rep.gradient is None for rep in reports[:-1]) and reports[-1].gradient is not None
    for i, (name, arr, copy) in enumerate(seen):
        if name == "gradient" and i // 4 < len(reports) - 1:
            continue  # handed on to the next value solve
        assert np.array_equal(arr, copy), (i // 4, name)


def test_game_forms_one_drift_per_outer_iteration(monkeypatch):
    drifts, handed = [], []
    tc, fp = mfg.transport_coefficient, mfg.fp_solve

    def coefficient_spy(*args):
        drifts.append(tc(*args))
        return drifts[-1]

    def fp_spy(grid, drift, **kwargs):
        handed.append(drift)
        return fp(grid, drift, **kwargs)

    # the value solve forms its coefficients through hjb's own binding, not these
    monkeypatch.setattr(mfg, "transport_coefficient", coefficient_spy)
    monkeypatch.setattr(mfg, "fp_solve", fp_spy)
    g = torus(16, dim=2)
    _, report = mfg_fixed_point(MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1))
    assert report.converged
    assert len(drifts) == report.outer_iterations
    assert len(handed) == len(drifts) and all(h is d for h, d in zip(handed, drifts))


FINAL_TOL = hjb.SolverConfig().residual_tol  # the value solve's final tolerance; the density solve's is 1e-10


def _spy_on_inner_tolerances(monkeypatch, change=None):
    """Lists, one entry per outer iteration, of the mollifier radius, the
    value solve's residual_tol, the density solve's rtol and the change.

    `change`, if given, maps (call index, true change) to the change the
    loop sees."""
    log = {"eps": [], "value": [], "density": [], "change": []}
    mc, se, fp, sc = mfg.mollify_coupling, mfg.solve_ergodic, mfg.fp_solve, mfg._state_change

    def mollify_spy(m, eps, alpha):
        log["eps"].append(eps)
        return mc(m, eps, alpha)

    def value_spy(prob, cfg):
        log["value"].append(cfg.residual_tol)
        return se(prob, cfg)

    def density_spy(grid, drift, **kwargs):
        log["density"].append(kwargs["rtol"])
        return fp(grid, drift, **kwargs)

    def change_spy(a, b):
        c = sc(a, b)
        log["change"].append(c if change is None else change(len(log["change"]), c))
        return log["change"][-1]

    monkeypatch.setattr(mfg, "mollify_coupling", mollify_spy)
    monkeypatch.setattr(mfg, "solve_ergodic", value_spy)
    monkeypatch.setattr(mfg, "fp_solve", density_spy)
    monkeypatch.setattr(mfg, "_state_change", change_spy)
    return log


def test_inner_tolerances_follow_the_outer_change(monkeypatch):
    g = torus(16, dim=2)
    # a radius below 0.1 with a shift runs two mollifier stages, 0.1 and 0.05
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.05)
    log = _spy_on_inner_tolerances(monkeypatch)
    _, report = mfg_fixed_point(spec)
    n = report.outer_iterations
    assert report.converged and report.stages == [0.1, 0.05]
    eps = log["eps"][:n]  # the certificates smooth the final density once more
    assert len(log["value"]) == len(log["density"]) == len(log["change"]) == n
    firsts = [i for i in range(n) if i == 0 or eps[i] != eps[i - 1]]
    assert len(firsts) == 2
    for i in range(n):
        prev = log["change"][i - 1]
        slack = 0.0 if i in firsts or prev < spec.outer_tol else mfg._FORCING * prev
        assert log["value"][i] == max(FINAL_TOL, slack)
        assert log["density"][i] == max(1e-10, slack)
    # each stage ends on an iteration at the final tolerances, and most ran looser
    for last in [f - 1 for f in firsts[1:]] + [n - 1]:
        assert log["value"][last] == FINAL_TOL and log["density"][last] == 1e-10
    assert sum(t > FINAL_TOL for t in log["value"]) > n // 2


def test_game_stops_only_after_an_iteration_at_the_final_tolerances(monkeypatch):
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1, outer_tol=1e-4)
    drop = 0.5 * spec.outer_tol  # forcing would still leave 5e-7 of slack after it
    # the fourth change falls below outer_tol abruptly, after a loose iteration
    log = _spy_on_inner_tolerances(monkeypatch, change=lambda i, c: c if i < 3 else drop)
    _, report = mfg_fixed_point(spec)
    assert report.converged
    assert log["change"][2] > spec.outer_tol
    assert log["value"][3] == mfg._FORCING * log["change"][2] > FINAL_TOL
    # one more iteration, at the final tolerances, and the loop stops there;
    # a loose iteration whose solves met the final tolerances anyway may
    # stop at once, which the constant-state games check (two iterations)
    assert report.outer_iterations == 5
    assert log["value"][4] == FINAL_TOL and log["density"][4] == 1e-10


def test_inexact_inner_solves_leave_the_game_unchanged(monkeypatch):
    g = torus(16, dim=3)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g, amp=0.5), eps=0.1)
    _, inexact = mfg_fixed_point(spec)
    monkeypatch.setattr(mfg, "_FORCING", 0.0)
    _, exact = mfg_fixed_point(spec)
    assert inexact.converged and exact.converged
    assert inexact.outer_iterations == exact.outer_iterations
    pairs = [(inexact.lam, exact.lam, exact.lam), (inexact.mass, exact.mass, exact.mass)]
    for block in ("duality", "lp_bounds"):
        for key, b in getattr(exact, block).items():
            a = getattr(inexact, block)[key]
            if isinstance(b, bool):
                assert a == b, key
            elif isinstance(b, float):
                # lhs - rhs cancels, so it is judged on the scale of lhs
                scale = exact.duality["identity_lhs"] if key == "identity_residual" else b
                pairs.append((a, b, scale))
    for a, b, scale in pairs:
        assert abs(a - b) <= 1e-9 * abs(scale)


def test_failed_density_solve_stops_the_game_with_a_named_reason(monkeypatch):
    def failing(grid, b, rhs, c, rtol, *, adjoint=False, x0=None):
        return np.zeros(grid.shape), 0.0, 1

    monkeypatch.setattr(mfg, "transport_solve", failing)
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
    _, report = mfg_fixed_point(spec)
    assert not report.converged
    assert report.outer_iterations == 0
    assert report.message == "density linear solve did not converge at mollifier radius 0.1"
    assert report.duality == {} and report.lp_bounds == {}


def test_spent_outer_budget_stops_the_game_with_its_radius(monkeypatch):
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
    _, full = mfg_fixed_point(spec)
    assert full.converged and full.outer_iterations > 3
    monkeypatch.setattr(mfg, "_MAX_OUTER", 3)
    _, report = mfg_fixed_point(spec)
    assert not report.converged
    assert report.outer_iterations == 3
    assert report.message == "outer iteration budget exhausted at radius 0.1"
    assert report.duality == {} and report.lp_bounds == {}


def test_density_solve_at_its_round_off_floor_stops_with_the_residuals(monkeypatch):
    # The Gibbs density solves this system, but on 96 nodes along x the true
    # residual levels off near 1.5e-10, above the 1e-10 target; the first
    # cycle ends there and the second gains less than half
    g = build_grid(DomainSpec(kind="torus", dim=3, resolution=(96, 8, 8)))
    u = ScalarField(g, 0.5 * np.cos(TWO_PI * g.mesh()[0]))
    calls = []
    rest = hjb._Ops.adjoint_rest

    def spy(self, *args):
        calls.append(1)
        return rest(self, *args)

    monkeypatch.setattr(hjb._Ops, "adjoint_rest", spy)
    with pytest.raises(RuntimeError) as exc:
        _density_of(u)
    msg = str(exc.value)
    assert msg.startswith("density linear solve did not converge: true residual stalled at ")
    attained, target = (float(v) for v in re.fullmatch(r".* at (\S+) against target (\S+)", msg).groups())
    assert target == 1e-10 < attained < 1e-9
    assert len(calls) <= 3 * 20  # a few cycles, not the 2000-step budget


def test_game_drift_reuses_the_value_solves_gradient(monkeypatch):
    g = torus(16, dim=2)
    spec = MfgSpec(g, gamma=2.0, alpha=1.0, shift=first_mode_shift(g), eps=0.1)
    tc = mfg.transport_coefficient
    handed = []

    def spy(prob, uvals, dvals=None):
        handed.append(dvals is not None)
        return tc(prob, uvals, dvals)

    monkeypatch.setattr(mfg, "transport_coefficient", spy)
    state, report = mfg_fixed_point(spec)
    assert report.converged and handed and all(handed)
    # the same game with every drift's gradient formed again from u
    monkeypatch.setattr(mfg, "transport_coefficient", lambda prob, uvals, dvals=None: tc(prob, uvals))
    ref_state, ref = mfg_fixed_point(spec)
    assert report.outer_iterations == ref.outer_iterations
    assert abs(report.lam - ref.lam) <= 1e-12 * abs(ref.lam)
    assert np.max(np.abs(state.m.values - ref_state.m.values)) <= 1e-12 * np.max(ref_state.m.values)


def test_failed_value_solve_stops_the_game_with_its_reason(monkeypatch):
    def failing(grid, apply_fn, inv, rhs_field, rhs_constraint, rtol, x0=None):
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
