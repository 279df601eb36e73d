"""Discrete calculus: exactness, refinement orders, norms, dumps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjblab.bernstein import bochner_residual, weighted_bochner_residual
from hjblab.estimates import cz_ratio, random_band_limited
from hjblab.fields import (
    ScalarField,
    SymTensorField,
    VectorField,
    dump_field_csv,
    gradient,
    hessian,
    laplace_beltrami,
    lq_norm,
    normal_derivative,
    pointwise_norm,
    _sum_of_squares,
)
from hjblab.geometry import DomainSpec, Grid, MetricSpec, build_grid

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
# polynomial exactness (flat metric, away from one-sided boundary rows)


def test_gradient_annihilates_constants():
    g = box(12)
    out = gradient(ScalarField(g, np.full(g.shape, 5.0)))
    assert np.all(out.values == 0.0)


def test_gradient_reproduces_linear_exactly_on_interior():
    g = box(17)
    X = g.mesh()
    out = gradient(ScalarField(g, X[0].copy()))
    inner = interior(g, margin=1)
    assert np.all(out.values[0][inner] == 1.0)
    assert np.all(out.values[1][inner] == 0.0)
    assert np.all(out.values[2][inner] == 0.0)


def test_hessian_kills_linear_and_reproduces_quadratic():
    g = box(17)
    X = g.mesh()
    lin = hessian(ScalarField(g, 1.0 + 2.0 * X[0] - 0.75 * X[1]))
    inner = interior(g, margin=1)
    assert np.all(lin.values[..., inner] == 0.0)
    quad = hessian(ScalarField(g, X[0] ** 2))
    assert np.all(quad.values[0, 0][inner] == 2.0)
    assert np.all(quad.values[1, 1][inner] == 0.0)
    assert np.all(quad.values[0, 1][inner] == 0.0)


def test_laplacian_of_squared_radius_is_twice_dimension():
    g = box(17)
    X = g.mesh()
    lap = laplace_beltrami(ScalarField(g, X[0] ** 2 + X[1] ** 2 + X[2] ** 2))
    inner = interior(g, margin=1)
    assert np.all(lap.values[inner] == 6.0)


# ---------------------------------------------------------------------------
# refinement orders against closed forms


def _pair_order(errs, ns):
    return np.log(errs[-2] / errs[-1]) / np.log(ns[-1] / ns[-2])


def test_gradient_second_order_on_single_mode():
    ns = (32, 64, 128)
    errs = []
    for n in ns:
        g = build_grid(DomainSpec(kind="torus", dim=2, resolution=(n, 8)))
        X = g.mesh()
        out = gradient(ScalarField(g, np.sin(TWO_PI * X[0])))
        errs.append(float(np.max(np.abs(out.values[0] - TWO_PI * np.cos(TWO_PI * X[0])))))
    assert errs[1] <= 0.011  # (2 pi)^3 h^2 / 6 at h = 1/64
    assert _pair_order(errs, ns) >= 1.9


def test_laplacian_second_order_on_single_mode():
    ns = (32, 64, 128)
    errs = []
    for n in ns:
        g = build_grid(DomainSpec(kind="torus", dim=2, resolution=(n, 8)))
        X = g.mesh()
        lap = laplace_beltrami(ScalarField(g, np.cos(TWO_PI * X[0])))
        errs.append(
            float(np.max(np.abs(lap.values + TWO_PI**2 * np.cos(TWO_PI * X[0]))))
        )
    assert _pair_order(errs, ns) >= 1.9


def conformal_metric(amp=0.1):
    return MetricSpec.conformal(lambda coords, _a=amp: _a * np.cos(TWO_PI * coords[0]))


# phi varies along every axis, so every conformal correction is nonzero
ALL_AXES_METRIC = MetricSpec.conformal(
    lambda c: 0.1 * np.cos(TWO_PI * c[0]) * np.sin(TWO_PI * (c[1] + 2.0 * c[2]))
)


def test_conformal_hessian_second_order_against_fine_grid_oracle():
    # the seeded band-limited profile samples one fixed smooth function at
    # every resolution, so a 4x finer evaluation acts as the reference
    def hess_at(n):
        g = torus(n, dim=2, metric=conformal_metric())
        return hessian(random_band_limited(g, seed=7)).values

    errs = []
    ns = (16, 32)
    fine = hess_at(128)
    for n in ns:
        coarse = hess_at(n)
        stride = 128 // n
        ref = fine[..., ::stride, ::stride]
        errs.append(float(np.max(np.abs(coarse - ref))))
    assert _pair_order(errs, ns) >= 1.8


def test_constant_conformal_factor_rescales_laplacian():
    c = 0.4
    gc = torus(24, dim=3, metric=MetricSpec.conformal(lambda coords: np.full(coords[0].shape, c)))
    gf = torus(24, dim=3)
    vals = random_band_limited(gf, seed=3).values
    lap_conf = laplace_beltrami(ScalarField(gc, vals.copy())).values
    lap_flat = laplace_beltrami(ScalarField(gf, vals.copy())).values
    assert np.max(np.abs(lap_conf - np.exp(-2.0 * c) * lap_flat)) <= 1e-12


def test_trace_identity_between_hessian_and_laplacian():
    g = torus(16, dim=3, metric=conformal_metric())
    u = random_band_limited(g, seed=1)
    H = hessian(u).values
    tr = (H[0, 0] + H[1, 1] + H[2, 2]) * g.conformal_factor(-2.0)
    lap = laplace_beltrami(u).values
    assert np.max(np.abs(tr - lap)) <= 1e-12 * max(1.0, float(np.max(np.abs(lap))))


@pytest.mark.parametrize("kind", ["flat torus", "box", "conformal torus"])
def test_laplacian_is_the_metric_trace_of_the_hessian_bit_for_bit(kind):
    g = {
        "flat torus": torus(12, dim=3),
        "box": box(11),  # one-sided rows on every face
        "conformal torus": torus(12, dim=3, metric=conformal_metric()),
    }[kind]
    u = ScalarField(g, np.random.default_rng(4).normal(size=g.shape))
    H = hessian(u).values
    tr = sum(H[a, a] for a in range(g.dim))
    if not g.is_flat:
        tr = tr * g.conformal_factor(-2.0)
    assert np.array_equal(laplace_beltrami(u).values, tr)


def test_second_derivative_operators_form_each_partial_once(monkeypatch):
    # Building the full Hessian to take each Laplacian would cost 9, 36 and
    # 36 partials here, and one Hessian for each exponent 18 in cz_ratio.
    g = torus(8, dim=3)
    u = random_band_limited(g, seed=2)
    calls = []
    partial = Grid.partial

    def counting(self, values, axis):
        calls.append(axis)
        return partial(self, values, axis)

    monkeypatch.setattr(Grid, "partial", counting)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert count(laplace_beltrami, u) == 6
    assert count(bochner_residual, u) == 21
    assert count(weighted_bochner_residual, u, 0.5) == 21
    assert count(cz_ratio, [u], (2.0, 4.0)) == 9


# ---------------------------------------------------------------------------
# norms


def test_norm_of_constant_is_its_magnitude():
    g = torus(16, dim=3)
    u = ScalarField(g, np.full(g.shape, -2.5))
    for q in (1.0, 2.0, 3.5, np.inf):
        assert abs(lq_norm(u, q) - 2.5) <= 1e-12


def test_l2_norm_of_sine_matches_half_integral():
    g = torus(64, dim=2)
    mesh = g.mesh()
    u = ScalarField(g, np.sin(TWO_PI * mesh[0]))
    assert abs(lq_norm(u, 2.0) - 1.0 / np.sqrt(2.0)) <= 1e-4


def test_sup_norm_hits_the_peak_node():
    g = torus(16, dim=2)
    mesh = g.mesh()
    u = ScalarField(g, np.cos(TWO_PI * mesh[0]))
    assert lq_norm(u, np.inf) == 1.0


def test_norm_rejects_exponent_below_one():
    g = torus(16, dim=2)
    with pytest.raises(ValueError):
        lq_norm(ScalarField(g, np.ones(g.shape)), 0.5)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    q1=st.floats(min_value=1.0, max_value=6.0),
    bump=st.floats(min_value=0.1, max_value=4.0),
)
def test_norm_inclusion_under_small_volume(seed, q1, bump):
    q2 = q1 + bump
    g = build_grid(DomainSpec(kind="box", dim=2, extents=(0.8, 0.9), resolution=(12,)))
    u = ScalarField(g, np.random.default_rng(seed).normal(size=g.shape))
    lhs = lq_norm(u, q1)
    rhs = lq_norm(u, q2) * g.vol ** (1.0 / q1 - 1.0 / q2)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-50.0, max_value=50.0), q=st.floats(min_value=1.0, max_value=8.0))
def test_norm_absolute_homogeneity(c, q):
    g = torus(12, dim=2)
    u = random_band_limited(g, seed=5)
    scaled = ScalarField(g, c * u.values)
    assert abs(lq_norm(scaled, q) - abs(c) * lq_norm(u, q)) <= 1e-10 * max(
        1.0, abs(c)
    )


def test_vector_norm_uses_metric_frame():
    g = torus(16, dim=2, metric=conformal_metric(0.3))
    X = VectorField(g, np.stack([np.ones(g.shape), np.zeros(g.shape)]))
    # contravariant unit coordinate vector has metric length e^{phi}
    assert np.max(np.abs(pointwise_norm(X) - g.conformal_factor(1.0))) <= 1e-12


# ---------------------------------------------------------------------------
# boundary derivative


def test_normal_derivative_of_linear_field_on_box():
    g = box(17, dim=2)
    mesh = g.mesh()
    dn = normal_derivative(ScalarField(g, mesh[0].copy()))
    face = g.face_interior_mask
    left = face & (mesh[0] == 0.0)
    right = face & (mesh[0] == 1.0)
    assert np.allclose(dn[right], 1.0, atol=1e-12)
    assert np.allclose(dn[left], -1.0, atol=1e-12)
    assert np.all(dn[~g.boundary_mask] == 0.0)


# ---------------------------------------------------------------------------
# dumps


def test_csv_dump_has_header_and_node_rows(tmp_path):
    g = torus(8, dim=2)
    u = ScalarField(g, np.arange(64, dtype=float).reshape(g.shape))
    path = tmp_path / "u.csv"
    dump_field_csv(u, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 64
    assert lines[0].split(",")[0] == "node"


def test_symmetric_tensors_are_kept_and_round_off_asymmetry_is_averaged():
    g = torus(8, dim=3)
    A = np.random.default_rng(6).normal(size=(3, 3) + g.shape)
    sym = A + np.swapaxes(A, 0, 1)  # exactly symmetric: a + b == b + a
    assert np.array_equal(SymTensorField(g, sym.copy()).values, sym)
    near = sym.copy()
    near[1, 0] *= 1.0 + 1e-14
    kept = SymTensorField(g, near.copy()).values
    assert np.array_equal(kept[0, 1], kept[1, 0])
    assert np.array_equal(kept[0, 1], 0.5 * (near[0, 1] + near[1, 0]))
    assert not np.array_equal(kept[0, 1], sym[0, 1])


def test_conformal_hessian_takes_the_exact_symmetry_path(monkeypatch):
    g = torus(10, dim=3, metric=ALL_AXES_METRIC)
    u = random_band_limited(g, seed=3)
    calls = []
    allclose = np.allclose

    def spy(*args, **kwargs):
        calls.append(1)
        return allclose(*args, **kwargs)

    monkeypatch.setattr(np, "allclose", spy)
    H = hessian(u).values
    assert calls == []  # array_equal held, so no round-off check or averaging
    assert np.array_equal(H, np.swapaxes(H, 0, 1))


@pytest.mark.parametrize("lead", [(3,), (3, 3)])
def test_component_squares_sum_as_numpy_reduces_leading_axes(lead):
    rng = np.random.default_rng(7)
    v = rng.normal(size=lead + (5000,)) * 10.0 ** rng.uniform(-8, 8, size=lead + (5000,))
    whole = np.sum(v**2, axis=tuple(range(len(lead))))
    assert np.array_equal(_sum_of_squares(v.reshape(-1, 5000)), whole)


def test_frame_norms_equal_their_whole_array_expressions_bit_for_bit():
    g = torus(10, dim=3, metric=ALL_AXES_METRIC)
    u = random_band_limited(g, seed=5)
    v = gradient(u).values
    T = hessian(u).values
    vec = g.conformal_factor(1.0) * np.sqrt(np.sum(v**2, axis=0))
    ten = g.conformal_factor(-2.0) * np.sqrt(np.sum(T**2, axis=(0, 1)))
    assert np.array_equal(pointwise_norm(VectorField(g, v)), vec)
    assert np.array_equal(pointwise_norm(SymTensorField(g, T)), ten)


def test_gradient_and_hessian_equal_their_stacked_expressions_bit_for_bit():
    g = torus(10, dim=3, metric=ALL_AXES_METRIC)
    u = random_band_limited(g, seed=6)
    du = np.stack([g.partial(u.values, a) for a in range(3)])
    assert np.array_equal(gradient(u).values, du * g.conformal_factor(-2.0))
    dphi = g.phi_gradient()
    inner = np.sum(dphi * du, axis=0)
    H = np.empty((3, 3) + g.shape)
    for a in range(3):
        for b in range(a, 3):
            H[a, b] = H[b, a] = g.partial(du[a], b) - dphi[a] * du[b] - du[a] * dphi[b]
        H[a, a] += inner
    assert np.array_equal(hessian(u).values, H)


def test_tensor_symmetry_is_enforced():
    g = torus(8, dim=2)
    bad = np.zeros((2, 2) + g.shape)
    bad[0, 1] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        SymTensorField(g, bad)
