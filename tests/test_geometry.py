"""Grids, metrics, quadrature weights, curvature bounds, boundary forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hjblab.geometry import (
    DOMAIN_KINDS,
    DomainSpec,
    build_grid,
    conformal_ricci,
    ricci_lower_bound,
    ricci_quadratic,
    second_fundamental_form,
)

PHI_AMP = 0.2
PHI_FREQ = 2.0 * np.pi


def conformal_phi(amp, shift=0.0):
    return lambda coords, _a=amp, _c=shift: _a * np.cos(PHI_FREQ * coords[0]) + _c


# ---------------------------------------------------------------------------
# grids and quadrature


def test_box_grid_counts_weights_and_faces():
    grid = build_grid(DomainSpec(kind="box", dim=3, resolution=(16,)))
    assert grid.weights.size == 16**3
    # six faces: everything except the (n-2)^3 interior block
    assert int(grid.boundary_mask.sum()) == 16**3 - 14**3
    assert abs(float(np.sum(grid.weights)) - 1.0) <= 1e-12
    assert np.all(grid.weights > 0.0)
    # outward normals have unit length on every boundary node
    norms = np.sqrt(np.sum(grid.normals**2, axis=0))
    assert np.allclose(norms[grid.boundary_mask], 1.0, atol=1e-14)
    assert np.all(norms[~grid.boundary_mask] == 0.0)


def test_torus_grid_has_no_boundary():
    grid = build_grid(DomainSpec(kind="torus", dim=2, resolution=(32,)))
    assert grid.weights.size == 1024
    assert not grid.boundary_mask.any()
    assert abs(grid.vol - 1.0) <= 1e-12
    assert all(grid.periodic)


def test_conformal_volume_matches_quadrature_oracle():
    # independent oracle: adaptive 1-D quadrature of the volume density,
    # refined until stable far below the comparison tolerance
    oracle, err = quad(
        lambda x: np.exp(3.0 * 0.1 * np.cos(PHI_FREQ * x)),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert err < 1e-10
    for n in (16, 32):
        grid = build_grid(
            DomainSpec(kind="torus", dim=3, resolution=(n, n, 8)),
            conformal_phi(0.1),
        )
        assert abs(float(np.sum(grid.weights)) - oracle) <= 1e-10


def test_quadrature_exact_on_affine_integrands():
    grid = build_grid(DomainSpec(kind="box", dim=3, resolution=(9, 11, 13)))
    X = grid.mesh()
    vals = 0.7 - 1.3 * X[0] + 0.4 * X[1] + 2.2 * X[2]
    exact = 0.7 - 1.3 * 0.5 + 0.4 * 0.5 + 2.2 * 0.5
    assert abs(float(np.sum(grid.weights * vals)) - exact) <= 1e-12 * grid.vol


def test_resolution_floor_enforced():
    with pytest.raises(ValueError):
        DomainSpec(kind="torus", dim=2, resolution=(4,))


def test_disc_rejects_conformal_metric():
    with pytest.raises(ValueError, match="a conformal metric needs a torus, not a disc"):
        build_grid(DomainSpec(kind="disc", resolution=(16, 32)), conformal_phi(0.1))


@pytest.mark.parametrize(
    "domain",
    [
        DomainSpec(kind="box", dim=3, resolution=(9,)),
        DomainSpec(kind="box", dim=2, resolution=(9, 11), extents=(1.0, 2.0)),
    ],
    ids=["3-box", "2-box"],
)
def test_boxes_reject_conformal_phi(domain):
    # only tori carry phi: a conformal box has no spelling
    with pytest.raises(ValueError, match="a conformal metric needs a torus, not a box"):
        build_grid(domain, conformal_phi(0.1))
    assert build_grid(domain).is_flat


@pytest.mark.parametrize("kind", ["conformal_torus", "conformal_box", "conformal-box", "conformal"])
def test_conformal_spellings_are_not_domain_kinds(kind):
    # the conformal metric is build_grid's phi, not a kind of domain
    assert DOMAIN_KINDS == ("box", "torus", "disc")
    with pytest.raises(ValueError, match="unknown domain kind"):
        DomainSpec(kind=kind)


def test_dimension_bounds_enforced():
    with pytest.raises(ValueError):
        DomainSpec(kind="torus", dim=5, resolution=(8,))
    with pytest.raises(ValueError):
        DomainSpec(kind="box", dim=1, resolution=(8,))


# ---------------------------------------------------------------------------
# curvature lower bound


def test_flat_curvature_bound_is_exactly_zero():
    grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(16,)))
    assert ricci_lower_bound(grid) == 0.0


def test_constant_conformal_factor_is_flat():
    grid = build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(16,)),
        lambda coords: 0.7 * np.ones_like(coords[0]),
    )
    assert ricci_lower_bound(grid) == 0.0


@settings(max_examples=20, deadline=None)
@given(
    amp=st.floats(min_value=0.05, max_value=0.3),
    shift=st.floats(min_value=-2.0, max_value=2.0),
)
def test_curvature_bound_invariant_under_constant_factor_shifts(amp, shift):
    base = build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(16, 8, 8)), conformal_phi(amp)
    )
    shifted = build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(16, 8, 8)),
        conformal_phi(amp, shift),
    )
    assert abs(ricci_lower_bound(base) - ricci_lower_bound(shifted)) <= 1e-10


def _curvature_oracle(n_fine):
    """Brute-force curvature bound for g = e^{2 phi} id, phi = 0.2 cos(2 pi x1).

    Independent path: assemble the metric on a fine 1-D lattice, take
    Christoffel symbols from finite differences of the metric components,
    contract the curvature tensor, and extract the worst relative
    eigenvalue.  Shares no code with the package's closed-form route.
    """
    h = 1.0 / n_fine
    x = h * np.arange(n_fine)
    phi = PHI_AMP * np.cos(PHI_FREQ * x)

    def ddx(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)

    d = 3
    e2p = np.exp(2.0 * phi)
    g = np.zeros((d, d, n_fine))
    ginv = np.zeros((d, d, n_fine))
    for i in range(d):
        g[i, i] = e2p
        ginv[i, i] = 1.0 / e2p
    dg = np.zeros((d, d, d, n_fine))  # dg[k, i, j] = derivative of g_ij along axis k
    for i in range(d):
        for j in range(d):
            dg[0, i, j] = ddx(g[i, j])
    gamma = np.zeros((d, d, d, n_fine))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                s = np.zeros(n_fine)
                for l in range(d):
                    s += ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * s
    dgamma = np.zeros((d, d, d, d, n_fine))
    for r in range(d):
        for i in range(d):
            for j in range(d):
                dgamma[0, r, i, j] = ddx(gamma[r, i, j])
    ric = np.zeros((d, d, n_fine))
    for s_idx in range(d):
        for nu in range(d):
            val = np.zeros(n_fine)
            for mu in range(d):
                val += dgamma[mu, mu, nu, s_idx] - dgamma[nu, mu, mu, s_idx]
                for l in range(d):
                    val += (
                        gamma[mu, mu, l] * gamma[l, nu, s_idx]
                        - gamma[mu, nu, l] * gamma[l, mu, s_idx]
                    )
            ric[s_idx, nu] = val
    mats = np.moveaxis(ric, -1, 0) / e2p[:, None, None]
    eigs = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, 1, 2)))
    return max(0.0, -float(np.min(eigs)))


def test_curvature_bound_matches_independent_tensor_oracle():
    n = 1024
    grid = build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(n, 8, 8)), conformal_phi(PHI_AMP)
    )
    kappa = ricci_lower_bound(grid)
    oracle = _curvature_oracle(4 * n)
    assert abs(kappa - oracle) <= 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_conformal_ricci_equals_its_tensor_expression_bit_for_bit(d):
    # Ric = -(d-2)(Hess phi - dphi x dphi) - (Lap phi + (d-2)|dphi|^2) id,
    # with the Hessian's entries a <= b formed once and mirrored
    grid = build_grid(
        DomainSpec(kind="torus", dim=d, resolution=(12, 10, 9)[:d]),
        lambda c: 0.2 * np.cos(PHI_FREQ * c[0]) * np.sin(PHI_FREQ * (c[1] + c[-1])),
    )
    dphi = grid.phi_gradient()
    hess = np.empty((d, d) + grid.shape)
    for a in range(d):
        for b in range(a, d):
            hess[a, b] = hess[b, a] = grid.partial(dphi[a], b)
    ric = -(d - 2) * (hess - np.einsum("i...,j...->ij...", dphi, dphi))
    diag = np.trace(hess) + (d - 2) * np.sum(dphi**2, axis=0)
    for a in range(d):
        ric[a, a] -= diag
    assert np.array_equal(conformal_ricci(grid), ric)


@pytest.mark.parametrize("d", [2, 3])
def test_ricci_quadratic_equals_the_einsum_contraction_bit_for_bit(d):
    grid = build_grid(
        DomainSpec(kind="torus", dim=d, resolution=(12, 10, 9)[:d]),
        lambda c: 0.2 * np.cos(PHI_FREQ * c[0]) * np.sin(PHI_FREQ * (c[1] + c[-1])),
    )
    rng = np.random.default_rng(d)
    for _ in range(4):
        X = rng.normal(size=(d,) + grid.shape) * 10.0 ** rng.uniform(-3, 3)
        want = np.einsum("ij...,i...,j...->...", conformal_ricci(grid), X, X)
        assert np.array_equal(ricci_quadratic(grid, X), want)


@pytest.mark.parametrize("kind", ["torus", "box", "disc"])
def test_ricci_quadratic_is_zero_on_flat_grids(kind):
    grid = build_grid(DomainSpec(kind=kind, dim=2, resolution=(9,)))
    X = np.random.default_rng(5).normal(size=(2,) + grid.shape)
    assert np.array_equal(ricci_quadratic(grid, X), np.zeros(grid.shape))


# ---------------------------------------------------------------------------
# boundary curvature form


def test_box_faces_carry_zero_form():
    grid = build_grid(DomainSpec(kind="box", dim=3, resolution=(12,)))
    form = second_fundamental_form(grid)
    assert form.o_plus
    face = grid.face_interior_mask
    assert np.all(form.values[..., face] == 0.0)


@pytest.mark.parametrize("radius,expected", [(1.0, 1.0), (2.0, 0.5)])
def test_disc_form_equals_inverse_radius(radius, expected):
    grid = build_grid(DomainSpec(kind="disc", resolution=(32, 64), radius=radius))
    form = second_fundamental_form(grid)
    assert form.o_plus
    face = grid.face_interior_mask
    assert np.allclose(form.values[0, 0][face], expected, atol=1e-14)


def test_form_requires_boundary():
    grid = build_grid(DomainSpec(kind="torus", dim=2, resolution=(16,)))
    with pytest.raises(ValueError):
        second_fundamental_form(grid)


def test_offered_boundary_domains_are_convex():
    for spec in (
        DomainSpec(kind="box", dim=2, resolution=(12,)),
        DomainSpec(kind="box", dim=3, resolution=(10,)),
        DomainSpec(kind="disc", resolution=(16, 32), radius=1.5),
    ):
        assert second_fundamental_form(build_grid(spec)).o_plus
