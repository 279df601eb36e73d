"""The row kernels against the sparse matrices that define them.

`d1_rows`, `d1t_rows`, `d2_rows` and `apply_along_axis` must return the
CSR products of the oracle's `d1_matrix`/`d2_matrix` (and the transpose of
the first) bit for bit, and the solver operators built on them must equal
their matrix forms bit for bit, so that no reported number moves when the
hot path changes."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft as sfft

from hjblab import hjb
from hjblab.fields import ScalarField, VectorField
from hjblab.geometry import DomainSpec, build_grid
from hjblab.hjb import ProblemSpec
from hjblab.stencils import apply_along_axis, d1_rows, d1_scale, d1t_rows, d2_rows, d2_scale

from csr_oracle import csr_along_axis, d1_matrix, d2_matrix


def _bitwise_equal(a, b):
    """Equal values and equal signs of zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# (shape, spacings, periodic): unequal axis lengths and spacings, 2-D and
# 3-D, and axes of 3, 4 and 5 nodes, where the mirror transpose's special
# end rows overlap
_CASES = [
    ((12, 9, 8), (1 / 12, 1 / 9, 1 / 8), True),
    ((9, 8, 10), (1 / 8, 1 / 7, 1 / 9), False),
    ((12, 9), (1 / 12, 2 / 9), True),
    ((9, 10), (1 / 8, 1 / 3), False),
    ((3, 4, 5), (0.5, 0.25, 0.3), True),
    ((3, 4, 5), (0.5, 0.25, 0.3), False),
]


@pytest.mark.parametrize("shape, spacings, periodic", _CASES)
def test_row_kernels_equal_the_csr_products_bit_for_bit(shape, spacings, periodic):
    bc = "periodic" if periodic else "mirror"
    x = np.random.default_rng(3).normal(size=shape)
    out = np.empty(shape)
    for axis, (n, h) in enumerate(zip(shape, spacings)):
        d1, d2 = d1_matrix(n, h, bc), d2_matrix(n, h, bc)
        sx = d1_scale(h) * x
        assert _bitwise_equal(d1_rows(sx, axis, periodic, out), csr_along_axis(d1, x, axis)), axis
        assert _bitwise_equal(d1t_rows(sx, axis, periodic, out), csr_along_axis(d1.T.tocsr(), x, axis)), axis
        ax = d2_scale(h) * x
        assert _bitwise_equal(d2_rows(ax, axis, periodic, out), csr_along_axis(d2, x, axis)), axis


# (shape, spacings): 2-D and 3-D, unequal spacings, and axes of 3 and 4
# nodes, where the one-sided end rows share their columns
_FIRST_DERIVATIVE_CASES = [
    ((3, 4, 5), (0.5, 0.25, 0.3)),
    ((4, 3), (0.3, 0.7)),
    ((9, 8, 10), (1 / 8, 1 / 7, 1 / 9)),
    ((12, 9), (1 / 12, 2 / 9)),
]


@pytest.mark.parametrize("shape, spacings", _FIRST_DERIVATIVE_CASES)
@pytest.mark.parametrize("periodic", [True, False])
def test_first_derivative_equals_its_csr_product_bit_for_bit(shape, spacings, periodic):
    bc = "periodic" if periodic else "onesided"
    rng = np.random.default_rng(29)
    # magnitudes from 1e-8 to 1e8, so a reordered sum would show
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    for axis, (n, h) in enumerate(zip(shape, spacings)):
        want = csr_along_axis(d1_matrix(n, h, bc), x, axis)
        assert _bitwise_equal(apply_along_axis(x, axis, h, periodic), want), axis
        # a transposed (Fortran-ordered) input gives the transposed result
        got = apply_along_axis(x.T, x.ndim - 1 - axis, h, periodic)
        assert _bitwise_equal(np.ascontiguousarray(got.T), want), axis


def test_row_kernels_refuse_strided_arrays():
    x = np.zeros((8, 8, 8))
    with pytest.raises(ValueError, match="C-contiguous"):
        d1_rows(x[:, ::2], 0, True, np.empty((8, 4, 8)))


def test_the_package_loads_no_sparse_matrices():
    # the row kernels are the only stencil code, so no run needs
    # scipy.sparse; the compiled FFT, BLAS and LAPACK modules are loaded
    # without their scipy packages, so no scipy module loads at all
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = "import sys, hjblab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _grid(kind):
    if kind == "torus":
        return build_grid(DomainSpec(kind="torus", dim=3, resolution=(12, 9, 8)))
    if kind == "box":
        return build_grid(DomainSpec(kind="box", dim=3, resolution=(9, 8, 10)))
    if kind == "2-box":
        return build_grid(DomainSpec(kind="box", dim=2, resolution=(9, 11), extents=(1.0, 2.0)))
    return build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(12, 9, 8)),
        lambda c: 0.1 * np.cos(2.0 * np.pi * c[0]) + 0.05 * np.sin(2.0 * np.pi * c[1]),
    )


def _matrices(grid):
    """(D1_a, D2_a) per axis, the matrices the kernels stand for."""
    mats = []
    for a, (n, h) in enumerate(zip(grid.shape, grid.spacings)):
        bc = "periodic" if grid.periodic[a] else "mirror"
        mats.append((d1_matrix(n, h, bc), d2_matrix(n, h, bc)))
    return mats


def _stacked_gradient(grid, x):
    return np.stack([csr_along_axis(d1, x, a) for a, (d1, _) in enumerate(_matrices(grid))])


def _matrix_laplacian(grid, x):
    mats = _matrices(grid)
    out = csr_along_axis(mats[0][1], x, 0)
    for a in range(1, len(mats)):
        out += csr_along_axis(mats[a][1], x, a)
    return out


_KINDS = ["torus", "box", "2-box", "conformal"]


@pytest.mark.parametrize("kind", _KINDS)
def test_solver_operators_equal_their_matrix_forms_bit_for_bit(kind):
    grid = _grid(kind)
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(17)
    x = rng.normal(size=grid.shape)
    coeff = rng.normal(size=(len(grid.shape),) + grid.shape)
    mats = _matrices(grid)
    assert _bitwise_equal(ops.grad(x), _stacked_gradient(grid, x))
    assert _bitwise_equal(ops.lap_flat(x), _matrix_laplacian(grid, x))
    # R = b . D on flat grids, summed axis by axis; the Jacobian's
    # first-order coefficient b is coeff itself there
    c = coeff if grid.is_flat else coeff - ops.conformal_drift
    want = c[0] * csr_along_axis(mats[0][0], x, 0)
    for a in range(1, len(mats)):
        want += c[a] * csr_along_axis(mats[a][0], x, a)
    if not grid.is_flat:
        want += ops.conformal_lap * _matrix_laplacian(grid, x)
    row = np.empty(x.size + 1)  # a Krylov basis row: the node values, then the multiplier
    got = ops.jacobian_rest(x, c, row[:-1].reshape(grid.shape))
    assert np.shares_memory(got, row)
    assert _bitwise_equal(got, want)
    if grid.is_flat:
        w = grid.weights
        wm = w * x
        want = csr_along_axis(mats[0][0].T.tocsr(), coeff[0] * wm, 0)
        for a in range(1, len(mats)):
            want += csr_along_axis(mats[a][0].T.tocsr(), coeff[a] * wm, a)
        want /= w
        assert _bitwise_equal(ops.adjoint_rest(x, coeff, np.empty(grid.shape)), want)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_residual_and_coefficient_equal_their_stacked_forms_bit_for_bit(kind, gamma):
    grid = _grid(kind)
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(19)
    u = rng.normal(size=grid.shape)
    drift = rng.normal(size=(len(grid.shape),) + grid.shape)
    spec = ProblemSpec(
        grid,
        gamma=gamma,
        drift=VectorField(grid, drift),
        shift=ScalarField(grid, rng.normal(size=grid.shape)),
        source=ScalarField(grid, rng.normal(size=grid.shape)),
    )
    dvals = _stacked_gradient(grid, u)
    flat = _matrix_laplacian(grid, u)
    sq = np.sum(dvals**2, axis=0)
    if grid.is_flat:
        want = -flat
    else:
        corr = (grid.dim - 2.0) * np.sum(grid.phi_gradient() * dvals, axis=0)
        want = -(grid.conformal_factor(-2.0) * (flat + corr))
        sq = grid.conformal_factor(-2.0) * sq
    want += (1.0 / gamma) * sq ** (gamma / 2.0)
    want += np.sum(drift * dvals, axis=0)
    want += spec.shift.values
    want -= spec.source.values
    out, grad = np.empty(grid.shape), np.empty(dvals.shape)
    res, got_grad = hjb._residual_core(spec, ops, u, out, grad)
    assert res is out and got_grad is grad
    assert _bitwise_equal(res, want) and _bitwise_equal(grad, dvals)

    amp = (np.sum(dvals**2, axis=0) + hjb.EPS_REG**2) ** ((gamma - 2.0) / 2.0)
    if not grid.is_flat:
        amp = amp * grid.conformal_factor(-gamma)
    want = amp * dvals + drift
    buf = np.empty(dvals.shape)
    assert hjb.transport_coefficient(spec, u, dvals, buf) is buf
    assert _bitwise_equal(buf, want)
    assert _bitwise_equal(hjb.transport_coefficient(spec, u), want)


@pytest.mark.parametrize("kind", ["torus", "box", "conformal"])
def test_preconditioner_writes_into_a_given_array_bit_for_bit(kind):
    grid = _grid(kind)
    inv = hjb._inverter_for(grid)
    r = np.random.default_rng(23).normal(size=grid.shape)
    c = 0.3
    # the same steps through scipy.fft's public transforms
    if grid.periodic[0]:
        rhat = sfft.rfftn(r)
        want_mu = float(rhat[0, 0, 0].real) / inv.zero_ones
        rhat *= inv.inv_sym
        rhat[0, 0, 0] = c / inv.zero_weight if grid.is_flat else 0.0
        want = sfft.irfftn(rhat, s=grid.shape)
    else:
        rhat = sfft.dctn(r, type=1)
        want_mu = float(rhat[0, 0, 0]) / inv.zero_ones
        rhat *= inv.inv_sym
        rhat[0, 0, 0] = c / inv.zero_weight
        want = sfft.idctn(rhat, type=1)
    if not grid.is_flat:
        want += (c - float(np.sum(grid.weights * want))) / grid.vol
    fresh, mu = inv.solve(r, c)
    assert mu == want_mu and _bitwise_equal(fresh, want)
    out = np.empty(grid.shape)
    got, got_mu = inv.solve(r, c, out)
    assert got is out and got_mu == mu and _bitwise_equal(out, fresh)
    # in place, as a long Krylov cycle's M (V y) runs
    inplace = r.copy()
    inv.solve(inplace, c, inplace)
    assert _bitwise_equal(inplace, fresh)
