"""SciPy's compiled kernels, called directly, against SciPy's public API.

hjblab loads pocketfft and the BLAS and LAPACK wrappers from SciPy's
package directory (`hjblab._kernels`) and calls them with the arguments
SciPy's own wrappers pass.  Every call must return what `scipy.fft`,
`get_blas_funcs`, `get_lapack_funcs` and `solve_triangular` return, bit
for bit, so that no reported number depends on which way the kernel was
reached."""

import importlib.machinery
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.linalg import get_blas_funcs, get_lapack_funcs, solve_triangular

from hjblab import _kernels, hjb, mfg
from hjblab.geometry import DomainSpec, build_grid


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _grid(kind):
    return build_grid(DomainSpec(kind=kind, dim=3, resolution=(12, 9, 8) if kind == "torus" else (9, 8, 10)))


# ---------------------------------------------------------------------------
# transforms


@pytest.mark.parametrize("kind,axis", [("torus", 2), ("torus", 0), ("torus", 1), ("box", 0), ("box", 2)])
def test_line_transforms_equal_scipy_fft(kind, axis):
    # the last periodic axis takes the real FFT, the other periodic axes
    # the complex FFT, box axes the DCT-I; the line is read off the
    # spectrum as a strided view, as the line preconditioner reads it
    grid = _grid(kind)
    line = hjb._lines_for(grid)[axis]
    inv = hjb._inverter_for(grid)
    rng = np.random.default_rng(axis)
    inv.forward(rng.normal(size=grid.shape))
    held = inv.spectrum[line.index]
    y = rng.normal(size=grid.shape[axis])
    if kind == "box":
        want_line, want_back = sfft.idct(held, type=1), sfft.dct(y, type=1)
    elif axis == grid.dim - 1:
        want_line, want_back = sfft.irfft(held, grid.shape[axis]), sfft.rfft(y)
    else:
        want_line, want_back = sfft.ifft(held).real, sfft.fft(y)
    assert _bitwise_equal(line.to_line(held), want_line)
    assert _bitwise_equal(line.from_line(y), want_back)


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_mollifier_transforms_equal_scipy_fft(kind):
    grid = _grid(kind)
    eps = 0.2
    khat, fshape, den = mfg._kernel_transform(grid, eps)
    kern = mfg._mollifier_kernel(grid, eps)
    halves = [(k - 1) // 2 for k in kern.shape]
    if kind == "torus":
        assert fshape == grid.shape
    else:
        assert fshape == tuple(sfft.next_fast_len(n + hw, real=True) for n, hw in zip(grid.shape, halves))
        assert fshape != grid.shape  # the padded transforms run
    emb = np.zeros(fshape)
    np.add.at(emb, np.ix_(*[np.arange(-hw, hw + 1) % n for hw, n in zip(halves, fshape)]), kern)
    assert _bitwise_equal(khat, sfft.rfftn(emb))
    kept = tuple(slice(0, n) for n in grid.shape)
    vals = np.random.default_rng(5).normal(size=grid.shape)
    want = sfft.irfftn(sfft.rfftn(vals, s=fshape) * khat, s=fshape, overwrite_x=True)
    assert _bitwise_equal(mfg._fft_convolve(vals, khat, fshape), np.ascontiguousarray(want[kept]))
    if den is not None:
        want = sfft.irfftn(sfft.rfftn(np.ones(grid.shape), s=fshape) * khat, s=fshape, overwrite_x=True)
        assert _bitwise_equal(den, np.ascontiguousarray(want[kept]))


def test_good_size_is_next_fast_len():
    for n in range(1, 400):
        assert _kernels.pocketfft.good_size(n, True) == sfft.next_fast_len(n, real=True)


# ---------------------------------------------------------------------------
# BLAS and LAPACK


def test_blas_and_lapack_calls_equal_scipy_linalg():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=50), rng.normal(size=50)
    dot, axpy, nrm2, scal, ger = get_blas_funcs(("dot", "axpy", "nrm2", "scal", "ger"), dtype=np.float64)
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
    assert _bitwise_equal(hjb._dot(x, y), dot(x, y))
    assert _bitwise_equal(hjb._nrm2(x), nrm2(x))
    got, want = y.copy(), y.copy()
    hjb._axpy(x, got, a=-0.3)
    axpy(x, want, a=-0.3)
    assert _bitwise_equal(got, want)
    hjb._scal(1.7, got)
    scal(1.7, want)
    assert _bitwise_equal(got, want)
    a = rng.normal(size=(10, 5))
    got, want = a.copy(), a.copy()
    hjb._ger(-1.0, x[:5], y[:10], a=got.T, overwrite_a=1)
    ger(-1.0, x[:5], y[:10], a=want.T, overwrite_a=1)
    assert _bitwise_equal(got, want)
    m = rng.normal(size=(12, 12))
    lu, piv, info = hjb._getrf(m.copy(), overwrite_a=True)
    want_lu, want_piv, want_info = getrf(m.copy(), overwrite_a=True)
    assert info == want_info == 0
    assert _bitwise_equal(lu, want_lu) and _bitwise_equal(piv, want_piv)
    rhs = rng.normal(size=12)
    assert _bitwise_equal(hjb._getrs(lu, piv, rhs)[0], getrs(want_lu, want_piv, rhs)[0])


def test_triangular_solve_equals_solve_triangular():
    # the leading block of a larger C-order array, as GMRES passes it
    rng = np.random.default_rng(11)
    H = np.triu(rng.normal(size=(20, 20))) + 4.0 * np.eye(20)
    g = rng.normal(size=21)
    for k in (1, 7, 20):
        assert _bitwise_equal(hjb._solve_upper(H[:k, :k], g[:k]), solve_triangular(H[:k, :k], g[:k]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_a_nonfinite_hessenberg_entry_raises_like_check_finite(bad, where):
    H = np.triu(np.ones((6, 6))) + np.eye(6)
    g = np.ones(6)
    if where == "matrix":
        H[1, 3] = bad
    else:
        g[2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_triangular(H[:4, :4], g[:4])
    with pytest.raises(ValueError, match="infs or NaNs"):
        hjb._solve_upper(H[:4, :4], g[:4])


def test_a_singular_triangle_raises_like_solve_triangular():
    H = np.triu(np.ones((5, 5)))
    H[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        solve_triangular(H, np.ones(5))
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        hjb._solve_upper(H, np.ones(5))


# ---------------------------------------------------------------------------
# the loader


def test_a_missing_kernel_file_fails_at_import_naming_the_file(tmp_path):
    (tmp_path / "linalg").mkdir()
    missing = os.path.join(str(tmp_path), "linalg", "_fblas" + importlib.machinery.EXTENSION_SUFFIXES[0])
    with pytest.raises(ImportError) as exc:
        _kernels.load(str(tmp_path), "linalg", "_fblas")
    assert missing in str(exc.value)


def test_scipy_imported_first_loads_beside_hjblab():
    # hjblab's copies take names of their own, so scipy's modules, loaded
    # before or after them, stay scipy's
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = (
        "import sys, numpy as np, scipy.fft, scipy.linalg\n"
        "from hjblab import _kernels, hjb\n"
        "x = np.arange(8.0)\n"
        "assert sys.modules['scipy.linalg._fblas'] is not _kernels.fblas\n"
        "assert hjb._dot(x, x) == scipy.linalg.get_blas_funcs('dot', dtype=np.float64)(x, x) == 140.0\n"
        "assert np.array_equal(_kernels.pocketfft.r2c(x, (0,), True, 0, None, 1), scipy.fft.rfft(x))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
