"""Damped Newton solver for stationary viscous Hamilton-Jacobi problems.

The equation solved at the nodes is

    -Lap_g u + (1/gamma) |grad u|_g^gamma + g(B, grad u) + lam + b = f

with homogeneous Neumann conditions on boxes (imposed by mirror ghosts)
or periodicity on tori.  The Hamiltonian carries no coefficient: with
c1 |grad u|^gamma / gamma, the substitution u = c1^{-1/(gamma-1)} v gives
this equation for v with f, b and lam scaled by c1^{1/(gamma-1)}.

The unknown pair is (u, lam): because only derivatives of u enter,
constants are a gauge direction, so every solve carries a
quadrature-mean constraint on u together with the additive multiplier
lam.  In ergodic mode lam is the sought critical value; in
plain mode it is reported as the compatibility defect of the data (zero,
up to truncation, for manufactured sources).

Solver stencils are narrow: three-point second differences and centered
first differences with mirror (even-reflection) closures, so the Jacobian
keeps the classical M-matrix sparsity.

Linear solves.  Every linear system is bordered by the mean constraint
and the multiplier: [[A, 1], [w^T, 0]] [x; mu] = [r; c].  A is the Newton
Jacobian J of the value equation, its transport coefficient frozen, or
its quadrature adjoint W^{-1} J^T W, the density operator of `mfg`.  Both
split as A = L + R, with L = -Lap_flat, which the preconditioner M
inverts exactly, and R the transport remainder (`_Ops.jacobian_rest`,
`_Ops.adjoint_rest`).  `transport_solve` is the one entry for both: it
pairs R with its M (`_preconditioner`) and runs `bordered_solve`,
matrix-free restarted GMRES right-preconditioned by M, where a Krylov
step forms A M v = v + R M v with no Laplacian.  `transport_residual`
is the norm of (L + R) x for the same pairing.

M is one of two preconditioners.  `_FlatInverter` inverts the bordered L
by a fast transform (FFT on tori, DCT-I on boxes).  `_AxisLine`, on flat
grids only, also solves one axis' line exactly, a semicirculant
preconditioner (Holmgren-Otto 1994); it is chosen where that line
carries at least `_LINE_SHARE` of the coefficient's weighted energy, or
the coefficient is zero, and makes A M the identity or near it, so a
solve with it takes one preconditioned Richardson step before any
Arnoldi step.

Stops.  A bordered solve judges only its true residual,
||b - A x|| <= rtol ||b||, or fails with a `KrylovFailure` that names
why: its iteration budget is spent, or a cycle that ended early lowered
the true residual by less than half (a stalled residual or an invariant
Krylov space).  Each
Newton step solves its system only as tightly as the Newton stop needs
(inexact Newton with Kelley's termination safeguard).  A Newton solve
either converges or stops with a named reason: the residual norm is not
finite, the Newton budget is exhausted, a linear solve fails, or the
line search reaches its backtracking floor.

Allocation.  On flat grids a Krylov step allocates no field-sized array
and moves no axis: R writes into the next basis row and M into a given
array.  On conformal tori R allocates none either, and M's mean shift
allocates.  A solve allocates four arrays once, d + 3 fields in all: the
residual, the iterate's gradient, its |grad u|^2 and the next iterate.
Each Newton step forms the Jacobian's first-order coefficient in the
gradient, which no step reads after it.  Every operator keeps its
temporaries in the work arrays of the grid's operators (`_Ops.work`).
A bordered solve reads its right-hand side from the caller's array.
What leaves the solver is fresh: a report's u and gradient, a transport
coefficient asked for without `out` (the game's drift), and every
result of `residual`.  A solve resumed from a report takes the report's
carried arrays over as its own (`solve`), so the sweeps and the game
loop, which resume each solve from the last, hold no more arrays than
when every solve allocated its own.  Counts and times of these solves
are in README's solver section and the `BENCH_*.json` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Union

import numpy as np

from . import _kernels
from ._kernels import pocketfft as _pocketfft
from .fields import (
    ScalarField,
    VectorField,
    _frame_norm,
    _lq,
    gradient,
    hessian_reductions,
    lq_norm,
    pointwise_norm,
)
from .geometry import Grid
from .stencils import d1_rows, d1_scale, d1t_rows, d2_rows, d2_scale


def growth_gate(gamma: float) -> None:
    """Raise the ValueError of gate (In1) unless gamma > 1."""
    if not gamma > 1.0:
        raise ValueError("gradient growth gate (In1): need gamma > 1")


@dataclass
class ProblemSpec:
    """Data of one stationary problem on a fixed grid."""

    grid: Grid
    gamma: float
    drift: Optional[VectorField] = None
    shift: Optional[ScalarField] = None     # additive zeroth-order data b
    source: Optional[ScalarField] = None    # right-hand side f
    ergodic: bool = False

    def __post_init__(self):
        growth_gate(self.gamma)
        if self.grid.coord_system != "cartesian":
            raise ValueError("solver runs on box/torus lattices only")


# eps in (|grad u|^2 + eps^2)^{(gamma-2)/2} of `transport_coefficient`,
# which is also the game's optimal drift, and of the game's duality
# certificate.
EPS_REG = 1e-8

# GMRES restart length and the total iteration budget of one bordered solve.
# On small systems at mesh Peclet numbers of 10 and more, restarts after 80
# iterations stagnated where restarts after 120 converged.  The budget sits
# well above the largest count a converging solve has needed, 461 (the 32^3
# `bump` sweep at t = 3000, Newton step 5), so a solve that cannot converge
# stops with its named reason instead of running on.
_RESTART = 120
_MAX_ITERATIONS = 2000

_ddot, _axpy, _nrm2, _scal, _ger = (
    _kernels.fblas.ddot, _kernels.fblas.daxpy, _kernels.fblas.dnrm2, _kernels.fblas.dscal, _kernels.fblas.dger
)
# OpenBLAS splits a ddot of more than 10 000 elements across its threads, and
# the partial sums round differently for each thread count, so a solve's
# last digits would depend on OPENBLAS_NUM_THREADS.  `_dot` sums blocks of
# this many elements, each below that size, in a fixed order instead.
_DOT_BLOCK = 8192
_getrf, _getrs, _trtrs = _kernels.flapack.dgetrf, _kernels.flapack.dgetrs, _kernels.flapack.dtrtrs
_EPS = float(np.finfo(np.float64).eps)
# An Arnoldi step forms A M v = v + R M v for a unit v.  When the part left
# after orthogonalization is within this many round-offs of the terms summed
# (about 1 + ||A M v||), A M v lies in the basis.  A singular A cancels v
# against R M v down to a few eps of noise, which a test relative to
# ||A M v|| alone would keep extending until the budget.  In the test suite
# and the benchmark workloads, every step that a converging solve went on
# from kept more than 8e-5 of 1 + ||A M v||.
_INVARIANCE_TOL = 1e3 * _EPS
# The share of the first-order coefficient's weighted energy that one axis'
# line must carry for M to solve that line exactly (`_preconditioner`), set
# from the measured break-even.  Each linear solve of sweeps (24^3 torus,
# 17^3 box) and games (24^3 and 32^3 tori) on data cos 2 pi x +
# s cos 2 pi (y + z), s from 0 to 1, was run with and without the line, and
# the times summed over the solves in each band of rho, with the line over
# without: the sweeps' long solves lose below rho = 0.9 (1.05-1.07) and
# gain above it (0.92-0.93 up to rho = 0.999); the games' solves of one to
# four Arnoldi steps lose below rho = 0.99 (1.07-1.11), break even in
# [0.99, 0.999) (1.00) and gain above it (0.94; 0.68 at rho = 1).  One-axis
# data give rho = 1 to round-off.  The 32^3 `power` and `bump` sweeps stay
# below 0.27, and a 24^3 game with shift 10 (cos 2 pi x + cos 2 pi (y + z) / 2),
# near 0.85, which the line made slower.
_LINE_SHARE = 0.99


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y for 1-D arrays, the same under every BLAS thread count."""
    total = 0.0
    for k in range(0, x.size, _DOT_BLOCK):
        total += _ddot(x[k : k + _DOT_BLOCK], y[k : k + _DOT_BLOCK])
    return total


@dataclass
class SolverConfig:
    """Newton stop and budget, and where the solve starts.

    `initial_guess` is a field, started from with its quadrature mean
    removed, or the `SolveReport` of an earlier solve whose problem had
    the same grid, drift and shift objects and the same gamma (the source
    may differ): the solve then resumes from that report's last iterate,
    as `solve` describes.  None starts from u = 0."""

    residual_tol: float = 1e-10
    max_iter: int = 60
    initial_guess: Optional[Union[ScalarField, SolveReport]] = None


@dataclass
class _Carry:
    """What a report hands the one solve resumed from it: the operator the
    solve had and, at its last iterate u before the gauge shift, the
    residual with its source and multiplier removed (`rest`) and the
    lattice |grad u|^2 (`sq`).  The gradient is the report's own."""

    grid: Grid
    gamma: float
    drift: Optional[VectorField]
    shift: Optional[ScalarField]
    u: np.ndarray
    rest: np.ndarray
    sq: np.ndarray


@dataclass
class SolveReport:
    """What `solve` returns.  `gradient` is the lattice gradient of the last
    accepted iterate, before the gauge shift (which changes it only by
    round-off), and `peclet` the mesh Peclet number of the last Jacobian
    the solve formed, 0 when it formed none; each Newton step measures it
    as it forms the coefficient, before the coefficient's array goes on
    to hold trial gradients.

    A report also carries that iterate itself, the residual formed there
    with the source and multiplier removed, and its lattice |grad u|^2:
    three field-sized arrays besides `u` and `gradient`.  Passed as
    `SolverConfig.initial_guess`, it seeds one solve, which takes these
    and the gradient over as its own buffers; the report then keeps its
    scalars and `u`, unchanged, and its `gradient` is None.  A report
    seeds at most one solve."""

    converged: bool
    iterations: int
    residual: float
    u: ScalarField
    lam: float
    compat_defect: float
    message: str = ""
    gradient: Optional[np.ndarray] = None
    peclet: float = 0.0
    _carry: Optional[_Carry] = dataclass_field(default=None, repr=False, compare=False)


class KrylovFailure(int):
    """The info of a failed `bordered_solve`, the iterations it ran, with
    `reason` naming why it stopped and the residual it reached."""

    def __new__(cls, iterations: int, reason: str):
        info = super().__new__(cls, iterations)
        info.reason = reason
        return info


def with_reason(message: str, info: int) -> str:
    """message, followed by the reason a failed bordered solve stopped."""
    if isinstance(info, KrylovFailure):
        return message + ": " + info.reason
    return message


# ---------------------------------------------------------------------------
# solver-side discrete operators (mirror/periodic closures)


class _Ops:
    """Narrow-stencil operators of one grid, with Neumann mirror closures.

    The Newton Jacobian J of the value equation, with its transport
    coefficient frozen, and its quadrature adjoint W^{-1} J^T W, the game's
    density operator, both split as L + R: L = -Lap_flat is the operator
    the preconditioner inverts exactly, and `jacobian_rest` and
    `adjoint_rest` apply the remainders R.  The grid is one a `ProblemSpec`
    accepts: a box or a (conformal) torus.

    Derivatives are the `stencils` row kernels with the mirror closure,
    bit for bit the CSR products of the first- and second-difference
    matrices and the first's transpose, taken from one scaled copy of the
    input per spacing.  Every method writes into `out` when given one and
    into a fresh array otherwise.  Its temporaries are the field-sized
    work arrays `work(0)` to `work(2)`, allocated once per grid, so a call
    with `out` on a flat grid allocates nothing, and neither does an R
    apply on a conformal torus.  Those hold nothing between calls: no
    result that leaves a method lives there, and no method calls another
    while it holds one.  The residual's metric terms on conformal tori use
    fresh temporaries.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.naxes = len(grid.shape)
        self.periodic = tuple(bool(p) for p in grid.periodic)
        self.s1 = [d1_scale(h) for h in grid.spacings]
        self.s2 = [d2_scale(h) for h in grid.spacings]
        self._work = []
        if not grid.is_flat:
            # -Lap_g = -e^{-2 phi} (Lap_flat + (d - 2) grad phi . grad), so
            # -Lap_g - L = (1 - e^{-2 phi}) Lap_flat - e^{-2 phi} (d - 2) grad phi . grad
            shrink = grid.conformal_factor(-2.0)
            self.conformal_lap = 1.0 - shrink
            self.conformal_drift = (grid.dim - 2.0) * shrink * grid.phi_gradient()

    def work(self, k: int) -> np.ndarray:
        """The k-th field-sized work array, allocated on first use."""
        while len(self._work) <= k:
            self._work.append(np.empty(self.grid.shape))
        return self._work[k]

    def _scaled(self, vals: np.ndarray, scales):
        """(axis, scales[axis] * vals) for each axis, in work(0); the copy is
        scaled again only where the scale changes from the axis before."""
        buf = self.work(0)
        prev = None
        for a, s in enumerate(scales):
            if s != prev:
                np.multiply(vals, s, out=buf)
                prev = s
            yield a, buf

    def grad(self, vals: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The (d, *shape) lattice gradient D_a vals."""
        if out is None:
            out = np.empty((self.naxes,) + vals.shape)
        for a, sx in self._scaled(vals, self.s1):
            d1_rows(sx, a, self.periodic[a], out[a])
        return out

    def lap_flat(self, vals: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_a D2_a vals, accumulated in axis order."""
        if out is None:
            out = np.empty(vals.shape)
        part = self.work(1)
        for a, ax in self._scaled(vals, self.s2):
            if a == 0:
                d2_rows(ax, a, self.periodic[a], out)
            else:
                out += d2_rows(ax, a, self.periodic[a], part)
        return out

    def lap_metric(self, vals: np.ndarray, dvals: Optional[np.ndarray] = None) -> np.ndarray:
        flat = self.lap_flat(vals)
        if self.grid.is_flat:
            return flat
        if dvals is None:
            dvals = self.grad(vals)
        d = self.grid.dim
        corr = (d - 2.0) * np.sum(self.grid.phi_gradient() * dvals, axis=0)
        return self.grid.conformal_factor(-2.0) * (flat + corr)

    def pairing(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_i a[i] b[i] over the leading axis, summed as
        np.sum(a * b, axis=0); with a = b it is np.sum(b**2, axis=0).  It
        is written into out when given, else into work(0)."""
        if out is None:
            out = self.work(0)
        part = self.work(1)
        np.multiply(a[0], b[0], out=out)
        for i in range(1, self.naxes):
            out += np.multiply(a[i], b[i], out=part)
        return out

    def jacobian_rest(self, vals: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """R vals = (-Lap_g + a . D) vals + Lap_flat vals, for the Jacobian
        with transport coefficient a, given its first-order coefficient b.

        On flat grids b = a, and R vals is the transport term b . D vals,
        summed axis by axis in the order of np.sum(b * dvals, axis=0), each
        D_a vals taken from one scaled copy of vals.  On conformal tori
        b = a - conformal_drift = a - (d - 2) e^{-2 phi} grad phi, the
        metric's own first-order term folded in, and R adds
        (1 - e^{-2 phi}) Lap_flat vals, for one flat Laplacian in all.  The
        result is written into out, in a Krylov step the next basis row,
        with the scaled copy and each b_a D_a vals in work(0) and work(1)
        and the metric Laplacian in work(2), so a call with out allocates
        nothing; without out the result is a fresh array.
        """
        if out is None:
            out = np.empty(vals.shape)
        part = self.work(1)
        for a, sx in self._scaled(vals, self.s1):
            if a == 0:
                d1_rows(sx, a, self.periodic[a], out)
                out *= b[0]
            else:
                d1_rows(sx, a, self.periodic[a], part)
                part *= b[a]
                out += part
        if not self.grid.is_flat:
            lap = self.lap_flat(vals, self.work(2))
            lap *= self.conformal_lap
            out += lap
        return out

    def adjoint_rest(self, m: np.ndarray, coeff: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """R m = W^{-1} sum_a D_a^T (coeff_a W m), the transport part of the
        density operator W^{-1} J^T W (same coeff frozen), with
        <v, m>_W = sum(w * v * m).  Its diffusion part W^{-1} D2^T W equals
        D2 on flat tori and boxes, so it is the L that M inverts."""
        g = self.grid
        if not g.is_flat:
            raise NotImplementedError("the adjoint transport is used on flat grids only")
        if out is None:
            out = np.empty(m.shape)
        w = g.weights
        wm, sy, part = self.work(0), self.work(1), self.work(2)
        np.multiply(w, m, out=wm)
        for a in range(self.naxes):
            np.multiply(coeff[a], wm, out=sy)
            sy *= self.s1[a]
            if a == 0:
                d1t_rows(sy, a, self.periodic[a], out)
            else:
                out += d1t_rows(sy, a, self.periodic[a], part)
        out /= w
        return out


class _FlatInverter:
    """Exact fast-transform inverse of the flat constrained Laplacian.

    Solves  -Lap x + mu = r,  <x>_w = c  for (x, mu); used as the GMRES
    preconditioner M for the bordered Newton and density systems.  `apply`
    is the forward operator L = -Lap_flat that M inverts.

    mu is the mean of r under the flat quadrature weights, the left null
    vector of Lap_flat, and those weights make the weighted sum a multiple
    of the transform's zero mode: sum w r = zero_weight * rhat[0], with
    zero_weight = prod h on tori (FFT) and prod h/2 on boxes (DCT-I, whose
    zero mode counts the end nodes once and the others twice, as the
    trapezoid weights do).  So mu = rhat[0] / zero_ones, where zero_ones
    is the zero mode of the constant 1.  No r - mu pass runs: the inverse
    symbol is 0 on the zero mode and discards it.  On flat grids the
    constraint sum w x = c is met by writing rhat[0] = c / zero_weight
    before the inverse transform.  A conformal factor makes the weights of
    the constraint nonuniform, so there rhat[0] = 0 and x is shifted by
    (c - sum w x) / vol afterwards.  r is left untouched; x is written into
    out when one is given, else into a fresh array.

    The transforms are the ones scipy.fft.rfftn/irfftn and dctn/idctn
    (type 1) call, made by SciPy's pocketfft binding (`_kernels`) because
    it writes into a given array: the spectrum goes into one work array
    kept here, and the inverse transform straight into x.  irfftn's
    transform is split as pocketfft splits it, the leading axes complex to
    complex and the last complex to real, here in place on the spectrum,
    and its 1/N is applied last, as pocketfft applies it, so x is irfftn's
    bit for bit.  The inverter keeps two transform-sized arrays, that
    spectrum and the inverse symbol `inv_sym`; the symbol itself is not kept.

    `solve` runs `forward`, `scale` and `backward`; an `_AxisLine` runs
    them too, and replaces one axis' line of the scaled spectrum in between.
    """

    # M inverts L alone, so `bordered_solve` starts GMRES at once
    richardson_first = False

    def __init__(self, grid: Grid):
        self.grid = grid
        self.periodic = all(grid.periodic)
        if not self.periodic and any(grid.periodic):
            raise ValueError("mixed periodic/box axes are not supported")
        shape = grid.shape
        self.axes = tuple(range(len(shape)))
        # the symbol of -Lap_flat; only its inverse is kept
        sym = 0.0
        for a, (n, h) in enumerate(zip(shape, grid.spacings)):
            if self.periodic:
                # real FFT shrinks the last axis
                k = np.arange(n // 2 + 1 if a == len(shape) - 1 else n)
                s = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / h**2
            else:
                k = np.arange(n)
                s = (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / h**2
            sh = [1] * len(shape)
            sh[a] = len(k)
            sym = sym + s.reshape(sh)
        self.inv_sym = np.zeros_like(sym)
        mask = sym > 1e-14
        self.inv_sym[mask] = 1.0 / sym[mask]
        if self.periodic:
            # the cast numpy makes on every rhat *= inv_sym, made once
            self.inv_sym = self.inv_sym.astype(complex)
        self.spectrum = np.empty(sym.shape, dtype=self.inv_sym.dtype)
        # irfftn's normalization, 1/N rounded from long double as pocketfft does
        self.inv_count = float(np.longdouble(1.0) / np.longdouble(math.prod(shape)))
        self.w = grid.weights
        self.vol = grid.vol
        hs = grid.spacings
        self.zero_weight = math.prod(hs) if self.periodic else math.prod(h / 2.0 for h in hs)
        # the zero mode of the constant 1, so that mu = rhat[0] / zero_ones
        self.zero_ones = math.prod(shape) if self.periodic else math.prod(2 * (n - 1) for n in shape)
        self.ops = _ops_for(grid)

    def apply(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """L x = -Lap_flat x, the solver stencil that `solve` inverts."""
        out = self.ops.lap_flat(x, out)
        np.negative(out, out=out)
        return out

    def forward(self, r: np.ndarray) -> float:
        """The spectrum of r into `spectrum`; returns mu, its zero mode
        over that of the constant 1."""
        if self.periodic:
            _pocketfft.r2c(r, self.axes, True, 0, self.spectrum, 1)
        else:
            _pocketfft.dct(r, 1, self.axes, 0, self.spectrum, 1)
        return float(self.spectrum[(0,) * r.ndim].real) / self.zero_ones

    def scale(self, c: float) -> None:
        """The spectrum times the inverse symbol, its zero mode set for the
        constraint c."""
        self.spectrum *= self.inv_sym
        self.spectrum[(0,) * self.spectrum.ndim] = (
            0.0 if self.periodic and not self.grid.is_flat else c / self.zero_weight
        )

    def backward(self, c: float, x: np.ndarray) -> np.ndarray:
        """The inverse transform of the spectrum into x, shifted to meet the
        constraint c on a conformal torus."""
        if self.periodic:
            rhat = self.spectrum
            _pocketfft.c2c(rhat, self.axes[:-1], False, 0, rhat, 1)
            _pocketfft.c2r(rhat, self.axes[-1:], self.grid.shape[-1], False, 0, x, 1)
            x *= self.inv_count
        else:
            _pocketfft.dct(self.spectrum, 1, self.axes, 2, x, 1)
        if not self.grid.is_flat:
            x += (c - float(np.sum(self.w * x))) / self.vol
        return x

    def solve(self, r: np.ndarray, c: float = 0.0, out: Optional[np.ndarray] = None):
        mu = self.forward(r)
        self.scale(c)
        return self.backward(c, np.empty(self.grid.shape) if out is None else out), mu

    def subtract_correction(self, field: np.ndarray) -> None:
        """Nothing: this M inverts L, and A M = I + R M."""


class _Line:
    """The lines along one axis a of a flat grid: what an `_AxisLine` needs
    that no Newton step changes.

    `mean` is P_a, the quadrature mean over the other axes, of a field,
    returned as a line; flat weights are a tensor product of 1-D weights,
    so it contracts the field with the weights of the axes before a and
    after a (`before`, `after`, each up to a constant factor).  `wline` is
    the weights summed over the other axes, so sum w v = wline . y for a
    line function v = y along a.  In the transform, the line functions are
    the zero-transverse line at `index`: its entries are T_a(Z P_a r), with
    T_a the unnormalized 1-D forward transform along a (FFT, the real FFT
    on the last axis, DCT-I on boxes) and Z = `transverse` the zero mode
    of the constant 1 over the other axes; `to_line` and `from_line` are
    T_a^{-1} and T_a.  `d1` and `d1t` are the 1-D D_a and D_a^T, and
    `bordered` the bordered 1-D Laplacian [[-D2_a, 1], [wline, 0]], all
    built by applying the `stencils` row kernels to the 1-D identity.
    """

    def __init__(self, grid: Grid, axis: int):
        w = grid.weights
        d = w.ndim
        n, h = grid.shape[axis], grid.spacings[axis]
        periodic = bool(grid.periodic[axis])
        self.axis = axis
        self.before = np.ravel(w[(slice(None),) * axis + (0,) * (d - axis)])
        self.after = np.ravel(w[(0,) * (axis + 1) + (slice(None),) * (d - axis - 1)])
        self.wline = np.sum(w, axis=tuple(b for b in range(d) if b != axis))
        self.index = tuple(slice(None) if b == axis else 0 for b in range(d))
        self.transverse = float(math.prod(
            (m if periodic else 2 * (m - 1)) for b, m in enumerate(grid.shape) if b != axis
        ))
        # scipy.fft's idct/dct (type 1), irfft/rfft and ifft/fft, as they
        # call pocketfft: norm code 2 (1/N) backward and 0 forward
        if not periodic:
            self.to_line = lambda held: _pocketfft.dct(held, 1, (0,), 2, None, 1)
            self.from_line = lambda y: _pocketfft.dct(y, 1, (0,), 0, None, 1)
        elif axis == d - 1:
            self.to_line = lambda held: _pocketfft.c2r(held, (0,), n, False, 2, None, 1)
            self.from_line = lambda y: _pocketfft.r2c(y, (0,), True, 0, None, 1)
        else:
            self.to_line = lambda held: _pocketfft.c2c(held, (0,), False, 2, None, 1).real
            self.from_line = lambda y: _pocketfft.c2c(y, (0,), True, 0, None, 1)
        eye = np.eye(n)
        self.d1 = d1_rows(eye * d1_scale(h), 0, periodic, np.empty((n, n)))
        self.d1t = d1t_rows(eye * d1_scale(h), 0, periodic, np.empty((n, n)))
        self.bordered = np.zeros((n + 1, n + 1))
        np.negative(d2_rows(eye * d2_scale(h), 0, periodic, np.empty((n, n))), out=self.bordered[:n, :n])
        self.bordered[:n, n] = 1.0
        self.bordered[n, :n] = self.wline

    def mean(self, v: np.ndarray) -> np.ndarray:
        """P_a v, as a line."""
        lines = v.reshape(self.before.size, -1, self.after.size)
        out = self.before @ np.einsum("pnq,q->pn", lines, self.after)
        out /= np.sum(self.before) * np.sum(self.after)
        return out


def _lines_for(grid: Grid) -> list:
    """The `_Line` of each axis of a flat grid, built on first use and kept
    on the grid."""
    return grid.cached("lines", lambda: [_Line(grid, a) for a in range(len(grid.shape))])


class _AxisLine:
    """M with one axis' line solved exactly: the bordered inverse of
    Jbar = L + C P_a on a flat grid.

    P_a is the quadrature mean over the axes other than a, the W-orthogonal
    projection onto the line functions, those that vary along a only.  It
    commutes with L, and C acts along a only: C = diag(abar) D_a for the
    Newton Jacobian, whose first-order coefficient b has the line mean
    abar = P_a b_a, and C = W_a^{-1} D_a^T diag(abar) W_a for its quadrature
    adjoint, the density operator (W_a the line's weights).  So Jbar maps
    the line functions to themselves by the 1-D operator K = -D2_a + C and
    their W-complement to itself by L, and the constant and the weights of
    the mean constraint are line functions.  M solves the bordered line
    system  K y + mu = P_a r,  wline . y = c  on n_a + 1 unknowns with the
    LU factors made here, once per Newton step, and gives every other mode
    L^{-1}, as the flat inverse does: `solve` reads P_a r from the
    spectrum's line before the inverse symbol scales it and writes the
    line of y back (`_Line`), so the inverse transform returns y broadcast
    plus the other modes.  After each solve `correction` holds the line
    C y, and `subtract_correction` takes it off an R apply, so that
    `bordered_solve` forms A M v = v + R M v - C P_a M v.  When b varies
    along a only, C P_a is the transport term on the line functions, so
    there Jbar is the Jacobian itself and A M v = v on them.  This M is
    built only where the line carries nearly all of b, so A M is I or near
    it, and `richardson_first` has `bordered_solve` try x += M r before
    any Arnoldi step.
    """

    richardson_first = True

    def __init__(self, inv: _FlatInverter, line: _Line, abar: np.ndarray, adjoint: bool):
        self.inv = inv
        self.apply = inv.apply
        self.line = line
        n = len(abar)
        if adjoint:
            self.C = line.d1t * (abar * line.wline)
            self.C /= line.wline[:, None]
        else:
            self.C = abar[:, None] * line.d1
        bordered = line.bordered.copy()
        bordered[:n, :n] += self.C
        self.lu, self.piv, _ = _getrf(bordered, overwrite_a=True)
        self.rhs = np.empty(n + 1)
        self.correction = np.zeros(n)
        # The field as a matrix whose rows (or columns) the correction is
        # constant along, for one BLAS rank-one update: off the last axis the
        # rows are (outer index, axis index) and take the correction tiled
        # over the outer indices, on it the columns run over the outer indices.
        if line.after.size > 1:
            self._ones = np.ones(line.after.size)
            self._tiled = np.zeros(line.before.size * n)
        else:
            self._ones = np.ones(line.before.size)

    def solve(self, r: np.ndarray, c: float = 0.0, out: Optional[np.ndarray] = None):
        """(x, mu) = M (r, c), x written into out when one is given."""
        inv, line, rhs = self.inv, self.line, self.rhs
        n = len(rhs) - 1
        inv.forward(r)
        np.multiply(line.to_line(inv.spectrum[line.index]), 1.0 / line.transverse, out=rhs[:n])
        rhs[n] = c
        inv.scale(c)
        sol, _ = _getrs(self.lu, self.piv, rhs)
        y = sol[:n]
        inv.spectrum[line.index] = line.from_line(y) * line.transverse
        np.dot(self.C, y, out=self.correction)
        if line.after.size > 1:
            self._tiled.reshape(line.before.size, n)[:] = self.correction
        return inv.backward(c, np.empty(inv.grid.shape) if out is None else out), float(sol[n])

    def subtract_correction(self, field: np.ndarray) -> None:
        """field -= C P_a M v of the last solve, broadcast along the axis, in
        place.  A broadcasting numpy subtract would buffer up to 64 KiB per
        call; the BLAS rank-one update works on the field's transposed
        matrix view and allocates nothing.  The view is the field itself
        only when the field is C-contiguous."""
        if not field.flags.c_contiguous:
            raise ValueError("subtract_correction needs a C-contiguous field")
        before, after = self.line.before.size, self.line.after.size
        if after > 1:
            _ger(-1.0, self._ones, self._tiled, a=field.reshape(-1, after).T, overwrite_a=1)
        else:
            _ger(-1.0, self.correction, self._ones, a=field.reshape(before, -1).T, overwrite_a=1)


# ---------------------------------------------------------------------------
# residual and helpers


def _same_lattice(a: Grid, b: Grid) -> bool:
    """Whether nodal arrays of a and b hold values at the same points of
    the same kind of domain, so the solver stencils of one apply to the
    other: shape, spacings, periodicity and flatness agree."""
    if a is b:
        return True
    return (
        a.shape == b.shape
        and a.spacings == b.spacings
        and tuple(a.periodic) == tuple(b.periodic)
        and a.is_flat == b.is_flat
    )


def residual(u: ScalarField, spec: ProblemSpec, lam: float = 0.0) -> ScalarField:
    """Node-wise residual of the stationary equation (solver stencils)."""
    if not _same_lattice(u.grid, spec.grid):
        raise ValueError("field and problem live on different grids")
    vals, _ = _residual_core(spec, _ops_for(spec.grid), u.values)
    vals += lam
    return ScalarField(spec.grid, vals)


def _residual_core(
    spec: ProblemSpec,
    ops: _Ops,
    uvals: np.ndarray,
    out: Optional[np.ndarray] = None,
    dvals: Optional[np.ndarray] = None,
    sq: Optional[np.ndarray] = None,
):
    """-Lap_g u + (1/gamma)|grad u|^gamma + g(B, grad u) + b - f, and the
    lattice gradient ops.grad(u) it was formed from, written into out and
    dvals when given (fresh arrays otherwise).  The lattice |grad u|^2,
    sum_a (D_a u)^2, is written into sq when one is given, for
    `transport_coefficient` to take; otherwise it is not kept."""
    dvals = ops.grad(uvals, dvals)
    if spec.grid.is_flat:
        out = ops.lap_flat(uvals, out)
        np.negative(out, out=out)
    else:
        lap = ops.lap_metric(uvals, dvals)
        out = np.negative(lap, out=lap if out is None else out)
    # the Hamiltonian's term in work(0), which also holds sq when none is given
    gn2 = sq = ops.pairing(dvals, dvals, sq)
    ham = ops.work(0)
    if not spec.grid.is_flat:
        gn2 = np.multiply(spec.grid.conformal_factor(-2.0), sq, out=ham)
    if spec.gamma != 2.0:  # x ** 1.0 is x bit for bit
        gn2 = np.power(gn2, spec.gamma / 2.0, out=ham)
    np.multiply(gn2, 1.0 / spec.gamma, out=ham)
    out += ham
    if spec.drift is not None:
        # g(B, grad u) reduces to B^i du_i for conformal metrics as well
        out += ops.pairing(spec.drift.values, dvals)
    if spec.shift is not None:
        out += spec.shift.values
    if spec.source is not None:
        out -= spec.source.values
    return out, dvals


def transport_coefficient(
    spec: ProblemSpec,
    uvals: np.ndarray,
    dvals: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Lattice coefficient of the linearized first-order term.

    a_i = e^{-gamma phi} (|du|^2 + eps^2)^{(gamma-2)/2} du_i + B_i; the
    regularization keeps the coefficient finite at critical points when
    gamma < 2.  With no drift it is the game's optimal drift.  At gamma = 2
    the power is x ** 0.0 = 1 for every x, so on flat grids a = du + B,
    formed without the power.
    A caller that already holds the lattice gradient of u (the one
    `_residual_core` returns) passes it as dvals, and it is not formed again;
    one that also holds its sum of squares sum_a (D_a u)^2 (the sq
    `_residual_core` writes) passes that as sq, and |du|^2 is not summed
    again.  The coefficient is written into out when one is given, else
    into a fresh array; out may be dvals itself, which a Newton step
    passes, since it reads its iterate's gradient no more.
    """
    ops = _ops_for(spec.grid)
    if dvals is None:
        dvals = ops.grad(uvals)
    if out is None:
        out = np.empty(dvals.shape)
    if spec.gamma == 2.0 and spec.grid.is_flat:
        if out is not dvals:
            np.copyto(out, dvals)
    else:
        if sq is None:
            amp = ops.pairing(dvals, dvals)
            amp += EPS_REG**2
        else:
            amp = np.add(sq, EPS_REG**2, out=ops.work(0))
        amp **= (spec.gamma - 2.0) / 2.0
        if not spec.grid.is_flat:
            amp = amp * spec.grid.conformal_factor(-spec.gamma)
        for a in range(len(dvals)):
            np.multiply(amp, dvals[a], out=out[a])
    if spec.drift is not None:
        out += spec.drift.values
    return out


def mesh_peclet(grid: Grid, coeff: np.ndarray) -> float:
    """Largest advection mesh number |b_i| h_i / (2 k) of the Jacobian
    with transport coefficient a, where b is its first-order coefficient
    and k its diffusion: centered differences keep the M-matrix sign
    pattern of the linearized operator, and of its adjoint, exactly when
    it is <= 1.  On flat grids b = a and k = 1.  On conformal tori
    -Lap_g = -e^{-2 phi} (Lap_flat + (d - 2) grad phi . grad), so
    b = a - (d - 2) e^{-2 phi} grad phi and k = e^{-2 phi}.

    max |b_a| / k is read as max(max b_a / k, -min b_a / k), the same
    float, so no |b| is formed; on conformal tori each b_a / k is formed
    in the work array `_Ops.work(0)`, and the call allocates nothing."""
    ops = None if grid.is_flat else _ops_for(grid)
    pec = 0.0
    for a, h in enumerate(grid.spacings):
        ba = coeff[a]
        if ops is not None:
            ba = np.subtract(ba, ops.conformal_drift[a], out=ops.work(0))
            ba *= grid.conformal_factor(2.0)
        pec = max(pec, max(float(np.max(ba)), -float(np.min(ba))) * h / 2.0)
    return pec


def _ops_for(grid: Grid) -> _Ops:
    """Solver operators of `grid`, built on first use and kept on the grid."""
    return grid.cached("solver_ops", lambda: _Ops(grid))


def _inverter_for(grid: Grid) -> _FlatInverter:
    """Preconditioner of `grid`, built on first use and kept on the grid."""
    return grid.cached("flat_inverter", lambda: _FlatInverter(grid))


def _preconditioner(grid: Grid, b: np.ndarray, adjoint: bool = False):
    """M for a bordered system whose first-order coefficient is b: the
    Newton Jacobian's (adjoint=False) or the density operator's, its
    quadrature adjoint (adjoint=True).

    On a flat grid, M is the `_AxisLine` of the axis a whose line carries
    at least _LINE_SHARE (0.99) of b's weighted energy,
    rho = ||P_a b_a||_w^2 / ||b||_w^2 >= _LINE_SHARE, with P_a the
    quadrature mean over the other axes; otherwise, and on conformal tori,
    it is the flat inverse of L alone.  Since ||P_a b_a||_w <= ||b_a||_w,
    only the axis of b's largest component can pass, so the line mean is
    formed for that axis alone.  On tori the weights are uniform and cancel
    from rho, so there the energies are plain sums of squares.  A zero b
    passes (0 >= 0) as axis 0's line with abar = 0: A = L, solved exactly."""
    inv = _inverter_for(grid)
    if not grid.is_flat:
        return inv
    if inv.periodic:
        energy = [_dot(bc.ravel(), bc.ravel()) for bc in b]
        scale = 1.0 / float(grid.weights.flat[0])
    else:
        buf = _ops_for(grid).work(0)
        energy = [_dot(np.multiply(grid.weights, bc, out=buf).ravel(), bc.ravel()) for bc in b]
        scale = 1.0
    a = int(np.argmax(energy))
    total = sum(energy)
    if not energy[a] >= _LINE_SHARE * total:
        return inv
    line = _lines_for(grid)[a]
    abar = line.mean(b[a])
    if not scale * float(np.dot(line.wline, abar * abar)) >= _LINE_SHARE * total:
        return inv
    return _AxisLine(inv, line, abar, adjoint)


# ---------------------------------------------------------------------------
# Newton driver


def _weighted_norm(ops: _Ops, vals: np.ndarray) -> float:
    # an overflow to inf is reported by the caller as a non-finite norm
    with np.errstate(over="ignore"):
        sq = np.square(vals, out=ops.work(0))
        sq *= ops.grid.weights
    return float(np.sqrt(np.sum(sq)))


def _precondition(inv, shape: tuple, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = M z for a bordered vector z = (field, constraint)."""
    _, out[-1] = inv.solve(z[:-1].reshape(shape), z[-1], out[:-1].reshape(shape))
    return out


def _arnoldi_product(inv, apply_fn, shape: tuple, v: np.ndarray, out: np.ndarray, mv: np.ndarray) -> None:
    """out = A M v = v + [R M v - C P_a M v; 0], with M v left in mv.

    C P_a M v is the line correction that an `_AxisLine` keeps from its
    solve; the flat inverse subtracts nothing, and there A M v = v + [R M v; 0]."""
    _precondition(inv, shape, v, mv)
    field = out[:-1].reshape(shape)
    apply_fn(mv[:-1].reshape(shape), field)
    inv.subtract_correction(field)
    out[:-1] += v[:-1]
    out[-1] = v[-1]


def _solve_upper(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    """y with R y = g for an upper-triangular R: the LAPACK dtrtrs call
    scipy.linalg.solve_triangular(R, g) makes.  LAPACK reads Fortran
    order, so it is handed R^T, C order read as Fortran, as the lower
    triangle of the transposed system.  Like solve_triangular's default
    check_finite, a non-finite entry raises ValueError."""
    if not (np.isfinite(R).all() and np.isfinite(g).all()):
        raise ValueError("array must not contain infs or NaNs")
    y, info = _trtrs(R.T, g, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix: resolution failed at diagonal %d" % (info - 1))
    return y


def bordered_solve(
    grid: Grid,
    apply_fn,
    inv: _FlatInverter,
    rhs_field: np.ndarray,
    rhs_constraint: float,
    rtol: float,
    x0=None,
):
    """Constrained system [[L + R, 1], [w^T, 0]] [x; mu] = [rhs; c] via GMRES.

    L = -Lap_flat is the operator inv inverts and `inv.apply` applies;
    apply_fn(x, out) writes R x, the rest of the operator A = L + R, into
    the node array out.
    The loop is restarted GMRES(m) with m = min(_RESTART, n + 1) for n
    nodes, so a small system runs unrestarted.  It is right-preconditioned
    by the exact inverse M of the bordered flat Laplacian, so
    A M = I + [R; 0] M: each Arnoldi step forms (x, mu) = M v, writes R x
    straight into the next basis row and adds v there, with no Laplacian.
    When inv is an `_AxisLine`, M inverts L + C P_a instead, and the step
    also subtracts the line correction C P_a x that the M apply left, so
    A M = I + [R - C P_a; 0] M holds exactly (`_arnoldi_product`).  The
    step orthonormalizes the row against the basis by modified Gram-Schmidt
    in place.  The (m + 1, n + 1) basis and the m x m Hessenberg matrix H
    are allocated once per call, when GMRES starts; a cycle of k steps
    writes basis rows 0 ... k only, each step's M v_j goes into one
    field-sized array, and the cycle updates x += M (V y), one more
    preconditioner apply.  Every cycle ends with the true residual b - A x,
    recomputed with the full operator L + R; only that residual decides
    convergence: ||b - A x|| <= rtol ||b||.
    The solve starts from x = 0 with residual r = b, which costs no
    operator apply, or from x0 = (field, mu) when one is given, with the
    true residual r = b - A x0, formed like the residual at the end of a
    cycle (one apply_fn call, no preconditioner apply).  The test stays
    relative to ||b||, not to the start's residual, so a started solve is
    judged exactly like one from zero.  Whatever the start, when it misses
    the tolerance and inv.richardson_first is set (an `_AxisLine`, whose
    A M is I or near it), one preconditioned Richardson step x += M r
    follows.  It costs one preconditioner apply and its true residual,
    and counts as one iteration.  On one-axis data A M = I on the
    right-hand sides, and the step solves the system.  A start that meets
    the tolerance, or a Richardson step that does, is returned at once;
    otherwise GMRES goes on from there, and only then allocates its
    basis, H and the Givens rotations.  The flag is read as an attribute,
    so a proxy that forwards attributes to the preconditioner takes the
    same path.
    Every R apply is one apply_fn call and every preconditioner apply one
    inv.solve call.
    Returns (x, mu, info): info = 0 on convergence, else a `KrylovFailure`,
    the number of iterations run with the reason the solve stopped short of
    the tolerance: the _MAX_ITERATIONS budget is spent, or a cycle ends
    early, its Arnoldi estimate meeting the tolerance or its Krylov space
    stopping to grow, while its true residual, still above the tolerance,
    falls by less than half.  Round-off in L + R then bounds the attainable
    residual above the target, and more cycles would each take a step or
    two and gain nothing.  An early cycle whose true residual at least
    halved restarts from it, as a full cycle does.
    """
    shape = grid.shape
    w = grid.weights
    # b = (rhs_field, rhs_constraint) is read from the caller's array; r
    # holds it until the first residual replaces it, for its norm
    rhs = np.ravel(rhs_field)
    size = rhs.size + 1
    r = np.empty(size)
    r[:-1] = rhs
    r[-1] = rhs_constraint
    bnorm = _nrm2(r)
    if bnorm == 0.0:
        return np.zeros(shape), 0.0, 0
    tol = rtol * bnorm
    z = np.empty(size)  # each step's M v_j, M (V y), and the true residual's L x and w x

    def true_residual(x, r):
        # r = b - A x: L x into z, then R x and the multiplier added to it
        v = x[:-1].reshape(shape)
        lv = inv.apply(v, z[:-1].reshape(shape))
        av = r[:-1].reshape(shape)
        apply_fn(v, av)
        av += lv
        av += x[-1]
        r[-1] = rhs_constraint - np.sum(np.multiply(w, v, out=lv))
        np.subtract(rhs, r[:-1], out=r[:-1])
        return _nrm2(r)

    if x0 is None:
        x = np.zeros(size)
        beta = bnorm
    else:
        x = np.concatenate([np.ravel(x0[0]), [x0[1]]])
        beta = true_residual(x, r)
    iters = 0
    if beta > tol and inv.richardson_first:
        x += _precondition(inv, shape, r, z)
        iters = 1
        beta = true_residual(x, r)
    if beta <= tol:
        return x[:-1].reshape(shape), float(x[-1]), 0
    m = min(_RESTART, size)
    V = np.empty((m + 1, size))  # v_0 ... v_m; a row is touched only when the loop reaches it
    H = np.zeros((m, m))  # rotated Hessenberg columns; subdiagonal entry hn
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    while True:
        np.multiply(r, 1.0 / beta, out=V[0])
        g[:] = 0.0
        g[0] = beta
        k = 0
        invariant = estimated = False
        for j in range(min(m, _MAX_ITERATIONS - iters)):
            vj = V[j + 1]
            _arnoldi_product(inv, apply_fn, shape, V[j], vj, z)
            iters += 1
            h0 = _nrm2(vj)
            for i in range(j + 1):
                H[i, j] = _dot(V[i], vj)
                _axpy(V[i], vj, a=-H[i, j])
            hn = _nrm2(vj)
            if hn <= _INVARIANCE_TOL * (1.0 + h0):
                # A M v_j lies in the basis: the Krylov space is invariant
                hn = 0.0
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = cs[i] * H[i + 1, j] - sn[i] * H[i, j]
                H[i, j] = t
            rjj = math.hypot(H[j, j], hn)
            # a column whose rotated norm is round-off adds nothing to A M's range and is dropped
            if rjj > _INVARIANCE_TOL * (1.0 + h0):
                cs[j] = H[j, j] / rjj
                sn[j] = hn / rjj
                H[j, j] = rjj
                g[j + 1] = -sn[j] * g[j]
                g[j] = cs[j] * g[j]
                k = j + 1
            if hn == 0.0:
                invariant = True
                break
            _scal(1.0 / hn, vj)
            if abs(g[j + 1]) <= tol:
                estimated = True
                break
        start = beta
        if k:
            y = _solve_upper(H[:k, :k], g[:k])
            # V y by elementwise numpy arithmetic, not a BLAS gemv: a threaded
            # gemv rounds differently at different positions, which breaks
            # exact lattice symmetries of the data (a one-axis solution picks
            # up variation along its constant axes)
            x += _precondition(inv, shape, np.einsum("ij,i->j", V[:k], y, out=z), z)
            beta = true_residual(x, r)
            if beta <= tol:
                return x[:-1].reshape(shape), float(x[-1]), 0
        # A cycle that met the tolerance by its own estimate, or found its
        # Krylov space invariant, but left the true residual above it has
        # reached what restarting can give unless the residual at least
        # halved: then the next cycle starts from that residual.  A cycle
        # whose one direction A M dropped (k = 0) updated nothing.
        if (estimated or invariant) and beta > 0.5 * start:
            stop = "true residual stalled" if k else "Krylov space invariant"
        elif iters >= _MAX_ITERATIONS:
            stop = "iteration budget spent"
        else:
            continue
        reason = "%s at %.3g against target %.3g" % (stop, beta, tol)
        return x[:-1].reshape(shape), float(x[-1]), KrylovFailure(iters, reason)


def transport_solve(
    grid: Grid, b: np.ndarray, rhs: np.ndarray, c: float, rtol: float, *, adjoint: bool = False, x0=None
):
    """(x, mu, info) of the bordered system [[L + R, 1], [w^T, 0]] [x; mu]
    = [rhs; c], solved by `bordered_solve` to the relative tolerance rtol.

    R is the transport remainder with first-order coefficient b: the
    Newton Jacobian's, `_Ops.jacobian_rest`, or with adjoint set that of
    its quadrature adjoint, the density operator, `_Ops.adjoint_rest`.
    This is the one place that pairs R with its preconditioner.  x0 =
    (field, mu) starts the solve, as `bordered_solve` describes."""
    ops = _ops_for(grid)
    rest = ops.adjoint_rest if adjoint else ops.jacobian_rest
    inv = _preconditioner(grid, b, adjoint)
    return bordered_solve(grid, lambda v, out: rest(v, b, out), inv, rhs, c, rtol, x0)


def transport_residual(grid: Grid, b: np.ndarray, x: np.ndarray, adjoint: bool = False) -> float:
    """||(L + R) x||_2 for the operator `transport_solve` solves with the
    same b and adjoint: the field part of its bordered residual at x with
    multiplier 0 and right-hand side 0, in the norm of its stopping test."""
    ops = _ops_for(grid)
    r = _inverter_for(grid).apply(x)
    r += (ops.adjoint_rest if adjoint else ops.jacobian_rest)(x, b)
    return float(np.linalg.norm(r))


def _take_over(report: SolveReport, spec: ProblemSpec):
    """(u, residual, gradient, |grad u|^2) of the last iterate of the
    solve that made `report`, as the buffers of a solve of spec.

    spec must share the report's grid, drift and shift objects and its
    gamma.  The residual is the carried one with spec's source applied
    and the multiplier at 0.  The report gives up all four: afterwards it
    keeps no solver state, and its gradient is None."""
    carry = report._carry
    if carry is None:
        raise ValueError("this report carries no solver state: a report seeds at most one resumed solve")
    for name, same in (
        ("grid", carry.grid is spec.grid),
        ("gamma", carry.gamma == spec.gamma),
        ("drift", carry.drift is spec.drift),
        ("shift", carry.shift is spec.shift),
    ):
        if not same:
            raise ValueError("a solve resumes only from a report with its own operator: the " + name + " differs")
    report._carry = None
    dvals, report.gradient = report.gradient, None
    res = carry.rest
    if spec.source is not None:
        res -= spec.source.values
    return carry.u, res, dvals, carry.sq


def solve(spec: ProblemSpec, cfg: Optional[SolverConfig] = None) -> SolveReport:
    """Damped Newton with mean constraint and additive multiplier.

    Ergodic mode returns the multiplier as the critical constant; plain
    mode reports it as the compatibility defect of the discrete data.

    Newton step k solves its linear system to the relative tolerance
    rtol_k = max(clip(||F_k|| / ||F_0||, 1e-10, 1e-2),
                 min(0.5, 0.5 cfg.residual_tol / ||F_k||)).
    The second term is Kelley's termination safeguard (Iterative Methods
    for Linear and Nonlinear Equations, 1995, section 6.3): a step that
    leaves a linear residual of 0.5 residual_tol already brings F below
    the stop, so solving further is waste.  The cap of 0.5 keeps every
    step a descent direction.  The line search and the stop test,
    weighted ||F|| <= residual_tol, do not depend on it.  `bordered_solve`
    measures rtol against the unweighted 2-norm of its right-hand side,
    while residual_tol bounds a weighted norm.  On tori the weights are
    uniform and both ratios agree; on boxes the trapezoid end weights let
    them differ by at most 2^{d/2}, which can cost one more Newton step
    but never changes when the solve stops.  A residual norm that is not
    finite, as when squaring its entries overflows, stops the solve before
    its linear solve, with a message that names the norm.

    Each residual evaluation forms the gradient and the lattice |grad u|^2
    of its iterate, and the Newton step forms the Jacobian's coefficient
    from both, in the gradient's own array.  A solve started from a field,
    or from zero, evaluates the residual there first.  A solve resumed from
    the report of an earlier solve with the same grid, gamma, drift and
    shift evaluates nothing there: it starts from that solve's last
    iterate, before its gauge shift, with multiplier 0, and takes the
    residual carried there, its source and multiplier removed and spec's
    source applied, with the gradient and |grad u|^2 (`_take_over`).  A
    report from another operator, or one that has seeded a solve already,
    raises ValueError.
    """
    cfg = cfg or SolverConfig()
    grid = spec.grid
    ops = _ops_for(grid)
    grad_shape = (ops.naxes,) + grid.shape

    def F(uv, lv):
        # the residual at (uv, lv) into res, with the gradient of uv in
        # dvals and its |grad u|^2 in sq
        _residual_core(spec, ops, uv, res, dvals, sq)
        np.add(res, lv, out=res)

    lam = 0.0
    guess = cfg.initial_guess
    if isinstance(guess, SolveReport):
        uvals, res, dvals, sq = _take_over(guess, spec)
    else:
        if guess is not None:
            uvals = np.array(guess.values, dtype=float)
            uvals -= float(np.sum(grid.weights * uvals)) / grid.vol
        else:
            uvals = np.zeros(grid.shape)
        res, dvals, sq = np.empty(grid.shape), np.empty(grad_shape), np.empty(grid.shape)
        F(uvals, lam)
    # The solve's arrays, reused by every Newton step.  The step forms the
    # Jacobian's first-order coefficient b in dvals, which it reads no more,
    # and its right-hand side in u_next; a line-search trial is formed in
    # u_next, and in res, dvals and sq themselves, and an accepted trial
    # swaps u_next in.  A step that accepts nothing, its linear solve
    # failed or its search rejected, forms the residual of uvals again.
    u_next = np.empty(grid.shape)
    message = ""

    res_norm = _weighted_norm(ops, res)
    res0 = max(res_norm, 1e-30)
    iters = 0
    converged = res_norm <= cfg.residual_tol

    peclet = 0.0
    while not converged and iters < cfg.max_iter:
        if not math.isfinite(res_norm):
            # an overflowed residual leaves the linear solve no finite target
            message = "residual norm " + repr(res_norm) + " is not finite at Newton step " + str(iters + 1)
            break
        # b = a, the transport coefficient, on flat grids; on conformal tori
        # the metric's own first-order term is folded in
        b = transport_coefficient(spec, uvals, dvals, dvals, sq)
        peclet = mesh_peclet(grid, b)
        if not grid.is_flat:
            b -= ops.conformal_drift
        rtol = float(np.clip(res_norm / res0, 1e-10, 1e-2))
        # Kelley's safeguard: no tighter than the Newton stop needs
        rtol = max(rtol, min(0.5, 0.5 * cfg.residual_tol / res_norm))
        c = -float(np.sum(np.multiply(grid.weights, uvals, out=ops.work(0))))
        delta_u, delta_lam, info = transport_solve(grid, b, np.negative(res, out=u_next), c, rtol)
        if info != 0:
            F(uvals, lam)
            message = with_reason(
                "linear solve failed at Newton step " + str(iters + 1)
                + " (GMRES info " + str(info) + ")",
                info,
            )
            break
        alpha = 1.0
        accepted = False
        while alpha >= 2.0**-20:
            trial_u = np.multiply(delta_u, alpha, out=u_next)
            trial_u += uvals
            trial_lam = lam + alpha * delta_lam
            F(trial_u, trial_lam)
            trial_norm = _weighted_norm(ops, res)
            if trial_norm <= (1.0 - 1e-4 * alpha) * res_norm or trial_norm <= cfg.residual_tol:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            F(uvals, lam)
            message = "stalled: backtracking floor reached"
            break
        uvals, u_next = trial_u, uvals
        lam, res_norm = trial_lam, trial_norm
        iters += 1
        converged = res_norm <= cfg.residual_tol

    # what a solve resumed from the report takes over: the residual without
    # its source and multiplier, at the iterate before the gauge shift
    res -= lam
    if spec.source is not None:
        res += spec.source.values
    carry = _Carry(grid, spec.gamma, spec.drift, spec.shift, uvals, res, sq)
    # exact gauge fix: constants do not change the residual
    mean = float(np.sum(grid.weights * uvals)) / grid.vol

    if not converged and not message:
        message = "iteration budget exhausted"
    return SolveReport(
        converged=bool(converged),
        iterations=iters,
        residual=res_norm,
        u=ScalarField(grid, uvals - mean),
        lam=float(lam) if spec.ergodic else 0.0,
        compat_defect=0.0 if spec.ergodic else float(lam),
        message=message,
        gradient=dvals,
        peclet=peclet,
        _carry=carry,
    )


def solve_ergodic(spec: ProblemSpec, cfg: Optional[SolverConfig] = None) -> SolveReport:
    if not spec.ergodic:
        raise ValueError("solve_ergodic needs a spec with ergodic=True")
    return solve(spec, cfg)


def solution_norm_table(spec: ProblemSpec, u: ScalarField) -> dict:
    """L^2 norms of grad u, Lap u, |grad u|^gamma and Hess u via the
    analysis calculus, as {family: {"2.0": norm}}."""
    gradu = gradient(u)
    lap, squares, _ = hessian_reductions(u)
    norms = {
        "grad": lq_norm(gradu, 2.0),
        "lap": lq_norm(lap, 2.0),
        "grad_pow_gamma": lq_norm(ScalarField(u.grid, pointwise_norm(gradu) ** spec.gamma), 2.0),
        "hess": _lq(u.grid, _frame_norm(u.grid, squares, -2.0), 2.0),
    }
    return {name: {"2.0": v} for name, v in norms.items()}


# ---------------------------------------------------------------------------
# manufactured problems


def manufactured_solution(grid: Grid) -> ScalarField:
    """Neumann-compatible product-of-cosines reference solution."""
    mesh = grid.mesh()
    vals = np.ones(grid.shape)
    for x, L in zip(mesh, grid.domain.extents):
        vals = vals * np.cos(np.pi * x / L)
    return ScalarField(grid, vals)


def manufactured_source(grid: Grid, gamma: float):
    """Source that makes the cosine product an exact continuum solution of
    the plain equation; gamma must pass (In1)."""
    growth_gate(gamma)
    mesh = grid.mesh()
    Ls = grid.domain.extents
    ustar = manufactured_solution(grid)
    lap = np.zeros(grid.shape)
    grad_sq = np.zeros(grid.shape)
    for a, (x, L) in enumerate(zip(mesh, Ls)):
        freq = np.pi / L
        lap -= freq**2 * ustar.values
        prod = np.ones(grid.shape)
        for b2, (y, M) in enumerate(zip(mesh, Ls)):
            t = np.pi * y / M
            prod = prod * (np.sin(t) if b2 == a else np.cos(t))
        grad_sq += (freq * prod) ** 2
    fvals = -lap + (1.0 / gamma) * grad_sq ** (gamma / 2.0)
    return ustar, ScalarField(grid, fvals)
