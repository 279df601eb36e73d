"""Stationary solver: gates, residual conventions, manufactured problems, and
an independent time-marching oracle for the ergodic pair (u, lambda)."""

import gc
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.fft as sfft

from hjblab import hjb
from hjblab.fields import ScalarField, VectorField, _metric_trace, gradient, hessian, lq_norm, pointwise_norm
from hjblab.geometry import DomainSpec, build_grid
from hjblab.hjb import (
    ProblemSpec,
    manufactured_solution,
    manufactured_source,
    residual,
    solution_norm_table,
    solve,
    solve_ergodic,
)

from csr_oracle import csr_along_axis, d1_matrix, d2_matrix

TWO_PI = 2.0 * np.pi


def torus(n, dim=2):
    return build_grid(DomainSpec(kind="torus", dim=dim, resolution=(n,)))


def box(n, dim=2):
    return build_grid(DomainSpec(kind="box", dim=dim, resolution=(n,)))


# ---------------------------------------------------------------------------
# independent oracle: long-time limit of the evolution du/dt = -R0(u).
# The drifting mean recovers the critical constant, the normalized profile
# the stationary solution; no Newton machinery is involved.


def value_iteration_oracle(spec, steps=40_000, safety=8.0):
    grid = spec.grid
    h2 = min(float(h) ** 2 for h in grid.spacings)
    dt = h2 / safety
    u = ScalarField(grid, np.zeros(grid.shape))
    lam_est = 0.0
    for _ in range(steps):
        r0 = residual(u, spec, lam=0.0).values
        lam_est = -float(np.sum(grid.weights * r0)) / grid.vol
        if float(np.max(np.abs(r0 + lam_est))) <= 1e-12:
            break
        new = u.values - dt * r0
        new -= float(np.sum(grid.weights * new)) / grid.vol
        u = ScalarField(grid, new)
    return u, lam_est


def first_mode_shift(grid, amp=1.0):
    mesh = grid.mesh()
    return ScalarField(grid, amp * np.cos(TWO_PI * mesh[0]))


def test_newton_matches_time_marching_oracle():
    grid = torus(16, dim=2)
    spec = ProblemSpec(grid, gamma=2.0, shift=first_mode_shift(grid), ergodic=True)
    u_vi, lam_vi = value_iteration_oracle(spec)
    rep = solve_ergodic(spec)
    assert rep.converged
    assert abs(rep.lam - lam_vi) <= 1e-8
    assert float(np.max(np.abs(rep.u.values - u_vi.values))) <= 1e-8


def test_constant_data_gives_flat_solution_and_its_negative_as_constant():
    grid = torus(12, dim=3)
    spec = ProblemSpec(
        grid, gamma=3.0, shift=ScalarField(grid, np.full(grid.shape, 0.7)), ergodic=True
    )
    rep = solve_ergodic(spec)
    assert rep.converged and rep.iterations <= 2
    assert float(np.max(np.abs(rep.u.values))) <= 1e-12
    assert abs(rep.lam + 0.7) <= 1e-12


def test_constant_source_returns_as_the_critical_constant():
    grid = torus(12, dim=2)
    spec = ProblemSpec(
        grid, gamma=2.0, source=ScalarField(grid, np.full(grid.shape, 1.9)), ergodic=True
    )
    rep = solve_ergodic(spec)
    assert rep.converged
    assert abs(rep.lam - 1.9) <= 1e-12


@pytest.mark.parametrize("c", [0.7, -1.3])
def test_critical_constant_is_equivariant_under_data_shifts(c):
    grid = torus(16, dim=2)
    base = first_mode_shift(grid, amp=0.8)
    rep0 = solve_ergodic(ProblemSpec(grid, gamma=3.0, shift=base, ergodic=True))
    shifted = ScalarField(grid, base.values + c)
    rep1 = solve_ergodic(ProblemSpec(grid, gamma=3.0, shift=shifted, ergodic=True))
    assert rep0.converged and rep1.converged
    assert abs(rep1.lam - (rep0.lam - c)) <= 1e-9
    assert float(np.max(np.abs(rep1.u.values - rep0.u.values))) <= 1e-8


def test_zero_data_solves_to_zero_immediately():
    grid = torus(12, dim=2)
    rep = solve(ProblemSpec(grid, gamma=2.0))
    assert rep.converged and rep.iterations == 0
    assert float(np.max(np.abs(rep.u.values))) == 0.0


# ---------------------------------------------------------------------------
# residual conventions


def test_explicit_multiplier_shifts_residual_additively():
    grid = torus(12, dim=2)
    spec = ProblemSpec(grid, gamma=2.0, shift=first_mode_shift(grid))
    u = ScalarField(grid, 0.1 * grid.mesh()[0] ** 0)  # constant field
    r0 = residual(u, spec, lam=0.0).values
    r1 = residual(u, spec, lam=0.3).values
    assert np.max(np.abs(r1 - r0 - 0.3)) <= 1e-15


def test_residual_without_lam_equals_lam_zero():
    grid = torus(12, dim=2)
    u = ScalarField(grid, 0.1 * np.cos(TWO_PI * grid.mesh()[0]))
    for ergodic in (False, True):
        spec = ProblemSpec(grid, gamma=2.0, shift=first_mode_shift(grid), ergodic=ergodic)
        assert np.array_equal(residual(u, spec).values, residual(u, spec, lam=0.0).values)


def test_residual_rejects_mismatched_grids():
    spec = ProblemSpec(torus(12, dim=2), gamma=2.0)
    other = torus(16, dim=2)
    with pytest.raises(ValueError):
        residual(ScalarField(other, np.zeros(other.shape)), spec)
    # Same shape, other lattice: a 16^2 box has h = 1/15, a 16^2 torus 1/16;
    # other extents change h alone; a conformal torus keeps h but not the
    # metric.  Each would give a silently wrong residual.
    flat16 = torus(16, dim=2)

    def phi(c):
        return 0.1 * np.cos(TWO_PI * c[0])

    for field_grid, spec_grid in [
        (box(16, dim=2), flat16),
        (flat16, box(16, dim=2)),
        (build_grid(DomainSpec(kind="torus", dim=2, resolution=(16,), extents=(2.0, 1.0))), flat16),
        (build_grid(DomainSpec(kind="box", dim=2, resolution=(16,), extents=(1.0, 3.0))), box(16, dim=2)),
        (build_grid(DomainSpec(kind="torus", dim=2, resolution=(16,)), phi), flat16),
    ]:
        with pytest.raises(ValueError, match="different grids"):
            residual(ScalarField(field_grid, np.zeros(field_grid.shape)), ProblemSpec(spec_grid, gamma=2.0))
    # a second build of the same lattice is the same grid for the stencils
    u = np.cos(TWO_PI * flat16.mesh()[0])
    twin = torus(16, dim=2)
    same = residual(ScalarField(twin, u), ProblemSpec(flat16, gamma=2.0)).values
    assert np.array_equal(same, residual(ScalarField(flat16, u), ProblemSpec(flat16, gamma=2.0)).values)


def test_growth_gate_rejects_sublinear_hamiltonians():
    grid = torus(12, dim=2)
    with pytest.raises(ValueError, match=r"\(In1\)"):
        ProblemSpec(grid, gamma=0.9)


def test_solver_rejects_polar_coordinates():
    disc = build_grid(DomainSpec(kind="disc", dim=2, resolution=(16, 32)))
    with pytest.raises(ValueError, match="box/torus"):
        ProblemSpec(disc, gamma=2.0)


# ---------------------------------------------------------------------------
# manufactured problems


def test_discrete_manufactured_source_vanishes_identically():
    grid = box(17, dim=2)
    ustar = manufactured_solution(grid)
    f = residual(ustar, ProblemSpec(grid, gamma=2.0))
    spec = ProblemSpec(grid, gamma=2.0, source=f)
    assert float(np.max(np.abs(residual(ustar, spec).values))) == 0.0


def test_newton_recovers_discrete_manufactured_solution():
    grid = box(17, dim=2)
    ustar = manufactured_solution(grid)
    f = residual(ustar, ProblemSpec(grid, gamma=2.0))
    rep = solve(ProblemSpec(grid, gamma=2.0, source=f))
    assert rep.converged
    assert rep.residual <= 1e-10
    assert abs(rep.compat_defect) <= 1e-10
    assert float(np.max(np.abs(rep.u.values - ustar.values))) <= 1e-8


def test_symbolic_manufactured_residual_shrinks_at_second_order():
    errs = []
    ns = (17, 33, 65)
    for n in ns:
        grid = box(n, dim=2)
        ustar, f = manufactured_source(grid, gamma=2.0)
        spec = ProblemSpec(grid, gamma=2.0, source=f)
        errs.append(float(np.max(np.abs(residual(ustar, spec).values))))
        h = grid.spacings[0]
        assert errs[-1] <= 30.0 * h * h
    order = np.log(errs[-2] / errs[-1]) / np.log((ns[-1] - 1) / (ns[-2] - 1))
    assert order >= 1.9


def test_solutions_of_symbolic_manufactured_converge_at_second_order():
    errs = []
    ns = (17, 33, 65)
    for n in ns:
        grid = box(n, dim=2)
        ustar, f = manufactured_source(grid, gamma=2.0)
        rep = solve(ProblemSpec(grid, gamma=2.0, source=f))
        assert rep.converged
        errs.append(float(np.max(np.abs(rep.u.values - ustar.values))))
    order = np.log(errs[-2] / errs[-1]) / np.log((ns[-1] - 1) / (ns[-2] - 1))
    assert order >= 1.9


# ---------------------------------------------------------------------------
# richer problems stay solvable and report sane norms


def test_superquadratic_problem_with_drift_converges():
    grid = torus(16, dim=3)
    mesh = grid.mesh()
    drift = VectorField(
        grid,
        np.stack(
            [np.sin(TWO_PI * mesh[1]), np.zeros(grid.shape), np.zeros(grid.shape)]
        ),
    )
    spec = ProblemSpec(
        grid,
        gamma=3.0,
        drift=drift,
        source=ScalarField(grid, 10.0 * np.cos(TWO_PI * mesh[0])),
        ergodic=True,
    )
    rep = solve_ergodic(spec)
    assert rep.converged and rep.residual <= 1e-10
    for table in solution_norm_table(spec, rep.u).values():
        for val in table.values():
            assert np.isfinite(val)
    assert lq_norm(gradient(rep.u), np.inf) > 0.0


@pytest.mark.parametrize("kind", ["torus", "box", "conformal"])
def test_solution_norm_table_equals_its_tensor_form_bit_for_bit(kind):
    if kind == "box":
        grid = box(10, dim=3)
    else:
        phi = (lambda c: 0.2 * np.cos(TWO_PI * c[1]) * np.sin(TWO_PI * c[2])) if kind == "conformal" else None
        grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(9, 10, 8)), phi)
    spec = ProblemSpec(grid, gamma=1.5)
    u = ScalarField(grid, np.random.default_rng(19).normal(size=grid.shape))
    gradu = gradient(u)
    hess = hessian(u)
    families = {
        "grad": gradu,
        "lap": _metric_trace(hess),
        "grad_pow_gamma": ScalarField(grid, pointwise_norm(gradu) ** spec.gamma),
        "hess": hess,
    }
    want = {name: {"2.0": lq_norm(f, 2.0)} for name, f in families.items()}
    got = solution_norm_table(spec, u)
    assert list(got) == list(want) and got == want


def test_stronger_sources_steepen_the_solution():
    grid = torus(16, dim=2)
    mesh = grid.mesh()
    sup_grads = []
    for amp in (1.0, 10.0):
        spec = ProblemSpec(
            grid,
            gamma=3.0,
            source=ScalarField(grid, amp * np.cos(TWO_PI * mesh[0])),
            ergodic=True,
        )
        rep = solve_ergodic(spec)
        assert rep.converged
        sup_grads.append(lq_norm(gradient(rep.u), np.inf))
    assert sup_grads[1] > sup_grads[0] > 0.0


def test_conformal_metric_problem_converges_and_certifies():
    grid = build_grid(
        DomainSpec(kind="torus", dim=2, resolution=(24,)), lambda coords: 0.1 * np.cos(TWO_PI * coords[0])
    )
    mesh = grid.mesh()
    spec = ProblemSpec(
        grid,
        gamma=2.0,
        source=ScalarField(grid, np.cos(TWO_PI * mesh[1])),
        ergodic=True,
    )
    rep = solve_ergodic(spec)
    assert rep.converged and rep.residual <= 1e-10
    final = float(np.max(np.abs(residual(rep.u, spec, lam=rep.lam).values)))
    assert final <= 1e-8


def test_mesh_peclet_weighs_the_metric_jacobian_on_conformal_tori():
    # phi = a cos 2 pi x on an 8^3 torus, h = 1/8.  The Jacobian's first-order
    # coefficient is c - (d - 2) e^{-2 phi} D phi against the diffusion
    # e^{-2 phi}; the centered difference D phi peaks at a sin(2 pi h) / h.
    a = 0.1
    grid = build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(8,)),
        lambda coords: a * np.cos(TWO_PI * coords[0]),
    )
    coeff = np.zeros((3,) + grid.shape)
    # the metric's own term: max |D phi| h / 2 = sqrt(2) a / 4
    assert hjb.mesh_peclet(grid, coeff) == pytest.approx(np.sqrt(2.0) * a / 4.0, rel=1e-12)
    # a unit transport along y against the least diffusion, e^{-2a} at x = 0
    coeff[1] = 1.0
    assert hjb.mesh_peclet(grid, coeff) == pytest.approx(np.exp(2.0 * a) / 16.0, rel=1e-12)
    assert hjb.mesh_peclet(torus(8, dim=3), coeff) == 1.0 / 16.0


def _absolute_peclet(grid, coeff):
    """max_a max |b_a| h_a / (2 k), with |b| formed."""
    if not grid.is_flat:
        coeff = (coeff - hjb._ops_for(grid).conformal_drift) * grid.conformal_factor(2.0)
    pec = 0.0
    for a, h in enumerate(grid.spacings):
        pec = max(pec, float(np.max(np.abs(coeff[a]))) * h / 2.0)
    return pec


@pytest.mark.parametrize("kind", ["torus", "box", "conformal"])
def test_mesh_peclet_equals_its_absolute_value_form_bit_for_bit(kind):
    # max(max b_a, -min b_a) in place of max |b_a|, on coefficients of mixed
    # signs with exact zeros, components of one sign, and zero
    grid = {"torus": lambda: torus(8, dim=3), "box": lambda: box(9, dim=3), "conformal": _conformal_torus}[kind]()
    rng = np.random.default_rng(17)
    coeff = rng.normal(size=(3,) + grid.shape)
    coeff[0][coeff[0] > 0.5] = 0.0
    coeff[1] = -np.abs(coeff[1])
    coeff[2] = np.abs(coeff[2])
    coeff[2].flat[::5] = 0.0
    for scale in (1.0, -3.0, 0.0):
        got, want = hjb.mesh_peclet(grid, scale * coeff), _absolute_peclet(grid, scale * coeff)
        assert got == want and np.signbit(got) == np.signbit(want), (scale, got, want)
    # no |b| is formed, nor on conformal tori b / k
    _, peak = _traced_peak(lambda: hjb.mesh_peclet(grid, coeff))
    assert peak < coeff[0].nbytes, peak


def test_ergodic_entry_point_requires_the_flag():
    grid = torus(12, dim=2)
    with pytest.raises(ValueError):
        solve_ergodic(ProblemSpec(grid, gamma=2.0, ergodic=False))


# ---------------------------------------------------------------------------
# bordered Krylov solve


def _advected_case(grid, peclet=None):
    """Random gamma = 3 coefficient, scaled to the given mesh Peclet number
    if one is given; returns apply_fn (the rest R = J - L of the Jacobian),
    its call log, a rhs and a constraint."""
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(5)
    coeff = hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), 0.3 * rng.normal(size=grid.shape))
    if peclet is not None:
        coeff *= peclet / max(np.max(np.abs(coeff[a])) * h / 2.0 for a, h in enumerate(grid.spacings))
    calls = []

    def apply_fn(v, out=None):
        calls.append(1)
        return ops.jacobian_rest(v, coeff, out)

    return apply_fn, calls, rng.normal(size=grid.shape), 0.3


def _conformal_torus(n=8):
    def phi(coords):
        return 0.1 * np.cos(TWO_PI * coords[0]) + 0.05 * np.sin(TWO_PI * (coords[1] + coords[2]))

    return build_grid(DomainSpec(kind="torus", dim=3, resolution=(n,)), phi)


_GRIDS = {
    "2-torus": lambda: torus(12, dim=2),
    "3-torus": lambda: torus(8, dim=3),
    "3-box": lambda: box(9, dim=3),
    "conformal-torus": _conformal_torus,
}


def _bordered_case(kind):
    grid = _GRIDS[kind]()
    # unscaled, the mesh Peclet number is about 2-3: advection-dominated, still one cycle
    return (grid, *_advected_case(grid))


def _dense_bordered(grid, apply_fn):
    """The bordered matrix of A = L + R, with R applied by apply_fn."""
    inv = hjb._inverter_for(grid)
    n = int(np.prod(grid.shape))
    A = np.zeros((n + 1, n + 1))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        A[:n, k] = (inv.apply(e.reshape(grid.shape)) + apply_fn(e.reshape(grid.shape))).reshape(-1)
    A[:n, n] = 1.0
    A[n, :n] = grid.weights.reshape(-1)
    return A


@pytest.mark.parametrize("kind", ["2-torus", "3-torus", "3-box"])
def test_bordered_solve_meets_its_tolerance_and_matches_a_dense_solve(kind):
    grid, apply_fn, _, rhs, c = _bordered_case(kind)
    rtol = 1e-12
    x, mu, info = hjb.bordered_solve(grid, apply_fn, hjb._inverter_for(grid), rhs, c, rtol)
    assert info == 0
    A = _dense_bordered(grid, apply_fn)
    b = np.concatenate([rhs.reshape(-1), [c]])
    sol = np.concatenate([x.reshape(-1), [mu]])
    assert np.linalg.norm(b - A @ sol) <= rtol * np.linalg.norm(b)
    assert np.max(np.abs(sol - np.linalg.solve(A, b))) <= 1e-8


def test_small_advection_dominated_system_converges_in_one_cycle():
    # 65 unknowns at mesh Peclet number 38: one cycle of at most n + 1
    # iterations spans the whole space, so no restart is needed
    grid = torus(8, dim=2)
    apply_fn, calls, rhs, c = _advected_case(grid, 38.0)
    rtol = 1e-10
    x, mu, info = hjb.bordered_solve(grid, apply_fn, hjb._inverter_for(grid), rhs, c, rtol)
    assert info == 0
    assert len(calls) <= grid.weights.size + 2  # n + 1 iterations, then the true residual
    A = _dense_bordered(grid, apply_fn)
    b = np.concatenate([rhs.reshape(-1), [c]])
    sol = np.concatenate([x.reshape(-1), [mu]])
    assert np.linalg.norm(b - A @ sol) <= rtol * np.linalg.norm(b)


def test_restarts_do_not_stagnate_at_a_moderate_peclet_number():
    # scipy's GMRES(80) solved this in 4037 iterations; a restart after 80
    # iterations stagnated here short of the budget
    grid = box(17, dim=2)
    apply_fn, calls, rhs, c = _advected_case(grid, 10.0)
    _, _, info = hjb.bordered_solve(grid, apply_fn, hjb._inverter_for(grid), rhs, c, 1e-10)
    assert info == 0
    assert len(calls) <= 2 * hjb._RESTART


def test_bordered_solve_converges_across_restarts(monkeypatch):
    monkeypatch.setattr(hjb, "_RESTART", 5)
    grid, apply_fn, calls, rhs, c = _bordered_case("3-torus")
    rtol = 1e-10
    x, mu, info = hjb.bordered_solve(grid, apply_fn, hjb._inverter_for(grid), rhs, c, rtol)
    assert info == 0
    assert len(calls) > 2 * (5 + 1)  # at least three cycles of 5 plus a residual each
    A = _dense_bordered(grid, apply_fn)
    b = np.concatenate([rhs.reshape(-1), [c]])
    sol = np.concatenate([x.reshape(-1), [mu]])
    assert np.linalg.norm(b - A @ sol) <= rtol * np.linalg.norm(b)


def _stop_reason(info):
    """(stop, residual reached, target) named by a failed solve's info."""
    assert isinstance(info, hjb.KrylovFailure)
    stop, reached, target = re.fullmatch(r"(.+) at (\S+) against target (\S+)", info.reason).groups()
    return stop, float(reached), float(target)


def test_bordered_solve_stops_at_its_iteration_budget(monkeypatch):
    # an advected case with the flat inverse, whose first cycle needs more
    # than ten steps; the reason names the true residual at the returned
    # iterate and the target rtol ||b||, both to the three digits it prints
    monkeypatch.setattr(hjb, "_MAX_ITERATIONS", 10)
    grid, apply_fn, calls, rhs, c = _bordered_case("3-torus")
    x, mu, info = hjb.bordered_solve(grid, apply_fn, hjb._inverter_for(grid), rhs, c, 1e-14)
    assert info == 10
    assert len(calls) == 10 + 1  # ten iterations, then the true residual
    A = _dense_bordered(grid, apply_fn)
    b = np.concatenate([rhs.reshape(-1), [c]])
    stop, reached, target = _stop_reason(info)
    assert stop == "iteration budget spent"
    assert reached == pytest.approx(np.linalg.norm(b - A @ np.append(x, mu)), rel=5e-3)
    assert target == pytest.approx(1e-14 * np.linalg.norm(b), rel=5e-3)
    assert reached > target


def test_bordered_solve_stops_on_an_invariant_krylov_space():
    # R = -L makes A = L + R zero on the fields.  The checkerboard is the
    # Nyquist mode of the 8^2 torus, where the transforms and the stencil
    # are exact in binary: with c = 0, M v_0 = (v_0 / lambda, 0) with zero
    # mean and R M v_0 = -v_0, so A M v_0 = 0 exactly.  The first Arnoldi
    # step drops its column and updates nothing, and the solve stops at
    # x = 0 with the residual ||b||.
    grid = torus(8, dim=2)
    rhs = (-1.0) ** np.indices(grid.shape).sum(axis=0)
    x, mu, info = hjb.bordered_solve(grid, hjb._ops_for(grid).lap_flat, hjb._inverter_for(grid), rhs, 0.0, 1e-10)
    assert info == 1
    assert not np.any(x) and mu == 0.0
    stop, reached, target = _stop_reason(info)
    assert stop == "Krylov space invariant"
    assert reached == pytest.approx(np.linalg.norm(rhs), rel=5e-3)
    assert target == pytest.approx(1e-10 * np.linalg.norm(rhs), rel=5e-3)


@pytest.mark.parametrize("n, dim", [(8, 3), (12, 2), (16, 3)])
def test_bordered_solve_drops_a_round_off_column(n, dim):
    # R = -L again, now with a random zero-mean field: A M v_0 is not zero
    # in binary but round-off of the transforms, a few eps of ||v_0||.
    # The first Arnoldi step drops that column as it would a zero one,
    # instead of solving against it for an x of order 1/eps.
    grid = torus(n, dim=dim)
    rhs = np.random.default_rng(0).normal(size=grid.shape)
    rhs -= rhs.mean()
    x, mu, info = hjb.bordered_solve(grid, hjb._ops_for(grid).lap_flat, hjb._inverter_for(grid), rhs, 0.0, 1e-10)
    assert info == 1
    assert not np.any(x) and mu == 0.0
    stop, reached, _ = _stop_reason(info)
    assert stop == "Krylov space invariant"
    assert reached == pytest.approx(np.linalg.norm(rhs), rel=5e-3)


def test_singular_bordered_system_fails_fast():
    grid = torus(16, dim=3)
    rhs = np.random.default_rng(6).normal(size=grid.shape)  # not a constant: outside the range
    t0 = time.perf_counter()
    # R = Lap_flat cancels L = -Lap_flat, so A = 0
    _, _, info = hjb.bordered_solve(
        grid, hjb._ops_for(grid).lap_flat, hjb._inverter_for(grid), rhs, 0.0, 1e-10
    )
    assert info != 0
    assert 0 < info <= hjb._MAX_ITERATIONS
    assert time.perf_counter() - t0 < 1.0


def _full_jacobian(ops, x, coeff):
    return -ops.lap_metric(x) + np.sum(coeff * ops.grad(x), axis=0)


def _solver_matrices(grid, a):
    """The solver's first- and second-derivative matrices along axis a."""
    bc = "periodic" if grid.periodic[a] else "mirror"
    n, h = grid.shape[a], grid.spacings[a]
    return d1_matrix(n, h, bc), d2_matrix(n, h, bc)


def _full_density_operator(ops, m, coeff):
    w = ops.grid.weights
    out = np.zeros(m.shape)
    for a in range(ops.naxes):
        d1, d2 = _solver_matrices(ops.grid, a)
        out -= csr_along_axis(d2.T.tocsr(), w * m, a)
        out += csr_along_axis(d1.T.tocsr(), coeff[a] * w * m, a)
    return out / w


@pytest.mark.parametrize("kind", list(_GRIDS))
def test_preconditioned_step_equals_the_full_bordered_operator(kind):
    # A M v = v + [R M v; 0], because M inverts the bordered L exactly
    grid = _GRIDS[kind]()
    ops = hjb._ops_for(grid)
    inv = hjb._inverter_for(grid)
    rng = np.random.default_rng(12)
    coeff = hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), 0.3 * rng.normal(size=grid.shape))
    v = rng.normal(size=grid.shape)
    vc = float(rng.normal())
    x, mu = inv.solve(v, vc)
    # R takes the Jacobian's first-order coefficient, the oracle the transport coefficient
    b = coeff if grid.is_flat else coeff - ops.conformal_drift
    pairs = [(ops.jacobian_rest, b, _full_jacobian)]
    if grid.is_flat:
        pairs.append((ops.adjoint_rest, coeff, _full_density_operator))
    for rest, rest_coeff, full in pairs:
        step = np.concatenate([(v + rest(x, rest_coeff)).reshape(-1), [vc]])
        want = np.concatenate([(full(ops, x, coeff) + mu).reshape(-1), [np.sum(grid.weights * x)]])
        assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want), rest.__name__


def _one_axis_coefficient(grid, axis):
    """The gamma = 3 transport coefficient of a field that varies along
    `axis` only: its one nonzero component b_a varies along a only."""
    x = grid.mesh()[axis] / grid.domain.extents[axis]
    u = 1.5 * np.cos(TWO_PI * x) + 0.5 * np.sin(2.0 * TWO_PI * x)
    if not grid.periodic[axis]:
        u = 1.5 * np.cos(np.pi * x) + 0.5 * np.cos(2.0 * np.pi * x)
    return hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), u)


def _along(grid, axis, mat):
    """The dense matrix of the 1-D matrix mat applied along one axis."""
    out = np.ones((1, 1))
    for b, n in enumerate(grid.shape):
        out = np.kron(out, mat if b == axis else np.eye(n))
    return out


def _dense_operators(grid, coeff, axis, abar):
    """Oracle matrices from the CSR stencils: L = -sum_a D2_a; the value
    Jacobian L + sum_a diag(b_a) D_a and its quadrature adjoint
    L + W^{-1} sum_a D_a^T diag(b_a) W; the line mean P_a, which averages
    over the other axes with their 1-D weights; and the line terms C P_a,
    abar D_a P_a and W^{-1} D_a^T abar W P_a."""
    w = grid.weights.reshape(-1)
    d = len(grid.shape)
    L = -sum(_along(grid, a, _solver_matrices(grid, a)[1].toarray()) for a in range(d))
    value, adjoint = L.copy(), L.copy()
    for a in range(d):
        d1 = _along(grid, a, _solver_matrices(grid, a)[0].toarray())
        value += coeff[a].reshape(-1)[:, None] * d1
        adjoint += (d1.T * (coeff[a].reshape(-1) * w)) / w[:, None]
    P = np.ones((1, 1))
    for b, n in enumerate(grid.shape):
        if b == axis:
            P = np.kron(P, np.eye(n))
        else:
            wb = grid.weights[tuple(slice(None) if c == b else 0 for c in range(d))]
            P = np.kron(P, np.tile(wb / np.sum(wb), (n, 1)))
    shape = [1] * d
    shape[axis] = grid.shape[axis]
    bar = np.broadcast_to(abar.reshape(shape), grid.shape).reshape(-1)
    d1 = _along(grid, axis, _solver_matrices(grid, axis)[0].toarray())
    line_value = bar[:, None] * d1 @ P
    line_adjoint = (d1.T * (bar * w)) / w[:, None] @ P
    return L, value, adjoint, P, line_value, line_adjoint


def _bordered(grid, op):
    n = op.shape[0]
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = op
    A[:n, n] = 1.0
    A[n, :n] = grid.weights.reshape(-1)
    return A


def _dense_preconditioner(grid, M):
    n = int(np.prod(grid.shape))
    out = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        e = np.zeros(n + 1)
        e[k] = 1.0
        x, mu = M.solve(e[:n].reshape(grid.shape), e[n])
        out[:n, k] = x.reshape(-1)
        out[n, k] = mu
    return out


_LINE_GRIDS = {
    "2-torus": lambda: torus(10, dim=2),
    "3-torus": lambda: torus(8, dim=3),
    "2-box": lambda: box(9, dim=2),
    "3-box": lambda: box(8, dim=3),
}


@pytest.mark.parametrize("kind", list(_LINE_GRIDS))
def test_line_preconditioner_inverts_the_one_axis_operator(kind):
    # For a coefficient along axis a only, M is the exact bordered inverse
    # of L + C P_a, on every axis, for the Jacobian and its adjoint; on the
    # line functions that operator is the full Jacobian (density operator).
    grid = _LINE_GRIDS[kind]()
    n = int(np.prod(grid.shape))
    lines = np.zeros((n + 1, n + 1))
    lines[n, n] = 1.0
    for axis in range(len(grid.shape)):
        coeff = _one_axis_coefficient(grid, axis)
        abar = hjb._lines_for(grid)[axis].mean(coeff[axis])
        L, value, adjoint, lines[:n, :n], line_value, line_adjoint = _dense_operators(grid, coeff, axis, abar)
        for adj, line_op, full in ((False, line_value, value), (True, line_adjoint, adjoint)):
            M = hjb._preconditioner(grid, coeff, adjoint=adj)
            assert isinstance(M, hjb._AxisLine) and M.line.axis == axis
            Mdense = _dense_preconditioner(grid, M)
            assert np.max(np.abs(Mdense @ _bordered(grid, L + line_op) - np.eye(n + 1))) <= 1e-12, (axis, adj)
            # on the line functions and the multiplier, M inverts the operator itself
            assert np.max(np.abs((Mdense @ _bordered(grid, full) - np.eye(n + 1)) @ lines)) <= 1e-12, (axis, adj)


@pytest.mark.parametrize("kind", ["3-torus", "3-box"])
def test_line_corrected_step_equals_the_full_bordered_operator(kind):
    # A M v = v + [R M v - C P_a M v; 0] is the full bordered operator applied
    # to M v, for a coefficient that varies along every axis
    grid = _GRIDS[kind]()
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(12)
    coeff = hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), 0.3 * rng.normal(size=grid.shape))
    v = rng.normal(size=int(np.prod(grid.shape)) + 1)
    pairs = ((ops.jacobian_rest, _full_jacobian, False), (ops.adjoint_rest, _full_density_operator, True))
    for line in hjb._lines_for(grid):
        for rest, full, adjoint in pairs:
            M = hjb._AxisLine(hjb._inverter_for(grid), line, line.mean(coeff[line.axis]), adjoint)
            step, mv = np.empty_like(v), np.empty_like(v)
            hjb._arnoldi_product(M, lambda x, out: rest(x, coeff, out), grid.shape, v, step, mv)
            x, mu = mv[:-1].reshape(grid.shape), mv[-1]
            want = np.concatenate([(full(ops, x, coeff) + mu).reshape(-1), [np.sum(grid.weights * x)]])
            assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want), (line.axis, rest.__name__)


def test_line_correction_runs_only_where_one_line_carries_nearly_all_the_energy():
    grid = torus(12, dim=3)
    x, y, z = grid.mesh()
    zero = np.zeros(grid.shape)
    # along y only: rho = 1
    M = hjb._preconditioner(grid, np.stack([zero, np.cos(TWO_PI * y), zero]))
    assert isinstance(M, hjb._AxisLine) and M.line.axis == 1
    # constant along no axis: P_a b_a = 0 for both components, rho = 0
    diagonal = np.cos(TWO_PI * (x + y))
    assert hjb._preconditioner(grid, np.stack([diagonal, diagonal, zero])) is hjb._inverter_for(grid)
    # the x line carries 1/(1 + s^2) of the energy: 0.992 at s = 0.09, above
    # the gate's 0.99, and 0.986 at s = 0.12 and 0.55 at s = 0.9, below it
    M = hjb._preconditioner(grid, np.stack([np.cos(TWO_PI * x), 0.09 * np.cos(TWO_PI * z), zero]))
    assert isinstance(M, hjb._AxisLine) and M.line.axis == 0
    for s in (0.12, 0.9):
        b = np.stack([np.cos(TWO_PI * x), s * np.cos(TWO_PI * z), zero])
        assert hjb._preconditioner(grid, b) is hjb._inverter_for(grid), s
    # a zero coefficient passes the gate (0 >= 0.99 * 0): axis 0's line, abar = 0
    M = hjb._preconditioner(grid, np.zeros((3,) + grid.shape))
    assert isinstance(M, hjb._AxisLine) and M.line.axis == 0 and not np.any(M.C)
    conformal = _conformal_torus()
    b = np.stack([np.cos(TWO_PI * conformal.mesh()[0]), zero[:8, :8, :8], zero[:8, :8, :8]])
    assert hjb._preconditioner(conformal, b) is hjb._inverter_for(conformal)


@pytest.mark.parametrize("kind", ["2-torus", "3-torus", "3-box"])
def test_an_invariant_cycle_that_halved_the_residual_restarts(monkeypatch, kind):
    # A raised invariance threshold ends each cycle as "Krylov space
    # invariant" after a step or two, with the true residual still above the
    # tolerance but falling.  Each such cycle restarts from it, as a full
    # cycle does, and the solve converges to the dense solution.
    monkeypatch.setattr(hjb, "_INVARIANCE_TOL", 0.2)
    grid, apply_fn, calls, rhs, c = _bordered_case(kind)
    rtol = 1e-10
    x, mu, info = hjb.bordered_solve(grid, apply_fn, hjb._inverter_for(grid), rhs, c, rtol)
    assert info == 0
    A = _dense_bordered(grid, apply_fn)
    b = np.concatenate([rhs.reshape(-1), [c]])
    sol = np.concatenate([x.reshape(-1), [mu]])
    assert np.linalg.norm(b - A @ sol) <= rtol * np.linalg.norm(b)


def _call_sequence(monkeypatch, grid, apply_fn, rhs, c, rtol):
    """The solve's L, M and R applies in order, as one string."""
    inv = hjb._inverter_for(grid)
    events = []

    def spy(name, fn):
        def wrapped(*args):
            events.append(name)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(inv, "apply", spy("L", inv.apply))
    monkeypatch.setattr(inv, "solve", spy("M", inv.solve))
    _, _, info = hjb.bordered_solve(grid, spy("R", apply_fn), inv, rhs, c, rtol)
    assert info == 0
    return "".join(events)


def test_a_short_cycle_ends_with_one_preconditioner_apply(monkeypatch):
    # weak advection: one cycle of a few Arnoldi steps M R, then the update
    # x += M (V y) and the true residual L + R
    grid = torus(8, dim=3)
    apply_fn, _, rhs, c = _advected_case(grid, 0.05)
    seq = _call_sequence(monkeypatch, grid, apply_fn, rhs, c, 1e-10)
    assert re.fullmatch(r"(?:MR)+MLR", seq), seq
    assert 3 <= seq.count("MR") <= 8


@pytest.mark.parametrize("restart", [5, 8])
def test_every_cycle_ends_with_one_preconditioner_apply(monkeypatch, restart):
    # Short restarts split the solve into several full cycles, and each ends
    # with x += M (V y), one M apply, whatever its length.
    monkeypatch.setattr(hjb, "_RESTART", restart)
    grid, apply_fn, _, rhs, c = _bordered_case("3-torus")
    seq = _call_sequence(monkeypatch, grid, apply_fn, rhs, c, 1e-10)
    assert re.fullmatch(r"(?:(?:MR)+MLR)+", seq), seq
    assert len(re.findall(r"(?:MR)+MLR", seq)) >= 3


def test_a_cycle_writes_no_basis_row_past_its_steps(monkeypatch):
    # The basis comes NaN-filled.  A cycle of k Arnoldi steps writes
    # v_0 ... v_k into rows 0 ... k, and each step's M v_j goes elsewhere,
    # so rows k + 1 ... m stay as they were allocated.
    grid = torus(8, dim=3)
    apply_fn, calls, rhs, c = _advected_case(grid, 0.05)
    inv = hjb._inverter_for(grid)
    empty = np.empty
    bases = []

    def nan_filled(shape, *args, **kwargs):
        out = empty(shape, *args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
            if out.ndim == 2:
                bases.append(out)
        return out

    monkeypatch.setattr(hjb.np, "empty", nan_filled)
    _, _, info = hjb.bordered_solve(grid, apply_fn, inv, rhs, c, 1e-10)
    monkeypatch.undo()
    assert info == 0
    (V,) = bases
    k = len(calls) - 1  # the last R apply is the true residual
    assert V.shape == (hjb._RESTART + 1, rhs.size + 1) and k >= 3
    assert np.isfinite(V[: k + 1]).all()
    assert np.isnan(V[k + 1 :]).all()


def _counting_inverter(monkeypatch, grid):
    inv = hjb._inverter_for(grid)
    solves = []
    orig = inv.solve

    def spy(*args):
        solves.append(1)
        return orig(*args)

    monkeypatch.setattr(inv, "solve", spy)
    return inv, solves


@pytest.mark.parametrize("kind", ["2-torus", "3-torus", "3-box"])
def test_bordered_solve_started_at_its_solution_returns_at_once(monkeypatch, kind):
    grid, apply_fn, calls, rhs, c = _bordered_case(kind)
    A = _dense_bordered(grid, apply_fn)
    b = np.concatenate([rhs.reshape(-1), [c]])
    sol = np.linalg.solve(A, b)
    inv, solves = _counting_inverter(monkeypatch, grid)
    calls.clear()
    x, mu, info = hjb.bordered_solve(
        grid, apply_fn, inv, rhs, c, 1e-10, (sol[:-1].reshape(grid.shape), sol[-1])
    )
    assert info == 0
    assert len(calls) == 1 and not solves  # the true residual b - A x0, and nothing else
    assert np.array_equal(np.concatenate([x.reshape(-1), [mu]]), sol)


@pytest.mark.parametrize("kind", ["2-torus", "3-torus", "3-box"])
def test_bordered_solve_of_a_zero_right_hand_side_returns_zeros_at_once(monkeypatch, kind):
    grid, apply_fn, calls, _, _ = _bordered_case(kind)
    inv, solves = _counting_inverter(monkeypatch, grid)
    calls.clear()
    x, mu, info = hjb.bordered_solve(grid, apply_fn, inv, np.zeros(grid.shape), 0.0, 1e-10)
    assert info == 0 and mu == 0.0
    assert not calls and not solves  # no R apply and no preconditioner apply
    assert x.shape == grid.shape and not np.any(x)


@pytest.mark.parametrize("kind", ["2-torus", "3-torus", "3-box"])
def test_bordered_solve_from_a_near_start_meets_the_same_bound_in_fewer_applies(monkeypatch, kind):
    grid, apply_fn, calls, rhs, c = _bordered_case(kind)
    rtol = 1e-12
    A = _dense_bordered(grid, apply_fn)
    b = np.concatenate([rhs.reshape(-1), [c]])
    sol = np.linalg.solve(A, b)
    # 1e-3 relative along the solution: the start's residual is 1e-3 b, so a
    # test relative to that residual instead of b would need the cold count
    start = sol * (1.0 + 1e-3)
    inv, _ = _counting_inverter(monkeypatch, grid)
    calls.clear()
    cold = hjb.bordered_solve(grid, apply_fn, inv, rhs, c, rtol)
    cold_applies = len(calls)
    calls.clear()
    x, mu, info = hjb.bordered_solve(
        grid, apply_fn, inv, rhs, c, rtol, (start[:-1].reshape(grid.shape), start[-1])
    )
    assert info == 0 and cold[2] == 0
    warm = np.concatenate([x.reshape(-1), [mu]])
    # judged on ||b||, like the cold solve, not on the start's residual
    assert np.linalg.norm(b - A @ warm) <= rtol * np.linalg.norm(b)
    assert np.max(np.abs(warm - np.concatenate([cold[0].reshape(-1), [cold[1]]]))) <= 1e-8
    assert len(calls) < cold_applies


def test_newton_step_near_convergence_solves_only_as_tightly_as_the_stop_needs(monkeypatch):
    # u* solves the gamma = 3 equation with the source it induces, lam = 0;
    # the start lies off it along a smooth direction, at ||F|| = 3 residual_tol
    grid = torus(16, dim=3)
    mesh = grid.mesh()
    ustar = 0.6 * (np.cos(TWO_PI * mesh[0]) + 0.5 * np.sin(TWO_PI * (mesh[0] + mesh[1])))
    ustar -= float(np.sum(grid.weights * ustar)) / grid.vol
    spec = ProblemSpec(
        grid, gamma=3.0, source=residual(ScalarField(grid, ustar), ProblemSpec(grid, gamma=3.0)), ergodic=True
    )
    tol = hjb.SolverConfig().residual_tol
    pert = np.cos(TWO_PI * (mesh[1] - mesh[0])) + 0.5 * np.sin(2.0 * TWO_PI * mesh[2])

    def weighted_residual(v):
        return float(np.sqrt(np.sum(grid.weights * residual(ScalarField(grid, v), spec).values ** 2)))

    start = ustar + 3.0 * tol / weighted_residual(ustar + 1e-6 * pert) * 1e-6 * pert
    assert 2.5 * tol <= weighted_residual(start) <= 3.5 * tol
    calls = []
    rest = hjb._Ops.jacobian_rest

    def spy(self, *args):
        calls.append(1)
        return rest(self, *args)

    monkeypatch.setattr(hjb._Ops, "jacobian_rest", spy)
    rep = solve(spec, hjb.SolverConfig(initial_guess=ScalarField(grid, start)))
    assert rep.converged and rep.iterations == 1
    assert rep.residual <= tol
    # one R apply per Arnoldi step and one for the true residual; the
    # unsafeguarded rtol of 1e-2 took 7 steps here
    assert len(calls) - 1 <= 5


def test_failed_krylov_solve_names_its_reason_in_the_newton_message(monkeypatch):
    def stalled(grid, apply_fn, inv, rhs_field, rhs_constraint, rtol):
        return np.zeros(grid.shape), 0.0, hjb.KrylovFailure(3, "true residual stalled at 2e-10 against target 1e-10")

    monkeypatch.setattr(hjb, "bordered_solve", stalled)
    rep = solve_ergodic(_source_spec())
    assert not rep.converged
    assert rep.message == (
        "linear solve failed at Newton step 1 (GMRES info 3): "
        "true residual stalled at 2e-10 against target 1e-10"
    )


def test_newton_forms_one_gradient_per_residual_bit_for_bit(monkeypatch):
    grid = torus(10, dim=3)
    mesh = grid.mesh()
    spec = ProblemSpec(
        grid, gamma=3.0, source=ScalarField(grid, 30.0 * np.cos(TWO_PI * mesh[0]) * np.cos(TWO_PI * mesh[1])),
        ergodic=True,
    )
    # the same solve, with every transport coefficient formed from scratch
    tc = hjb.transport_coefficient
    monkeypatch.setattr(
        hjb, "transport_coefficient", lambda sp, uvals, dvals=None, out=None, sq=None: tc(sp, uvals, None, out)
    )
    ref = solve(spec)
    monkeypatch.undo()

    counts = {"grad": 0, "residual": 0, "grad_in_coefficient": 0}
    grad, core = hjb._Ops.grad, hjb._residual_core
    inside = []

    def grad_spy(self, vals, *out):
        counts["grad"] += 1
        counts["grad_in_coefficient"] += bool(inside)
        return grad(self, vals, *out)

    def core_spy(*args):
        counts["residual"] += 1
        return core(*args)

    def coefficient_spy(*args):
        inside.append(1)
        try:
            return tc(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(hjb._Ops, "grad", grad_spy)
    monkeypatch.setattr(hjb, "_residual_core", core_spy)
    monkeypatch.setattr(hjb, "transport_coefficient", coefficient_spy)
    rep = solve(spec)
    assert rep.converged and rep.iterations >= 3
    assert counts["grad"] == counts["residual"]
    assert counts["grad_in_coefficient"] == 0
    assert np.array_equal(rep.u.values, ref.u.values) and rep.lam == ref.lam


# One-axis data on a 48^3 torus: the exact solution is constant along axes
# 1 and 2.  Rounding that depends on the lattice position, as a threaded BLAS
# product's does, shows as spread along those axes (about 2e-20 for the first
# two).  The first two solves run cycles of many Arnoldi steps, the third
# one cycle of a few, a weakly advected solve; each ends its cycles with
# x += M (V y).  Each line prints info and the spread.
ONE_AXIS_SOLVES = """
import sys
import numpy as np
from hjblab import hjb
from hjblab.geometry import DomainSpec, build_grid

grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(48,)))
x = grid.mesh()[0]
ops = hjb._ops_for(grid)
for gamma, amp in ((2.0, 1000.0), (3.0, 10.0), (2.0, 0.01)):
    u = amp * (np.cos(2.0 * np.pi * x) + 0.1 * np.sin(4.0 * np.pi * x))
    coeff = hjb.transport_coefficient(hjb.ProblemSpec(grid, gamma=gamma), u)

    def apply_fn(z, out):
        return ops.jacobian_rest(z, coeff, out)

    v, mu, info = hjb.bordered_solve(
        grid, apply_fn, hjb._inverter_for(grid),
        np.cos(2.0 * np.pi * x) + np.sin(6.0 * np.pi * x), 0.0, 1e-10,
    )
    print(info, float(np.max(np.ptp(v, axis=(1, 2)))))
"""


def test_krylov_update_keeps_one_axis_symmetry_under_threaded_blas():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "2"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", ONE_AXIS_SOLVES], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        info, spread = line.split()
        assert int(info) == 0
        assert float(spread) == 0.0, line


# Ergodic solves on a 24^3 torus, whose bordered systems have 13 825
# unknowns: above the 10 000 elements from which OpenBLAS splits a dot
# product across its threads.  The first datum varies along every axis
# (flat preconditioner, several Arnoldi steps), the second along one (the
# axis line solved exactly).
THREAD_COUNT_SOLVES = """
import hashlib
import numpy as np
from hjblab import hjb
from hjblab.fields import ScalarField
from hjblab.geometry import DomainSpec, build_grid

grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(24,)))
x, y, z = grid.mesh()
tp = 2.0 * np.pi
for shift in (3.0 * np.cos(tp * x) * np.sin(tp * (y + 2.0 * z)) + np.cos(tp * z), 2.0 * np.cos(tp * y)):
    rep = hjb.solve_ergodic(hjb.ProblemSpec(grid, gamma=3.0, shift=ScalarField(grid, shift), ergodic=True))
    print(rep.converged, repr(rep.lam), hashlib.sha256(rep.u.values.tobytes()).hexdigest())
"""


def test_solves_are_the_same_under_one_and_two_blas_threads():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = threads
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_COUNT_SOLVES], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("True") == 2, outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_flat_inverter_takes_its_mean_from_the_zero_mode_bit_for_bit(kind):
    grid = torus(12, dim=3) if kind == "torus" else box(11, dim=3)
    inv = hjb._inverter_for(grid)
    rng = np.random.default_rng(13)
    r1, r2 = rng.normal(size=grid.shape), rng.normal(size=grid.shape)
    h = grid.spacings[0]
    # the zero mode is sum w r / zero_weight; mu divides it by the zero mode of 1
    if kind == "torus":
        rhat = sfft.rfftn(r1)
        mu = float(rhat[0, 0, 0].real) / 12**3
        rhat *= inv.inv_sym
        rhat[0, 0, 0] = 0.4 / (h * h * h)
        x = sfft.irfftn(rhat, s=grid.shape)
    else:
        rhat = sfft.dctn(r1, type=1)
        mu = float(rhat[0, 0, 0]) / (2 * 10) ** 3
        rhat *= inv.inv_sym
        rhat[0, 0, 0] = 0.4 / ((h / 2.0) * (h / 2.0) * (h / 2.0))
        x = sfft.idctn(rhat, type=1)
    r1_copy = r1.copy()
    got, got_mu = inv.solve(r1, 0.4)
    assert got_mu == mu
    assert np.array_equal(got, x)
    assert np.array_equal(r1, r1_copy)
    kept = got.copy()
    inv.solve(r2, -1.0)
    assert np.array_equal(got, kept)


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_flat_inverter_keeps_only_its_inverse_symbol_and_spectrum(kind):
    # the symbol is half a field on tori and a whole one on boxes, and
    # nothing reads it once its inverse is formed
    grid = torus(12, dim=3) if kind == "torus" else box(11, dim=3)
    inv = hjb._FlatInverter(grid)
    arrays = {name for name, v in vars(inv).items() if isinstance(v, np.ndarray) and v is not grid.weights}
    assert arrays == {"inv_sym", "spectrum"}


@pytest.mark.parametrize("kind", list(_GRIDS) + ["2-box"])
def test_flat_inverter_solves_the_bordered_laplacian(kind):
    # oracle: the forward stencil L and the quadrature weights, no transforms
    grid = box(10, dim=2) if kind == "2-box" else _GRIDS[kind]()
    inv = hjb._inverter_for(grid)
    rng = np.random.default_rng(21)
    r = rng.normal(size=grid.shape)
    r_copy = r.copy()
    c = 0.7
    x, mu = inv.solve(r, c)
    assert np.linalg.norm(inv.apply(x) + mu - r) <= 1e-12 * np.linalg.norm(r)
    assert abs(float(np.sum(grid.weights * x)) - c) <= 1e-12 * abs(c)
    assert np.array_equal(r, r_copy)
    x2, _ = inv.solve(r, c)
    assert not np.shares_memory(x, x2) and not np.shares_memory(x, r)
    assert np.array_equal(x, x2)


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_flat_hot_path_allocates_less_than_one_field(kind):
    # R into a Krylov basis row, the adjoint, the residual, the coefficient,
    # the preconditioner, with its line correction or without, and the
    # corrected Arnoldi product each write into given arrays and keep their
    # temporaries in the grid's work arrays, allocated by the first call
    grid = torus(16, dim=3) if kind == "torus" else box(17, dim=3)
    ops, inv = hjb._ops_for(grid), hjb._inverter_for(grid)
    rng = np.random.default_rng(29)
    u = rng.normal(size=grid.shape)
    spec = ProblemSpec(
        grid,
        gamma=3.0,
        drift=VectorField(grid, rng.normal(size=(3,) + grid.shape)),
        shift=ScalarField(grid, rng.normal(size=grid.shape)),
        source=ScalarField(grid, rng.normal(size=grid.shape)),
    )
    coeff = hjb.transport_coefficient(spec, u)
    row = np.empty(u.size + 1)
    field = row[:-1].reshape(grid.shape)
    res, dvals, coeff_out = np.empty(grid.shape), np.empty(coeff.shape), np.empty(coeff.shape)
    v, mv = np.empty(u.size + 1), np.empty(u.size + 1)
    v[:-1], v[-1] = u.reshape(-1), 0.5

    def rest(x, out):
        return ops.jacobian_rest(x, coeff, out)

    calls = {
        "jacobian_rest": lambda: ops.jacobian_rest(u, coeff, field),
        "adjoint_rest": lambda: ops.adjoint_rest(u, coeff, field),
        "_residual_core": lambda: hjb._residual_core(spec, ops, u, res, dvals),
        "transport_coefficient": lambda: hjb.transport_coefficient(spec, u, dvals, coeff_out),
        "preconditioner": lambda: inv.solve(u, 0.5, field),
    }
    for line in hjb._lines_for(grid):
        corrected = hjb._AxisLine(inv, line, line.mean(coeff[line.axis]), False)
        calls["line-corrected preconditioner, axis %d" % line.axis] = lambda M=corrected: M.solve(u, 0.5, field)
        calls["line-corrected A M v, axis %d" % line.axis] = lambda M=corrected: hjb._arnoldi_product(
            M, rest, grid.shape, v, row, mv
        )
    for name, call in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes, (name, peak)


def _traced_peak(call):
    """(call(), the peak of the memory it allocated, in bytes)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _spied_on(monkeypatch, M, events):
    """M with its L applies and preconditioner applies logged as "L" and "M"."""
    for attr, name in (("apply", "L"), ("solve", "M")):
        def wrapped(*args, _fn=getattr(M, attr), _name=name):
            events.append(_name)
            return _fn(*args)

        monkeypatch.setattr(M, attr, wrapped)
    return M


def test_one_richardson_step_bordered_solve_allocates_three_fields(monkeypatch):
    # One-axis data with the axis line solved exactly are solved by one
    # preconditioned Richardson step x = M b, which the true residual L + R
    # confirms: one M apply and one R apply, and no Krylov basis.  The solve
    # holds the residual, the true residual's L x and the solution x = M b,
    # and reads the right side from the caller's array; a bordered copy of
    # it would add a fourth field, and a basis of three rows three more.
    grid = torus(24, dim=3)
    x = grid.mesh()[0]
    ops = hjb._ops_for(grid)
    coeff = hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), 10.0 * np.cos(TWO_PI * x))
    events = []
    inv = _spied_on(monkeypatch, hjb._preconditioner(grid, coeff), events)
    assert isinstance(inv, hjb._AxisLine)

    def apply_fn(v, out):
        events.append("R")
        return ops.jacobian_rest(v, coeff, out)

    rhs = np.cos(TWO_PI * x) + np.sin(3.0 * TWO_PI * x)
    hjb.bordered_solve(grid, apply_fn, inv, rhs, 0.0, 1e-10)  # the grid's work arrays
    events.clear()
    (_, _, info), peak = _traced_peak(lambda: hjb.bordered_solve(grid, apply_fn, inv, rhs, 0.0, 1e-10))
    assert info == 0 and "".join(events) == "MLR"  # x = M b, then the true residual
    assert peak < 3.5 * rhs.nbytes, peak / rhs.nbytes


def _csr_bordered_jacobian(grid, coeff):
    """The bordered Newton Jacobian [[L + sum_a diag(b_a) D_a, 1], [w^T, 0]]
    of a flat torus, assembled from the CSR stencils."""
    import scipy.sparse as sp

    def along(axis, mat):
        out = sp.identity(1, format="csr")
        for b, n in enumerate(grid.shape):
            out = sp.kron(out, mat if b == axis else sp.identity(n), format="csr")
        return out

    n = grid.weights.size
    op = sp.csr_matrix((n, n))
    for a, (m, h) in enumerate(zip(grid.shape, grid.spacings)):
        op = op - along(a, d2_matrix(m, h, "periodic"))
        op = op + sp.diags(coeff[a].reshape(-1)) @ along(a, d1_matrix(m, h, "periodic"))
    return sp.bmat([[op, np.ones((n, 1))], [grid.weights.reshape(1, -1), None]], format="csc")


def test_a_richardson_step_that_falls_short_goes_on_with_gmres(monkeypatch):
    # Data nearly along x: the x line carries more than 0.99 of the
    # coefficient's energy, so M solves that line, but A M is not I.  The
    # step x = M b and its true residual leave the tolerance unmet, and
    # GMRES goes on from x in cycles of Arnoldi steps M R, each closed by
    # the update x += M (V y) and a true residual.
    # Starting with one Arnoldi step instead took 18 R applies here.
    import scipy.sparse.linalg as spla

    grid = torus(16, dim=3)
    x, y, z = grid.mesh()
    ops = hjb._ops_for(grid)
    u = np.cos(TWO_PI * x) + 0.05 * np.cos(TWO_PI * (y + z))
    coeff = hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), u)
    events = []
    inv = _spied_on(monkeypatch, hjb._preconditioner(grid, coeff), events)
    assert isinstance(inv, hjb._AxisLine)

    def apply_fn(v, out):
        events.append("R")
        return ops.jacobian_rest(v, coeff, out)

    rhs = np.cos(TWO_PI * x) + np.sin(3.0 * TWO_PI * x)
    rtol = 1e-10
    xs, mu, info = hjb.bordered_solve(grid, apply_fn, inv, rhs, 0.0, rtol)
    seq = "".join(events)
    assert info == 0
    assert re.fullmatch(r"MLR(?:(?:MR)+MLR)+", seq), seq
    assert seq.count("R") <= 18
    # oracle: a direct solve of the bordered matrix built from the stencils
    A = _csr_bordered_jacobian(grid, coeff)
    b = np.concatenate([rhs.reshape(-1), [0.0]])
    sol = np.concatenate([xs.reshape(-1), [mu]])
    assert np.linalg.norm(A @ sol - b) <= rtol * np.linalg.norm(b)
    want = spla.spsolve(A, b)
    assert np.max(np.abs(sol - want)) <= rtol * np.max(np.abs(want))


def test_a_long_first_cycle_allocates_the_basis_once(monkeypatch):
    # With the flat M on 3-D data the first cycle runs to the restart at
    # m = 20.  The basis is allocated once, m + 1 rows, and only a few
    # fields stand beside it.
    monkeypatch.setattr(hjb, "_RESTART", 20)
    grid = torus(16, dim=3)
    apply_fn, calls, rhs, c = _advected_case(grid)
    inv = hjb._inverter_for(grid)
    rtol = 1e-10
    hjb.bordered_solve(grid, apply_fn, inv, rhs, c, rtol)
    calls.clear()
    (x, mu, info), peak = _traced_peak(lambda: hjb.bordered_solve(grid, apply_fn, inv, rhs, c, rtol))
    assert info == 0 and len(calls) > 2 * (20 + 1)  # cycles of 20 steps, each with its true residual
    m, row = 20, (rhs.size + 1) * 8
    assert peak <= (m + 1) * row + 5 * rhs.nbytes, peak / row
    residual = np.concatenate([(inv.apply(x) + apply_fn(x) + mu - rhs).reshape(-1), [np.sum(grid.weights * x) - c]])
    b = np.concatenate([rhs.reshape(-1), [c]])
    assert np.linalg.norm(residual) <= rtol * np.linalg.norm(b)


@pytest.mark.parametrize("kind", ["torus", "box", "conformal-torus"])
def test_gamma_two_closed_forms_equal_the_powers_bit_for_bit(kind):
    # At gamma = 2 the residual skips |du|^2 ** 1.0 and the coefficient the
    # factor (|du|^2 + eps^2) ** 0.0 = 1.  Each equals the general power it
    # replaces, in value and in the sign of zero: the gradient of u is zero
    # along its constant axis, and the coefficient is also given a gradient
    # with zeros of both signs.
    grid = {"torus": lambda: torus(12, dim=3), "box": lambda: box(11, dim=3), "conformal-torus": _conformal_torus}[kind]()
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(37)
    x, y, _ = grid.mesh()
    u = np.cos(TWO_PI * x) + 0.5 * np.sin(TWO_PI * y)
    drift = VectorField(grid, rng.normal(size=(3,) + grid.shape))
    plain = ProblemSpec(grid, gamma=2.0)
    spec = ProblemSpec(
        grid,
        gamma=2.0,
        drift=drift,
        shift=ScalarField(grid, rng.normal(size=grid.shape)),
        source=ScalarField(grid, rng.normal(size=grid.shape)),
    )

    def same(got, want):
        return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    got, dvals = hjb._residual_core(spec, ops, u)
    want = np.negative(ops.lap_flat(u) if grid.is_flat else ops.lap_metric(u, ops.grad(u)))
    gn2 = ops.pairing(dvals, dvals)
    if not grid.is_flat:
        gn2 = grid.conformal_factor(-2.0) * gn2
    gn2 **= 1.0
    gn2 *= 0.5
    want += gn2
    want += ops.pairing(drift.values, dvals)
    want += spec.shift.values
    want -= spec.source.values
    assert same(got, want)

    signed = dvals.copy()
    signed[0, ::2] = 0.0
    signed[1, 1::2] = -0.0
    for problem in (plain, spec):
        for d in (dvals, signed):
            amp = ops.pairing(d, d)
            amp += hjb.EPS_REG**2
            amp **= 0.0
            if not grid.is_flat:
                amp = amp * grid.conformal_factor(-2.0)
            want = amp * d
            if problem.drift is not None:
                want += problem.drift.values
            assert same(hjb.transport_coefficient(problem, u, d), want)
    assert np.any(np.signbit(hjb.transport_coefficient(plain, u, signed)) & (signed == 0.0))


def test_conformal_r_apply_allocates_less_than_one_field():
    # R takes the Jacobian's first-order coefficient b, which the solve forms
    # once per Newton step, and forms its metric Laplacian in a work array
    grid = _conformal_torus(16)
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(29)
    u = rng.normal(size=grid.shape)
    b = hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), u) - ops.conformal_drift
    row = np.empty(u.size + 1)
    field = row[:-1].reshape(grid.shape)
    ops.jacobian_rest(u, b, field)
    tracemalloc.start()
    try:
        ops.jacobian_rest(u, b, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes, peak


def test_a_second_solve_leaves_the_first_reports_arrays_unchanged():
    # the report's u and gradient are the solve's own arrays; only the
    # operators' temporaries live in the grid's work arrays
    grid = torus(12, dim=3)
    mesh = grid.mesh()
    first = solve_ergodic(ProblemSpec(grid, gamma=3.0, source=ScalarField(grid, 20.0 * np.cos(TWO_PI * mesh[0])),
                                      ergodic=True))
    u, grad = first.u.values.copy(), first.gradient.copy()
    source = ScalarField(grid, 20.0 * np.sin(TWO_PI * (mesh[1] + mesh[2])))
    second = solve_ergodic(ProblemSpec(grid, gamma=3.0, source=source, ergodic=True),
                           hjb.SolverConfig(initial_guess=first.u))
    assert first.converged and second.converged and second.iterations >= 2
    assert not np.array_equal(second.u.values, u)
    assert np.array_equal(first.u.values, u) and np.array_equal(first.gradient, grad)
    work = hjb._ops_for(grid)._work
    for arr in (first.u.values, first.gradient, second.u.values, second.gradient):
        assert not any(np.shares_memory(arr, w) for w in work)
    assert not np.shares_memory(first.gradient, second.gradient)


def test_grid_is_collected_after_a_solve():
    grid = torus(12)
    ref = weakref.ref(grid)
    spec = ProblemSpec(grid, gamma=2.0, shift=first_mode_shift(grid), ergodic=True)
    assert solve_ergodic(spec).converged
    del grid, spec
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# named stops: a solve that cannot make progress says why


def _source_spec():
    grid = torus(12)
    mesh = grid.mesh()
    return ProblemSpec(
        grid, gamma=2.0, source=ScalarField(grid, np.cos(TWO_PI * mesh[0])), ergodic=True
    )


def _fake_bordered_solve(info):
    def fake(grid, apply_fn, inv, rhs_field, rhs_constraint, rtol):
        return np.zeros(grid.shape), 0.0, info

    return fake


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_flat_linearized_operator_equals_its_stacked_form_bit_for_bit(kind):
    grid = torus(12, dim=3) if kind == "torus" else box(11, dim=3)
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(8)
    vals = rng.normal(size=grid.shape)
    coeff = rng.normal(size=(3,) + grid.shape)
    dvals = ops.grad(vals)
    ref = -ops.lap_metric(vals, dvals)
    ref += np.sum(coeff * dvals, axis=0)
    assert np.array_equal(hjb._inverter_for(grid).apply(vals) + ops.jacobian_rest(vals, coeff), ref)


@pytest.mark.parametrize("kind", ["torus", "box"])
@pytest.mark.parametrize("dim", [2, 3])
def test_density_operator_is_the_weighted_adjoint_of_the_jacobian(kind, dim):
    grid = torus(12, dim=dim) if kind == "torus" else box(11, dim=dim)
    ops = hjb._ops_for(grid)
    rng = np.random.default_rng(11)
    u = rng.normal(size=grid.shape)
    coeff = hjb.transport_coefficient(ProblemSpec(grid, gamma=3.0), u)
    v = rng.normal(size=grid.shape)
    m = rng.normal(size=grid.shape)
    w = grid.weights
    inv = hjb._inverter_for(grid)
    jv = inv.apply(v) + ops.jacobian_rest(v, coeff)
    lhs = float(np.sum(w * m * jv))
    rhs = float(np.sum(w * v * (inv.apply(m) + ops.adjoint_rest(m, coeff))))
    # relative to the Cauchy-Schwarz bound of the pairing
    scale = float(np.sqrt(np.sum(w * jv**2) * np.sum(w * m**2)))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_failed_linear_solve_stops_newton(monkeypatch):
    spec = _source_spec()
    assert solve_ergodic(spec).converged
    monkeypatch.setattr(hjb, "bordered_solve", _fake_bordered_solve(info=1))
    rep = solve_ergodic(spec)
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.message == "linear solve failed at Newton step 1 (GMRES info 1)"


def test_overflowed_residual_norm_stops_newton_before_the_linear_solve(monkeypatch):
    # entries near 1e300 square to inf in the weighted norm, which would
    # leave GMRES a NaN target; the solver names it, so numpy warns of nothing
    spec = _source_spec()
    huge = ProblemSpec(spec.grid, gamma=2.0, source=ScalarField(spec.grid, 1e300 * spec.source.values), ergodic=True)

    def unreachable(*args):
        raise AssertionError("the linear solve ran on a non-finite residual")

    monkeypatch.setattr(hjb, "bordered_solve", unreachable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve_ergodic(huge)
    assert not rep.converged and rep.iterations == 0
    assert rep.message == "residual norm inf is not finite at Newton step 1"


def test_newton_budget_spent_short_of_the_tolerance_is_named():
    spec = _source_spec()
    assert solve_ergodic(spec).iterations > 1
    rep = solve_ergodic(spec, hjb.SolverConfig(max_iter=1))
    assert not rep.converged and rep.iterations == 1
    assert rep.residual > hjb.SolverConfig().residual_tol
    assert rep.message == "iteration budget exhausted"


def test_zero_newton_step_stops_at_the_backtracking_floor(monkeypatch):
    monkeypatch.setattr(hjb, "bordered_solve", _fake_bordered_solve(info=0))
    rep = solve_ergodic(_source_spec())
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.message == "stalled: backtracking floor reached"


def test_a_rejected_line_search_reports_the_gradient_of_the_last_iterate(monkeypatch):
    # The trials' gradients overwrite the iterate's own, so a search that
    # accepts nothing must form it again.  The multiplier step moves every
    # trial residual by at least 1e6 2^-20 ~ 0.95, so no trial is accepted.
    spec = _source_spec()
    grid = spec.grid
    start = solve_ergodic(spec).u.values + 1e-3 * np.sin(TWO_PI * grid.mesh()[1])
    rng = np.random.default_rng(31)

    def wild(grid, apply_fn, inv, rhs_field, rhs_constraint, rtol):
        return rng.normal(size=grid.shape), 1e6, 0

    monkeypatch.setattr(hjb, "bordered_solve", wild)
    rep = solve_ergodic(spec, hjb.SolverConfig(initial_guess=ScalarField(grid, start)))
    assert rep.message == "stalled: backtracking floor reached" and rep.iterations == 0
    shifted = start - float(np.sum(grid.weights * start)) / grid.vol
    assert np.array_equal(rep.gradient, hjb._ops_for(grid).grad(shifted))


def test_a_stalled_solve_hands_on_the_residual_of_its_iterate(monkeypatch):
    # The rejected trials overwrote the residual and |grad u|^2 too; the
    # solve forms them again at its iterate, so a solve resumed from the
    # stalled report starts where a fresh solve from its u starts
    spec = _source_spec()
    grid = spec.grid
    start = solve_ergodic(spec).u.values + 1e-3 * np.sin(TWO_PI * grid.mesh()[1])
    rng = np.random.default_rng(31)
    monkeypatch.setattr(hjb, "bordered_solve", lambda grid, *args: (rng.normal(size=grid.shape), 1e6, 0))
    stalled = solve_ergodic(spec, hjb.SolverConfig(initial_guess=ScalarField(grid, start)))
    monkeypatch.undo()
    assert stalled.message == "stalled: backtracking floor reached"
    fresh = solve_ergodic(spec, hjb.SolverConfig(initial_guess=stalled.u))
    resumed = solve_ergodic(spec, hjb.SolverConfig(initial_guess=stalled))
    assert fresh.converged and resumed.converged and resumed.iterations == fresh.iterations >= 1
    assert np.max(np.abs(resumed.u.values - fresh.u.values)) <= 1e-12 * np.max(np.abs(fresh.u.values))


# ---------------------------------------------------------------------------
# resumed solves: a report seeds the next solve of the same operator


def _resume_grid(kind):
    if kind == "torus":
        return torus(16, dim=3)
    if kind == "box":
        return box(17, dim=3)
    return build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(16,)),
        lambda c: 0.1 * np.cos(TWO_PI * c[0]) + 0.05 * np.sin(TWO_PI * (c[1] + c[2])),
    )


def _resume_specs(kind, change):
    """Two ergodic problems on one grid that differ in their source only:
    a sweep's t f and 3 t f (gamma = 3), or two outer iterations of a
    game, whose coupling source moves under a fixed shift (gamma = 2)."""
    grid = _resume_grid(kind)
    x, y, z = grid.mesh()
    f = 2.0 * np.cos(TWO_PI * x) + np.sin(TWO_PI * (y + z))
    if change == "sweep":
        return [ProblemSpec(grid, gamma=3.0, source=ScalarField(grid, t * f), ergodic=True) for t in (5.0, 15.0)]
    shift = first_mode_shift(grid, 0.5)
    coupling = 1.0 + 0.2 * np.cos(TWO_PI * y) * np.cos(TWO_PI * z)
    return [
        ProblemSpec(grid, gamma=2.0, shift=shift, source=ScalarField(grid, s), ergodic=True)
        for s in (coupling, coupling + 0.05 * np.sin(TWO_PI * x))
    ]


def _weighted(grid, vals):
    return float(np.sqrt(np.sum(grid.weights * vals**2)))


@pytest.mark.parametrize("change", ["sweep", "game"])
@pytest.mark.parametrize("kind", ["torus", "box", "conformal"])
def test_a_resumed_solve_takes_the_steps_of_a_fresh_solve_from_its_iterate(kind, change):
    first_spec, spec = _resume_specs(kind, change)
    first = solve_ergodic(first_spec)
    u = first.u.values.copy()
    fresh = solve_ergodic(spec, hjb.SolverConfig(initial_guess=first.u))
    resumed = solve_ergodic(spec, hjb.SolverConfig(initial_guess=first))
    assert first.converged and fresh.converged and resumed.converged
    assert resumed.iterations == fresh.iterations >= 2
    scale = float(np.max(np.abs(fresh.u.values)))
    assert float(np.max(np.abs(resumed.u.values - fresh.u.values))) <= 1e-12 * scale
    assert abs(resumed.lam - fresh.lam) <= 1e-12 * abs(fresh.lam)
    tol = hjb.SolverConfig().residual_tol
    assert _weighted(spec.grid, residual(resumed.u, spec, lam=resumed.lam).values) <= tol
    # the report keeps its u; it handed its gradient on with the rest
    assert np.array_equal(first.u.values, u) and first.gradient is None
    with pytest.raises(ValueError, match="seeds at most one resumed solve"):
        solve_ergodic(spec, hjb.SolverConfig(initial_guess=first))


def test_a_report_of_another_operator_is_rejected():
    first_spec, spec = _resume_specs("torus", "sweep")
    grid = spec.grid
    first = solve_ergodic(first_spec)
    other = torus(12, dim=3)
    others = {
        "grid": ProblemSpec(other, gamma=3.0, source=ScalarField(other, np.cos(TWO_PI * other.mesh()[0])),
                            ergodic=True),
        "gamma": ProblemSpec(grid, gamma=2.5, source=spec.source, ergodic=True),
        "drift": ProblemSpec(grid, gamma=3.0, source=spec.source, ergodic=True,
                             drift=VectorField(grid, 0.1 * np.ones((3,) + grid.shape))),
        "shift": ProblemSpec(grid, gamma=3.0, source=spec.source, ergodic=True, shift=first_mode_shift(grid)),
    }
    for name, wrong in others.items():
        with pytest.raises(ValueError, match="the " + name + " differs"):
            solve_ergodic(wrong, hjb.SolverConfig(initial_guess=first))
    # a rejected report keeps its state and still seeds a solve of its own operator
    assert first.gradient is not None
    assert solve_ergodic(spec, hjb.SolverConfig(initial_guess=first)).converged


@pytest.mark.parametrize("kind", ["torus", "conformal"])
def test_a_failed_linear_solve_reports_and_hands_on_its_iterate(monkeypatch, kind):
    # Newton step 1 formed its coefficient in the iterate's gradient and its
    # trials overwrote it; when step 2's linear solve fails, the solve forms
    # the residual, gradient and |grad u|^2 at its iterate again, so the
    # report describes that iterate and a solve resumed from it starts where
    # a fresh solve from its u starts
    spec = _resume_specs(kind, "sweep")[1]
    grid, ops = spec.grid, hjb._ops_for(spec.grid)
    real, calls = hjb.bordered_solve, []

    def failing_at_step_two(grid, *args):
        calls.append(1)
        if len(calls) == 2:
            return np.zeros(grid.shape), 0.0, hjb.KrylovFailure(7, "iteration budget spent")
        return real(grid, *args)

    monkeypatch.setattr(hjb, "bordered_solve", failing_at_step_two)
    failed = solve_ergodic(spec)
    monkeypatch.undo()
    assert failed.iterations == 1
    assert failed.message.startswith("linear solve failed at Newton step 2")
    carry = failed._carry
    assert np.array_equal(failed.gradient, ops.grad(carry.u))
    want = hjb._residual_core(spec, ops, carry.u)[0]
    want += failed.lam
    want -= failed.lam
    want += spec.source.values
    assert np.array_equal(carry.rest, want)
    assert np.array_equal(carry.sq, ops.pairing(failed.gradient, failed.gradient, np.empty(grid.shape)))
    fresh = solve_ergodic(spec, hjb.SolverConfig(initial_guess=failed.u))
    resumed = solve_ergodic(spec, hjb.SolverConfig(initial_guess=failed))
    assert fresh.converged and resumed.converged and resumed.iterations == fresh.iterations >= 1
    assert np.max(np.abs(resumed.u.values - fresh.u.values)) <= 1e-12 * np.max(np.abs(fresh.u.values))


def test_a_resumed_solve_allocates_no_coefficient_array():
    # A solve resumed from its predecessor's report takes the residual,
    # gradient and |grad u|^2 over, and each Newton step forms the Jacobian's
    # coefficient in that gradient.  So a 24^3 sweep step allocates the next
    # iterate, its bordered solves' residual, work vector and solution, and
    # the report's u: 5.3 field-sized arrays at its peak, where a separate
    # coefficient array held three fields more (8.3).
    grid = torus(24, dim=3)
    f = np.cos(TWO_PI * grid.mesh()[0])
    specs = [ProblemSpec(grid, gamma=3.0, source=ScalarField(grid, t * f), ergodic=True) for t in (10.0, 30.0, 100.0)]
    first = solve_ergodic(specs[0])
    second = solve_ergodic(specs[1], hjb.SolverConfig(initial_guess=first))
    rep, peak = _traced_peak(lambda: solve_ergodic(specs[2], hjb.SolverConfig(initial_guess=second)))
    assert rep.converged and rep.iterations >= 2
    assert peak < 5.75 * f.nbytes, peak / f.nbytes
