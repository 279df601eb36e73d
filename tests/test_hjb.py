"""Stationary solver: gates, residual conventions, manufactured problems, and
an independent time-marching oracle for the ergodic pair (u, lambda)."""

import gc
import weakref

import numpy as np
import pytest

from hjblab import hjb
from hjblab.fields import ScalarField, VectorField, gradient, lq_norm
from hjblab.geometry import DomainSpec, MetricSpec, build_grid
from hjblab.hjb import (
    ProblemSpec,
    manufactured_solution,
    manufactured_source,
    residual,
    solution_norm_table,
    solve,
    solve_ergodic,
)

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


def test_plain_mode_ignores_stored_multiplier():
    grid = torus(12, dim=2)
    spec = ProblemSpec(grid, gamma=2.0, lam=5.0, ergodic=False)
    u = ScalarField(grid, np.zeros(grid.shape))
    assert np.max(np.abs(residual(u, spec).values)) == 0.0


def test_residual_rejects_mismatched_grids():
    spec = ProblemSpec(torus(12, dim=2), gamma=2.0)
    other = torus(16, dim=2)
    with pytest.raises(ValueError):
        residual(ScalarField(other, np.zeros(other.shape)), spec)


def test_growth_gate_rejects_sublinear_hamiltonians():
    grid = torus(12, dim=2)
    with pytest.raises(ValueError, match=r"\(In1\)"):
        ProblemSpec(grid, gamma=0.9)
    with pytest.raises(ValueError, match=r"\(In1\)"):
        ProblemSpec(grid, gamma=2.0, c1=0.0)


def test_solver_rejects_polar_coordinates():
    disc = build_grid(DomainSpec(kind="disc", dim=2, resolution=(16, 32)))
    with pytest.raises(ValueError, match="box/torus"):
        ProblemSpec(disc, gamma=2.0)


# ---------------------------------------------------------------------------
# manufactured problems


def test_discrete_manufactured_source_vanishes_identically():
    grid = box(17, dim=2)
    ustar, f = manufactured_source(grid, gamma=2.0, symbolic=False)
    spec = ProblemSpec(grid, gamma=2.0, source=f)
    assert float(np.max(np.abs(residual(ustar, spec).values))) == 0.0


def test_newton_recovers_discrete_manufactured_solution():
    grid = box(17, dim=2)
    ustar, f = manufactured_source(grid, gamma=2.0, symbolic=False)
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
        ustar, f = manufactured_source(grid, gamma=2.0, symbolic=True)
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
        ustar, f = manufactured_source(grid, gamma=2.0, symbolic=True)
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
    assert lq_norm(gradient(rep.u), np.inf).value > 0.0


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
        sup_grads.append(lq_norm(gradient(rep.u), np.inf).value)
    assert sup_grads[1] > sup_grads[0] > 0.0


def test_conformal_metric_problem_converges_and_certifies():
    phi = MetricSpec.conformal(lambda coords: 0.1 * np.cos(TWO_PI * coords[0]))
    grid = build_grid(DomainSpec(kind="torus", dim=2, resolution=(24,)), phi)
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


def test_ergodic_entry_point_requires_the_flag():
    grid = torus(12, dim=2)
    with pytest.raises(ValueError):
        solve_ergodic(ProblemSpec(grid, gamma=2.0, ergodic=False))


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
    assert np.array_equal(ops.transport_apply(vals, coeff), ref)


def test_failed_linear_solve_stops_newton(monkeypatch):
    spec = _source_spec()
    assert solve_ergodic(spec).converged
    monkeypatch.setattr(hjb, "bordered_solve", _fake_bordered_solve(info=1))
    rep = solve_ergodic(spec)
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.message == "linear solve failed at Newton step 1 (GMRES info 1)"


def test_zero_newton_step_stops_at_the_backtracking_floor(monkeypatch):
    monkeypatch.setattr(hjb, "bordered_solve", _fake_bordered_solve(info=0))
    rep = solve_ergodic(_source_spec())
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.message == "stalled: backtracking floor reached"
