"""Scaling experiments, exponent bookkeeping, embedding-constant bound,
second-derivative norm ratios, and seeded source families."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjblab import hjb
from hjblab.estimates import (
    SweepSpec,
    cz_ratio,
    drift_gate,
    random_band_limited,
    sobolev_constant_estimate,
    sobolev_ratio,
    source_family,
    thm1_exponents,
    thm1_sweep,
    thm2_sweep,
)
from hjblab.fields import ScalarField, VectorField, _metric_trace, hessian, lq_norm
from hjblab.geometry import DomainSpec, build_grid
from hjblab.hjb import SolverConfig

TWO_PI = 2.0 * np.pi


def torus(n, dim=3):
    return build_grid(DomainSpec(kind="torus", dim=dim, resolution=(n,)))


def box(n, dim=3):
    return build_grid(DomainSpec(kind="box", dim=dim, resolution=(n,)))


# ---------------------------------------------------------------------------
# exponent bookkeeping for the gradient-integrability scaling


def test_exponent_table_matches_hand_computation():
    e = thm1_exponents(3, 2)
    assert abs(e.r - 18.0) <= 1e-12
    assert abs(e.q - 18.0 / 7.0) <= 1e-12
    e2 = thm1_exponents(4, 3)
    assert abs(e2.r - 16.0) <= 1e-12
    assert abs(e2.q - 3.2) <= 1e-12


def test_data_exponent_stays_below_dimension_even_for_huge_powers():
    e = thm1_exponents(3, 10_000)
    assert abs(e.q - 60006.0 / 20003.0) <= 1e-12
    assert e.q < 3.0
    assert e.r > 1e4


def test_data_exponent_window_and_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = int(rng.integers(3, 9))
        p = float(rng.uniform(1.0, 50.0))
        e = thm1_exponents(d, p)
        assert 1.0 < e.q < d
        e_hi = thm1_exponents(d, p + rng.uniform(0.1, 5.0))
        assert e_hi.q > e.q
        assert e_hi.r > e.r


def test_exponent_table_input_gates():
    with pytest.raises(ValueError, match="at least 3"):
        thm1_exponents(2, 2)
    with pytest.raises(ValueError, match="at least 1"):
        thm1_exponents(3, 0.5)


# ---------------------------------------------------------------------------
# sweep plumbing


def test_sweep_spec_validates_amplitudes():
    g = torus(8)
    f0 = source_family(g, "mode", 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        SweepSpec(g, 2.0, f0, (-1.0, 1.0), q=2.0)
    with pytest.raises(ValueError, match="increasing"):
        SweepSpec(g, 2.0, f0, (1.0, 1.0), q=2.0)


def test_sweep_spec_rejects_gamma_at_most_one_citing_in1():
    g = torus(8)
    f0 = source_family(g, "mode", 2.0)
    for gamma in (1.0, 0.9):
        with pytest.raises(ValueError, match=r"\(In1\)"):
            SweepSpec(g, gamma, f0, (1.0, 3.0), q=2.0)


def test_gradient_integrability_sweep_reports_ratios_and_gates():
    g = torus(16)
    exps = thm1_exponents(3, 2)
    f0 = source_family(g, "mode", exps.q)
    spec = SweepSpec(g, 2.0, f0, (1e-12, 1.0, 3.0), q=exps.q, r=exps.r)
    rep = thm1_sweep(spec)
    assert rep.kind == "gradient-integrability"
    assert rep.aborted is False and all(rep.converged)
    assert len(rep.ratios) == 3 and all(np.isfinite(rep.ratios))
    # vanishing data produces a vanishing quotient
    assert rep.ratios[0] <= 1e-9
    assert rep.ratio_at_one == rep.ratios[1]
    assert rep.max_ratio == max(rep.ratios)
    for key in ("kappa", "rho", "sigma_hat", "K", "theta", "s"):
        assert key in rep.gates
    assert rep.gates["kappa"] == 0.0
    assert rep.gates["rho"] == 1.0
    assert rep.gates["sigma_hat"] >= 1.0
    assert rep.gates["K"] > 0.0
    assert len(rep.norm_rows) == 3
    for row in rep.norm_rows:
        for key in ("t", "ratio", "lambda", "f_q", "grad_l1", "iterations", "residual"):
            assert key in row


# The bench amplitudes on the 16^3 `power` profile: the sweep runs from
# mesh Peclet number 0 at t = 1 to about 30 at t = 3000.
_POWER_AMPLITUDES = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)


def _counted_sweep(grid, kind):
    """The `kind` sweep on grid (gamma = 3, q = 2.5, the bench amplitudes),
    its Jacobian applies and its line-corrected preconditioners."""
    counts = {"applies": 0, "lines": 0}
    rest, line = hjb._Ops.jacobian_rest, hjb._AxisLine.__init__

    def rest_spy(self, *args):
        counts["applies"] += 1
        return rest(self, *args)

    def line_spy(self, *args):
        counts["lines"] += 1
        return line(self, *args)

    hjb._Ops.jacobian_rest, hjb._AxisLine.__init__ = rest_spy, line_spy
    try:
        rep = thm2_sweep(SweepSpec(grid, 3.0, source_family(grid, kind, 2.5), _POWER_AMPLITUDES, q=2.5))
    finally:
        hjb._Ops.jacobian_rest, hjb._AxisLine.__init__ = rest, line
    return rep, counts["applies"], counts["lines"]


@functools.lru_cache(maxsize=None)
def _power_sweep():
    """The 16^3 `power` sweep, its Jacobian applies and its line-corrected
    preconditioners."""
    return _counted_sweep(torus(16), "power")


def test_power_sweep_stays_within_its_jacobian_apply_budget():
    # 1331 applies before each Newton step's Krylov solve stopped at the
    # accuracy the Newton stop needs; about 1050 since
    rep, applies, _ = _power_sweep()
    assert not rep.aborted and all(rep.converged)
    assert applies <= 1100


def test_power_sweep_keeps_the_flat_preconditioner():
    # No line of the 3-D `power` coefficient carries the 0.99 of its
    # weighted energy that the gate asks (at most 0.27 at 32^3), so every
    # Newton step keeps the flat inverse of L but the first, from u = 0,
    # where b = 0 and M is the line with abar = 0.  The count moves with
    # round-off: each solve after the first resumes from the last one's
    # iterate and residual, and each GMRES cycle ends with x += M (V y).
    # It takes 38 Newton steps.
    rep, applies, lines = _power_sweep()
    assert lines == 1
    assert applies == 1049
    assert sum(row["iterations"] for row in rep.norm_rows) == 38


def test_one_axis_sweep_takes_one_arnoldi_step_per_newton_step():
    # The `mode` source varies along x only, so each Newton step's M inverts
    # its Jacobian on the functions of x: the Richardson step that starts
    # the solve ends it, one R apply in its true residual, up to t = 3000
    # (mesh Peclet number about 7).  That step replaced the Arnoldi step of
    # the name, which took a second R apply.
    rep, applies, lines = _counted_sweep(torus(24), "mode")
    assert not rep.aborted and all(rep.converged)
    steps = sum(row["iterations"] for row in rep.norm_rows)
    assert rep.norm_rows[-1]["peclet"] > 1.0
    assert lines == steps  # the first too, from u = 0, where b = 0 and abar = 0
    assert applies == steps


def test_sweep_rows_carry_the_peclet_number_and_warn_above_one():
    rep, _, _ = _power_sweep()
    pecs = [row["peclet"] for row in rep.norm_rows]
    assert pecs[0] <= 1.0 < pecs[-1]
    assert pecs == sorted(pecs)
    assert len(rep.warnings) == sum(p > 1.0 for p in pecs)
    assert not any("amplitude 1.0:" in w for w in rep.warnings)
    assert "exceeds 1 at amplitude 3000.0:" in rep.warnings[-1]


def test_thin_lattice_is_exact_for_one_axis_data():
    # the `mode` source varies along x only, so 16 x 8 x 8 nodes carry the
    # 16^3 problem: its ratios and critical constants agree to round-off
    reps = []
    for res in ((16, 8, 8), (16,)):
        g = build_grid(DomainSpec(kind="torus", dim=3, resolution=res))
        amps = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
        reps.append(thm2_sweep(SweepSpec(g, 3.0, source_family(g, "mode", 2.5), amps, q=2.5)))
    thin, full = reps
    assert all(thin.converged) and all(full.converged)
    assert np.max(np.abs(np.array(thin.ratios) - full.ratios)) <= 1e-10
    assert np.max(np.abs(np.array(thin.lambdas) - full.lambdas)) <= 1e-10


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_sweeps_hold_at_most_22_fields(kind):
    # A Newton/GMRES solve needs about 20 field-sized arrays.  A sweep that
    # keeps the previous amplitude's report, gradient and |grad u|^gamma
    # through the next solve holds 7 more (27.4 in all for thm2_sweep here).
    g = torus(24) if kind == "torus" else box(25)
    f0 = source_family(g, "mode", 2.5)
    field = 8 * g.weights.size
    for sweep, r in ((thm2_sweep, None), (thm1_sweep, 18.0)):
        spec = SweepSpec(g, 3.0, f0, (1.0, 3.0, 10.0), q=2.5, r=r)
        sweep(spec)  # fills the grid's caches
        tracemalloc.start()
        try:
            rep = sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rep.converged)
        assert peak <= 22 * field, (sweep.__name__, peak / field)


def test_gradient_sweep_requires_the_gradient_exponent():
    g = torus(8)
    f0 = source_family(g, "mode", 2.0)
    with pytest.raises(ValueError, match="gradient exponent"):
        thm1_sweep(SweepSpec(g, 2.0, f0, (1.0,), q=2.0))


def shear_drift(g, amp=0.5):
    mesh = g.mesh()
    comps = [amp * np.sin(TWO_PI * mesh[1])] + [np.zeros(g.shape)] * (g.dim - 1)
    return VectorField(g, np.stack(comps))


def test_drift_gate_needs_superdimensional_integrability():
    g = torus(8)
    f0 = source_family(g, "mode", 2.0)
    spec = SweepSpec(g, 2.0, f0, (1.0,), q=2.0, r=4.0, drift=shear_drift(g))
    with pytest.raises(ValueError, match="need s > d"):
        thm1_sweep(spec)
    spec_low = SweepSpec(
        g, 2.0, f0, (1.0,), q=2.0, r=4.0, drift=shear_drift(g), drift_s=3.0
    )
    with pytest.raises(ValueError, match="need s > d"):
        thm1_sweep(spec_low)


def test_drift_gate_rejects_understated_bounds():
    g = torus(8)
    f0 = source_family(g, "mode", 2.0)
    spec = SweepSpec(
        g,
        2.0,
        f0,
        (1.0,),
        q=2.0,
        r=4.0,
        drift=shear_drift(g),
        drift_s=4.0,
        drift_theta=1e-6,
    )
    with pytest.raises(ValueError, match="exceeds the declared"):
        thm1_sweep(spec)


def test_unset_drift_bound_is_the_norm_itself():
    g = torus(8)
    drift = shear_drift(g)
    gate = drift_gate(g, drift, 4.0, None)
    assert gate == {"theta": lq_norm(drift, 4.0), "s": 4.0}
    assert gate["theta"] > 0.0


def test_maximal_integrability_sweep_runs_and_rejects_drift():
    g = torus(16)
    f0 = source_family(g, "mode", 2.5)
    cfg = SolverConfig(max_iter=80)
    rep = thm2_sweep(SweepSpec(g, 3.0, f0, (1.0, 3.0), q=2.5, cfg=cfg))
    assert rep.kind == "maximal-integrability"
    assert all(np.isfinite(rep.ratios)) and all(r > 0 for r in rep.ratios)
    with pytest.raises(ValueError, match="zero drift"):
        thm2_sweep(
            SweepSpec(g, 3.0, f0, (1.0,), q=2.5, drift=shear_drift(g), drift_s=4.0)
        )


def test_failed_solve_names_its_reason_in_the_sweep_report(monkeypatch):
    def failing(grid, apply_fn, inv, rhs_field, rhs_constraint, rtol, x0=None):
        return np.zeros(grid.shape), 0.0, 1

    monkeypatch.setattr(hjb, "bordered_solve", failing)
    g = torus(8)
    f0 = source_family(g, "mode", 2.5)
    rep = thm2_sweep(SweepSpec(g, 3.0, f0, (1.0, 3.0), q=2.5))
    assert rep.aborted
    assert rep.converged == (False,)
    assert rep.message == (
        "solve failed to converge at amplitude 1.0: "
        "linear solve failed at Newton step 1 (GMRES info 1)"
    )


def test_maximal_integrability_gate_rejects_small_data_exponents():
    g = torus(8)
    f0 = source_family(g, "mode", 1.5)
    with pytest.raises(ValueError, match="integrability gate"):
        thm2_sweep(SweepSpec(g, 3.0, f0, (1.0,), q=1.5))


# ---------------------------------------------------------------------------
# source families


@pytest.mark.parametrize("kind", ["mode", "bump", "power"])
def test_source_profiles_have_unit_data_norm(kind):
    g = torus(16)
    q = 2.5
    f = source_family(g, kind, q)
    assert abs(lq_norm(f, q) - 1.0) <= 1e-12
    assert np.all(np.isfinite(f.values))


def test_unknown_source_family_is_rejected():
    with pytest.raises(ValueError, match="unknown source family"):
        source_family(torus(8), "noise", 2.0)


# ---------------------------------------------------------------------------
# embedding-constant bound


def test_quotient_of_the_constant_field_on_the_unit_box_is_one():
    g = box(12)
    assert abs(sobolev_ratio(ScalarField(g, np.ones(g.shape))) - 1.0) <= 1e-14


@pytest.mark.parametrize("c", [0.3, -2.0, 17.0])
def test_quotient_is_scale_invariant(c):
    g = torus(12)
    u = random_band_limited(g, seed=4)
    scaled = ScalarField(g, c * u.values)
    assert abs(sobolev_ratio(scaled) - sobolev_ratio(u)) <= 1e-12


def test_quotient_input_gates():
    g2 = build_grid(DomainSpec(kind="torus", dim=2, resolution=(8,)))
    with pytest.raises(ValueError, match="at least 3"):
        sobolev_ratio(ScalarField(g2, np.ones(g2.shape)))
    g = torus(8)
    with pytest.raises(ValueError, match="zero field"):
        sobolev_ratio(ScalarField(g, np.zeros(g.shape)))


def test_constant_estimate_is_the_constant_field_quotient():
    conformal = build_grid(
        DomainSpec(kind="torus", dim=3, resolution=(10,)),
        lambda c: 0.1 * np.cos(TWO_PI * c[0]),
    )
    for g in (box(10), torus(10), conformal):
        assert sobolev_constant_estimate(g) == sobolev_ratio(ScalarField(g, np.ones(g.shape)))
    for g in (box(10), torus(10)):
        assert abs(sobolev_constant_estimate(g) - 1.0) <= 1e-14


# ---------------------------------------------------------------------------
# second-derivative / Laplacian ratio


def test_flat_torus_ratio_is_one_at_exponent_two():
    g = build_grid(DomainSpec(kind="torus", dim=2, resolution=(32,)))
    samples = [random_band_limited(g, seed=s) for s in range(50)]
    assert abs(cz_ratio(samples, (2.0,))[0] - 1.0) <= 1e-6


def test_single_mode_ratio_is_one_to_round_off():
    g = build_grid(DomainSpec(kind="torus", dim=2, resolution=(32,)))
    mesh = g.mesh()
    u = ScalarField(g, np.cos(TWO_PI * mesh[0]))
    assert abs(cz_ratio([u], (2.0,))[0] - 1.0) <= 1e-12


def test_ratio_away_from_two_stays_finite():
    g = build_grid(DomainSpec(kind="torus", dim=2, resolution=(32,)))
    samples = [random_band_limited(g, seed=s) for s in range(10)]
    (val,) = cz_ratio(samples, (4.0,))
    assert np.isfinite(val) and val > 0.0


@pytest.mark.parametrize("kind", ["torus", "box", "conformal"])
def test_cz_ratio_equals_its_tensor_form_bit_for_bit(kind):
    # the ratio as the full Hessian gives it: max over the samples of
    # ||Hess u||_p / ||trace Hess u||_p, one Hessian per sample
    if kind == "box":
        g = box(10)
    else:
        phi = (lambda c: 0.2 * np.cos(TWO_PI * c[0]) * np.sin(TWO_PI * c[2])) if kind == "conformal" else None
        g = build_grid(DomainSpec(kind="torus", dim=3, resolution=(10, 9, 8)), phi)
    rng = np.random.default_rng(17)
    samples = [ScalarField(g, rng.normal(size=g.shape)) for _ in range(3)]
    exponents = (2.0, 3.5, np.inf)
    want = []
    for p in exponents:
        ratios = []
        for u in samples:
            H = hessian(u)
            ratios.append(lq_norm(H, p) / lq_norm(_metric_trace(H), p))
        want.append(max(ratios))
    assert cz_ratio(samples, exponents) == tuple(want)


def test_harmonic_samples_are_rejected():
    g = box(9, dim=2)  # dyadic spacing: the linear field is exactly harmonic
    X = g.mesh()
    lin = ScalarField(g, 2.0 * X[0] - 0.75 * X[1])
    const = ScalarField(torus(8, dim=2), np.full((8, 8), 3.0))
    with pytest.raises(ValueError, match="harmonic"):
        cz_ratio([lin, const], (2.0,))
    with pytest.raises(ValueError, match="exceed 1"):
        cz_ratio([lin], (2.0, 1.0))


# ---------------------------------------------------------------------------
# seeded profiles


def test_band_limited_profiles_are_seed_deterministic():
    g = torus(12, dim=2)
    a = random_band_limited(g, seed=21)
    b = random_band_limited(g, seed=21)
    c = random_band_limited(g, seed=22)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_band_limited_profiles_sample_one_continuum_function():
    coarse = random_band_limited(torus(16, dim=2), seed=5)
    fine = random_band_limited(torus(32, dim=2), seed=5)
    assert np.max(np.abs(coarse.values - fine.values[::2, ::2])) <= 1e-12
