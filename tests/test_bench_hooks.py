"""The benchmark's tracer wraps package functions by name and relies on the
positional signature of `bordered_solve`; a rename or signature change in
the package must fail here, not only under `bench/run.py --trace 1`."""

import functools
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run in a fresh interpreter: installing the tracer rebinds module
# attributes for the rest of the process.
SCRIPT = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, per_layer_metrics

tracer = Tracer()
tracer.install()
from hjblab import hjb, mfg
from hjblab.fields import ScalarField
from hjblab.geometry import DomainSpec, build_grid

grid = build_grid(DomainSpec(kind="torus", dim=2, resolution=(12,)))
source = ScalarField(grid, np.cos(2.0 * np.pi * grid.mesh()[0]))
spec = hjb.ProblemSpec(grid, gamma=2.0, source=source, ergodic=True)
rep = hjb.solve_ergodic(spec)
hjb.solution_norm_table(spec, rep.u)
mfg.fp_solve(grid, hjb.transport_coefficient(spec, rep.u.values))
metrics = per_layer_metrics(tracer.spans, tracer.counts)
metrics["converged"] = rep.converged
metrics["fp_peclet_spans"] = sum(1 for s in tracer.spans if s[0] == "mfg.fp_peclet")
print(json.dumps(metrics))
"""
# The same ergodic solve with no density solve after it
VALUE_ONLY_SCRIPT = SCRIPT.replace("mfg.fp_solve(grid, hjb.transport_coefficient(spec, rep.u.values))\n", "")


# A game's density solves count as `hjb.adjoint_apply` only inside an
# `mfg.fp_solve` span, so the loop must reach them through `mfg.fp_solve`.
# Every R apply of a value solve is one `_Ops.jacobian_rest` call and every
# one of a density solve one `_Ops.adjoint_rest` call; both are counted here
# independently of the tracer, and so is every Laplacian apply
# (`_FlatInverter.apply`), each of which pairs with one R apply in a true
# residual, every line solve of a line-corrected preconditioner, every
# line-corrected preconditioner built, and every GMRES cycle that updates x
# (one `_solve_upper` call).  Each line-corrected preconditioner is built for
# one linear solve, which starts with one Richardson step.
_GAME_TEMPLATE = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, per_layer_metrics
from hjblab import hjb

applies = {"jacobian_rest": 0, "adjoint_rest": 0, "laplacian": 0, "line": 0, "line_built": 0, "cycles": 0}
for cls, name, key in (
    (hjb._Ops, "jacobian_rest", "jacobian_rest"),
    (hjb._Ops, "adjoint_rest", "adjoint_rest"),
    (hjb._FlatInverter, "apply", "laplacian"),
    (hjb._AxisLine, "solve", "line"),
    (hjb._AxisLine, "__init__", "line_built"),
):
    def counted(self, *args, _orig=getattr(cls, name), _key=key):
        applies[_key] += 1
        return _orig(self, *args)
    setattr(cls, name, counted)

def solve_upper(R, g, _orig=hjb._solve_upper):
    applies["cycles"] += 1
    return _orig(R, g)
hjb._solve_upper = solve_upper

tracer = Tracer()
tracer.install()
from hjblab import mfg
from hjblab.fields import ScalarField
from hjblab.geometry import DomainSpec, build_grid

grid = build_grid(DomainSpec(kind="torus", dim=2, resolution=(16,)))
x, y = grid.mesh()
shift = ScalarField(grid, SHIFT)
_, report = mfg.mfg_fixed_point(mfg.MfgSpec(grid, gamma=2.0, alpha=1.0, shift=shift, eps=0.1))
metrics = per_layer_metrics(tracer.spans, tracer.counts)
metrics["converged"] = report.converged
metrics["outer_iterations"] = report.outer_iterations
metrics["applies"] = applies
print(json.dumps(metrics))
"""
GAME_SCRIPT = _GAME_TEMPLATE.replace("SHIFT", "0.3 * np.cos(2.0 * np.pi * x)")
# Shifts along both axes: the value and density operators' first-order
# coefficients are no longer constant across x, so the cycles run several
# steps.  With the weaker y term the x line still carries over 0.99 of the
# coefficient's energy and M solves it; with the stronger one it carries
# about 0.9 and M is the flat inverse.
MIXED_GAME_SCRIPTS = {
    line: _GAME_TEMPLATE.replace("SHIFT", "0.3 * np.cos(2.0 * np.pi * x) + %s * np.cos(2.0 * np.pi * y)" % amp)
    for line, amp in ((True, "0.02"), (False, "0.1"))
}


# One ergodic solve on one-axis data, run twice in one process: untraced,
# then with the tracer installed, so that the tracer's stand-in for the
# preconditioner is what `bordered_solve` sees.  The initial guess varies
# along x, so every Newton step's coefficient does and M solves its x line.
# Each run's R applies are counted on `_Ops.jacobian_rest`.
ONE_AXIS_SOLVE_SCRIPT = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, per_layer_metrics
from hjblab import hjb
from hjblab.fields import ScalarField
from hjblab.geometry import DomainSpec, build_grid

applies = []
orig = hjb._Ops.jacobian_rest
def counted(self, *args):
    applies.append(1)
    return orig(self, *args)
hjb._Ops.jacobian_rest = counted

grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(12,)))
x = grid.mesh()[0]
spec = hjb.ProblemSpec(grid, gamma=3.0, source=ScalarField(grid, np.cos(2.0 * np.pi * x)), ergodic=True)
cfg = hjb.SolverConfig(initial_guess=ScalarField(grid, 0.1 * np.cos(2.0 * np.pi * x)))
untraced = hjb.solve_ergodic(spec, cfg)
counts = [len(applies)]
tracer = Tracer()
tracer.install()
applies.clear()
traced = hjb.solve_ergodic(spec, cfg)
counts.append(len(applies))
metrics = per_layer_metrics(tracer.spans, tracer.counts)
metrics["converged"] = untraced.converged and traced.converged
metrics["newton_steps"] = [untraced.iterations, traced.iterations]
metrics["applies"] = counts
print(json.dumps(metrics))
"""


# The bench's inputs, built as `bench/run.py` builds them: every workload
# at seed 0 (Sweep rebinds `estimates.solve_ergodic`, so this too runs in a
# fresh interpreter), every `lab` config parsed, and the conformal `lab`
# run's grid next to a torus built with the config's phi.
BENCH_INPUTS_SCRIPT = """
import json, os, sys, tempfile
import numpy as np
sys.path.insert(0, sys.argv[1])
import workloads
from hjblab import config
from hjblab.geometry import DomainSpec, build_grid

built = []
with tempfile.TemporaryDirectory() as tmp:
    for name, cls in sorted(workloads.WORKLOADS.items()):
        cls(0, os.path.join(tmp, name))
        built.append(name)
kinds = {name: config.parse_config(text).domain.kind for name, (_, text, _) in workloads.Lab.CONFIGS.items()}
cfg = config.parse_config(workloads.Lab.CONFIGS["ergodic-conformal24"][1])
grid = build_grid(cfg.domain, cfg.phi)
ref = build_grid(DomainSpec(kind="torus", dim=3, resolution=(24,)), config._phi)
print(json.dumps({
    "built": built,
    "kinds": kinds,
    "flat": grid.is_flat,
    "same_weights": bool(np.array_equal(grid.weights, ref.weights)),
    "same_phi": bool(np.array_equal(grid.phi, ref.phi)),
}))
"""


@functools.lru_cache(maxsize=None)
def _run_traced(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "bench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_inputs_build_and_the_conformal_spelling_keeps_its_grid():
    m = _run_traced(BENCH_INPUTS_SCRIPT)
    assert m["built"] == ["game", "lab", "sweep"]
    assert m["kinds"] == {"ergodic-conformal24": "torus", "thm1-sweep-drift16": "torus", "mfg-over-advected": "torus"}
    assert not m["flat"] and m["same_weights"] and m["same_phi"]


def test_bench_tracer_installs_and_records_every_hooked_layer():
    m = _run_traced(SCRIPT)
    assert m["converged"]
    assert m["hjb.solve.calls"] == 1 and m["hjb.solve.newton_steps"] >= 1
    assert m["hjb.bordered_solve.calls"] == m["hjb.solve.newton_steps"] + 1
    for name in ("hjb.jacobian_apply", "hjb.adjoint_apply", "hjb.precond"):
        assert m[name + ".calls"] >= 1, name
    assert m["hjb.bordered_solve.info_nonzero"] == 0
    assert m["hjb.solution_norm_table.s"] > 0.0
    assert m["hjb.transport_coefficient.s"] > 0.0
    assert m["mfg.fp_solve.calls"] == 1
    assert m["mfg.peclet_max"] > 0.0
    assert m["stencils.apply_along_axis.calls"] > 0


def test_a_traced_value_solve_records_no_density_peclet():
    # `mfg.fp_peclet` measures density drifts only: the value solve's own
    # Peclet numbers (`hjb.mesh_peclet`) leave `mfg.peclet_max` at 0
    m = _run_traced(VALUE_ONLY_SCRIPT)
    assert m["converged"] and m["hjb.solve.newton_steps"] >= 1
    assert m["mfg.fp_solve.calls"] == 0
    assert m["fp_peclet_spans"] == 0 and m["mfg.peclet_max"] == 0.0


def test_traced_and_untraced_one_axis_solves_take_the_same_path():
    # The tracer hands `bordered_solve` a stand-in for the preconditioner,
    # which must still start each solve with the Richardson step x = M b:
    # one R apply per Newton step, in the true residual, traced or not
    m = _run_traced(ONE_AXIS_SOLVE_SCRIPT)
    assert m["converged"]
    steps = m["hjb.solve.newton_steps"]
    assert steps >= 2 and m["newton_steps"] == [steps, steps]
    assert m["hjb.bordered_solve.calls"] == steps
    assert m["hjb.jacobian_apply.calls"] == m["applies"][1] == m["applies"][0] == steps


def test_game_density_solves_are_traced_as_adjoint_applies():
    m = _run_traced(GAME_SCRIPT)
    assert m["converged"] and m["outer_iterations"] >= 2
    assert m["mfg.mfg_fixed_point.outer_iterations"] == m["outer_iterations"]
    assert m["mfg.fp_solve.calls"] == m["outer_iterations"]
    assert m["hjb.adjoint_apply.calls"] == m["applies"]["adjoint_rest"] >= m["outer_iterations"]
    assert m["hjb.jacobian_apply.calls"] == m["applies"]["jacobian_rest"]


def test_game_cycles_end_with_one_preconditioner_apply():
    # Each preconditioner apply belongs to one Arnoldi step, to the update
    # x += M (V y) that ends a cycle, or to the Richardson step of the one
    # line-corrected solve: the first Newton step, at b = 0, where M is the
    # line with abar = 0 and that step solves A = L.  An R apply is either
    # an Arnoldi step or half of a true residual L + R, so the steps are the
    # R applies less the L applies.
    m = _run_traced(MIXED_GAME_SCRIPTS[False])
    assert m["converged"]
    a = m["applies"]
    steps = a["jacobian_rest"] + a["adjoint_rest"] - a["laplacian"]
    assert steps > m["hjb.bordered_solve.calls"] > 0
    assert steps > a["cycles"] > 0
    assert a["line_built"] == a["line"] == 1
    assert m["hjb.precond.calls"] == steps + 1 + a["cycles"]


def test_line_corrected_game_cycles_end_with_one_preconditioner_apply():
    # Each preconditioner apply belongs to one Arnoldi step, to the update
    # that ends a cycle, or to the Richardson step that starts each
    # line-corrected solve.  Every solve solves the line, the first Newton
    # step's at b = 0 with abar = 0, and one that its Richardson step leaves
    # short goes on with Arnoldi steps, which some here need.
    m = _run_traced(MIXED_GAME_SCRIPTS[True])
    assert m["converged"]
    a = m["applies"]
    steps = a["jacobian_rest"] + a["adjoint_rest"] - a["laplacian"]
    assert steps > 1 and a["cycles"] > 0
    assert m["hjb.precond.calls"] == steps + a["line_built"] + a["cycles"]
    assert a["line_built"] == m["hjb.bordered_solve.calls"]
    assert a["line"] == a["line_built"] + steps + a["cycles"]


def test_one_axis_game_solves_every_linear_system_in_one_preconditioner_apply():
    # On one-axis data the line-corrected M inverts each value Jacobian and
    # density operator on the functions of x, where the game's right-hand
    # sides lie: its Richardson step x += M r solves the system, and no
    # Arnoldi step runs.  The first Newton step, at b = 0, is no exception:
    # there M is the line with abar = 0 and A M = I.
    m = _run_traced(GAME_SCRIPT)
    assert m["converged"]
    a = m["applies"]
    steps = a["jacobian_rest"] + a["adjoint_rest"] - a["laplacian"]
    assert steps == 0
    assert m["hjb.bordered_solve.calls"] == m["hjb.precond.calls"] == a["line_built"] > 1
    assert a["line"] == a["line_built"]


# The bench's `sweep` workload at seed 0, one pass and its checks.  Its hook
# rebinds `estimates.solve_ergodic` to `capture(spec, cfg=None)`, so a sweep
# that called the solver any other way would fail every operation here.
SWEEP_HOOK_SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import workloads

with tempfile.TemporaryDirectory() as tmp:
    sweep = workloads.Sweep(0, tmp)
    outcome = sweep.verify(sweep.run(), workloads.load_reference())
print(json.dumps({"attempted": outcome.attempted, "failed": outcome.failed, "problems": outcome.problems}))
"""


def test_bench_sweep_hook_sees_every_amplitude_solve():
    m = _run_traced(SWEEP_HOOK_SCRIPT)
    assert m["attempted"] == 8 and m["failed"] == 0, m["problems"]


# Every value solve of a small one-axis sweep (gamma = 3) and of a small game
# (gamma = 2), with the residual evaluations (`hjb._residual_core`) and the
# |grad u|^2 contractions (`_Ops.pairing` of an array with itself) made
# during it.  After its first solve, each solve of a sweep or a game resumes
# from the report of the one before, so it forms no residual at its start.
# At these amplitudes no line search backtracks, so each Newton step forms
# one residual, at the trial it accepts.
RESUME_COUNT_SCRIPT = """
import json, sys
import numpy as np
from hjblab import estimates, hjb, mfg
from hjblab.fields import ScalarField
from hjblab.geometry import DomainSpec, build_grid

counts = {"residual": 0, "grad_sq": 0}
core, pairing, solve = hjb._residual_core, hjb._Ops.pairing, hjb.solve

def counted_core(*args):
    counts["residual"] += 1
    return core(*args)

def counted_pairing(self, a, b, *out):
    counts["grad_sq"] += a is b
    return pairing(self, a, b, *out)

solves = []
def counted_solve(spec, cfg=None):
    before = dict(counts)
    rep = solve(spec, cfg)
    solves.append([rep.iterations] + [counts[k] - before[k] for k in ("residual", "grad_sq")])
    return rep

hjb._residual_core, hjb._Ops.pairing, hjb.solve = counted_core, counted_pairing, counted_solve

grid = build_grid(DomainSpec(kind="torus", dim=3, resolution=(12,)))
source = estimates.source_family(grid, "mode", 2.5)
rep = estimates.thm2_sweep(estimates.SweepSpec(grid, 3.0, source, (1.0, 2.0, 4.0, 8.0, 16.0), q=2.5))
sweep, solves = solves, []
grid = build_grid(DomainSpec(kind="torus", dim=2, resolution=(16,)))
shift = ScalarField(grid, 0.3 * np.cos(2.0 * np.pi * grid.mesh()[0]))
_, report = mfg.mfg_fixed_point(mfg.MfgSpec(grid, gamma=2.0, alpha=1.0, shift=shift, eps=0.05))
print(json.dumps({
    "converged": all(rep.converged) and report.converged,
    "stages": len(report.stages),
    "sweep": sweep,
    "game": solves,
}))
"""


def test_resumed_solves_form_one_residual_per_newton_step():
    m = _run_traced(RESUME_COUNT_SCRIPT)
    assert m["converged"] and m["stages"] == 2
    for solves in (m["sweep"], m["game"]):
        assert len(solves) >= 4
        # the first solve starts from zero and forms its residual there
        assert solves[0][1] == solves[0][0] + 1
        for steps, residuals, _ in solves[1:]:
            assert residuals == steps
        # each residual sums |grad u|^2 once, and nothing else sums it
        for _, residuals, grad_sq in solves:
            assert grad_sq == residuals
    assert sum(steps for steps, _, _ in m["sweep"]) >= 2 * len(m["sweep"])
