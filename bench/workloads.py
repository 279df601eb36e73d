"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload class does its set-up (inputs built from the seed) in
``__init__``, one pass of program work in ``run`` and the output checks in
``verify``.  Only ``run`` is timed.  The seed never reaches the program:
it picks a lattice symmetry of the inputs (an axis and a phase), so every
seed shares one set of reference values, recorded in ``reference.json``.

An operation is one amplitude solve (``sweep``), one game (``game``) or
one CLI invocation (``lab``).  It fails when it raises, does not
converge, exits with the wrong status or gives outputs outside
tolerance.  It is *wrong* when the program reported success and the
check still found it outside tolerance: a silent wrong answer, which
makes the run's ``correct`` false.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import time
import traceback

import numpy as np

from hjblab import cli, estimates, geometry, hjb, mfg
from hjblab.fields import ScalarField
from hjblab.geometry import DomainSpec
from tracing import CLI_SUBCOMMANDS

REL_TOL = 1e-8

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def lattice_symmetry(seed: int, dim: int, n: int) -> tuple:
    """(axis, phase) picked by the seed; phase is a whole number of nodes."""
    rng = np.random.default_rng(seed)
    return int(rng.integers(dim)), int(rng.integers(n))


def _orient(base: np.ndarray, axis: int, phase: int, periodic: bool) -> np.ndarray:
    """Move the varying axis of an axis-0 profile to `axis` and shift it.

    On a torus the shift is a roll by `phase` nodes; on a box the lattice
    symmetry is the reflection, taken when `phase` is odd.  Both permute
    the array's values exactly.
    """
    vals = np.swapaxes(base, 0, axis)
    if periodic:
        vals = np.roll(vals, phase, axis=axis)
    elif phase % 2:
        vals = np.flip(vals, axis=axis)
    return np.ascontiguousarray(vals)


def agree(key: str, value: float, ref: float, ref_block: dict) -> bool:
    """`value` matches `ref` to REL_TOL relative.

    The duality identity residual, lhs - rhs, cancels to about 3e-7 of
    either side, so it is judged on the scale of lhs from `ref_block`.
    """
    scale = abs(ref_block.get("duality.identity_lhs", 0.0)) if key == "duality.identity_residual" else 0.0
    return abs(value - ref) <= REL_TOL * max(abs(ref), scale)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def record(self, name: str, problems: list, claimed_ok: bool) -> None:
        """One operation; `claimed_ok` is whether the program reported success."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += int(claimed_ok)
            self.problems.extend(name + ": " + p for p in problems)


class Workload:
    """Set-up in ``__init__``, one timed pass in ``run``, checks in ``verify``."""

    OPS = 0  # operations in one pass

    def __init__(self):
        # The worker points this at Tracer.paused, so checks made inside a
        # pass leave no spans or counts.
        self.pause = contextlib.nullcontext
        self.check_wall = 0.0
        self.check_cpu = 0.0

    @contextlib.contextmanager
    def checking(self):
        """A check made inside the timed pass; its time is taken out of the pass."""
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        with self.pause():
            yield
        self.check_wall += time.perf_counter() - wall0
        self.check_cpu += cpu_seconds() - cpu0


# ---------------------------------------------------------------------------
# sweep: estimates.thm2_sweep on a 48^3 torus, gamma = 3, first-mode source


class Sweep(Workload):
    N = 48
    GAMMA = 3.0
    Q = 2.5
    AMPLITUDES = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)
    OPS = len(AMPLITUDES)
    MAX_ITER = 120

    @classmethod
    def symmetries(cls, seed: int) -> list:
        return [lattice_symmetry(seed, 3, cls.N)]

    def __init__(self, seed: int, out_dir: str, symmetry=None):
        super().__init__()
        self.axis, self.phase = symmetry or self.symmetries(seed)[0]
        self.grid = geometry.build_grid(DomainSpec(kind="torus", dim=3, resolution=(self.N,)))
        base = estimates.source_family(self.grid, "mode", self.Q).values
        self.source = ScalarField(self.grid, _orient(base, self.axis, self.phase, True))
        # The report keeps no solution fields, so each solve's residual is
        # checked as soon as it returns; only its norm is kept.
        self.solves = []  # (weighted residual norm or why there is none, converged)
        solve_ergodic = estimates.solve_ergodic

        def capture(spec, cfg=None):
            rep = solve_ergodic(spec, cfg)
            with self.checking():
                self.solves.append((self._residual_norm(len(self.solves), rep), rep.converged))
            return rep

        estimates.solve_ergodic = capture

    def _residual_norm(self, i: int, rep):
        """Weighted norm of ``hjb.residual`` at the i-th amplitude's (u, lam)."""
        if i >= len(self.AMPLITUDES):
            return "more solves than amplitudes"
        try:
            spec = hjb.ProblemSpec(
                grid=self.grid,
                gamma=self.GAMMA,
                source=ScalarField(self.grid, self.AMPLITUDES[i] * self.source.values),
                ergodic=True,
            )
            res = hjb.residual(ScalarField(self.grid, rep.u.values), spec, lam=rep.lam).values
            return math.sqrt(float(np.sum(self.grid.weights * res**2)))
        except Exception:
            return "residual check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]

    def run(self):
        spec = estimates.SweepSpec(
            grid=self.grid,
            gamma=self.GAMMA,
            source=self.source,
            amplitudes=self.AMPLITUDES,
            q=self.Q,
            cfg=hjb.SolverConfig(max_iter=self.MAX_ITER),
        )
        try:
            return estimates.thm2_sweep(spec)
        except Exception:  # an operation that raises is counted, not fatal
            return traceback.format_exc(limit=3)

    def outputs(self, report) -> dict:
        return {"ratios": list(report.ratios), "lambdas": list(report.lambdas)}

    def verify(self, report, reference: dict) -> Outcome:
        out = Outcome()
        ref = reference["sweep"]
        tol = hjb.SolverConfig().residual_tol
        for i, t in enumerate(self.AMPLITUDES):
            name = "t=" + repr(t)
            if isinstance(report, str):
                out.record(name, ["sweep raised: " + report.strip().splitlines()[-1]], False)
                continue
            if i >= len(self.solves):
                out.record(name, ["not reached: " + report.message], False)
                continue
            res_norm, converged = self.solves[i]
            if not converged:
                out.record(name, ["solve did not converge"], False)
                continue
            problems = []
            if isinstance(res_norm, str):
                problems.append(res_norm)
            elif not res_norm <= tol:
                problems.append("weighted residual %r above tolerance %r" % (res_norm, tol))
            if not agree("ratios", report.ratios[i], ref["ratios"][i], ref):
                problems.append("ratio %r, reference %r" % (report.ratios[i], ref["ratios"][i]))
            if not agree("lambdas", report.lambdas[i], ref["lambdas"][i], ref):
                problems.append("lambda %r, reference %r" % (report.lambdas[i], ref["lambdas"][i]))
            out.record(name, problems, True)
        return out


# ---------------------------------------------------------------------------
# game: two mfg.mfg_fixed_point runs, a 32^3 torus and a 33^3 box


class Game(Workload):
    CASES = (("torus", 32), ("box", 33))
    OPS = len(CASES)
    AMPLITUDE = 0.5
    EPS = 0.05

    @classmethod
    def symmetries(cls, seed: int) -> list:
        """One (axis, phase) per case; on the box only the phase's parity acts."""
        syms = []
        for i, (kind, n) in enumerate(cls.CASES):
            axis, phase = lattice_symmetry(seed + 7919 * i, 3, n)
            syms.append((axis, phase if kind == "torus" else phase % 2))
        return syms

    def __init__(self, seed: int, out_dir: str, symmetry=None):
        super().__init__()
        self.specs = {}
        syms = [symmetry] * len(self.CASES) if symmetry else self.symmetries(seed)
        for (kind, n), (axis, phase) in zip(self.CASES, syms):
            grid = geometry.build_grid(DomainSpec(kind=kind, dim=3, resolution=(n,)))
            base = self.AMPLITUDE * np.cos(2.0 * np.pi * grid.mesh()[0] / grid.domain.extents[0])
            shift = ScalarField(grid, _orient(base, axis, phase, kind == "torus"))
            self.specs[kind] = mfg.MfgSpec(
                grid=grid, gamma=2.0, alpha=1.0, c_v=2.0, shift=shift, eps=self.EPS
            )

    def run(self):
        results = {}
        for kind, spec in self.specs.items():
            try:
                results[kind] = mfg.mfg_fixed_point(spec)
            except Exception:
                results[kind] = traceback.format_exc(limit=3)
        return results

    @staticmethod
    def _values(report) -> dict:
        vals = {"lambda": report.lam, "mass": report.mass, "min_density": report.min_density}
        for block in ("duality", "lp_bounds"):
            for key, v in getattr(report, block).items():
                if isinstance(v, float):
                    vals[block + "." + key] = v
        return vals

    def outputs(self, results) -> dict:
        return {kind: self._values(res[1]) for kind, res in results.items() if not isinstance(res, str)}

    def verify(self, results, reference: dict) -> Outcome:
        out = Outcome()
        for kind, res in results.items():
            if isinstance(res, str):
                out.record(kind, ["raised: " + res.strip().splitlines()[-1]], False)
                continue
            state, report = res
            if not report.converged:
                out.record(kind, ["did not converge: " + report.message], False)
                continue
            problems = []
            try:
                state.validate()
            except ValueError as exc:
                problems.append("state invalid: " + str(exc))
            ref = reference["game"][kind]
            vals = self._values(report)
            if sorted(vals) != sorted(ref):
                problems.append("certificate keys %r, reference %r" % (sorted(vals), sorted(ref)))
            for key in sorted(set(vals) & set(ref)):
                if not agree(key, vals[key], ref[key], ref):
                    problems.append("%s %r, reference %r" % (key, vals[key], ref[key]))
            for block in (report.duality, report.lp_bounds):
                for key, v in block.items():
                    if isinstance(v, bool) and not v:
                        problems.append("certificate " + key + " false")
            out.record(kind, problems, True)
        return out


# ---------------------------------------------------------------------------
# lab: cli.main in-process for every subcommand, plus three configured runs

CONFORMAL_ERGODIC = """\
[domain]
kind = conformal_torus
dim = 3
resolution = 24

[problem]
source_kind = mode
"""

# The gradient sweep that `scripts/amplitude_sweeps.py --drift` configures,
# at 16^3 instead of 48^3.
DRIFTED_THM1 = """\
[domain]
kind = torus
dim = 3
resolution = 16

[problem]
gamma = 3.0
source_kind = mode
drift_kind = shear
drift_amplitude = 1.0
drift_s = 4.0
drift_theta = 0.7825422900366437

[experiment]
amplitudes = 1, 3, 10, 30, 100
q = 2.5714285714285716
r = 18.0
"""

# Mesh Peclet number far above 1.  The request is valid, so the run must
# end with exit status 1 and a report naming the failure.
OVER_ADVECTED_MFG = """\
[domain]
kind = torus
dim = 2
resolution = 16

[problem]
shift_kind = mode
shift_amplitude = 2000
"""


class Lab(Workload):
    # name -> (subcommand, config file, expected exit status)
    CONFIGS = {
        "ergodic-conformal24": ("ergodic", CONFORMAL_ERGODIC, 0),
        "thm1-sweep-drift16": ("thm1-sweep", DRIFTED_THM1, 0),
        "mfg-over-advected": ("mfg", OVER_ADVECTED_MFG, 1),
    }
    OPS = len(CLI_SUBCOMMANDS) + len(CONFIGS)

    def __init__(self, seed: int, out_dir: str):
        super().__init__()
        self.runs = []  # (name, argv, expected exit status)
        for sub in CLI_SUBCOMMANDS:
            self.runs.append((sub, [sub], 0))
        os.makedirs(out_dir, exist_ok=True)
        for name, (sub, text, status) in self.CONFIGS.items():
            path = os.path.join(out_dir, name + ".ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.runs.append((name, [sub, "--config", path], status))
        self.dirs = {}
        for name, argv, _ in self.runs:
            d = os.path.join(out_dir, name)
            shutil.rmtree(d, ignore_errors=True)
            argv += ["--out", d, "--seed", str(seed)]
            self.dirs[name] = d

    def run(self):
        status = {}
        for name, argv, _ in self.runs:
            try:
                status[name] = cli.main(argv)
            except Exception:
                status[name] = traceback.format_exc(limit=3)
        return status

    def outputs(self, status) -> dict:
        return {name: s if isinstance(s, int) else "raised" for name, s in status.items()}

    def verify(self, status, reference: dict) -> Outcome:
        out = Outcome()
        for name, _argv, expected in self.runs:
            rc = status[name]
            if not isinstance(rc, int):
                out.record(name, ["raised: " + rc.strip().splitlines()[-1]], False)
                continue
            path = os.path.join(self.dirs[name], "report.json")
            report = None
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
            problems = []
            if rc != expected:
                problems.append("exit status %d, expected %d" % (rc, expected))
            if report is None:
                problems.append("no report.json")
            elif expected == 0 and report.get("passed") is not True:
                problems.append("report not passed: %r" % (report.get("failures"),))
            elif expected == 1 and (report.get("passed") is not False or not report.get("failures")):
                problems.append("report does not name the failure")
            # exit status 0 is the program's claim of success
            out.record(name, problems, rc == 0)
        return out


WORKLOADS = {"sweep": Sweep, "game": Game, "lab": Lab}
