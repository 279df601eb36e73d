"""Span recording around the public functions of each hjblab module.

The tracer never edits the package: it replaces module attributes with
timing wrappers from outside.  A function imported by name into another
module (``from .hjb import bordered_solve``) lives on as an attribute of
the importer too, so every module attribute that *is* the original
function gets the wrapper.

A span is ``[name, start, end, parent, pass_id, extra]``; ``parent`` is the
index of the enclosing span (-1 at top level) and ``extra`` holds counts
read from the call's result.  Spans stay in memory until the process
writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) -> span name; several functions may share one span
# name when together they form one layer boundary.
PLAIN_WRAPS = [
    ("hjb", "transport_coefficient", "hjb.transport_coefficient"),
    ("hjb", "solution_norm_table", "hjb.solution_norm_table"),
    ("mfg", "fp_solve", "mfg.fp_solve"),
    ("mfg", "mollify_coupling", "mfg.mollify_coupling"),
    ("mfg", "duality_identity_residual", "mfg.certificates"),
    ("mfg", "lp_bound_check", "mfg.certificates"),
    ("estimates", "sobolev_constant_estimate", "estimates.sobolev_constant_estimate"),
    ("estimates", "thm1_sweep", "estimates.sweep"),
    ("estimates", "thm2_sweep", "estimates.sweep"),
    ("fields", "lq_norm", "fields.lq_norm"),
    ("fields", "gradient", "fields.gradient"),
    ("fields", "hessian", "fields.hessian"),
    ("fields", "laplace_beltrami", "fields.laplace_beltrami"),
    ("fields", "dump_field_csv", "fields.dump_field_csv"),
    ("bernstein", "pointwise_inequality_suite", "bernstein.pointwise_inequality_suite"),
    ("bernstein", "bochner_residual", "bernstein.bochner_residual"),
    ("svg", "line_plot", "svg.line_plot"),
    ("geometry", "build_grid", "geometry.build_grid"),
]

CLI_SUBCOMMANDS = (
    "solve",
    "ergodic",
    "bochner-check",
    "bernstein-audit",
    "thm1-sweep",
    "thm2-sweep",
    "constants",
    "mfg",
)


def replace_everywhere(original, replacement) -> None:
    """Point every hjblab module attribute bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "hjblab" or modname.startswith("hjblab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.pass_id = "setup"
        self.counts = defaultdict(int)
        self.off = False

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.pass_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, extra=None):
        """Wrap fn in a span; extra(result, args) may return a dict of counts."""

        def traced(*args, **kwargs):
            if self.off:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if extra is not None:
                rec[5] = extra(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """Count calls without a span, so the work stays in the caller's self time."""

        def wrapper(*args, **kwargs):
            if not self.off:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Benchmark code run inside a pass: one ``bench.check`` span, so it
        leaves its callers' self time, and nothing traced within it."""
        rec = self._open("bench.check")
        self.off = True
        try:
            yield
        finally:
            self.off = False
            self._close(rec)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        from hjblab import cli, hjb, mfg, stencils

        for modname, fname, span in PLAIN_WRAPS:
            orig = getattr(importlib.import_module("hjblab." + modname), fname)
            replace_everywhere(orig, self.wrap(span, orig))
        replace_everywhere(
            stencils.apply_along_axis,
            self.counted("stencils.apply_along_axis", stencils.apply_along_axis),
        )

        replace_everywhere(
            hjb.solve,
            self.wrap(
                "hjb.solve",
                hjb.solve,
                lambda rep, _a: {"newton_steps": rep.iterations, "unconverged": int(not rep.converged)},
            ),
        )
        replace_everywhere(
            mfg.mfg_fixed_point,
            self.wrap(
                "mfg.mfg_fixed_point",
                mfg.mfg_fixed_point,
                lambda res, _a: {"outer_iterations": res[1].outer_iterations},
            ),
        )
        replace_everywhere(
            mfg.fp_peclet,
            self.wrap("mfg.fp_peclet", mfg.fp_peclet, lambda pec, _a: {"peclet": float(pec)}),
        )
        replace_everywhere(
            cli.main,
            self.wrap(
                "cli.main",
                cli.main,
                lambda _rc, args: {"subcommand": args[0][0]},
            ),
        )
        replace_everywhere(hjb.bordered_solve, self._wrap_bordered(hjb.bordered_solve))

    def _wrap_bordered(self, orig):
        tracer = self

        class _TimedInverter:
            """Stands in for the preconditioner argument; times each solve."""

            def __init__(self, inv):
                self._inv = inv
                self.solve = tracer.wrap("hjb.precond", inv.solve)

            def __getattr__(self, attr):
                return getattr(self._inv, attr)

        def bordered(grid, apply_fn, inv, *args, **kwargs):
            if tracer.off:
                return orig(grid, apply_fn, inv, *args, **kwargs)
            kind = "hjb.adjoint_apply" if tracer.inside("mfg.fp_solve") else "hjb.jacobian_apply"
            rec = tracer._open("hjb.bordered_solve")
            first = len(tracer.spans)
            try:
                result = orig(grid, tracer.wrap(kind, apply_fn), _TimedInverter(inv), *args, **kwargs)
            finally:
                tracer._close(rec)
            matvecs = sum(1 for s in tracer.spans[first:] if s[0] == kind)
            rec[5] = {"matvecs": matvecs, "info_nonzero": int(result[2] != 0)}
            return result

        bordered.__wrapped__ = orig
        return bordered

    # -- output ----------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = {"fields": ["name", "start", "end", "parent", "pass", "extra"], "counts": self.counts}
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def per_layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer counts and times of one process's spans (setup and pass).

    `.s` is the time inside outermost calls of a function (nested calls of
    the same name are not counted twice); `.self_s` is each span's
    duration minus the time its direct children cover.
    """
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def has_ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    extra_sum = defaultdict(float)
    matvecs_max = 0
    peclet_max = 0.0
    cli_by_sub = defaultdict(float)
    search_in_certificates = 0.0
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_s[name] += dur[i] - child_time[i]
        if not has_ancestor(i, (name,)):
            total[name] += dur[i]
        extra = s[5] or {}
        for key in ("newton_steps", "unconverged", "outer_iterations", "info_nonzero"):
            if key in extra:
                extra_sum[name + "." + key] += extra[key]
        if "matvecs" in extra:
            matvecs_max = max(matvecs_max, extra["matvecs"])
        if "peclet" in extra:
            peclet_max = max(peclet_max, extra["peclet"])
        if name == "cli.main":
            cli_by_sub[extra.get("subcommand", "?")] += dur[i]
        if name == "estimates.sobolev_constant_estimate" and has_ancestor(i, ("mfg.certificates",)):
            search_in_certificates += dur[i]

    m = {}
    for name in ("hjb.jacobian_apply", "hjb.precond", "hjb.adjoint_apply"):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = total[name]
    m["hjb.bordered_solve.calls"] = calls["hjb.bordered_solve"]
    m["hjb.bordered_solve.self_s"] = self_s["hjb.bordered_solve"]
    m["hjb.bordered_solve.matvecs_max"] = matvecs_max
    m["hjb.bordered_solve.info_nonzero"] = int(extra_sum["hjb.bordered_solve.info_nonzero"])
    m["hjb.solve.calls"] = calls["hjb.solve"]
    m["hjb.solve.self_s"] = self_s["hjb.solve"]
    m["hjb.solve.newton_steps"] = int(extra_sum["hjb.solve.newton_steps"])
    m["hjb.solve.unconverged"] = int(extra_sum["hjb.solve.unconverged"])
    m["hjb.transport_coefficient.s"] = total["hjb.transport_coefficient"]
    m["hjb.solution_norm_table.s"] = total["hjb.solution_norm_table"]
    m["stencils.apply_along_axis.calls"] = counts.get("stencils.apply_along_axis", 0)
    m["mfg.mfg_fixed_point.outer_iterations"] = int(extra_sum["mfg.mfg_fixed_point.outer_iterations"])
    m["mfg.mfg_fixed_point.self_s"] = self_s["mfg.mfg_fixed_point"]
    m["mfg.fp_solve.calls"] = calls["mfg.fp_solve"]
    m["mfg.fp_solve.self_s"] = self_s["mfg.fp_solve"]
    m["mfg.mollify_coupling.s"] = total["mfg.mollify_coupling"]
    m["mfg.certificates.s"] = total["mfg.certificates"] - search_in_certificates
    m["mfg.peclet_max"] = peclet_max
    m["estimates.sobolev_constant_estimate.calls"] = calls["estimates.sobolev_constant_estimate"]
    m["estimates.sobolev_constant_estimate.s"] = total["estimates.sobolev_constant_estimate"]
    m["estimates.sweep.self_s"] = self_s["estimates.sweep"]
    m["fields.lq_norm.calls"] = calls["fields.lq_norm"]
    for name in ("fields.lq_norm", "fields.gradient", "fields.hessian", "fields.laplace_beltrami"):
        m[name + ".s"] = total[name]
    m["bernstein.pointwise_inequality_suite.s"] = total["bernstein.pointwise_inequality_suite"]
    m["bernstein.bochner_residual.calls"] = calls["bernstein.bochner_residual"]
    m["bernstein.bochner_residual.s"] = total["bernstein.bochner_residual"]
    for sub in CLI_SUBCOMMANDS:
        m["cli.main." + sub + ".s"] = cli_by_sub[sub]
    m["cli.main.self_s"] = self_s["cli.main"]
    m["fields.dump_field_csv.s"] = total["fields.dump_field_csv"]
    m["svg.line_plot.s"] = total["svg.line_plot"]
    m["geometry.build_grid.calls"] = calls["geometry.build_grid"]
    m["geometry.build_grid.s"] = total["geometry.build_grid"]
    return m
