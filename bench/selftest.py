"""Self-test of the benchmark itself; exits 0 when all three checks hold.

    python3 bench/selftest.py    # about 2 minutes

1. Counts repeat: two traced passes on one seed give identical call,
   iteration and matvec counts (every per-layer metric with unit
   ``count``, plus the Peclet maximum).
2. Symmetric seeds agree: two seeds whose inputs differ by a lattice
   symmetry give outputs equal within the reference tolerance (``sweep``
   and ``game``; ``lab`` passes its seed to the program, so its outputs
   may differ by design).
3. Every metric prints with its unit: ``run.py`` with ``--trace 0`` and
   ``--trace 1`` reports exactly the metrics BENCHMARK.json declares,
   each with its declared unit, on the JSON line and on the text lines.
"""

import json
import os
import subprocess
import sys

import run as bench

sys.path.insert(0, os.path.join(bench.ROOT, "src"))

import workloads  # noqa: E402

SEED_A, SEED_B = 1, 2


def _pass(workload: str, seed: int, traced: bool, tag: str) -> dict:
    out = os.path.join(bench.ROOT, ".bench_out", "selftest", "%s-%s" % (workload, tag))
    res = bench.spawn(workload, seed, traced, out, bench.HARD_LIMIT_S)
    if "crashed" in res:
        raise SystemExit("selftest: %s pass crashed: %s" % (workload, res["crashed"]))
    return res


def check_counts(workload: str, first: dict, second: dict, count_names: list) -> list:
    return [
        "%s: %s differs between passes (%r vs %r)" % (workload, name, first["layers"][name], second["layers"][name])
        for name in count_names
        if first["layers"][name] != second["layers"][name]
    ]


def check_symmetry(workload: str, a: dict, b: dict) -> list:
    problems = []
    blocks = a["outputs"].items() if workload == "game" else [(None, a["outputs"])]
    for kind, ref in blocks:
        got = b["outputs"][kind] if kind else b["outputs"]
        for key, ref_val in ref.items():
            pairs = zip(got[key], ref_val) if isinstance(ref_val, list) else [(got[key], ref_val)]
            for value, r in pairs:
                if not workloads.agree(key, value, r, ref):
                    problems.append("%s: %s %s is %r for seed %d, %r for seed %d"
                                    % (workload, kind or "", key, r, SEED_A, value, SEED_B))
    return problems


def check_units(declared_by_kind: dict) -> list:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", "lab",
               "--seed", str(SEED_A), "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=bench.ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return ["run.py --trace %d failed: %s" % (trace, proc.stderr.strip()[-300:])]
        final = json.loads(lines[-1])
        if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
            problems.append("--trace %d: last line has keys %r" % (trace, sorted(final)))
        declared = declared_by_kind[kind]
        got = final.get("metrics", {})
        if sorted(got) != sorted(declared):
            problems.append("--trace %d: metrics %r, declared %r" % (trace, sorted(got), sorted(declared)))
        for name, unit in declared.items():
            m = got.get(name, {})
            if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                problems.append("--trace %d: %s reads %r, declared unit %s" % (trace, name, m, unit))
            text = [ln.split() for ln in lines[:-1]]
            if not any(len(t) >= 3 and t[0] == name and t[2] == unit for t in text):
                problems.append("--trace %d: no text line gives %s with unit %s" % (trace, name, unit))
    return problems


def main() -> int:
    declared = bench.declared_metrics()
    count_names = [name for name, unit in declared["per_layer"].items() if unit == "count"] + ["mfg.peclet_max"]
    checks = {"counts repeat": [], "symmetric seeds agree": [], "metrics carry units": []}
    for workload in bench.WORKLOADS:
        first = _pass(workload, SEED_A, True, "a1")
        second = _pass(workload, SEED_A, True, "a2")
        checks["counts repeat"] += check_counts(workload, first, second, count_names)
        if workload != "lab":
            # every case of the workload must be oriented differently
            syms = workloads.WORKLOADS[workload].symmetries
            if any(a == b for a, b in zip(syms(SEED_A), syms(SEED_B))):
                raise SystemExit("selftest: seeds %d and %d pick the same %s symmetry" % (SEED_A, SEED_B, workload))
            other = _pass(workload, SEED_B, False, "b")
            checks["symmetric seeds agree"] += check_symmetry(workload, first, other)
    checks["metrics carry units"] = check_units(declared)
    failed = 0
    for name, problems in checks.items():
        print("%-24s %s" % (name, "FAIL" if problems else "ok"))
        for p in problems:
            print("    " + p)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
