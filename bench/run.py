"""hjblab benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One caller runs passes one after another (a closed loop), each pass in a
fresh single-threaded worker process (``worker.py``), for about
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics as
medians over the passes (``setup_s`` also over extra set-up-only
workers); with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of the traced ones plus
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it give provenance and each metric with its unit and sample
count.  Everything written goes under ``.bench_out/`` at the repository
root.  See README.md in this directory for what each number means.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "game", "lab")
# A run ends within 180 s; no pass starts after this many seconds, and a
# pass still running at the limit is stopped and counted as failed.
HARD_LIMIT_S = 170.0
# Set-up takes about half a second and varies by 15% from one process to
# the next, so with --trace 0 every pass is preceded by this many workers
# that only set up, and setup_s is the median over all of them and the passes.
SETUP_PROBES = 2


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def provenance(seed: int, versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hjblab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **versions,
    }


def spawn(workload: str, seed: int, traced: bool, out_dir: str, timeout: float, setup_only: bool = False) -> dict:
    """Run one pass in a fresh worker; a crash or timeout counts every operation as failed."""
    started = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--out", out_dir, "--spawned-at", repr(started),
    ] + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crashed": "pass exceeded %.0f s" % timeout, "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crashed": "worker exit %d: %s" % (proc.returncode, tail), "traced": traced}
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict, ops: int) -> dict:
    """Passes of one workload for about `seconds`; `ops` operations per pass."""
    out_base = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d-%d" % (workload, seed, int(trace), os.getpid()))
    start = time.monotonic()
    passes = []
    setups = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        # Start a pass only if it should end within half a pass of the
        # deadline, so a run lasts `seconds` give or take half a pass.
        kinds = {p["traced"] for p in passes}
        enough = elapsed + 0.5 * last > seconds and (not trace or kinds == {False, True})
        if passes and (enough or elapsed >= HARD_LIMIT_S - 5.0):
            break
        for _ in range(0 if trace else SETUP_PROBES):
            left = HARD_LIMIT_S - (time.monotonic() - start)
            setups.append(spawn(workload, seed, False, os.path.join(out_base, "setup"), left, setup_only=True))
        traced = trace and len(passes) % 2 == 1
        out_dir = os.path.join(out_base, "pass%02d" % len(passes))
        passes.append(spawn(workload, seed, traced, out_dir, HARD_LIMIT_S - (time.monotonic() - start)))
        last = time.monotonic() - start - elapsed
    return summarize(workload, trace, passes, setups, units, ops)


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(workload: str, trace: bool, passes: list, setups: list, units: dict, ops: int) -> dict:
    """Medians over the passes; a pass that died without a result fails all `ops` operations."""
    ok = [p for p in passes if "crashed" not in p]
    attempted = sum(p["attempted"] for p in ok) + ops * (len(passes) - len(ok))
    failed = sum(p["failed"] for p in ok) + ops * (len(passes) - len(ok))
    wrong = sum(p["wrong"] for p in ok)
    samples = {}
    plain = [p for p in ok if not p["traced"]]
    if not trace:
        for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            samples[key] = [p[key] for p in plain]
        samples["setup_s"] += [p["setup_s"] for p in setups if "crashed" not in p]
        samples["ok_frac"] = [1.0 - failed / attempted]
    else:
        traced = [p for p in ok if p["traced"]]
        for key in traced[0]["layers"] if traced else []:
            samples[key] = [p["layers"][key] for p in traced]
        t_wall = _median([p["wall_s"] for p in traced])
        u_wall = _median([p["wall_s"] for p in plain])
        samples["trace.overhead_frac"] = [t_wall / u_wall - 1.0]
    metrics = {k: {"value": _median(v), "unit": units[k]} for k, v in samples.items()}
    crashes = {p["crashed"] for p in passes + setups if "crashed" in p}
    problems = sorted({q for p in ok for q in p["problems"]} | crashes)
    return {
        "workload": workload,
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "problems": problems,
        "versions": ok[0]["versions"] if ok else {},
        "passes": passes,
    }


def print_summary(res: dict) -> None:
    print("workload %s: %d operations attempted, %d failed (failed_frac %.6g), correct=%s"
          % (res["workload"], res["attempted"], res["failed"],
             res["failed"] / max(res["attempted"], 1), res["correct"]))
    for name, m in res["metrics"].items():
        vals = res["samples"][name]
        spread = " [min %.6g, max %.6g]" % (min(vals), max(vals)) if len(vals) > 1 else ""
        print("  %-44s %14.6g %-6s median of %d%s" % (name, m["value"], m["unit"], len(vals), spread))
    for problem in res["problems"]:
        print("  problem: " + problem)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure for this long per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hjblab", "__init__.py")):
        print("error: no hjblab sources under " + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print("error: cannot read BENCHMARK.json: " + str(exc), file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [
        run_workload(w, args.seed, args.seconds, bool(args.trace), units, workloads.WORKLOADS[w].OPS) for w in names
    ]
    for r in results:
        values = [m["value"] for m in r["metrics"].values()]
        if sorted(r["metrics"]) != sorted(units) or not all(math.isfinite(v) for v in values):
            print("error: %s: no pass of the needed kind produced a result" % r["workload"], file=sys.stderr)
            for problem in r["problems"]:
                print("  " + problem, file=sys.stderr)
            return 1
    print(json.dumps({"provenance": provenance(args.seed, results[0]["versions"])}))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    for r in results:
        print_summary(r)
        path = os.path.join(ROOT, ".bench_out", "result-%s-seed%d-trace%d.json" % (r["workload"], args.seed, args.trace))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(r, fh, indent=1)
    if len(results) == 1:
        r = results[0]
        final = {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": r["metrics"]}
    else:
        final = {r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for r in results}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
