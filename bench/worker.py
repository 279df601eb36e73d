"""One pass of one workload in a fresh single-threaded process.

Started by ``run.py``; prints one JSON object on its last line of
standard output.  Set-up time runs from ``--spawned-at`` (the parent's
``time.monotonic()`` just before it started this process; both read
CLOCK_MONOTONIC) to the start of the timed pass, so it covers interpreter
start, imports and input generation.  With ``--setup-only`` the worker
stops there and reports only its set-up time.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def library_versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }


def set_up(workload: str, seed: int, trace: bool, out_dir: str):
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, out_dir)
    wl.pause = tracer.paused
    return tracer, wl, workloads.load_reference()


def run_pass(workload: str, seed: int, trace: bool, out_dir: str, spawned_at: float) -> dict:
    tracer, wl, reference = set_up(workload, seed, trace, out_dir)

    tracer.pass_id = "pass"
    setup_s = time.monotonic() - spawned_at
    cpu0 = workloads.cpu_seconds()
    t0 = time.perf_counter()
    result = wl.run()
    wall_s = time.perf_counter() - t0 - wl.check_wall
    cpu_s = workloads.cpu_seconds() - cpu0 - wl.check_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans, counts = list(tracer.spans), dict(tracer.counts)
    tracer.pass_id = "verify"

    outcome = wl.verify(result, reference)
    out = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong,
        "problems": outcome.problems,
        "outputs": wl.outputs(result) if not isinstance(result, str) else None,
        "versions": library_versions(),
    }
    if trace:
        tracer.spans, tracer.counts = spans, counts
        tracer.dump(os.path.join(out_dir, "spans.jsonl"))
        out["layers"] = tracing.per_layer_metrics(spans, counts)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for this pass's files")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    args = ap.parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed, False, args.out)
        out = {"setup_s": time.monotonic() - args.spawned_at}
    else:
        out = run_pass(args.workload, args.seed, bool(args.trace), args.out, args.spawned_at)
    # the program's own output files are checked; only the spans are kept
    for entry in os.listdir(args.out):
        path = os.path.join(args.out, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
