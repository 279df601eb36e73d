"""Record the reference outputs of the `sweep` and `game` workloads.

Runs each workload once on its canonical orientation (axis 0, phase 0)
and writes ``reference.json`` next to this file.  Every seed's inputs are
a lattice symmetry of that orientation, so one reference serves all
seeds.  Rerun only on purpose, on a commit whose outputs are trusted:

    python3 bench/record_reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    out_dir = os.path.join(os.path.dirname(HERE), ".bench_out", "reference")
    reference = {}
    for name in ("sweep", "game"):
        wl = workloads.WORKLOADS[name](0, out_dir, symmetry=(0, 0))
        result = wl.run()
        if isinstance(result, str):
            print(result, file=sys.stderr)
            return 1
        reference[name] = wl.outputs(result)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote", workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
