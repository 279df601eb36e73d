#!/usr/bin/env python3
"""Stationary game with a cosine shift and mollified power coupling.

Solves the value/density fixed point on a flat torus, reporting the
ergodic constant, mass, positivity, duality margin, and integrability
certificates; writes ``report.json``, ``u.csv``, and ``m.csv``.
"""

import argparse
import os
import sys

from hjblab.cli import main as cli_main

CONFIG = """\
[domain]
kind = torus
dim = {dim}
resolution = {n}

[problem]
gamma = 2.0
shift_kind = mode
shift_amplitude = 0.5

[mfg]
alpha = 1.0
eps = 0.05

[output]
dump_fields = true
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/game", help="output directory")
    ap.add_argument("--dim", type=int, default=3, choices=(2, 3))
    ap.add_argument("--resolution", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(CONFIG.format(dim=args.dim, n=args.resolution))
    rc = cli_main(
        ["mfg", "--config", cfg_path, "--out", args.out, "--seed", str(args.seed)]
    )
    print("report:", os.path.join(args.out, "report.json"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
