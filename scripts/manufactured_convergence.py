#!/usr/bin/env python3
"""Convergence study against an exact product-of-cosines solution.

Solves the gradient-growth equation on the unit box at a ladder of
resolutions, compares with the closed-form solution, and writes
``report.json``, ``convergence.csv``, and ``convergence.svg``.
"""

import argparse
import os
import sys

from hjblab.cli import main as cli_main

CONFIG = """\
[domain]
kind = box
dim = {dim}
resolution = 17

[problem]
gamma = 2.0
manufactured = symbolic

[experiment]
resolutions = 17, 33, 65
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/manufactured", help="output directory")
    ap.add_argument("--dim", type=int, default=3, choices=(2, 3))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "run.ini")
    with open(cfg_path, "w") as fh:
        fh.write(CONFIG.format(dim=args.dim))
    rc = cli_main(
        ["solve", "--config", cfg_path, "--out", args.out, "--seed", str(args.seed)]
    )
    print("report:", os.path.join(args.out, "report.json"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
