#!/usr/bin/env python3
"""Desk-scale audits of the curvature identities and scalar machinery.

Runs three subcommands into subdirectories of ``--out``:

* ``bochner-check`` — exactness and refinement of the Hessian/curvature
  identities on flat and conformal tori;
* ``bernstein-audit`` — profile toolkit, pointwise inequalities,
  exponent identities, level-set bounds;
* ``constants`` — the closed-form embedding-constant bound ``sigma_hat``
  (the constant field's Sobolev quotient, vol^(-1/d)), second-derivative
  ratios, and continuity-argument scalars.
"""

import argparse
import os
import sys

from hjblab.cli import main as cli_main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/audits", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rc = 0
    for sub in ("bochner-check", "bernstein-audit", "constants"):
        out = os.path.join(args.out, sub)
        os.makedirs(out, exist_ok=True)
        rc |= cli_main([sub, "--out", out, "--seed", str(args.seed)])
        print(sub, "report:", os.path.join(out, "report.json"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
