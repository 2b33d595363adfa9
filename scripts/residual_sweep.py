#!/usr/bin/env python3
"""Sweep the main recurrence over the full (i, j) grid and report the worst
relative residual per cell, series evaluation only.

    python scripts/residual_sweep.py --digits 30 --per-cell 5
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mpmath                                                    # noqa: E402

from watsonlab import verify                                     # noqa: E402
from watsonlab.lattice import WatsonPoint, recurrence_residual   # noqa: E402
from watsonlab.mpnum import PrecisionCtx                         # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=30)
    ap.add_argument("--per-cell", type=int, default=5)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    args = ap.parse_args()

    ctx = PrecisionCtx(digits=args.digits)
    tol = verify.adjudication_tol(ctx)
    worst_overall = None
    for i, j in verify.GRID:
        cons = verify._recurrence_constraints(i, j)
        worst = None
        for k in range(args.per_cell):
            a, b, c = verify.sample_params(args.seed ^ (i * 131 + j * 17 + 7),
                                           k, cons, ctx)
            inst = recurrence_residual(WatsonPoint(a, b, c, i, j), ctx, tol=tol)
            if not inst.converged:
                continue
            if worst is None or float(inst.rel_residual) > float(worst):
                worst = inst.rel_residual
        if worst is None:
            # left out of the grid-wide worst: there is nothing to compare
            print(f"(i={i:+d}, j={j:+d})  no converged sample among "
                  f"{args.per_cell} samples")
            continue
        print(f"(i={i:+d}, j={j:+d})  worst rel residual over "
              f"{args.per_cell} samples: {mpmath.nstr(worst, 4)}")
        if worst_overall is None or float(worst) > float(worst_overall):
            worst_overall = worst
    if worst_overall is None:
        print("\nno cell of the grid has a converged sample")
    else:
        print(f"\nworst over the whole grid: {mpmath.nstr(worst_overall, 6)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
