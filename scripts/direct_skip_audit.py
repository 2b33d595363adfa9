#!/usr/bin/env python3
"""Audit the float rehearsal that lets direct summation give up before summing.

Draws seeded 3F2(a1, a2, a3; b1, b2; 1) points with excess s in (1, 12], a
tolerance 10^-e with e uniform in [6, digits - 2] and a term budget from
{65, 100, 1000, 10000}.  Half are the suite's f_{i,j} points,
3F2(a, b, c; (a+b+i+1)/2, 2c+j; 1) with a, b in (0.1, 3); half are wide, with
a1, a2, a3 in (-40, 40) and b1 in (-60, 40), whose terms can fall below the
tolerance and then rise again when a denominator crosses zero.

For each point it takes the rehearsal's verdict (series._direct_gives_up) and
runs the mp direct-summation loop (series._direct_sum) regardless.  A skip is
unsound when the loop would have finished, since then the skip changes a
result.  Prints the counts and exits 1 on any unsound skip.

    python scripts/direct_skip_audit.py --count 2000 --seed 1 --digits 30
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpmath import mpf                                           # noqa: E402

from watsonlab import series                                     # noqa: E402
from watsonlab.mpnum import PrecisionCtx                         # noqa: E402

BUDGETS = (65, 100, 1000, 10_000)


def draw_points(ctx, seed, count):
    """(f, s, tol, budget) tuples, none with a parameter inside the pole guard."""
    rng = random.Random(seed)
    out = []
    with ctx.working():
        while len(out) < count:
            s = mpf(rng.uniform(1.0, 12.0))
            tol = mpf(10) ** -rng.randint(6, ctx.digits - 2)
            budget = rng.choice(BUDGETS)
            if rng.random() < 0.5:
                a = mpf(rng.uniform(0.1, 3.0))
                b = mpf(rng.uniform(0.1, 3.0))
                i, j = rng.randint(-5, 5), rng.randint(-3, 3)
                c = s - j - mpf(i + 1) / 2 + (a + b) / 2
                f = series.PFQ((a, b, c), ((a + b + i + 1) / 2, 2 * c + j))
            else:
                nums = tuple(mpf(rng.uniform(-40, 40)) for _ in range(3))
                b1 = mpf(rng.uniform(-60, 40))
                f = series.PFQ(nums, (b1, s + sum(nums) - b1))
            if s <= 1 or any(ctx.near_nonpos_int(v) is not None
                             for v in f.numerators + f.denominators):
                continue
            out.append((f, s, tol, budget))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=2000, help="points to draw (default 2000)")
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    ap.add_argument("--digits", type=int, default=30, help="working digits, 15..1000")
    args = ap.parse_args(argv)
    if not 15 <= args.digits <= 1000:
        ap.error("--digits must lie in 15..1000")

    ctx = PrecisionCtx(digits=args.digits)
    skips = finishes = unsound = 0
    for k, (f, s, tol, budget) in enumerate(draw_points(ctx, args.seed, args.count)):
        skipped = series._direct_gives_up(f, tol, budget, s)
        finished = series._direct_sum(f, ctx, tol, budget, s) is not None
        skips += skipped
        finishes += finished
        if skipped and finished:
            unsound += 1
            print(f"unsound skip at point {k}: {f} s={s} tol={tol} budget={budget}")
    print(f"points {args.count}  digits {args.digits}  seed {args.seed:#x}")
    print(f"skips {skips}  direct finishes {finishes}  unsound skips {unsound}")
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
