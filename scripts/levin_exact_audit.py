#!/usr/bin/env python3
"""Audit the integer Levin route against the libmp tuple route it replaced.

Draws seeded 3F2(a1, a2, a3; b1, b2; 1) points with excess s in (0.05, 4], a
tolerance 10^-e with e uniform in [6, digits - 2] and a tableau size M that
cycles through 32, 64 and 128.  Half are the suite's f_{i,j} points,
3F2(a, b, c; (a+b+i+1)/2, 2c+j; 1) with a, b in (0.1, 3); half are wide, with
a1, a2, a3 in (-40, 40) and b1 in (-60, 40), whose terms change sign and
span many binades, so partial sums and tableau entries cancel and their
exponents drift apart.

For each point it draws terms at the working precision the accelerated route
would use for that M and feeds them as that route does: series._levin_scan
gets a lazy iterator of at most M integer terms from series._terms and
builds the tableau by counter-diagonals, stopping where it breaks; the
frozen copies below draw all M terms as raw libmp tuples and build the
tableau order by order.  So the audit covers the term generator, the
initialisation of N and D, the tableau and the estimates.  It compares
(estimate, bound, order) with ==, prints the counts and exits 1 on any
difference.

    python scripts/levin_exact_audit.py --count 2000 --seed 1 --digits 30
"""

import argparse
import random
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mpmath                                                    # noqa: E402
from mpmath import mpf                                           # noqa: E402
from mpmath.libmp import (fone, fzero, from_int, mpf_add,       # noqa: E402
                          mpf_div, mpf_mul, mpf_mul_int, mpf_sub, round_nearest)

from watsonlab import series                                     # noqa: E402
from watsonlab.mpnum import PrecisionCtx                         # noqa: E402

SIZES = (32, 64, 128)
_RND = round_nearest


def frozen_terms(nums, dens, prec):
    """series._terms at unit argument as it was before integer terms (raw libmp tuples)."""
    t = fone
    n = 0
    while True:
        yield t
        fn = from_int(n)
        num = fone
        for a in nums:
            num = mpf_mul(num, mpf_add(a, fn, prec, _RND), prec, _RND)
        den = from_int(n + 1, prec, _RND)
        for b in dens:
            den = mpf_mul(den, mpf_add(b, fn, prec, _RND), prec, _RND)
        t = mpf_div(mpf_mul(t, num, prec, _RND), den, prec, _RND)
        n += 1


def frozen_levin_scan(terms, tol, beta=1):
    """series._levin_scan as it was before the integer tableau (raw libmp tuples)."""
    prec = mpmath.mp.prec
    M = len(terms)
    N, D = [], []
    acc = fzero
    for n, t in enumerate(terms):
        acc = mpf_add(acc, t, prec, _RND)
        weight = mpf_mul_int(t, beta + n, prec, _RND)
        N.append(mpf_div(acc, weight, prec, _RND))
        D.append(mpf_div(fone, weight, prec, _RND))
    prev_est = None
    gaps = [mpmath.inf]
    ests = [None]
    small_streak = 0
    quarter_tol = tol / 4
    for k in range(1, M):
        coeffs = series._levin_row(k, prec, M - k)
        for n in range(M - k):
            b = coeffs[n]
            N[n] = mpf_sub(N[n + 1], mpf_mul(b, N[n], prec, _RND), prec, _RND)
            D[n] = mpf_sub(D[n + 1], mpf_mul(b, D[n], prec, _RND), prec, _RND)
        d0 = mpmath.mp.make_mpf(D[0])
        est = mpmath.mp.make_mpf(N[0]) / d0 if d0 != 0 else None
        ests.append(est)
        if est is None or prev_est is None:
            gaps.append(mpmath.inf)
        else:
            gap = abs(est - prev_est)
            gaps.append(gap)
            small_streak = small_streak + 1 if gap <= quarter_tol else 0
            if small_streak >= 3 and k >= 6:
                break
        if est is not None:
            prev_est = est
    best_k = None
    best_pair = mpmath.inf
    for k in range(4, len(gaps)):
        if ests[k] is None:
            continue
        pair = gaps[k] + gaps[k - 1]
        if pair < best_pair:
            best_pair = pair
            best_k = k
    if best_k is None:
        return None, mpmath.inf, 0
    return ests[best_k], 2 * best_pair, best_k


def draw_points(ctx, seed, count):
    """(f, tol, M) tuples, none with a parameter inside the pole guard."""
    rng = random.Random(seed)
    out = []
    with ctx.working():
        while len(out) < count:
            s = mpf(rng.uniform(0.05, 4.0))
            tol = mpf(10) ** -rng.randint(6, ctx.digits - 2)
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
            if any(ctx.near_nonpos_int(v) is not None for v in f.numerators + f.denominators):
                continue
            out.append((f, tol, SIZES[len(out) % len(SIZES)]))
    return out


def scan_both(f, ctx, tol, M):
    """(new, frozen) scan results at the working precision _accelerated_unit uses for M."""
    prec = series._levin_prec(ctx.digits, tol, M)
    with mpmath.workprec(prec):
        nums, dens = series._raw(f.numerators), series._raw(f.denominators)
        new = series._levin_scan(islice(series._terms(nums, dens, None, prec), M), M, tol)
        return new, frozen_levin_scan(list(islice(frozen_terms(nums, dens, prec), M)), tol)


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
    differ = estimates = 0
    for k, (f, tol, M) in enumerate(draw_points(ctx, args.seed, args.count)):
        new, old = scan_both(f, ctx, tol, M)
        estimates += new[0] is not None
        if new != old:
            differ += 1
            print(f"difference at point {k} (M={M}): {f} tol={tol}: {new} != {old}")
    print(f"points {args.count}  digits {args.digits}  seed {args.seed:#x}  M {SIZES}")
    print(f"estimates {estimates}  differences {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
