import math
import random
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf
from mpmath.libmp import (fone, fzero, from_int, from_man_exp, mpf_abs, mpf_add, mpf_div,
                          mpf_le, mpf_mul, mpf_neg, mpf_sub, round_nearest)

from watsonlab import series, verify
from watsonlab.lattice import WatsonPoint, to_pfq
from watsonlab.mpnum import PrecisionCtx, as_rational, nearest_nonpos_int, to_mpf_ambient
from watsonlab.series import (PFQ, ArgumentNotUnity, DivergentSeries, EvalResult,
                              NonRationalInput, NotTerminating, OutsideRadius,
                              SeriesError, _accelerated_unit, _direct_unit,
                              convergence_margin, default_tolerance, eval_exact,
                              eval_general, eval_unit, termination_degree)

CTX = PrecisionCtx(digits=30)

# kept as strings; parse under a working context so no digits are lost
PI2_4 = "2.4674011002723396547086227499690377838284248518102"
FOUR_OVER_PI = "1.2732395447351626861510701069801148962756771659237"
TWO_LN2 = "1.3862943611198906188344642429163531361510002687205"


def F3(nums, dens, z=1):
    return PFQ(tuple(nums), tuple(dens), z)


def test_pfq_shape_guard():
    with pytest.raises(SeriesError):
        PFQ((1, 2, 3), (4,), 1)    # p > q + 1


@pytest.mark.parametrize("nums, expected", [
    ((-4, 1, 2), 4),
    ((-2, -5, 1), 2),
    ((0.5, 1.5), None),
])
def test_termination_degree(nums, expected):
    f = F3(nums, (Fraction(3, 2), 2))
    assert termination_degree(f) == expected


def test_termination_degree_guard_proximity():
    # floats within the guard of a nonpositive integer count as that integer
    f = F3((-3.98, 1), (5,))
    assert termination_degree(f, pole_guard=0.05) == 4
    assert termination_degree(f, pole_guard=0.001) is None


@pytest.mark.parametrize("nums, dens, expected", [
    ((1, 1, 1), (Fraction(3, 2), 2), Fraction(1, 2)),
    ((Fraction(1, 2), Fraction(1, 2), 2), (1, 3), Fraction(1)),
    ((2, 2, 1), (Fraction(3, 2), 2), Fraction(-3, 2)),
])
def test_convergence_margin(nums, dens, expected):
    assert convergence_margin(F3(nums, dens)) == expected


def test_convergence_margin_requires_unit_argument():
    with pytest.raises(ArgumentNotUnity):
        convergence_margin(F3((1, 1), (2,), Fraction(1, 2)))


@pytest.mark.parametrize("nums, dens, expected", [
    ((-1, 1, 1), (Fraction(3, 2), 2), Fraction(2, 3)),
    ((-1, 1, 1), (Fraction(1, 2), 2), Fraction(0)),
    ((-2, 1), (1,), Fraction(0)),
    ((-1, 1, 1), (1, 2), Fraction(1, 2)),
])
def test_eval_exact_values(nums, dens, expected):
    assert eval_exact(F3(nums, dens)) == expected


def test_eval_exact_errors():
    with pytest.raises(NotTerminating):
        eval_exact(F3((Fraction(1, 2), 1), (3,)))
    with pytest.raises(NonRationalInput):
        eval_exact(F3((-1.0, 1.0), (3.0,)))


def test_eval_unit_degenerate_zero_numerator():
    res = eval_unit(F3((0, Fraction(7, 3), 5), (Fraction(9, 2), 4)), CTX)
    assert res.exact_value == 1
    assert res.terms_used == 1
    assert res.converged


def test_eval_unit_watson_point():
    ctx = PrecisionCtx(digits=50)
    res = eval_unit(F3((1, 1, 1), (Fraction(3, 2), 2)), ctx, tol=mpf(10) ** -40)
    with ctx.working():
        assert res.converged and res.method == "accelerated"
        assert abs(res.value - mpf(PI2_4)) <= res.abs_err_bound + mpf(10) ** -45
        assert res.abs_err_bound <= mpf(10) ** -40


def test_eval_unit_gauss_point():
    # 2F1(1/2,1/2;2;1) = 4/pi, margin exactly 1 -> accelerated route
    res = eval_unit(F3((Fraction(1, 2), Fraction(1, 2)), (2,)), CTX, tol=mpf(10) ** -25)
    with CTX.working():
        assert abs(res.value - mpf(FOUR_OVER_PI)) <= res.abs_err_bound + mpf(10) ** -25


def test_eval_unit_divergent():
    with pytest.raises(DivergentSeries):
        eval_unit(F3((2, 2, 1), (Fraction(3, 2), 2)), CTX)


def test_eval_unit_denominator_pole_rejected():
    with pytest.raises(SeriesError):
        eval_unit(F3((Fraction(1, 2), 1, 1), (Fraction(-3, 2), 4)), CTX)


def test_eval_unit_exact_denominator_near_pole_is_summed():
    # an exact denominator is a pole only at an exact nonpositive integer
    ctx = PrecisionCtx(digits=20)
    res = eval_unit(F3((1, 1, 1), (Fraction(-39, 40), 5)), ctx)
    with mpmath.workdps(40):
        ref = mpmath.hyp3f2(1, 1, 1, mpf(-39) / 40, 5, 1)
        assert res.converged
        assert abs(res.value - ref) <= res.abs_err_bound + mpf(10) ** -35
        assert abs(res.value + mpf("100.737614409426827")) < mpf(10) ** -14
    # the same value as a float still falls inside the guard
    with pytest.raises(SeriesError):
        eval_unit(F3((1, 1, 1), (-0.975, 5)), ctx)


def test_inexact_numerator_near_pole_is_refused():
    # within pole_guard of -m but not equal: the series does not end at m
    with pytest.raises(SeriesError, match="numerator parameter -0.97"):
        eval_unit(F3((mpf("-0.97"), 1, 2), (1.5, 4)), CTX)
    with pytest.raises(SeriesError, match="numerator parameter -6.02"):
        eval_general(F3((mpf("-6.02"), 2), (3,), Fraction(1, 3)), CTX)
    # an exact nonpositive integer among the numerators still ends the series
    res = eval_unit(F3((mpf("-0.97"), -1, 2), (1.5, 4)), CTX)
    assert res.converged and res.terms_used == 2
    a = mpf("-0.97")
    res = eval_unit(F3((a, -5, 2), (1.5, 4)), CTX)
    assert res.converged and res.terms_used == 6
    with mpmath.workdps(60):
        ref = mpmath.hyp3f2(a, -5, 2, 1.5, 4, 1)
        assert abs(res.value - ref) <= res.abs_err_bound


def test_eval_general_at_zero_and_half():
    res = eval_general(F3((Fraction(3, 5), Fraction(7, 5)), (Fraction(11, 5),), 0), CTX)
    assert res.value == 1
    res = eval_general(F3((1, 1), (2,), Fraction(1, 2)), CTX, tol=mpf(10) ** -25)
    with CTX.working():
        assert abs(res.value - mpf(TWO_LN2)) <= res.abs_err_bound + mpf(10) ** -25
    assert res.converged and res.method == "direct"


def test_eval_general_terminating_exact():
    res = eval_general(F3((-1, 2, 1), (3, Fraction(3, 2)), Fraction(1, 4)), CTX)
    assert res.exact_value == Fraction(8, 9)


def test_eval_general_outside_radius():
    with pytest.raises(OutsideRadius):
        eval_general(F3((1, 1), (2,), Fraction(3, 2)), CTX)


@given(st.integers(min_value=0, max_value=30),
       st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=16),
       st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=16),
       st.fractions(min_value=Fraction(1, 2), max_value=5, max_denominator=16))
@settings(max_examples=40, deadline=None)
def test_eval_unit_matches_eval_exact(m, a2, a3, d2):
    """Terminating rational series: the rounded evaluation sits inside its own bound."""
    f = F3((-m, a2, a3), (Fraction(13, 3), d2))
    exact = eval_exact(f)
    res = eval_unit(f, CTX)
    with CTX.working():
        target = mpf(exact.numerator) / exact.denominator
        assert abs(res.value - target) <= res.abs_err_bound + mpf(10) ** (2 - CTX.digits)


def test_direct_and_accelerated_agree():
    """Both unit-argument routes agree within 10x the max of their own bounds."""
    ctx = PrecisionCtx(digits=25)
    rng = random.Random(424242)
    checked = 0
    with ctx.working():
        while checked < 100:
            a = mpf(rng.uniform(0.1, 3.0))
            b = mpf(rng.uniform(0.1, 3.0))
            s = mpf(rng.uniform(0.75, 3.0))
            c = s - mpf(1) / 2 + (a + b) / 2
            if ctx.near_nonpos_int(c) is not None:
                continue
            f = F3((a, b, c), ((a + b + 1) / 2, 2 * c))
            direct = _direct_unit(f, ctx, mpf(10) ** -40, 3000, s) \
                or _direct_loose(f, ctx, 3000, s)
            accel = _accelerated_unit(f, ctx, mpf(10) ** -18, 2000)
            assert accel.converged
            assert abs(direct.value - accel.value) <= 10 * max(direct.abs_err_bound,
                                                               accel.abs_err_bound)
            checked += 1


def _direct_loose(f, ctx, max_terms, s):
    # direct summation run to the budget with its honest (coarse) tail bound
    res = _direct_unit(f, ctx, mpf(10) ** 10, max_terms, s)
    assert res is not None
    return res


def test_partial_sums_monotone_for_positive_terms():
    f = F3((1, 1, 1), (Fraction(3, 2), 2))
    ref = eval_unit(f, CTX, tol=mpf(10) ** -25)
    with CTX.working():
        t = mpf(1)
        total = mpf(1)
        prev = total
        for n in range(400):
            t = t * (1 + n) ** 3 / ((Fraction(3, 2) + n) * (2 + n) * (1 + n))
            total += t
            assert total >= prev
            assert total <= ref.value + ref.abs_err_bound
            prev = total


@given(st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=12),
       st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=12),
       st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=12),
       st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=12),
       st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_term_ratio_recurrence_exact(a1, a2, b1, b2, n):
    """t_{n+1}/t_n = prod(a_i+n) z / (prod(b_j+n)(n+1)) holds exactly over Fractions."""
    z = Fraction(1)
    nums = (a1, a2)
    dens = (b1, b2)

    def term(k):
        t = Fraction(1)
        for m in range(k):
            t *= (nums[0] + m) * (nums[1] + m)
            t /= (dens[0] + m) * (dens[1] + m) * (m + 1)
        return t

    ratio = (nums[0] + n) * (nums[1] + n) * z / ((dens[0] + n) * (dens[1] + n) * (n + 1))
    assert term(n + 1) == term(n) * ratio


# ---------------------------------------------------------------------------
# bit exactness of the raw-libmp kernel against the mpf operator form
#
# Frozen copy of the mpf loops the kernel replaced: the Levin coefficient, the
# tableau, and the term recurrence of the direct, accelerated and general
# routes.  The kernel must reproduce every rounding, so results compare with ==.

def _frozen_round(ctx, x):
    with ctx.working():
        return +to_mpf_ambient(x)


def _frozen_levin_coeff(k, n, beta=1):
    if k == 1:
        return mpf(1)
    return mpf((beta + n) * (beta + n + k - 1) ** (k - 2)) / mpf((beta + n + k) ** (k - 1))


def _frozen_levin_scan(terms, tol, beta=1):
    M = len(terms)
    partial = []
    acc = mpf(0)
    for t in terms:
        acc += t
        partial.append(acc)
    N = [partial[n] / ((beta + n) * terms[n]) for n in range(M)]
    D = [mpf(1) / ((beta + n) * terms[n]) for n in range(M)]
    prev_est = None
    gaps = [mpmath.inf]
    ests = [None]
    small_streak = 0
    for k in range(1, M):
        for n in range(M - k):
            b = _frozen_levin_coeff(k, n, beta)
            N[n] = N[n + 1] - b * N[n]
            D[n] = D[n + 1] - b * D[n]
        est = N[0] / D[0] if D[0] != 0 else None
        ests.append(est)
        if est is None or prev_est is None:
            gaps.append(mpmath.inf)
        else:
            gap = abs(est - prev_est)
            gaps.append(gap)
            small_streak = small_streak + 1 if gap <= tol / 4 else 0
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


def _frozen_accelerated_unit(f, ctx, tol, max_partial):
    target_digits = max(ctx.digits, int(-mpmath.log10(tol)) + 2)
    M = min(32, max_partial)
    value, bound = None, mpmath.inf
    while True:
        internal = target_digits + int(0.55 * M) + 15
        with mpmath.workprec(int(internal * 3.3322) + 20):
            nums = [to_mpf_ambient(a) for a in f.numerators]
            dens = [to_mpf_ambient(b) for b in f.denominators]
            t = mpf(1)
            terms = [t]
            for n in range(M - 1):
                num = mpf(1)
                for a in nums:
                    num *= a + n
                den = mpf(n + 1)
                for b in dens:
                    den *= b + n
                t = t * num / den
                terms.append(t)
            value, bound, _ = _frozen_levin_scan(terms, tol)
        if value is not None and bound <= tol:
            break
        if M >= max_partial:
            break
        M = min(2 * M, max_partial)
    return EvalResult(_frozen_round(ctx, value), _frozen_round(ctx, bound), M,
                      "accelerated", bool(bound <= tol))


def _frozen_direct_unit(f, ctx, tol, max_terms, s):
    with ctx.working(10):
        nums = [to_mpf_ambient(a) for a in f.numerators]
        dens = [to_mpf_ambient(b) for b in f.denominators]
        t = mpf(1)
        total = mpf(1)
        decreasing = 0
        bound = mpmath.inf
        used = 1
        for n in range(max_terms):
            num = mpf(1)
            for a in nums:
                num *= a + n
            den = mpf(n + 1)
            for b in dens:
                den *= b + n
            t_next = t * num / den
            decreasing = decreasing + 1 if abs(t_next) < abs(t) else 0
            t = t_next
            total += t
            used = n + 2
            if decreasing >= 8 and n >= 24:
                bound = 2 * abs(t) * (n + 2) / s + abs(total) * mpf(10) ** (-(ctx.digits + 4))
                if bound <= tol:
                    break
                if n >= 64 and n % 32 == 0:
                    needed = (n + 2) * (bound / tol) ** (1 / s)
                    if needed > max_terms:
                        return None
        if bound > tol:
            return None
    return EvalResult(_frozen_round(ctx, total), _frozen_round(ctx, bound), used,
                      "direct", True)


def _frozen_finite_sum(f, ctx, m):
    with ctx.working(10):
        nums = [to_mpf_ambient(a) for a in f.numerators]
        dens = [to_mpf_ambient(b) for b in f.denominators]
        z = to_mpf_ambient(f.argument)
        t = mpf(1)
        total = mpf(1)
        for n in range(m):
            num = mpf(1)
            for a in nums:
                num *= a + n
            den = mpf(n + 1)
            for b in dens:
                den *= b + n
            t = t * num / den * z
            total += t
        bound = abs(total) * mpf(10) ** (-(ctx.digits + 2))
    return EvalResult(_frozen_round(ctx, total), _frozen_round(ctx, bound),
                      m + 1, "direct", True)


def _frozen_eval_general(f, ctx, tol):
    tol = ctx.mpf(tol)
    m = termination_degree(f, ctx.pole_guard)
    if m is not None:
        return _frozen_finite_sum(f, ctx, m)
    with ctx.working(8):
        z_abs = abs(to_mpf_ambient(f.argument))
    with ctx.working(10):
        nums = [to_mpf_ambient(a) for a in f.numerators]
        dens = [to_mpf_ambient(b) for b in f.denominators]
        z = to_mpf_ambient(f.argument)
        t = mpf(1)
        total = mpf(1)
        bound = mpmath.inf
        used = 1
        for n in range(10_000):
            num = mpf(1)
            for a in nums:
                num *= a + n
            den = mpf(n + 1)
            for b in dens:
                den *= b + n
            t = t * num / den * z
            total += t
            used = n + 2
            rnum = mpf(1)
            for a in nums:
                rnum *= a + n + 1
            rden = mpf(n + 2)
            for b in dens:
                rden *= b + n + 1
            q = max(abs(rnum / rden * z), z_abs)
            if q < 1:
                bound = 2 * abs(t) * q / (1 - q) + abs(total) * mpf(10) ** (-(ctx.digits + 4))
                if bound <= tol:
                    break
    return EvalResult(_frozen_round(ctx, total), _frozen_round(ctx, bound), used,
                      "direct", bool(bound <= tol))


def _same(new, old):
    assert new is not None and old is not None
    assert new.value == old.value
    assert new.abs_err_bound == old.abs_err_bound
    assert new.terms_used == old.terms_used
    assert new.method == old.method
    assert new.converged == old.converged


def _watson_points(ctx, seed, count, s_lo=0.75, s_hi=3.0):
    """Seeded f_{i,j} points with excess in [s_lo, s_hi]: (f, s) pairs."""
    rng = random.Random(seed)
    out = []
    with ctx.working():
        while len(out) < count:
            a = mpf(rng.uniform(0.1, 3.0))
            b = mpf(rng.uniform(0.1, 3.0))
            s = mpf(rng.uniform(s_lo, s_hi))
            i, j = rng.randint(-3, 3), rng.randint(-2, 2)
            c = s - j - mpf(i + 1) / 2 + (a + b) / 2
            f = F3((a, b, c), ((a + b + i + 1) / 2, 2 * c + j))
            if any(ctx.near_nonpos_int(v) is not None for v in f.numerators + f.denominators):
                continue
            out.append((f, s))
    return out


@pytest.mark.parametrize("digits, tol_exp, seed", [(30, -20, 7), (100, -55, 11)])
def test_accelerated_bit_exact(digits, tol_exp, seed):
    ctx = PrecisionCtx(digits=digits)
    tol = ctx.mpf(mpf(10) ** tol_exp)
    used = set()
    for f, _ in _watson_points(ctx, seed, 6):
        new = _accelerated_unit(f, ctx, tol, 2000)
        _same(new, _frozen_accelerated_unit(f, ctx, tol, 2000))
        used.add(new.terms_used)
    if digits == 30:
        # the seeded set covers the first order and one restart at doubled M
        assert {32, 64} <= used


def _watson_pfq(a, b, s, i, j):
    """f_{i,j}(a, b, c) with c chosen so the excess is s."""
    c = s - j - Fraction(i + 1, 2) + Fraction(a + b, 2)
    return F3((a, b, c), (Fraction(a + b + i + 1, 2), 2 * c + j))


def test_levin_scan_draws_terms_only_to_its_break(monkeypatch):
    """A scan that breaks at order K has pulled exactly K + 1 terms."""
    f = _watson_pfq(Fraction(13, 10), Fraction(7, 10), Fraction(1, 2), 0, 0)
    tol = CTX.mpf(mpf(10) ** -20)
    M = 32
    prec = series._levin_prec(CTX.digits, tol, M)
    orders, pulled = [], []
    real_row = series._levin_row

    def row(k, prec, length):
        orders.append(k)
        return real_row(k, prec, length)

    def counted(terms):
        for t in terms:
            pulled.append(t)
            yield t

    monkeypatch.setattr(series, "_levin_row", row)
    with mpmath.workprec(prec):
        terms = series._terms(series._raw(f.numerators), series._raw(f.denominators), None, prec)
        new = series._levin_scan(counted(islice(terms, M)), M, tol)
        K = len(orders)
        assert orders == list(range(1, K + 1))
        assert K < M - 1 and len(pulled) == K + 1
        # the same estimate, bound and order as the full order-by-order tableau
        rest = list(islice(terms, M - len(pulled)))
        old = _frozen_levin_scan([mpmath.mp.make_mpf(from_man_exp(*t)) for t in pulled + rest],
                                 tol)
    assert new == old


def test_accelerated_bit_exact_at_break_and_restart(monkeypatch):
    """One point breaks early in its M = 32 scan; the other restarts at M = 64."""
    scans = []
    real_terms = series._terms

    def counted(*args):
        scans.append(0)
        for t in real_terms(*args):
            scans[-1] += 1
            yield t

    monkeypatch.setattr(series, "_terms", counted)
    cases = [(_watson_pfq(Fraction(13, 10), Fraction(7, 10), Fraction(1, 2), 0, 0), -20, 32),
             (_watson_pfq(1, 1, Fraction(1, 2), 0, 0), -26, 64)]
    for f, tol_exp, used in cases:
        tol = CTX.mpf(mpf(10) ** tol_exp)
        scans.clear()
        new = _accelerated_unit(f, CTX, tol, 2000)
        _same(new, _frozen_accelerated_unit(f, CTX, tol, 2000))
        assert new.converged and new.terms_used == used
        if used == 32:
            assert len(scans) == 1 and scans[0] < 32
        else:
            assert len(scans) == 2 and scans[0] == 32 and scans[1] < 64


def test_direct_bit_exact_success_and_abandon():
    ctx = PrecisionCtx(digits=30)
    outcomes = []
    for tol in (mpf(10) ** -6, mpf(10) ** -20):
        for f, s in _watson_points(ctx, 3, 4, s_lo=1.5, s_hi=3.0):
            new = _direct_unit(f, ctx, tol, 10_000, s)
            old = _frozen_direct_unit(f, ctx, tol, 10_000, s)
            assert (new is None) == (old is None)
            if new is not None:
                _same(new, old)
            outcomes.append(new is not None)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("digits", [15, 30, 50])
def test_direct_rehearsal_keeps_every_result(digits):
    """Skipped or not, _direct_unit returns what the mp loop returns."""
    ctx = PrecisionCtx(digits=digits)
    rng = random.Random(digits)
    skipped = finished = 0
    for f, s in _watson_points(ctx, digits, 40, s_lo=1.0, s_hi=12.0):
        if s == 1:
            continue
        tol = ctx.mpf(mpf(10) ** -rng.randint(6, 28))
        budget = rng.choice((10, 64, 65, 100, 10_000))
        new = _direct_unit(f, ctx, tol, budget, s)
        old = _frozen_direct_unit(f, ctx, tol, budget, s)
        assert (new is None) == (old is None)
        if new is not None:
            _same(new, old)
            finished += 1
        skipped += series._direct_gives_up(f, tol, budget, s)
    assert skipped and finished


def _edge_case(case):
    """(ctx, f, s, tol, budget, whether the rehearsal decides) for one edge case."""
    if case in ("cancelling_factor", "near_cancelling_factor"):
        # 1e-17 from -3: float(a) + 3 is 0; 1e-7 from -3: float(a) + 3 keeps
        # about 9 digits, too few for the error argument.  Neither is decided.
        ctx = PrecisionCtx(digits=30, pole_guard=0)
        gap = 17 if case == "cancelling_factor" else 7
        with ctx.working(10):
            f = F3((mpf(-3) + mpf(10) ** -gap, mpf("1.25"), mpf("2.5")),
                   (mpf("3.75"), mpf("3.5")))
        return ctx, f, mpf(2), default_tolerance(ctx), 10_000, False
    if case == "digits_400":
        # tol = 10^-398 underflows a float; its logarithm does not
        ctx = PrecisionCtx(digits=400)
        f, s = _watson_points(ctx, 9, 1, s_lo=2.0, s_hi=3.0)[0]
        return ctx, f, s, default_tolerance(ctx), 10_000, True
    if case == "huge_fraction":
        # float() overflows on the parameters
        big = Fraction(10 ** 400 + 1, 3)
        f = F3((big, 1, 1), (big + Fraction(5, 2), Fraction(3, 2)))
        return PrecisionCtx(digits=30), f, Fraction(2), mpf(10) ** -20, 10_000, False
    # the terms reach the tolerance before n = 64, then rise again as the
    # denominator b1 crosses zero: only the bounds at n < 64 show the finish
    ctx = PrecisionCtx(digits=30)
    nums, b1, s, tol_exp, budget = {
        "finish_before_spike_26": ((-6.6019675479346915, 31.415135349070596,
                                    -22.235173119186634), -26.218990742123673,
                                   "3.52715529504958", 11, 100),
        "finish_before_spike_33": ((-30.825225986425195, 5.3924870733430197,
                                    -0.062841624211401381), -32.798870135669592,
                                   "3.97994520729278", 9, 65),
    }[case]
    with ctx.working():
        s = mpf(s)
        nums = tuple(mpf(x) for x in nums)
        f = F3(nums, (mpf(b1), s + sum(nums) - mpf(b1)))
    return ctx, f, s, ctx.mpf(mpf(10) ** -tol_exp), budget, False


@pytest.mark.parametrize("case", ["cancelling_factor", "near_cancelling_factor",
                                  "digits_400", "huge_fraction",
                                  "finish_before_spike_26", "finish_before_spike_33"])
def test_direct_rehearsal_edge_cases(case):
    ctx, f, s, tol, budget, decides = _edge_case(case)
    assert series._direct_gives_up(f, tol, budget, s) == decides
    new = _direct_unit(f, ctx, tol, budget, s)
    old = _frozen_direct_unit(f, ctx, tol, budget, s)
    assert (new is None) == (old is None)
    if new is not None:
        _same(new, old)
    if case.startswith("finish_before_spike"):
        assert new is not None and new.terms_used == int(case[-2:])


def test_direct_rehearsal_skips_suite_points(monkeypatch):
    """Suite-like points at tol 1e-20 never reach the mp term generator."""
    ctx = PrecisionCtx(digits=30)
    tol = ctx.mpf(mpf(10) ** -20)
    points = [(f, s) for f, s in _watson_points(ctx, 17, 40, s_lo=1.0, s_hi=4.0) if s > 1]

    def no_terms(*args):
        raise AssertionError("the mp loop ran")

    monkeypatch.setattr(series, "_terms", no_terms)
    for f, s in points:
        assert _direct_unit(f, ctx, tol, series.DIRECT_MAX_TERMS, s) is None


def _levin_step(b, x0, x1, prec):
    """x1 - b x0 through the tableau climb on a two-term diagonal, as a normalized raw mpf.

    N holds (x0, x1) and D their negatives, with b as the one coefficient of
    order 1; rounding to nearest-even is symmetric, so D's top must be the
    negated step.
    """
    nm = [-x[1] if x[0] else x[1] for x in (x0, x1)]
    ne = [x0[2], x1[2]]
    dm, de = [-m for m in nm], list(ne)
    series._levin_climb(nm, ne, dm, de, [None, [b]], prec)
    step = from_man_exp(nm[0], ne[0])
    assert from_man_exp(dm[0], de[0]) == mpf_neg(step)
    return step


def _raw_odd(rng, bits, exp, sign=0):
    """A raw mpf with an odd mantissa of exactly `bits` bits, so exp stays as given."""
    return (sign, rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1, exp, bits)


def _step_cases(prec, rng):
    """(label, b, x0, x1) raw operands for the tableau step at prec."""
    cases = []
    top = (1 << prec) - 1
    # b x0 exactly half-way: 3 m0 has prec + 1 bits and is odd
    m0 = (1 << (prec - 1)) | (rng.getrandbits(prec - 4) << 1) | 1
    assert (3 * m0).bit_length() == prec + 1
    cases.append(("product_tie", (0, 3, -5, 2), (0, m0, -prec, prec), _raw_odd(rng, prec, -prec)))
    # x1 - b x0 exactly half-way: 2 m1 - m0 has prec + 1 bits and is odd
    m1 = top - 2 * rng.getrandbits(prec - 4)
    x0 = from_man_exp(2 * rng.getrandbits(prec - 5) + 1, -prec - 1)
    assert ((m1 << 1) - x0[1]).bit_length() == prec + 1
    cases.append(("difference_tie", fone, x0, (0, m1, -prec, prec)))
    # all ones rounding up to a power of two: (2^h - 1)(2^h + 1) in the product,
    # 2 (2^prec - 1) + 1 in the difference
    h = prec - 1
    cases.append(("product_carry", (0, (1 << h) - 1, 3, h), (0, (1 << h) + 1, -7, h + 1), fzero))
    cases.append(("difference_carry", fone, (1, 1, -9, 1), (0, top, -8, prec)))
    # zeros on either side, and full cancellation
    x = _raw_odd(rng, prec, -prec)
    b = _raw_odd(rng, prec, -prec + 1)
    cases += [("zero_x0", b, fzero, x), ("zero_x1", b, x, fzero), ("zero_both", b, fzero, fzero),
              ("cancel", b, x, mpf_mul(b, x, prec, round_nearest)),
              ("cancel_exact", fone, x, x)]
    # exponent offsets of x1 against the exact product x0 (b = 1), on each
    # side of the 100 where the step hands the subtraction to libmp
    for off in (99, 100, 101, 140, -99, -100, -101, -140):
        for sign in (0, 1):
            x0 = _raw_odd(rng, prec, -prec, sign)
            cases.append((f"offset_{off}", fone, x0, _raw_odd(rng, prec, -prec + off)))
    for n in range(300):
        def draw(lo, hi):
            if rng.random() < 0.05:
                return fzero
            bits = rng.choice((1, 2, prec // 2, prec - 1, prec, prec))
            return from_man_exp(rng.choice((1, -1)) * (rng.getrandbits(bits) | 1),
                                rng.randint(lo, hi), prec, round_nearest)
        b, x0 = draw(-prec - 4, -prec + 4), draw(-prec - 150, -prec + 150)
        x1 = mpf_mul(b, x0, prec, round_nearest) if n % 10 == 0 else draw(-prec - 150, -prec + 150)
        cases.append(("random", b, x0, x1))
    return cases


@pytest.mark.parametrize("prec", [53, 113, 226, 286, 3400])
def test_levin_step_rounds_as_libmp(prec):
    """Each integer tableau entry equals mpf_sub(x1, mpf_mul(b, x0)) at prec."""
    rng = random.Random(prec)
    for label, b, x0, x1 in _step_cases(prec, rng):
        want = mpf_sub(x1, mpf_mul(b, x0, prec, round_nearest), prec, round_nearest)
        assert _levin_step(b, x0, x1, prec) == want, (label, b, x0, x1)


def _signed(x):
    return (-x[1] if x[0] else x[1]), x[2]


def _div_cases(prec, rng):
    """(label, x, y) raw operands for the integer division at prec."""
    top = (1 << prec) - 1
    cases = []
    # exact quotients: (m q) / q, and a power-of-two divisor
    q = _raw_odd(rng, prec // 2, -3)
    cases.append(("exact", mpf_mul(_raw_odd(rng, prec - prec // 2, 5), q, prec, round_nearest), q))
    cases.append(("exact_pow2", _raw_odd(rng, prec, -prec), (0, 1, 7, 1)))
    # half-way ties: an odd prec + 1 bit dividend over a power of two; the
    # mantissa 2^prec is what a carry to a power of two leaves
    for label, ym in (("tie", 1), ("tie_carried_divisor", 1 << prec)):
        for low in (1, 3):
            xm = (1 << prec) | (rng.getrandbits(prec - 2) << 2) | low
            cases.append((f"{label}_{low}", (0, xm, -prec, prec + 1), (0, ym, 2, ym.bit_length())))
    # 1/w for w of prec bits, all ones, and carried to 2^prec
    for w in (_raw_odd(rng, prec, -prec - 9), (0, top, 4, prec), (1, 1 << prec, -3, prec + 1)):
        cases.append(("reciprocal", fone, w))
    cases.append(("zero_dividend", fzero, _raw_odd(rng, prec, 0)))
    for _ in range(300):
        x = _raw_odd(rng, rng.choice((1, 2, prec // 2, prec - 1, prec)), rng.randint(-400, 400),
                     rng.getrandbits(1))
        y = _raw_odd(rng, rng.choice((1, 2, prec // 2, prec - 1, prec)), rng.randint(-400, 400),
                     rng.getrandbits(1))
        cases.append(("random", x, y))
    # signs: every case above with each sign of dividend and divisor
    return [(f"{label}_{sx}{sy}", (sx,) + x[1:] if x[1] else x, (sy,) + y[1:])
            for label, x, y in cases for sx in (0, 1) for sy in (0, 1)]


@pytest.mark.parametrize("prec", [53, 113, 226, 286, 3400])
def test_div_rounds_as_libmp(prec):
    """The integer division equals mpf_div at prec, value for value."""
    rng = random.Random(prec)
    for label, x, y in _div_cases(prec, rng):
        want = mpf_div(x, y, prec, round_nearest)
        got = series._div(*_signed(x), *_signed(y), prec)
        assert from_man_exp(*got) == want, (label, x, y)
        assert got[0].bit_length() <= prec + 1
    with pytest.raises(ZeroDivisionError):
        series._div(1, 0, 0, 0, prec)
    with pytest.raises(ZeroDivisionError):
        series._div(0, 0, 0, 0, prec)


@pytest.mark.parametrize("prec", [53, 113, 226, 286, 3400])
def test_add_rounds_as_libmp(prec):
    """The partial-sum add equals mpf_add at prec, on each side of the 100-bit offset."""
    rng = random.Random(prec + 1)
    cases = []
    for off in (0, 1, 99, 100, 101, 140, -1, -99, -100, -101, -140, prec + 5, -prec - 5):
        for sx, sy in ((0, 0), (0, 1), (1, 0), (1, 1)):
            x = _raw_odd(rng, prec, -prec, sx)
            cases.append((f"offset_{off}", x, _raw_odd(rng, prec, -prec + off, sy)))
            cases.append((f"short_offset_{off}", x, _raw_odd(rng, 3, -prec + off, sy)))
    x = _raw_odd(rng, prec, -prec)
    up = from_man_exp(x[1] + 2, x[2])
    cases += [("equal", x, x), ("equal_shifted", x, (0, x[1] << 5, x[2] - 5, prec + 5)),
              ("next_up", x, up), ("next_down", up, x), ("negative", x, mpf_neg(up)),
              ("cancel", x, mpf_neg(x)), ("zero_x", fzero, x), ("zero_y", x, fzero),
              ("zero_both", fzero, fzero), ("carry", (0, (1 << prec) - 1, 0, prec), (0, 1, -1, 1))]
    for _ in range(300):
        x, y = (_raw_odd(rng, rng.choice((1, prec // 2, prec)), rng.randint(-300, 300),
                         rng.getrandbits(1)) for _ in range(2))
        cases.append(("random", x, y))
    for label, x, y in cases:
        got = series._add(*_signed(x), *_signed(y), prec)
        assert from_man_exp(*got) == mpf_add(x, y, prec, round_nearest), (label, x, y)
        # the quarter-tol test compares a gap |x| with y
        want = mpf_le(mpf_abs(x), from_man_exp(*_signed(y)))
        assert series._le(abs(x[1]), x[2], *_signed(y)) == want, (label, x, y)


def _frozen_terms(nums, dens, z, prec):
    """series._terms as it was on raw libmp tuples."""
    rnd = round_nearest
    t = fone
    n = 0
    while True:
        yield t
        fn = from_int(n)
        num = fone
        for a in nums:
            num = mpf_mul(num, mpf_add(a, fn, prec, rnd), prec, rnd)
        den = from_int(n + 1, prec, rnd)
        for b in dens:
            den = mpf_mul(den, mpf_add(b, fn, prec, rnd), prec, rnd)
        t = mpf_div(mpf_mul(t, num, prec, rnd), den, prec, rnd)
        if z is not None:
            t = mpf_mul(t, z, prec, rnd)
        n += 1


@pytest.mark.parametrize("prec", [53, 113, 226, 3400])
def test_terms_equal_libmp_terms(prec):
    """Each integer term equals the libmp tuple recurrence's, at z = 1 and z != 1."""
    rng = random.Random(prec + 2)
    with mpmath.workprec(prec):
        params = [[mpf(rng.uniform(-40, 40)) for _ in range(5)] for _ in range(6)]
        params += [
            [mpf("1.3"), mpf("0.7"), mpf(2), mpf("2.9"), mpf("4.1")],
            # a zero factor at n = 3, and a denominator crossing zero
            [mpf(-3), mpf("0.25"), mpf("1.5"), mpf("-2.5"), mpf(7)],
            # exponents beyond the exact alignment: tiny and huge parameters
            [mpf(2) ** -(prec + 150), mpf(2) ** 140 + 1, mpf("0.5"), mpf(2) ** 300, mpf(3)],
        ]
    with mpmath.workprec(prec + 200):
        # more bits than prec, some with an exponent above 100
        params.append([mpf(3) ** 300, mpf(1) / 3, mpf("1.5"), mpf(2) / 7, mpf(3) ** 250 / 7])
    zs = [None, from_man_exp(-3, -3), mpf_div(fone, from_int(7), prec, round_nearest)]
    for ps in params:
        nums, dens = [x._mpf_ for x in ps[:3]], [x._mpf_ for x in ps[3:]]
        for z in zs:
            new = islice(series._terms(nums, dens, z, prec), 60)
            old = islice(_frozen_terms(nums, dens, z, prec), 60)
            for n, (t, want) in enumerate(zip(new, old)):
                assert from_man_exp(*t) == want, (n, ps, z)
                assert t[0].bit_length() <= prec + 1


@pytest.mark.parametrize("z", ["0.5", "-0.5", "0.25", "0.9"])
def test_levin_scan_on_geometric_terms(z):
    """1F0(1;;z): the u-transform is exact from order 2, so gaps vanish or
    tie in the last bits, and the scan must keep the first of equal pairs."""
    prec = 200
    with mpmath.workprec(prec):
        zr = mpf(z)._mpf_
        for tol in (mpf(10) ** -10, mpf(10) ** -200):
            new = series._levin_scan(islice(series._terms([fone], [], zr, prec), 32), 32, tol)
            old = _frozen_levin_scan(
                [mpmath.mp.make_mpf(t) for t in islice(_frozen_terms([fone], [], zr, prec), 32)],
                tol)
            assert new == old


def _frozen_exact_sum(f, m):
    """series._exact_sum as it was: the term loop in Fractions."""
    z = Fraction(f.argument)
    nums = [Fraction(a) for a in f.numerators]
    dens = [Fraction(b) for b in f.denominators]
    t = total = Fraction(1)
    for n in range(m):
        for a in nums:
            t *= a + n
        for b in dens:
            t /= b + n
        t = t * z / (n + 1)
        total += t
    return total


def _exact_cases():
    """Terminating rational series: the de Branges grid, the probe pools on the
    lattice grid, negative parameters and arguments other than 1."""
    for p in verify._debranges_points(verify.DEBRANGES_GRID):
        n, alpha, x = p["n"], p["alpha"], p["x"]
        yield F3((Fraction(-n), n + alpha, (alpha + 1) / 2), (alpha + 1, (alpha + 3) / 2), x)
    pools = verify._RECURRENCE_PROBE_POOL + verify._THREE_TERM_PROBE_POOL
    for a, b, c in pools:
        for i, j in verify.GRID:
            yield to_pfq(WatsonPoint(a, b, c, i, j))
    for z in (1, Fraction(-7, 3), Fraction(5, 11), 0):
        yield F3((-12, Fraction(-7, 2), Fraction(13, 6)), (Fraction(-25, 2), Fraction(-1, 9)), z)
        yield F3((Fraction(-3, 4), -9, 5), (Fraction(-5, 3), 2), z)
        yield F3((-4,), (), z)


def test_exact_sum_equals_fraction_loop():
    checked = 0
    for f in _exact_cases():
        c = series.classify(f, 0)
        if c.m is None or c.pole is not None:
            continue
        assert series._exact_sum(c) == _frozen_exact_sum(f, c.m), f
        checked += 1
    assert checked > 1300


@pytest.mark.parametrize("digits", [30, 100])
def test_eval_general_bit_exact(digits):
    ctx = PrecisionCtx(digits=digits)
    tol = mpf(10) ** -(digits // 2 + 5)
    rng = random.Random(digits)
    with ctx.working(8):
        for _ in range(4):
            a, b = mpf(rng.uniform(0.1, 3.0)), mpf(rng.uniform(0.1, 3.0))
            x = mpf(rng.uniform(0.01, 0.28))
            for f in (F3((2 * a, 2 * b), (a + b + mpf(1) / 2,), x),
                      F3((a, b), (a + b + mpf(1) / 2,), 4 * x * (1 - x))):
                _same(eval_general(f, ctx, tol=tol), _frozen_eval_general(f, ctx, tol))
        # terminating with inexact data: the floating-point finite sum
        f = F3((mpf("-6"), a), (b + 1,), x)
        _same(eval_general(f, ctx, tol=tol), _frozen_eval_general(f, ctx, tol))


def test_finite_sum_unit_argument_bit_exact():
    ctx = PrecisionCtx(digits=30)
    with ctx.working():
        f = F3((mpf("-4"), mpf("1.3"), mpf("0.7")), (mpf("2.9"), mpf("4.1")))
    _same(eval_unit(f, ctx), _frozen_finite_sum(f, ctx, 4))


def test_levin_coefficients_equal_mpf_form():
    for prec in (113, 226, 286):
        with mpmath.workprec(prec):
            for k in range(1, 40):
                row = series._levin_row(k, prec, 40 - k)
                assert [mpmath.mp.make_mpf(c) for c in row[:40 - k]] == \
                    [_frozen_levin_coeff(k, n) for n in range(40 - k)]


def _memo_held():
    return sum(len(row) for table in series._LEVIN_MEMO.values() for row in table.values())


def test_levin_memo_stays_within_cap(monkeypatch):
    ctx = PrecisionCtx(digits=30)
    points = _watson_points(ctx, 5, 3)
    for digits in (20, 30, 45):
        c = PrecisionCtx(digits=digits)
        for f, _ in points:
            eval_unit(f, c)
    assert 0 < _memo_held() <= series._LEVIN_MEMO_CAP
    # a small cap forces the memo to be emptied; values stay exact
    monkeypatch.setattr(series, "_LEVIN_MEMO_CAP", 600)
    monkeypatch.setattr(series, "_LEVIN_MEMO", {})
    tol = ctx.mpf(mpf(10) ** -20)
    for digits in (20, 30, 45):
        c = PrecisionCtx(digits=digits)
        for f, _ in points:
            _same(_accelerated_unit(f, c, tol, 2000),
                  _frozen_accelerated_unit(f, c, tol, 2000))
            assert 0 < _memo_held() <= 600
    # a row longer than the cap alone is returned but not stored
    held = _memo_held()
    assert len(series._levin_row(3, 113, 601)) == 601
    assert 3 not in series._LEVIN_MEMO.get(113, {}) and _memo_held() == held


def test_levin_memo_reuses_rows(monkeypatch):
    """A second evaluation of the same points computes no coefficient."""
    ctx = PrecisionCtx(digits=30)
    points = _watson_points(ctx, 5, 3)
    computed = [0]
    real_coeff = series._levin_coeff

    def coeff(k, n, prec):
        computed[0] += 1
        return real_coeff(k, n, prec)

    monkeypatch.setattr(series, "_levin_coeff", coeff)
    monkeypatch.setattr(series, "_LEVIN_MEMO", {})
    first = [eval_unit(f, ctx) for f, _ in points]
    assert computed[0] > 0 and {r.method for r in first} == {"accelerated"}
    computed[0] = 0
    for (f, _), old in zip(points, first):
        _same(eval_unit(f, ctx), old)
    assert computed[0] == 0


# --- classification against frozen copies of the per-call helpers it replaced ---

def _frozen_near_pole(x, guard):
    return nearest_nonpos_int(x, 0 if as_rational(x) is not None else guard)


def _frozen_all_rational(f):
    vals = f.numerators + f.denominators + (f.argument,)
    return all(as_rational(v) is not None for v in vals)


def _frozen_is_one(z) -> bool:
    r = as_rational(z)
    if r is not None:
        return r == 1
    return to_mpf_ambient(z) == 1


def _frozen_convergence_margin(f):
    if not _frozen_is_one(f.argument):
        raise ArgumentNotUnity(f"argument is {f.argument!r}, not 1")
    if _frozen_all_rational(f):
        s = Fraction(0)
        for b in f.denominators:
            s += as_rational(b)
        for a in f.numerators:
            s -= as_rational(a)
        return s
    s = mpf(0)
    for b in f.denominators:
        s += to_mpf_ambient(b)
    for a in f.numerators:
        s -= to_mpf_ambient(a)
    return s


def _frozen_termination_degree(f, pole_guard=0.05):
    best = None
    for a in f.numerators:
        k = _frozen_near_pole(a, pole_guard)
        if k is not None and (best is None or -k < best):
            best = -k
    return best


def _frozen_series_end(f, pole_guard=0.05):
    m = near = None
    for a in f.numerators:
        k = _frozen_near_pole(a, pole_guard)
        if k is None:
            continue
        if _frozen_near_pole(a, 0) is not None:
            m = -k if m is None else min(m, -k)
        elif near is None:
            near = a
    return m, (near if m is None else None)


def _frozen_termination(f, guard):
    m, near = _frozen_series_end(f, guard)
    if near is not None:
        raise SeriesError(
            f"numerator parameter {near} lies within {guard} of nonpositive integer "
            f"{_frozen_near_pole(near, guard)} but is not equal to it, so the series does not "
            "terminate there"
        )
    return m


def _frozen_check_denominators(f, degree, guard):
    for d in f.denominators:
        k = _frozen_near_pole(d, guard)
        if k is None:
            continue
        if degree is None or -k < degree:
            raise SeriesError(
                f"denominator parameter {d} lies within {guard} of nonpositive "
                f"integer {k} reached before the series terminates"
            )


def _outcome(fn, *args):
    """(type, value) of fn's return, or (exception type, message) when it raises."""
    try:
        v = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(v), v


def _classification_sweep(guard, rng):
    """Parameters at 0..-5 as int, Fraction, float and mpf: on the integer, 1e-12
    away, and one ulp inside and outside the guard, each on both sides."""
    pool = []
    ulp = mpf(2) ** -100
    for k in range(0, -6, -1):
        pool += [k, Fraction(k), float(k), mpf(k)]
        for sign in (1, -1):
            pool += [Fraction(k) + sign * Fraction(1, 10 ** 12), k + sign * 1e-12,
                     mpf(k) + sign * mpf("1e-12")]
            edge = Fraction(guard)
            pool += [Fraction(k) + sign * (edge - Fraction(1, 10 ** 30)),
                     Fraction(k) + sign * (edge + Fraction(1, 10 ** 30))]
            x = k + sign * guard
            pool += [math.nextafter(x, k), math.nextafter(x, k + sign)]
            with mpmath.workprec(120):
                pool += [mpf(k) + sign * (mpf(guard) - ulp), mpf(k) + sign * (mpf(guard) + ulp)]
    pool += [Fraction(3, 2), 2, 0.75, mpf("1.3"), Fraction(-7, 2)]
    args = [1, Fraction(1), 1.0, mpf(1), Fraction(1, 2), mpf("0.5")]
    for _ in range(1500):
        nums = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        dens = [rng.choice(pool) for _ in range(rng.randint(max(0, len(nums) - 1), 2))]
        yield F3(nums, dens, rng.choice(args))


@pytest.mark.parametrize("guard", [0, 0.05, 0.4999])
def test_classification_matches_frozen_helpers(guard):
    rng = random.Random(1400 + int(guard * 10_000))
    seen = set()
    for f in _classification_sweep(guard, rng):
        m, near = _frozen_series_end(f, guard)
        c = series.classify(f, guard)
        assert c.m == m, f
        assert (c.near[0] if c.near else None) is near, f

        def frozen_end():
            mm = _frozen_termination(f, guard)
            _frozen_check_denominators(f, mm, guard)
            return mm

        end = _outcome(frozen_end)
        assert _outcome(series._end, c, guard) == end, f
        assert termination_degree(f, guard) == _frozen_termination_degree(f, guard), f
        assert _outcome(convergence_margin, f) == _outcome(_frozen_convergence_margin, f), f
        seen.add((m is not None, near is not None, end[0] is SeriesError))
    # every branch is met: ends, refused by a numerator (not at guard 0, where an
    # inexact value within the guard equals the integer) or a denominator, neither
    branches = {(True, False, False), (True, False, True), (False, False, False),
                (False, False, True)}
    assert seen == (branches if guard == 0 else branches | {(False, True, True)})
