"""Generalized hypergeometric series: model plus exact, direct, and accelerated evaluation.

Terms are always generated through the ratio recurrence

    t_{n+1} / t_n = prod_i (a_i + n) * z / ( prod_j (b_j + n) * (n + 1) ),

never through quotients of factorials, so the work per term is O(1) and a zero
numerator factor truncates the series exactly.

What sets the route is decided once per series and pole guard by
:func:`classify` and kept on the series: each parameter as an exact Fraction or
an inexact mpf, the end m where a numerator equals -m, a float or mpf numerator
that only comes within the guard of -m (refused, never cut off there), a
denominator pole reached before m, whether the argument is 1, and the excess
when every value is exact.  Each parameter meets
:func:`~watsonlab.mpnum.nearest_nonpos_int` once: an exact one counts as a
nonpositive integer only when it equals it, an inexact one within the guard.

Exact sums fold the ratios backward in integers and build one Fraction
(:func:`_exact_sum`); every floating-point route draws its terms from one
generator, :func:`_terms`, which yields signed integer mantissas and exponents.
Each of its operations rounds once to nearest-even at the working precision in
the same order as the mpf expression ``t * num / den * z``, so it yields the
values of the operator form at a fraction of the interpreter overhead.

At unit argument the tail decays algebraically like n**-(1+s) where s is the
parametric excess (sum of denominator parameters minus sum of numerator
parameters).  Direct summation is used when its tail bound can reach the
requested tolerance within the term budget; otherwise partial sums are fed to
a Levin-type sequence extrapolation that carries its own error estimate.
Before the mp loop of direct summation starts, a float rehearsal of its first
65 terms (:func:`_direct_gives_up`) tries to prove, with margins that cover
every float rounding, that the loop would give up at its first projection
(n = 64); only then is the loop skipped, so every result is the loop's.

The Levin weights depend only on (order k, index n, working precision), never
on the series, so :func:`_levin_row` memoises them: one list per (precision, k),
holding exactly the values :func:`_levin_coeff` rounds.  A row is computed
whole on a miss and replaced, never extended.  The memo holds at most
``_LEVIN_MEMO_CAP`` coefficients; a row that would pass the cap empties it.
The whole accelerated route runs on signed integer mantissas and exponents;
only the returned estimate and bound are packed into mpf.  The tableau is two
plain int lists per array, built by counter-diagonals (Weniger 1989; see
:func:`_levin_scan`), so a scan that breaks at order K draws K + 1 terms.
Each entry update x[n] = x[n+1] - b x[n] runs inline (:func:`_levin_climb`):
the product is rounded once to nearest-even at the working precision,
aligned and subtracted exactly, and rounded once more.  The partial sums,
the weights, N_0 and D_0, the estimates and their gaps go through the same
integer kernels: :func:`_round`, :func:`_add`, :func:`_div` and :func:`_le`.
``mpf_add``, ``mpf_mul``, ``mpf_sub`` and ``mpf_div`` are each correctly
rounded to nearest-even for the operands they meet here, so every value
equals the one the libmp tuple form gives, in any order of evaluation and
whatever trailing zeros a mantissa carries.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Optional, Tuple

import mpmath
from mpmath import mpf
from mpmath.libmp import (finf, fone, from_int, from_man_exp, mpf_abs, mpf_add,
                          mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_sub,
                          round_nearest)

from .mpnum import PrecisionCtx, as_rational, nearest_nonpos_int, to_mpf_ambient

DIRECT_MAX_TERMS = 10_000
ACCEL_MAX_PARTIAL_SUMS = 2_000
_ACCEL_START = 32
_LEVIN_MEMO_CAP = 1 << 16      # Levin coefficients memoised at once, all precisions together
_RATIO_MARGIN = 1e-9           # a rehearsed log ratio below -this is a decreasing mp term
_REHEARSAL_ERR = 1e-10         # largest per-step log error the rehearsal margins absorb
_LN2 = math.log(2)
_FLOAT_MIN = 2.0 ** -1022      # smallest normal float

_RND = round_nearest           # the rounding mode of every mpf operator
_make_mpf = mpmath.mp.make_mpf


class SeriesError(ValueError):
    pass


class ArgumentNotUnity(SeriesError):
    pass


class NotTerminating(SeriesError):
    pass


class NonRationalInput(SeriesError):
    pass


class DivergentSeries(SeriesError):
    pass


class OutsideRadius(SeriesError):
    pass


@dataclass(frozen=True)
class PFQ:
    """A pFq series: numerator parameters, denominator parameters, argument."""

    numerators: Tuple
    denominators: Tuple
    argument: object = 1
    _classified: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))
        object.__setattr__(self, "denominators", tuple(self.denominators))
        if len(self.numerators) > len(self.denominators) + 1:
            raise SeriesError("need p <= q + 1 numerator parameters")


@dataclass(frozen=True)
class Classification:
    """What sets a series' route at one pole guard (:func:`classify`).  near and
    pole pair a parameter as given with the nonpositive integer k it counts as."""

    nums: tuple                     # Fraction when exact (int, Fraction), else mpf
    dens: tuple
    z: object
    unit: bool                      # the argument is 1
    degree: Optional[int]           # least m with a numerator counting as -m
    m: Optional[int]                # least m with a numerator equal to -m: the end
    near: Optional[tuple]           # (numerator, k): counts as k, not equal; only if m is None
    pole: Optional[tuple]           # (denominator, k): counts as k, reached before m
    excess: Optional[Fraction]      # sum(dens) - sum(nums); None unless every value is exact


def classify(f: PFQ, guard) -> Classification:
    """f's classification at pole guard ``guard``, built on first use and kept on f."""
    c = f._classified.get(guard)
    if c is None:
        c = f._classified[guard] = _classify(f, guard)
    return c


def _classify(f: PFQ, guard) -> Classification:
    def kind(x):
        r = as_rational(x)
        return r if r is not None else to_mpf_ambient(x)

    def pole(v):
        return nearest_nonpos_int(v, 0 if isinstance(v, Fraction) else guard)

    nums = tuple(map(kind, f.numerators))
    dens = tuple(map(kind, f.denominators))
    z = kind(f.argument)
    hits = [(a, v, k) for a, v in zip(f.numerators, nums) if (k := pole(v)) is not None]
    m = min((-k for _, v, k in hits if v == k), default=None)
    near = next(((a, k) for a, v, k in hits if v != k), None) if m is None else None
    den_pole = next(((d, k) for d, v in zip(f.denominators, dens)
                     if (k := pole(v)) is not None and (m is None or -k < m)), None)
    degree = min((-k for _, _, k in hits), default=None)
    exact = all(isinstance(v, Fraction) for v in nums + dens + (z,))
    excess = sum(dens, Fraction(0)) - sum(nums, Fraction(0)) if exact else None
    return Classification(nums, dens, z, z == 1, degree, m, near, den_pole, excess)


def _at_unit(f: PFQ, c: Classification) -> Classification:
    if not c.unit:
        raise ArgumentNotUnity(f"argument is {f.argument!r}, not 1")
    return c


def _end(c: Classification, guard) -> Optional[int]:
    """c.m; SeriesError for a numerator that only nearly ends the series or a pole before m."""
    if c.near is not None:
        a, k = c.near
        raise SeriesError(
            f"numerator parameter {a} lies within {guard} of nonpositive integer "
            f"{k} but is not equal to it, so the series does not terminate there")
    if c.pole is not None:
        d, k = c.pole
        raise SeriesError(
            f"denominator parameter {d} lies within {guard} of nonpositive "
            f"integer {k} reached before the series terminates")
    return c.m


def _excess(c: Classification):
    """The excess s: exact when every value is, else summed at the ambient precision."""
    if c.excess is not None:
        return c.excess
    s = mpf(0)
    for b in c.dens:
        s += to_mpf_ambient(b)
    for a in c.nums:
        s -= to_mpf_ambient(a)
    return s


@dataclass(frozen=True)
class EvalResult:
    """A value with an honest absolute error bound and the route that produced it."""

    value: mpf
    abs_err_bound: mpf
    terms_used: int
    method: str            # exact_rational | direct | accelerated
    converged: bool
    exact_value: Optional[Fraction] = None


def convergence_margin(f: PFQ):
    """Parametric excess s = sum(denominators) - sum(numerators) at unit argument.

    The series converges at z = 1 iff s > 0 or it terminates.
    """
    return _excess(_at_unit(f, classify(f, 0)))


def termination_degree(f: PFQ, pole_guard: float = 0.05) -> Optional[int]:
    """Least m with a numerator that counts as -m at pole_guard, or None; evaluation
    ends a series only where a numerator equals -m (:class:`Classification`)."""
    return classify(f, pole_guard).degree


def eval_exact(f: PFQ) -> Fraction:
    """Exact rational sum of a terminating series with rational data. No rounding."""
    c = classify(f, 0)
    if c.excess is None:
        raise NonRationalInput("eval_exact needs rational parameters and argument")
    if c.m is None:
        raise NotTerminating("no numerator is a nonpositive integer")
    _end(c, 0)
    return _exact_sum(c)


def _exact_sum(c: Classification) -> Fraction:
    """Sum of the terms n = 0..c.m of a series with rational data, exactly.

    With every parameter x = p/q, the ratio t_{n+1}/t_n is A_n / B_n for the
    integers A_n = z_p prod(p_a + n q_a) prod(q_b) and B_n = z_q (n + 1)
    prod(p_b + n q_b) prod(q_a).  The sum 1 + r_0 (1 + r_1 (1 + ...)) is
    folded backward as h = P/Q <- 1 + (A_n / B_n) h in integers, and one
    Fraction is built at the end.
    """
    z = c.z
    ca = z.numerator * math.prod(b.denominator for b in c.dens)
    cb = z.denominator * math.prod(a.denominator for a in c.nums)
    P = Q = 1
    for n in range(c.m - 1, -1, -1):
        A = ca
        for a in c.nums:
            A *= a.numerator + n * a.denominator
        B = cb * (n + 1)
        for b in c.dens:
            B *= b.numerator + n * b.denominator
        Q *= B
        P = Q + A * P
    return Fraction(P, Q)


def _round(m: int, e: int, prec: int) -> tuple:
    """m * 2**e rounded once to nearest-even at prec bits, as (mantissa, exponent).

    Python's ``>>`` floors, so for a negative m too r ends in the round bit
    of the value itself and the bits shifted out are its sticky bits; the
    rule rounds half to even, as libmp does with the magnitude.  The
    mantissa keeps at most prec bits, prec + 1 after a carry to a power of two.
    """
    sh = m.bit_length() - prec
    if sh > 0:
        r = m >> (sh - 1)
        m = (r >> 1) + 1 if r & 1 and (r & 2 or m != r << (sh - 1)) else r >> 1
        e += sh
    return m, e


def _add(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple:
    """x + y rounded once to nearest-even at prec; ``mpf_add`` beyond an offset of 100.

    The operands are aligned exactly, so no shift grows beyond prec + 100
    bits; farther apart, libmp adds the packed tuples, which is correctly
    rounded for operands of at most prec significant bits.
    """
    if not xm:
        return _round(ym, ye, prec)
    if not ym:
        return _round(xm, xe, prec)
    off = xe - ye
    if -100 <= off <= 100:
        if off >= 0:
            return _round((xm << off) + ym, ye, prec)
        return _round(xm + (ym << -off), xe, prec)
    return _signed(mpf_add(from_man_exp(xm, xe), from_man_exp(ym, ye), prec, _RND))


def _div(xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple:
    """x / y rounded once to nearest-even at prec; ZeroDivisionError for y = 0.

    For a dividend of at most prec + 4 bits, as every value here is.  The
    quotient is taken with at least prec + 3 bits and a sticky bit set when
    the remainder is not zero, so it rounds as the exact quotient does
    (``mpf_div`` perturbs its quotient the same way).  With y made positive
    Python's divmod floors, and the sticky bit of a negative quotient is
    the same round-bit argument as in :func:`_round`.
    """
    if ym < 0:
        xm, ym = -xm, -ym
    elif not ym:
        raise ZeroDivisionError
    if not xm:
        return 0, 0
    extra = prec + 3 - xm.bit_length() + ym.bit_length()
    q, r = divmod(xm << extra, ym)
    if r:
        q = (q << 1) | 1
        extra += 1
    return _round(q, xe - ye - extra, prec)


def _le(xm: int, xe: int, ym: int, ye: int) -> bool:
    """x <= y for x = xm 2**xe >= 0, exactly."""
    if ym <= 0:
        return ym == 0 == xm
    if not xm:
        return True
    tx, ty = xm.bit_length() + xe, ym.bit_length() + ye
    if tx != ty:
        return tx < ty
    # the same leading bit: the exponents differ by less than the mantissas' length
    return xm << (xe - ye) <= ym if xe >= ye else xm <= ym << (ye - xe)


def _signed(x: tuple) -> tuple:
    """A finite raw mpf as (signed mantissa, exponent)."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _factor(x: tuple, prec: int) -> tuple:
    """(X, E, k, raw) with x + n = (X + (n << k)) 2**E exactly, for a raw mpf x.

    raw is x when its exponent lies outside [-prec - 100, 100], so that no
    shift grows with the exponent: :func:`_product` then adds n by
    ``mpf_add``.  For n of at most min(prec + 4, 100) bits, far more than
    any term count, that sum is correctly rounded too: libmp perturbs only
    an operand that then lies wholly below the other's last bit.
    Otherwise raw is None.
    """
    X, exp = _signed(x)
    if not -prec - 100 <= exp <= 100:
        return 0, 0, 0, x
    return (X << exp, 0, 0, None) if exp >= 0 else (X, exp, -exp, None)


def _product(m: int, e: int, factors: list, n: int, prec: int) -> tuple:
    """m 2**e times each factor x + n in turn, every sum and product rounded at prec."""
    for X, E, k, raw in factors:
        if raw is None:
            v = X + (n << k)
            if v.bit_length() > prec:
                v, E = _round(v, E, prec)
        else:
            v, E = _signed(mpf_add(raw, from_int(n), prec, _RND))
        m *= v
        e += E
        if m.bit_length() > prec:
            m, e = _round(m, e, prec)
    return m, e


def _terms(nums, dens, z, prec: int):
    """Terms t_0 = 1, t_1, ... as (mantissa, exponent) pairs: t_{n+1} = t_n num_n / den_n [* z].

    num_n = prod(a + n) and den_n = (n + 1) prod(b + n).  nums, dens and z are
    raw mpf tuples, z None at unit argument.  Each step runs on signed
    integer mantissas in the order of the mpf expression ``t * num / den * z``:
    every a + n is formed by exact alignment (:func:`_factor`) and rounded,
    every product is formed exactly and rounded, and the division is
    correctly rounded (:func:`_div`), each once to nearest-even at prec.
    ``mpf_add``, ``mpf_mul`` and ``mpf_div`` each return the exact result
    rounded once to nearest-even at prec, so every term has the value the
    libmp tuple form gives; a mantissa may carry trailing zeros, so pack a
    term with ``from_man_exp``.
    """
    fnum = [_factor(a, prec) for a in nums]
    fden = [_factor(b, prec) for b in dens]
    zm, ze = (1, 0) if z is None else _signed(z)
    tm, te = 1, 0
    n = 0
    while True:
        yield tm, te
        num = _product(1, 0, fnum, n, prec)
        den = _product(n + 1, 0, fden, n, prec)
        tm, te = _round(tm * num[0], te + num[1], prec)
        tm, te = _div(tm, te, *den, prec)
        if z is not None:
            tm, te = _round(tm * zm, te + ze, prec)
        n += 1


def _raw(values) -> list:
    """Raw mpf tuples of values converted at the ambient precision."""
    return [to_mpf_ambient(v)._mpf_ for v in values]


def _finite_sum_result(c: Classification, ctx: PrecisionCtx) -> EvalResult:
    m = c.m
    if c.excess is not None:
        # rational data terminates only at an exact nonpositive integer,
        # so this is the exact value of the series
        exact = _exact_sum(c)
        value = ctx.mpf(exact)
        bound = abs(value) * mpf(10) ** (-ctx.digits) if value != 0 else mpf(0)
        return EvalResult(value, ctx.mpf(bound), m + 1, "exact_rational",
                          True, exact_value=exact)
    with ctx.working(10):
        prec = mpmath.mp.prec
        terms = _terms(_raw(c.nums), _raw(c.dens), to_mpf_ambient(c.z)._mpf_, prec)
        total = next(terms)
        for t in islice(terms, m):
            total = _add(*total, *t, prec)
        total = _make_mpf(from_man_exp(*total))
        bound = abs(total) * mpf(10) ** (-(ctx.digits + 2))
    return EvalResult(ctx.mpf(total), ctx.mpf(bound), m + 1, "direct", True)


def default_tolerance(ctx: PrecisionCtx) -> mpf:
    return mpf(10) ** (2 - ctx.digits)


def eval_unit(f: PFQ, ctx: PrecisionCtx, tol=None) -> EvalResult:
    """Evaluate a pFq at z = 1.

    A series that ends (:func:`classify`) is summed exactly (rational data)
    or term by term; when no numerator ends it, a float or mpf numerator
    within pole_guard of -m but not equal to it raises SeriesError rather
    than cut the series off at m.  Convergent series go through direct
    summation when the algebraic tail bound can reach tol within
    DIRECT_MAX_TERMS terms, otherwise through the accelerator, which stops
    at ACCEL_MAX_PARTIAL_SUMS partial sums.
    If tol is unreachable, the best estimate is returned with converged False
    and an honest bound.
    """
    c = _at_unit(f, classify(f, ctx.pole_guard))
    if tol is None:
        tol = default_tolerance(ctx)
    tol = ctx.mpf(tol)
    if _end(c, ctx.pole_guard) is not None:
        return _finite_sum_result(c, ctx)
    with ctx.working(8):
        s_mpf = to_mpf_ambient(_excess(c))
    if s_mpf <= 0:
        raise DivergentSeries(f"parametric excess {s_mpf} <= 0 for non-terminating series")
    if s_mpf > 1:
        direct = _direct_unit(f, ctx, tol, DIRECT_MAX_TERMS, s_mpf)
        if direct is not None:
            return direct
    return _accelerated_unit(f, ctx, tol, ACCEL_MAX_PARTIAL_SUMS)


def eval_general(f: PFQ, ctx: PrecisionCtx, tol=None) -> EvalResult:
    """Evaluate a pFq inside the unit disk (|z| < 1) or a terminating one anywhere,
    summing at most DIRECT_MAX_TERMS terms.

    Termination is decided as in :func:`eval_unit`.
    """
    c = classify(f, ctx.pole_guard)
    if tol is None:
        tol = default_tolerance(ctx)
    tol = ctx.mpf(tol)
    if _end(c, ctx.pole_guard) is not None:
        return _finite_sum_result(c, ctx)
    with ctx.working(8):
        z_abs = abs(to_mpf_ambient(c.z))
    if z_abs >= 1:
        raise OutsideRadius(f"|z| = {z_abs} >= 1 and the series does not terminate")
    with ctx.working(10):
        prec = mpmath.mp.prec
        nums = _raw(c.nums)
        dens = _raw(c.dens)
        z = to_mpf_ambient(c.z)._mpf_
        q_floor = z_abs._mpf_
        rel_floor = (mpf(10) ** (-(ctx.digits + 4)))._mpf_
        tol_r = tol._mpf_
        terms = _terms(nums, dens, z, prec)
        total = fone
        bound = finf
        used = 1
        next(terms)
        for n in range(DIRECT_MAX_TERMS):
            t = from_man_exp(*next(terms))
            total = mpf_add(total, t, prec, _RND)
            used = n + 2
            # geometric tail: future ratios head toward |z| < 1; the factors
            # are (a + n) + 1 with two roundings, not a + (n + 1) with one
            fn = from_int(n)
            rnum = fone
            for a in nums:
                rnum = mpf_mul(rnum, mpf_add(mpf_add(a, fn, prec, _RND), fone, prec, _RND),
                               prec, _RND)
            rden = from_int(n + 2, prec, _RND)
            for b in dens:
                rden = mpf_mul(rden, mpf_add(mpf_add(b, fn, prec, _RND), fone, prec, _RND),
                               prec, _RND)
            q = mpf_abs(mpf_mul(mpf_div(rnum, rden, prec, _RND), z, prec, _RND), prec, _RND)
            if mpf_gt(q_floor, q):
                q = q_floor
            if mpf_lt(q, fone):
                # 2 |t| q / (1 - q) + |total| 10^-(digits+4)
                head = mpf_mul(mpf_mul_int(mpf_abs(t, prec, _RND), 2, prec, _RND), q, prec, _RND)
                bound = mpf_add(mpf_div(head, mpf_sub(fone, q, prec, _RND), prec, _RND),
                                mpf_mul(mpf_abs(total, prec, _RND), rel_floor, prec, _RND),
                                prec, _RND)
                if mpf_le(bound, tol_r):
                    break
        total, bound = _make_mpf(total), _make_mpf(bound)
    return EvalResult(ctx.mpf(total), ctx.mpf(bound), used, "direct", bool(bound <= tol))


def _direct_unit(f: PFQ, ctx: PrecisionCtx, tol, max_terms: int, s) -> Optional[EvalResult]:
    """Direct summation for excess s > 1; None when tol is out of reach in budget.

    A float rehearsal (:func:`_direct_gives_up`) first tries to prove that the
    mp loop would give up at its first projection; only when it cannot is the
    loop run.  Either way the result is the loop's.
    """
    if _direct_gives_up(f, tol, max_terms, s):
        return None
    return _direct_sum(f, ctx, tol, max_terms, s)


def _direct_gives_up(f: PFQ, tol, max_terms: int, s) -> bool:
    """True only if :func:`_direct_sum` provably returns None at n = 64.

    The rehearsal runs the term recurrence for n = 0..64 in floats, carrying
    log|t_n| as a sum of per-step log ratios d_n = log|t_{n+1} / t_n|, and
    tol as the logarithm of its mpf mantissa and exponent, so nothing
    overflows or underflows at any digits.  It returns True when all of these
    hold, and the mp loop then returns None at n = 64:

    * max_terms > 64, so the loop reaches n = 64;
    * for every n in [24, 64], 2 |t_{n+1}| (n + 2) / s > 2 tol.  The mp bound
      adds |total| 10^-(digits+4) >= 0 to that head, so no bound the loop can
      form before n = 64 reaches tol and it does not stop early;
    * d_n < -1e-9 for n = 57..64, so the mp counter of decreasing terms is
      at least 8 at n = 64 and the projection is made there;
    * (n + 2) (bound / tol)^(1/s) > 2 max_terms at n = 64, so the projected
      need exceeds the budget and the loop returns None.

    Error argument.  A parameter x enters as float(x), within 2^-52 |x| of x
    and of its mpf (the mp loop runs at 90 bits or more, since digits >= 15).
    With g = min |x + n| over n = 0..64, a float factor x + n and the mp one
    differ by at most 2^-50 (|x| + |x + n|), a log error of at most
    2^-49 (1 + |x| / g).  The mp and float products and quotients add one
    rounding each, the float log at most 2 ulp of |d_n| <= spread (the sum of
    max(|log g|, log(|x| + 64)) over parameters plus log 65), so with p
    numerators and q denominators every d_n is within
    err = 2^-48 (sum (1 + |x|/g) + spread + p + q + 2) of the mp log ratio.
    The rehearsal requires err <= 1e-10, ten times below the ratio margin;
    the accumulated log|t_n| error, at most 65 err plus the float sums', is
    far below the ln 2 margins on the bound and the need.  spread <= 700
    keeps every float product inside the normal range.

    It returns False, and the mp loop decides, whenever a precondition fails:
    a parameter or s that float() cannot hold or that is not finite, a tol
    that is not positive, a factor x + n that vanishes or cancels so far that
    err > 1e-10, or products that leave the float range.
    """
    if max_terms <= 64:
        return False
    try:
        nums = [float(a) for a in f.numerators]
        dens = [float(b) for b in f.denominators]
        s_f = float(s)
    except OverflowError:
        return False
    sign, man, exp, _ = to_mpf_ambient(tol)._mpf_
    if sign or not man or not _FLOAT_MIN <= s_f < math.inf:
        return False
    log_tol = math.log(man) + exp * _LN2
    spread = math.log(65)
    cancel = 0.0
    for x in nums + dens:
        if not math.isfinite(x):
            return False
        g = abs(x + min(64, max(0, round(-x))))
        if g < _FLOAT_MIN:
            return False
        spread += max(-math.log(g), math.log(abs(x) + 64))
        cancel += 1 + abs(x) / g
    err = 2.0 ** -48 * (cancel + spread + len(nums) + len(dens) + 2)
    if spread > 700 or err > _REHEARSAL_ERR:
        return False
    log_head = _LN2 - math.log(s_f)        # log(2 / s)
    floor = log_tol + _LN2                 # bound margin 2
    log_t = 0.0                            # log|t_{n+1}| after step n
    for n in range(65):
        num = 1.0
        for a in nums:
            num *= a + n
        den = n + 1.0
        for b in dens:
            den *= b + n
        d = math.log(abs(num / den))
        log_t += d
        if n >= 24 and log_t + math.log(n + 2) + log_head <= floor:
            return False
        if n >= 57 and d >= -_RATIO_MARGIN:
            return False
    log_bound = log_t + math.log(66) + log_head
    return math.log(66) + (log_bound - log_tol) / s_f > math.log(max_terms) + _LN2


def _direct_sum(f: PFQ, ctx: PrecisionCtx, tol, max_terms: int, s) -> Optional[EvalResult]:
    """The mp direct-summation loop; None when tol is out of reach in budget.

    :func:`_direct_gives_up` rehearses its thresholds (first bound at n = 24,
    8 decreasing terms, first projection at n = 64); change them together.
    """
    with ctx.working(10):
        prec = mpmath.mp.prec
        s = to_mpf_ambient(s)
        tol = to_mpf_ambient(tol)
        s_r, tol_r = s._mpf_, tol._mpf_
        rel_floor = (mpf(10) ** (-(ctx.digits + 4)))._mpf_
        terms = _terms(_raw(f.numerators), _raw(f.denominators), None, prec)
        next(terms)
        total = abs_t = fone
        decreasing = 0
        bound = finf
        used = 1
        for n in range(max_terms):
            t = from_man_exp(*next(terms))
            abs_next = mpf_abs(t, prec, _RND)
            decreasing = decreasing + 1 if mpf_lt(abs_next, abs_t) else 0
            abs_t = abs_next
            total = mpf_add(total, t, prec, _RND)
            used = n + 2
            if decreasing >= 8 and n >= 24:
                # tail of an n**-(1+s) decay compares against the integral: ~ |t| * n / s,
                # as 2 |t| (n + 2) / s + |total| 10^-(digits+4)
                head = mpf_mul_int(mpf_mul_int(abs_t, 2, prec, _RND), n + 2, prec, _RND)
                bound = mpf_add(mpf_div(head, s_r, prec, _RND),
                                mpf_mul(mpf_abs(total, prec, _RND), rel_floor, prec, _RND),
                                prec, _RND)
                if mpf_le(bound, tol_r):
                    break
                if n >= 64 and n % 32 == 0:
                    # projected index where the bound reaches tol
                    needed = (n + 2) * (_make_mpf(bound) / tol) ** (1 / s)
                    if needed > max_terms:
                        return None
        if mpf_gt(bound, tol_r):
            return None
        total, bound = _make_mpf(total), _make_mpf(bound)
    return EvalResult(ctx.mpf(total), ctx.mpf(bound), used, "direct", True)


def _levin_coeff(k: int, n: int, prec: int) -> tuple:
    """(n+1) (n+k)^(k-2) / (n+k+1)^(k-1) as a raw mpf at prec (Levin u, beta = 1).

    Numerator and denominator are exact integers, each rounded to prec before
    the rounded division, as ``mpf(p) / mpf(q)`` does.
    """
    if k == 1:
        return fone
    p = (n + 1) * (n + k) ** (k - 2)
    q = (n + k + 1) ** (k - 1)
    return mpf_div(from_int(p, prec, _RND), from_int(q, prec, _RND), prec, _RND)


_LEVIN_MEMO = {}               # prec -> {k: [coefficient for n = 0, 1, ...]}
_LEVIN_LOCK = threading.Lock()


def _levin_row(k: int, prec: int, length: int) -> list:
    """Levin coefficients at order k and prec for n = 0 .. length-1 (at least).

    A row held in :data:`_LEVIN_MEMO` is returned when it is long enough;
    otherwise the whole row is computed and stored in place of the shorter one.
    The memo is emptied first if the coefficients it holds plus this row would
    pass ``_LEVIN_MEMO_CAP``; a row longer than the cap on its own is not stored.
    """
    table = _LEVIN_MEMO.get(prec)
    if table is not None:
        row = table.get(k)
        if row is not None and len(row) >= length:
            return row
    row = [_levin_coeff(k, n, prec) for n in range(length)]
    if length <= _LEVIN_MEMO_CAP:
        with _LEVIN_LOCK:
            held = sum(len(r) for t in _LEVIN_MEMO.values() for r in t.values())
            if held + length > _LEVIN_MEMO_CAP:
                _LEVIN_MEMO.clear()
            _LEVIN_MEMO.setdefault(prec, {})[k] = row
    return row


def _levin_climb(nm: list, ne: list, dm: list, de: list, rows: list, prec: int):
    """Climb the N and D tableaux one counter-diagonal, for the newest partial sum.

    With K = len(nm) - 1, entry n < K of each array holds X_{K-1-n}[n] and
    entry K the new X_0[K].  For n = K - 1 down to 0 the climb sets
    x[n] = x[n+1] - b x[n] with b = rows[K-n][n], the order-k coefficient
    for k = K - n: entry n + 1 already holds X_{k-1}[n+1], so entry n becomes
    X_k[n], and entry 0 ends as the order-K top X_K[0].  Both arrays climb
    in one loop, which unpacks each coefficient (a raw mpf tuple) once and
    keeps each array's x[n+1] in a local carry; the step is written out once
    per array, because a loop over the two arrays made the climb about a
    tenth slower.

    Entry n has the value xm[n] * 2**xe[n], a signed integer mantissa of at
    most prec bits (prec + 1 after a carry to a power of two) and an
    exponent.  Each step runs inline: the product b x[n] is rounded once to
    nearest-even at prec, shift-aligned against x[n+1], subtracted
    exactly and rounded once more, each rounding as :func:`_round`, written
    out here.  When the exponents are more than 100 apart the subtraction
    goes to ``mpf_sub`` on packed tuples, so no shift grows beyond prec + 100
    bits.

    Why each entry equals ``mpf_sub(x[n+1], mpf_mul(b, x[n], prec), prec)``
    bit for bit: ``mpf_mul`` and ``mpf_sub`` each return the exact result
    rounded once to nearest-even at prec.  (For ``mpf_sub`` this holds on
    its perturbed path for far-apart exponents too, because both operands
    hold at most prec significant bits, as every entry and rounded product
    here does.)  The step forms the same exact product and difference and
    rounds each once by the same rule, so each entry has the same value,
    whatever trailing zeros its mantissa carries, and only values feed the
    next step.
    """
    K = len(nm) - 1
    n1, ne1, d1, de1 = nm[K], ne[K], dm[K], de[K]     # the carries x[n+1] of N and D
    for n in range(K - 1, -1, -1):
        bsign, b, be, _ = rows[K - n][n]
        m0 = nm[n]
        if m0:
            p = b * (-m0 if bsign else m0)
            pe = be + ne[n]
            sh = p.bit_length() - prec
            if sh > 0:
                # round to nearest-even: r ends in the round bit, and p
                # differs from r << (sh - 1) by the sticky bits below it
                r = p >> (sh - 1)
                p = (r >> 1) + 1 if r & 1 and (r & 2 or p != r << (sh - 1)) else r >> 1
                pe += sh
            off = ne1 - pe
            if not n1:
                n1, ne1 = -p, pe
            elif -100 <= off <= 100:
                if off >= 0:
                    n1, ne1 = (n1 << off) - p, pe
                else:
                    n1 -= p << -off
                sh = n1.bit_length() - prec
                if sh > 0:
                    r = n1 >> (sh - 1)
                    n1 = (r >> 1) + 1 if r & 1 and (r & 2 or n1 != r << (sh - 1)) else r >> 1
                    ne1 += sh
            else:
                sign, man, ne1, _ = mpf_sub(from_man_exp(n1, ne1), from_man_exp(p, pe),
                                            prec, _RND)
                n1 = -man if sign else man
        nm[n], ne[n] = n1, ne1
        m0 = dm[n]                  # the same step on D
        if m0:
            p = b * (-m0 if bsign else m0)
            pe = be + de[n]
            sh = p.bit_length() - prec
            if sh > 0:
                r = p >> (sh - 1)
                p = (r >> 1) + 1 if r & 1 and (r & 2 or p != r << (sh - 1)) else r >> 1
                pe += sh
            off = de1 - pe
            if not d1:
                d1, de1 = -p, pe
            elif -100 <= off <= 100:
                if off >= 0:
                    d1, de1 = (d1 << off) - p, pe
                else:
                    d1 -= p << -off
                sh = d1.bit_length() - prec
                if sh > 0:
                    r = d1 >> (sh - 1)
                    d1 = (r >> 1) + 1 if r & 1 and (r & 2 or d1 != r << (sh - 1)) else r >> 1
                    de1 += sh
            else:
                sign, man, de1, _ = mpf_sub(from_man_exp(d1, de1), from_man_exp(p, pe),
                                            prec, _RND)
                d1 = -man if sign else man
        dm[n], de[n] = d1, de1


def _levin_scan(terms, M: int, tol):
    """Levin u-type extrapolation (beta = 1) over the partial sums of ``terms``.

    The estimate at order k is trusted by the spread of the last two orders,
    bound = 2 (|e_k - e_{k-1}| + |e_{k-1} - e_{k-2}|); the returned order
    minimizes that spread, so a single lucky gap coincidence cannot shrink
    the bound on its own.  Scanning stops early only after three consecutive
    orders already agree within tol/4, which forces bound <= tol at the break.

    terms is an iterator of at most M terms as (mantissa, exponent) pairs
    (:func:`_terms`), M the tableau size, and tol an mpf.  The tableau is
    built by counter-diagonals (E. J. Weniger, Comput. Phys. Rep. 10 (1989)
    189): term K is drawn only when the scan reaches order K, N_0[K] and
    D_0[K] are formed, and :func:`_levin_climb` climbs to N_K[0] and D_K[0].
    So a scan that breaks at order K has drawn K + 1 terms, and each entry
    it builds is the one the order-by-order tableau builds: the same rounded
    step on the same operands and coefficient (row k is fetched at length
    M - k when order k is first reached).

    Everything runs on signed integer mantissas and exponents, each value
    rounded once to nearest-even at the ambient precision as the libmp
    expression it replaces: the partial sum S_K = S_{K-1} + t_K
    (:func:`_add`), the weight w = t_K (K + 1) (:func:`_round` of the
    exact product), N_0[K] = S_K / w and D_0[K] = 1 / w (:func:`_div`), the
    estimate N_K[0] / D_K[0], the gap |e_k - e_{k-1}|, its test against
    tol/4 (:func:`_le`, exact), and the sums g_k + g_{k-1} that pick the
    order.  ``mpf_add``, ``mpf_sub``, ``mpf_mul`` and ``mpf_div`` are each
    correctly rounded to nearest-even, so every value equals libmp's; only the
    returned estimate and bound 2 (g_k + g_{k-1}), an exact doubling, are
    packed into mpf.
    """
    prec = mpmath.mp.prec
    Nm, Ne, Dm, De = [], [], [], []
    rows = [None]
    am, ae = 0, 0                   # the partial sum
    pm = pe = None                  # the previous estimate
    gaps = [None]                   # None: infinite
    ests = [None]
    small_streak = 0
    qm, qe = _signed((tol / 4)._mpf_)
    for k, (tm, te) in enumerate(terms):
        am, ae = _add(am, ae, tm, te, prec)
        wm, we = _round(tm * (k + 1), te, prec)
        x = _div(am, ae, wm, we, prec)
        Nm.append(x[0])
        Ne.append(x[1])
        x = _div(1, 0, wm, we, prec)
        Dm.append(x[0])
        De.append(x[1])
        if not k:
            continue
        rows.append(_levin_row(k, prec, M - k))
        _levin_climb(Nm, Ne, Dm, De, rows, prec)
        est = _div(Nm[0], Ne[0], Dm[0], De[0], prec) if Dm[0] else None
        ests.append(est)
        if est is None or pm is None:
            gaps.append(None)
        else:
            gm, ge = _add(est[0], est[1], -pm, pe, prec)
            gap = (abs(gm), ge)
            gaps.append(gap)
            small_streak = small_streak + 1 if _le(*gap, qm, qe) else 0
            if small_streak >= 3 and k >= 6:
                break
        if est is not None:
            pm, pe = est
    best_k = best = None
    for k in range(4, len(gaps)):
        if gaps[k] is None or gaps[k - 1] is None:
            continue
        pair = _add(*gaps[k], *gaps[k - 1], prec)
        if best is None or not _le(*best, *pair):
            best, best_k = pair, k
    if best_k is None:
        return None, mpmath.inf, 0
    return (_make_mpf(from_man_exp(*ests[best_k])),
            _make_mpf(from_man_exp(best[0], best[1] + 1)), best_k)


def _levin_prec(digits: int, tol, M: int) -> int:
    """The accelerated route's working bits at tolerance tol over M partial sums."""
    target_digits = max(digits, int(-mpmath.log10(tol)) + 2)
    return int((target_digits + int(0.55 * M) + 15) * 3.3322) + 20


def _accelerated_unit(f: PFQ, ctx: PrecisionCtx, tol, max_partial: int) -> EvalResult:
    """Levin-accelerated unit-argument evaluation with adaptive depth."""
    M = min(_ACCEL_START, max_partial)
    value, bound = None, mpmath.inf
    while True:
        prec = _levin_prec(ctx.digits, tol, M)
        with mpmath.workprec(prec):
            terms = _terms(_raw(f.numerators), _raw(f.denominators), None, prec)
            value, bound, _ = _levin_scan(islice(terms, M), M, tol)
        if value is not None and bound <= tol:
            break
        if M >= max_partial:
            break
        M = min(2 * M, max_partial)
    if value is None:
        raise SeriesError("extrapolation produced no estimate")
    converged = bool(bound <= tol)
    return EvalResult(ctx.mpf(value), ctx.mpf(bound), M, "accelerated", converged)
