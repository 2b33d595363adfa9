import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf
from mpmath.libmp import from_float, from_int, mpf_abs, mpf_le, mpf_sub, round_nearest, to_int

from watsonlab import closedform, mpnum, verify
from watsonlab.mpnum import (GammaFactor, NumeratorPole, PrecisionCtx, as_rational,
                             gamma_product, ln_gamma, nearest_nonpos_int, to_mpf_ambient)

CTX = PrecisionCtx(digits=30)

# reference literals stay strings; an mpf parsed at import time would be
# silently truncated to the 53-bit default precision
LN_PI_HALF = "0.57236494292470008707171367567652935582364740645766"
LN_24 = "3.1780538303479456196469416012970554088739909609035"
PI = "3.1415926535897932384626433832795028841971693993751"


def test_ctx_validation():
    with pytest.raises(ValueError):
        PrecisionCtx(digits=14)
    with pytest.raises(ValueError):
        PrecisionCtx(digits=30, pole_guard=0.6)
    assert CTX.prec >= 30 * 3.33


def test_nearest_nonpos_int_is_exact():
    # Fractions compare as rationals, the guard at its exact binary value
    assert nearest_nonpos_int(Fraction(-21, 20), 0.05) == -1     # binary 0.05 > 1/20
    assert nearest_nonpos_int(Fraction(-21, 20), 0.049) is None
    assert nearest_nonpos_int(Fraction(-41, 40), 0.05) == -1
    assert nearest_nonpos_int(Fraction(3, 100), 0.05) == 0
    assert nearest_nonpos_int(Fraction(7, 2), 0.05) is None
    with mpmath.workprec(200):
        at_guard = mpf(-1) + mpf(0.05)          # exact at 200 bits
        assert nearest_nonpos_int(at_guard, 0.05) == -1
        # a float test rounds this to -0.95 and then finds it 0.05000000000000004 away
        assert nearest_nonpos_int(at_guard + mpf(2) ** -190, 0.05) is None
        near = mpf(-1) + mpf(10) ** -30
        assert nearest_nonpos_int(near, 0) is None  # a float test calls this a pole
        assert nearest_nonpos_int(mpf(-1), 0) == -1
        assert nearest_nonpos_int(near, 0.05) == -1
    assert PrecisionCtx(digits=30, pole_guard=0).near_nonpos_int(near) is None


def test_ln_gamma_basics():
    g = ln_gamma(1, CTX)
    assert g.pole is False and g.sign == 1
    with CTX.working(10):
        ln24 = mpf(LN_24)
        lnpih = mpf(LN_PI_HALF)
        assert abs(g.value_ln) <= mpf(10) ** (5 - CTX.digits)
        assert abs(ln_gamma(5, CTX).value_ln - ln24) <= mpf(10) ** (5 - CTX.digits) * ln24
        assert abs(ln_gamma(Fraction(1, 2), CTX).value_ln - lnpih) <= mpf(10) ** (25 - CTX.digits)


def test_ln_gamma_poles():
    assert ln_gamma(-1, CTX).pole is True
    assert ln_gamma(0, CTX).pole is True
    assert ln_gamma(-2.03, CTX).pole is True       # within the 0.05 guard
    assert ln_gamma(-2.2, CTX).pole is False
    assert ln_gamma(0.04, CTX).pole is True        # guard applies near 0 from above


def test_ln_gamma_reflection_signs():
    # Gamma alternates sign between consecutive negative integers
    assert ln_gamma(-0.5, CTX).sign == -1
    assert ln_gamma(-1.5, CTX).sign == 1
    assert ln_gamma(-2.5, CTX).sign == -1
    g = ln_gamma(-0.5, CTX)
    # Gamma(-1/2) = -2 sqrt(pi)
    with CTX.working():
        assert abs(mpmath.exp(g.value_ln) - 2 * mpmath.sqrt(mpf(PI))) <= mpf(10) ** (7 - CTX.digits)


def test_ln_gamma_recurrence_sweep():
    # ln Gamma(x+1) = ln Gamma(x) + ln x over (0.05, 50), 1000 seeded draws
    ctx = PrecisionCtx(digits=25)
    tol = mpf(10) ** (6 - ctx.digits)
    rng = random.Random(20240817)
    with ctx.working():
        for _ in range(1000):
            x = mpf(rng.uniform(0.0501, 50.0))
            if ctx.near_nonpos_int(x) is not None:
                continue
            lhs = ln_gamma(x + 1, ctx).value_ln
            rhs = ln_gamma(x, ctx).value_ln + mpmath.log(x)
            assert abs(lhs - rhs) / max(1, abs(lhs)) <= tol


@pytest.mark.parametrize("nums, dens, expected", [
    ([Fraction(1)], [Fraction(1)], 1),
    ([Fraction(3)], [Fraction(2)], 2),
])
def test_gamma_product_simple(nums, dens, expected):
    with CTX.working():
        assert abs(gamma_product(nums, dens, CTX) - expected) <= mpf(10) ** (6 - CTX.digits) * expected


def test_gamma_product_pi():
    with CTX.working():
        v = gamma_product([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)], CTX)
        pi = mpf(PI)
        assert abs(v - pi) <= mpf(10) ** (6 - CTX.digits) * pi


def test_gamma_product_zero_and_pole():
    assert gamma_product([Fraction(1, 2)], [Fraction(0)], CTX) == 0
    with pytest.raises(NumeratorPole):
        gamma_product([Fraction(-1)], [Fraction(1, 2)], CTX)
    # pole on both sides is still inapplicable, never silently cancelled
    with pytest.raises(NumeratorPole):
        gamma_product([Fraction(0)], [Fraction(0)], CTX)


def test_gamma_product_inexact_near_pole_denominator_is_refused():
    # Gamma(1/2) / Gamma(-0.975) = -0.0438..., not 0; only an argument equal
    # to the nonpositive integer is the structural zero
    for near in (Fraction(-39, 40), -0.975, mpf("-0.975"), Fraction(1, 40)):
        with pytest.raises(NumeratorPole, match="not equal"):
            gamma_product([Fraction(1, 2)], [near], CTX)
    for pole in (-1, -1.0, mpf(-1), Fraction(-2)):
        assert gamma_product([Fraction(1, 2)], [pole], CTX) == 0


def test_gamma_product_factor_move_invariance():
    # ([a,b],[c]) equals ([a],[c]) * Gamma(b), reconstructed from ln_gamma
    rng = random.Random(99)
    tol = mpf(10) ** (8 - CTX.digits)
    with CTX.working():
        for _ in range(25):
            a = mpf(rng.uniform(0.2, 6.0))
            b = mpf(rng.uniform(0.2, 6.0))
            c = mpf(rng.uniform(0.2, 6.0))
            whole = gamma_product([a, b], [c], CTX)
            part = gamma_product([a], [c], CTX) * mpmath.exp(ln_gamma(b, CTX).value_ln)
            assert abs(whole - part) / abs(whole) <= tol


def test_gamma_factor_is_data():
    g = ln_gamma(-3, CTX)
    assert isinstance(g, GammaFactor)
    assert g.pole is True and g.value_ln == mpmath.inf


# ---------------------------------------------------------------------------
# bit exactness of ln_gamma on mpmath.loggamma against the Stirling series
#
# Frozen copy of the hand-written kernel that mpmath.loggamma replaced: upward
# recurrence to 0.8 * digits, then the asymptotic series, inside the same pole
# test, reflection and guard digits.  The rounded results must be the same
# bits, so they compare with ==.

def _frozen_stirling_ln_gamma(x, digits):
    thresh = max(12, int(0.8 * digits) + 1)
    shift = mpf(0)
    while x < thresh:
        shift += mpmath.log(x)
        x += 1
    res = (x - mpf(1) / 2) * mpmath.log(x) - x + mpmath.log(2 * mpmath.pi) / 2
    eps = mpf(10) ** (-(digits + 12))
    x2 = x * x
    xpow = x
    prev = None
    for k in range(1, 4 * digits + 4):
        term = mpmath.bernoulli(2 * k) / ((2 * k) * (2 * k - 1) * xpow)
        mag = abs(term)
        if prev is not None and mag >= prev:
            break
        res += term
        prev = mag
        if mag < eps:
            break
        xpow *= x2
    return res - shift


def _frozen_ln_gamma(x, ctx):
    if ctx.near_nonpos_int(x) is not None:
        return GammaFactor(value_ln=mpmath.inf, sign=1, pole=True)
    with ctx.working(12):
        v = to_mpf_ambient(x)
        if v >= mpf(1) / 2:
            raw = _frozen_stirling_ln_gamma(+v, ctx.digits)
            sign = 1
        else:
            m = int(mpmath.floor(v))
            s = mpmath.sinpi(v - m)
            raw = mpmath.log(mpmath.pi) - mpmath.log(s) - _frozen_stirling_ln_gamma(1 - v, ctx.digits)
            sign = 1 if m % 2 == 0 else -1
    with ctx.working():
        return GammaFactor(value_ln=+raw, sign=sign, pole=False)


def _ln_gamma_sweep(ctx, seed):
    rng = random.Random(seed)
    pts = [k for k in range(-4, 31) if k not in (1, 2)]
    pts += [Fraction(k, 2) for k in range(-21, 61, 2)]
    pts += [Fraction(rng.randint(-3000, 3000), rng.randint(3, 97)) for _ in range(25)]
    pts += [ctx.mpf(rng.uniform(-30.0, 300.0)) for _ in range(25)]
    return pts


@pytest.mark.parametrize("digits", [15, 20, 30, 50, 100, 200])
def test_ln_gamma_bit_exact_against_frozen_stirling(digits):
    ctx = PrecisionCtx(digits=digits)
    pts = _ln_gamma_sweep(ctx, 4000 + digits)
    reflected = [x for x in pts if x < 0.5 and ctx.near_nonpos_int(x) is None]
    assert len(reflected) >= 20
    for x in pts:
        new, old = ln_gamma(x, ctx), _frozen_ln_gamma(x, ctx)
        assert (new.pole, new.sign) == (old.pole, old.sign), x
        assert new.pole or new.value_ln._mpf_ == old.value_ln._mpf_, x
    # the Stirling series left rounding noise at Gamma(1) = Gamma(2) = 1
    for x in (1, 2, Fraction(2), ctx.mpf(1)):
        g = ln_gamma(x, ctx)
        assert g.value_ln == 0 and g.sign == 1 and not g.pole


@pytest.mark.slow
def test_ln_gamma_at_1000_digits():
    ctx = PrecisionCtx(digits=1000)
    for x, sign in ((Fraction(7, 3), 1), (Fraction(-17, 3), 1)):
        g = ln_gamma(x, ctx)
        assert g.sign == sign and not g.pole
        with mpmath.workdps(1100):
            ref = mpmath.re(mpmath.loggamma(mpf(x.numerator) / x.denominator))
            assert abs(g.value_ln - ref) <= mpf(10) ** (5 - 1000)


# ---------------------------------------------------------------------------
# bit exactness of the raw-libmp kernel against the mpmath-level one
#
# Frozen copies of the conversion, the pole test, ln_gamma and gamma_product
# as they were written with mpmath-level arithmetic (workprec blocks,
# mpmath.loggamma, sinpi, log, exp).  The kernel makes the same libmp calls on
# raw tuples, and the pole test decides x >= 1 without arithmetic, so values,
# signs, pole flags and NumeratorPole texts compare with ==.

def _frozen_to_mpf_ambient(x):
    r = as_rational(x)
    if r is not None:
        return mpf(r.numerator) / r.denominator
    if isinstance(x, mpf):
        return x
    return +mpf(x)


def _frozen_nearest_nonpos_int(x, guard):
    if not isinstance(x, mpf):
        r = as_rational(x)
        if r is not None:
            k = min(0, round(r))
            return k if abs(r - k) <= Fraction(guard) else None
        x = _frozen_to_mpf_ambient(x)
    v = x._mpf_
    k = min(0, to_int(v, round_nearest))
    return k if mpf_le(mpf_abs(mpf_sub(v, from_int(k))), from_float(guard)) else None


def _frozen_mp_ln_gamma(x, ctx):
    if _frozen_nearest_nonpos_int(x, ctx.pole_guard) is not None:
        return GammaFactor(value_ln=mpmath.inf, sign=1, pole=True)
    with ctx.working(12):
        v = _frozen_to_mpf_ambient(x)
        if v >= mpf(1) / 2:
            raw = mpmath.loggamma(+v)
            sign = 1
        else:
            m = int(mpmath.floor(v))
            s = mpmath.sinpi(v - m)
            raw = mpmath.log(mpmath.pi) - mpmath.log(s) - mpmath.loggamma(1 - v)
            sign = 1 if m % 2 == 0 else -1
    with ctx.working():
        return GammaFactor(value_ln=+raw, sign=sign, pole=False)


def _frozen_mp_gamma_product(numerators, denominators, ctx):
    with ctx.working(15):
        num = [_frozen_mp_ln_gamma(v, ctx) for v in numerators]
        den = [_frozen_mp_ln_gamma(v, ctx) for v in denominators]
        num_poles = [v for v, g in zip(numerators, num) if g.pole]
        if num_poles:
            raise NumeratorPole(f"gamma pole in numerator at {num_poles}")
        near = [v for v, g in zip(denominators, den)
                if g.pole and _frozen_nearest_nonpos_int(v, 0) is None]
        if near:
            raise NumeratorPole(f"denominator argument {near[0]} lies within "
                                f"{ctx.pole_guard} of a pole but is not equal to it")
        if any(g.pole for g in den):
            zero = mpf(0)
        else:
            total = mpf(0)
            for ln in sorted(g.value_ln for g in num):
                total += ln
            for ln in sorted(g.value_ln for g in den):
                total -= ln
            sign = 1
            for g in num + den:
                sign *= g.sign
            zero = None
            raw = sign * mpmath.exp(total)
    with ctx.working():
        return mpf(0) if zero is not None else +raw


def _product_outcome(product, nums, dens, ctx):
    try:
        return product(nums, dens, ctx)._mpf_
    except NumeratorPole as exc:
        return f"NumeratorPole: {exc}"


def _closed_form_products(ctx, seed, monkeypatch):
    """(nums, dens, ctx, ambient prec) of every gamma_product that the closed
    forms and the thomae prefactor make at points from their own samplers."""
    calls = []

    def record(nums, dens, c):
        calls.append((list(nums), list(dens), c, mpmath.mp.prec))
        return gamma_product(nums, dens, c)

    for form in ("gauss", "watson_00", "lavoie_plus", "lavoie_minus", "thomae"):
        build = verify.RELATIONS[form].build_sample
        for index in range(4):
            s = build(index, seed, ctx, verify.DEFAULT_WINDOW)
            if form == "thomae":       # the prefactor lists of verify._thomae_instance
                with ctx.working(8):
                    a, b, c = (to_mpf_ambient(s[k]) for k in "abc")
                    d, e = (a + b + 1) / 2, 2 * c
                    t = d + e - a - b - c
                calls.append(([d, e, t], [a, b + t, c + t], ctx, mpmath.mp.prec))
                continue
            with monkeypatch.context() as m:
                m.setattr(closedform, "gamma_product", record)
                try:
                    closedform.FORM_FUNCS[form](s["a"], s["b"], s["c"], ctx)
                except ValueError:     # a refused point still records its products
                    pass
    return calls


def _mixed_products(ctx, seed):
    """Argument lists of every kind the kernel takes: exact Fractions, mpf at
    ctx.prec and at 2 ctx.prec (more bits than ln_gamma's working precision),
    floats, with structural zeros, numerator poles and near-pole denominators."""
    rng = random.Random(seed)
    with mpmath.workprec(2 * ctx.prec):
        wide = [mpf(rng.uniform(-9.0, 12.0)) / 3 for _ in range(12)]
        wide_near = mpf(-39) / 40 + mpf(2) ** (-2 * ctx.prec + 8)
    pool = (wide + [Fraction(rng.randint(-400, 600), rng.randint(1, 60)) for _ in range(12)]
            + [ctx.mpf(rng.uniform(-9.0, 12.0)) for _ in range(12)]
            + [rng.uniform(-9.0, 12.0) for _ in range(8)] + [Fraction(1, 2), 7, -0.5])
    lists = [([rng.choice(pool) for _ in range(rng.randint(1, 4))],
              [rng.choice(pool) for _ in range(rng.randint(0, 3))]) for _ in range(40)]
    lists += [([Fraction(1, 2), wide[0]], [Fraction(-2)]),          # structural zero
              ([Fraction(3, 2)], [mpf(-3), wide[1]]),
              ([Fraction(-1), wide[2]], [Fraction(1, 2)]),          # numerator poles
              ([ctx.mpf(-2.03), wide[3]], [wide[4]]),
              ([Fraction(1, 2)], [Fraction(-39, 40)]),               # near-pole denominators
              ([wide[5]], [wide_near, Fraction(1, 3)]),
              ([-2.5], [-0.975])]
    return [(nums, dens, ctx, mpmath.mp.prec) for nums, dens in lists]


@pytest.mark.parametrize("digits", [15, 30, 100, 112, 200])
def test_gamma_product_bit_exact_against_frozen_parent(digits, monkeypatch):
    ctx = PrecisionCtx(digits=digits)
    calls = (_closed_form_products(ctx, 5000 + digits, monkeypatch)
             + _mixed_products(ctx, 6000 + digits))
    outcomes, wide_reflected = set(), 0
    for nums, dens, c, ambient in calls:
        with mpmath.workprec(ambient):
            new = _product_outcome(gamma_product, nums, dens, c)
            old = _product_outcome(_frozen_mp_gamma_product, nums, dens, c)
            assert new == old, (nums, dens)
            for x in nums + dens:
                g, f = ln_gamma(x, c), _frozen_mp_ln_gamma(x, c)
                assert (g.pole, g.sign) == (f.pole, f.sign), x
                assert g.pole or g.value_ln._mpf_ == f.value_ln._mpf_, x
                wide_reflected += (isinstance(x, mpf) and not g.pole and x < 0.5
                                   and x._mpf_[3] > c.prec + 39)
        outcomes.add("pole" if isinstance(new, str) else "zero" if new == mpf(0)._mpf_
                     else "value")
    assert outcomes == {"pole", "zero", "value"}
    assert wide_reflected >= 5


_GUARDS = (0, 0.05, 0.4999, 0.5, 0.99, 1, 1.5)


def _pole_test_inputs(seed):
    rng = random.Random(seed)
    with mpmath.workprec(200):
        tiny = mpf(2) ** -rng.randint(100, 400)
        huge = mpf(2) ** rng.randint(60, 400) + mpf(1) / 3
        xs = [mpf(rng.uniform(-60.0, 60.0)) / 7 for _ in range(40)]
        xs += [tiny, -tiny, huge, -huge, mpf(0)] + [mpf(k) for k in range(-4, 5)]
        for k in range(-3, 3):
            for g in _GUARDS:
                off = mpf(g)
                xs += [k + off, k - off, k + off * (1 + mpf(2) ** -190),
                       k - off * (1 - mpf(2) ** -190), k + off * rng.random()]
        xs += [1 - mpf(2) ** -190, 1 + mpf(2) ** -190]
    xs += [Fraction(rng.randint(-300, 300), rng.randint(1, 40)) for _ in range(40)]
    xs += [Fraction(k, 100) for k in (-205, -199, -101, -99, -5, 0, 5, 49, 50, 99, 100, 101, 150)]
    xs += [rng.uniform(-20.0, 20.0) for _ in range(20)] + [1.0, 0.99, 1.01, -0.95, 0.0, 2.5]
    return xs


def test_nearest_nonpos_int_shortcut_matches_frozen_copy():
    xs = _pole_test_inputs(7100)
    for guard in _GUARDS:
        for x in xs:
            assert nearest_nonpos_int(x, guard) == _frozen_nearest_nonpos_int(x, guard), (x, guard)
        for bad in (mpmath.nan, mpmath.inf, -mpmath.inf, float("nan"), float("inf")):
            for test in (nearest_nonpos_int, _frozen_nearest_nonpos_int):
                with pytest.raises(ValueError):
                    test(bad, guard)


@pytest.mark.parametrize("prec", [53, 200, 3400])
def test_to_mpf_ambient_matches_frozen_copy(prec):
    xs = _pole_test_inputs(7200) + [10 ** 400 + 1, Fraction(10 ** 300, 7), mpmath.pi, "1.25"]
    with mpmath.workprec(prec):
        for x in xs:
            assert to_mpf_ambient(x)._mpf_ == _frozen_to_mpf_ambient(x)._mpf_, x
        third = mpf(1) / 3
        assert to_mpf_ambient(third) is third


def test_kernel_constants_are_kept_per_precision_with_fresh_bits():
    args = ([Fraction(1, 2), Fraction(-7, 3), mpf(2.25)], [Fraction(5, 4), -0.3])
    for digits in (57, 61, 67):
        ctx = PrecisionCtx(digits=digits)
        before = len(mpnum._CONSTANTS)
        gamma_product(*args, ctx)
        added = len(mpnum._CONSTANTS) - before
        assert added <= 2
        for _ in range(1000):
            gamma_product(*args, ctx)
        assert len(mpnum._CONSTANTS) == before + added
        fresh = _frozen_mp_ln_gamma(Fraction(1, 2), ctx)
        for half in (Fraction(1, 2), mpf(0.5), 0.5):
            kept = ln_gamma(half, ctx)
            assert kept is mpnum._CONSTANTS[("ln_gamma_half", ctx.prec)]
            assert kept.value_ln._mpf_ == fresh.value_ln._mpf_
            assert (kept.sign, kept.pole) == (1, False)
        wp = ctx.prec + 39
        with mpmath.workprec(wp):
            assert mpnum._CONSTANTS[("ln_pi", wp)] == mpmath.log(mpmath.pi)._mpf_
