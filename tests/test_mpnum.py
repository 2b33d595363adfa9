import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from watsonlab.mpnum import (GammaFactor, NumeratorPole, PrecisionCtx, gamma_product,
                             ln_gamma, nearest_nonpos_int, to_mpf_ambient)

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
