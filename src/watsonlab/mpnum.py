"""Extended-precision real arithmetic context and the log-gamma kernel.

Values are plain mpmath ``mpf`` floats created under a :class:`PrecisionCtx`.
The context fixes the working mantissa (at least ``digits * 3.33`` bits, so the
decimal ``digits`` are honest) and the pole guard used to decide when a gamma
argument counts as a pole.  Decimal text is presentation only; all arithmetic
is binary floating point.

Log-gamma is mpmath's ``loggamma``; this module adds the pole test, the
reflection below 1/2 that yields the sign of Gamma, and the final rounding to
the context.  It runs at 12 guard digits, which loggamma does not need for
accuracy: they keep the rounded values, bit for bit, those of the Stirling
series reference frozen in the tests, so report bytes do not depend on the
kernel.

Everything here is a pure function of its inputs plus the context, so values
can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import from_float, from_int, mpf_abs, mpf_le, mpf_sub, round_nearest, to_int

_LN_DIGITS_GUARD = 12   # extra decimal digits carried inside ln_gamma
_PRODUCT_GUARD = 15     # extra decimal digits carried inside gamma_product


class NumeratorPole(ValueError):
    """A gamma pole that makes a closed form inapplicable: a numerator argument
    within the pole guard of a nonpositive integer, or a denominator argument
    within it but not equal to it (Gamma is finite there, the product not 0)."""


def as_rational(x) -> Optional[Fraction]:
    """Fraction view of x when x is exact (int or Fraction), else None.

    Binary floats are deliberately treated as inexact even though they are
    dyadic rationals; exactness must be requested explicitly by the caller.
    """
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    return None


def bits_for_digits(digits: int) -> int:
    return int(digits * 3.3322) + 8


def to_mpf_ambient(x) -> mpf:
    """Convert to mpf rounding at the precision currently in effect."""
    r = as_rational(x)
    if r is not None:
        return mpf(r.numerator) / r.denominator
    if isinstance(x, mpf):
        return x
    return +mpf(x)


def nearest_nonpos_int(x, guard) -> Optional[int]:
    """The nonpositive integer k with |x - k| <= guard, or None.

    The distance is never rounded: exact (int/Fraction) inputs are compared as
    rationals, anything else as its mpf at the ambient precision, whose raw
    difference from k is formed exactly and compared with the exact binary
    value of guard.
    """
    if not isinstance(x, mpf):
        r = as_rational(x)
        if r is not None:
            k = min(0, round(r))
            return k if abs(r - k) <= Fraction(guard) else None
        x = to_mpf_ambient(x)
    v = x._mpf_
    k = min(0, to_int(v, round_nearest))
    return k if mpf_le(mpf_abs(mpf_sub(v, from_int(k))), from_float(guard)) else None


@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision (decimal digits) plus the pole-detection guard."""

    digits: int = 50
    pole_guard: float = 0.05

    def __post_init__(self):
        if self.digits < 15:
            raise ValueError(f"digits must be >= 15, got {self.digits}")
        if not (0 <= self.pole_guard < 0.5):
            raise ValueError(f"pole_guard must lie in [0, 0.5), got {self.pole_guard}")

    @property
    def prec(self) -> int:
        """Mantissa bits of the working precision."""
        return bits_for_digits(self.digits)

    def working(self, extra_digits: int = 0):
        """Context manager running mpmath at this precision plus guard digits."""
        return mpmath.workprec(self.prec + int(extra_digits * 3.3322))

    def mpf(self, x) -> mpf:
        """Convert to mpf, correctly rounded at the context precision."""
        with self.working():
            return +to_mpf_ambient(x)

    def near_nonpos_int(self, x) -> Optional[int]:
        """The nonpositive integer within pole_guard of x, or None; see
        :func:`nearest_nonpos_int`."""
        return nearest_nonpos_int(x, self.pole_guard)


@dataclass(frozen=True)
class GammaFactor:
    """ln|Gamma(x)| together with the sign of Gamma(x); pole means x was too close
    to a nonpositive integer for the value to be trusted."""

    value_ln: mpf
    sign: int
    pole: bool


def ln_gamma(x, ctx: PrecisionCtx) -> GammaFactor:
    """ln|Gamma(x)| with sign tracking; reflection below 1/2, poles flagged as data.

    A pole is reported exactly when x lies within ctx.pole_guard of a
    nonpositive integer; value_ln is then +inf so accidental use fails loudly.
    """
    if ctx.near_nonpos_int(x) is not None:
        return GammaFactor(value_ln=mpmath.inf, sign=1, pole=True)
    with ctx.working(_LN_DIGITS_GUARD):
        v = to_mpf_ambient(x)
        if v >= mpf(1) / 2:
            raw = mpmath.loggamma(+v)
            sign = 1
        else:
            m = int(mpmath.floor(v))
            r = v - m
            s = mpmath.sinpi(r)
            raw = mpmath.log(mpmath.pi) - mpmath.log(s) - mpmath.loggamma(1 - v)
            sign = 1 if m % 2 == 0 else -1
    with ctx.working():
        return GammaFactor(value_ln=+raw, sign=sign, pole=False)


def gamma_product(numerators: Sequence, denominators: Sequence, ctx: PrecisionCtx) -> mpf:
    """prod Gamma(n_i) / prod Gamma(d_j) via summed log-gammas with sign bookkeeping.

    A denominator argument equal to a nonpositive integer (with a pole-free
    numerator) makes the product an exact structural zero.  Any numerator
    pole, and any denominator argument within the pole guard of a
    nonpositive integer but not equal to it, raises NumeratorPole: the caller
    must treat the closed form as inapplicable, since limit evaluation is out
    of scope here.

    Log terms are summed in sorted order so permuting arguments cannot change
    the rounded result.
    """
    with ctx.working(_PRODUCT_GUARD):
        num = [ln_gamma(v, ctx) for v in numerators]
        den = [ln_gamma(v, ctx) for v in denominators]
        num_poles = [v for v, g in zip(numerators, num) if g.pole]
        if num_poles:
            raise NumeratorPole(f"gamma pole in numerator at {num_poles}")
        near = [v for v, g in zip(denominators, den)
                if g.pole and nearest_nonpos_int(v, 0) is None]
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
