"""Extended-precision real arithmetic context and the log-gamma kernel.

Values are plain mpmath ``mpf`` floats created under a :class:`PrecisionCtx`.
The context fixes the working mantissa (at least ``digits * 3.33`` bits, so the
decimal ``digits`` are honest) and the pole guard used to decide when a gamma
argument counts as a pole.  Decimal text is presentation only; all arithmetic
is binary floating point.

Log-gamma is mpmath's log-gamma core; this module adds the pole test, the
reflection below 1/2 that yields the sign of Gamma, and the final rounding to
the context.  It runs at 12 guard digits, which loggamma does not need for
accuracy: they keep the rounded values, bit for bit, those of the Stirling
series reference frozen in the tests, so report bytes do not depend on the
kernel.  ln_gamma and gamma_product work on raw libmp tuples at explicit
precisions, rounding to nearest: each libmp call is the one the mpmath-level
expression (``mpmath.loggamma(+v)``, ``mpmath.sinpi``, ``exp`` of the summed
logs) makes at that precision, without its wrappers and precision switches.
Two constants are kept per precision, filled on first use: ln pi at
ln_gamma's working precision, and the GammaFactor of 1/2 (never a pole, as
the guard is below 1/2).  gamma_product still raises NumeratorPole inside its
guard block, because the message prints the arguments at that precision.

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
from mpmath.libmp import (fhalf, fone, from_float, from_int, fzero, mpf_abs, mpf_add, mpf_div,
                          mpf_exp, mpf_floor, mpf_ge, mpf_le, mpf_log, mpf_loggamma, mpf_neg,
                          mpf_pi, mpf_pos, mpf_sin_pi, mpf_sub, round_nearest, to_int)

_LN_DIGITS_GUARD = 12   # extra decimal digits carried inside ln_gamma
_PRODUCT_GUARD = 15     # extra decimal digits carried inside gamma_product
_RND = round_nearest
_make_mpf = mpmath.mp.make_mpf
_CONSTANTS = {}         # (name, prec) -> ln pi or the GammaFactor of 1/2, filled on use


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


def _raw_mpf(x, prec: int) -> tuple:
    """The raw mpf of x rounded to nearest at prec; an mpf is taken as it is."""
    r = as_rational(x)
    if r is not None:
        return mpf_div(from_int(r.numerator, prec, _RND), from_int(r.denominator), prec, _RND)
    if isinstance(x, mpf):
        return x._mpf_
    return mpf(x, prec=prec)._mpf_


def to_mpf_ambient(x) -> mpf:
    """Convert to mpf rounding at the precision currently in effect."""
    return x if isinstance(x, mpf) else _make_mpf(_raw_mpf(x, mpmath.mp.prec))


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
            if r >= 1 > guard:
                return None
            k = min(0, round(r))
            return k if abs(r - k) <= Fraction(guard) else None
        x = to_mpf_ambient(x)
    v = x._mpf_
    # x >= 1 (sign 0, a nonzero mantissa, exp + bc > 0): k is 0 and |x| > guard
    if not v[0] and v[1] and v[2] + v[3] > 0 and guard < 1:
        return None
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


def _constant(name: str, prec: int, compute):
    """The kept value of (name, prec); it depends on the key alone, so threads
    that race on a miss store equal values and need no lock."""
    key = (name, prec)
    value = _CONSTANTS.get(key)
    if value is None:
        value = _CONSTANTS[key] = compute()
    return value


def _ln_gamma_raw(v: tuple, prec: int, wp: int) -> GammaFactor:
    if mpf_ge(v, fhalf):
        raw = mpf_loggamma(mpf_pos(v, wp, _RND), wp, _RND)
        sign = 1
    else:
        m = to_int(mpf_floor(v, wp, _RND))
        s = mpf_sin_pi(mpf_sub(v, from_int(m), wp, _RND), wp, _RND)
        ln_pi = _constant("ln_pi", wp, lambda: mpf_log(mpf_pi(wp, _RND), wp, _RND))
        raw = mpf_sub(mpf_sub(ln_pi, mpf_log(s, wp, _RND), wp, _RND),
                      mpf_loggamma(mpf_sub(fone, v, wp, _RND), wp, _RND), wp, _RND)
        sign = -1 if m % 2 else 1
    return GammaFactor(value_ln=_make_mpf(mpf_pos(raw, prec, _RND)), sign=sign, pole=False)


def ln_gamma(x, ctx: PrecisionCtx) -> GammaFactor:
    """ln|Gamma(x)| with sign tracking; reflection below 1/2, poles flagged as data.

    A pole is reported exactly when x lies within ctx.pole_guard of a
    nonpositive integer; value_ln is then +inf so accidental use fails loudly.
    """
    if ctx.near_nonpos_int(x) is not None:
        return GammaFactor(value_ln=mpmath.inf, sign=1, pole=True)
    prec = ctx.prec
    wp = prec + int(_LN_DIGITS_GUARD * 3.3322)
    v = _raw_mpf(x, wp)
    if v == fhalf:
        return _constant("ln_gamma_half", prec, lambda: _ln_gamma_raw(v, prec, wp))
    return _ln_gamma_raw(v, prec, wp)


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
        return _make_mpf(fzero)
    prec = ctx.prec
    wp = prec + int(_PRODUCT_GUARD * 3.3322)
    total = fzero
    for ln in sorted(g.value_ln for g in num):
        total = mpf_add(total, ln._mpf_, wp, _RND)
    for ln in sorted(g.value_ln for g in den):
        total = mpf_sub(total, ln._mpf_, wp, _RND)
    sign = 1
    for g in num + den:
        sign *= g.sign
    raw = mpf_exp(total, wp, _RND)
    return _make_mpf(mpf_pos(raw if sign > 0 else mpf_neg(raw), prec, _RND))
