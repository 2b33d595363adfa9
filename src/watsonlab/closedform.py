"""Gamma-product closed forms for distinguished lattice rows, and the trust
status the suite derives for them.

Each function computes exactly what its source formula prints.  Correctness is
never assumed: the verify layer adjudicates every form against series
evaluation, and registry_as_dicts reads each form's status off those reports;
no state is kept between runs.  Printed misprints must stay observable, so
nothing in this module "fixes" a formula.

All four forms follow the row j of the lattice 3F2(a, b, c; (a+b+1)/2, 2c+j; 1)
at j = 0 (watson_00), j = +1 (lavoie_plus), j = -1 (lavoie_minus); gauss is the
2F1 unit-argument summation used as a building block elsewhere.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import mpmath
from mpmath import mpf

from .mpnum import (PrecisionCtx, as_rational, gamma_product, nearest_nonpos_int,
                    to_mpf_ambient)
from .report import fmt_num

# safety margin added to each printed strict inequality so adjudication never
# happens in the slow-convergence limit
VALIDITY_MARGIN = 0.05
_HALF = mpf(0.5)        # the forms' 1/2 for an inexact triple

FORM_EQUATIONS = {
    "gauss": "2F1(a,b;c;1) = G(c)G(c-a-b) / (G(c-a)G(c-b))",
    "watson_00": "3F2(a,b,c;(a+b+1)/2,2c;1) = G(1/2)G(c+1/2)G(a/2+b/2+1/2)G(c-a/2-b/2+1/2)"
                 " / (G(a/2+1/2)G(b/2+1/2)G(c-a/2+1/2)G(c-b/2+1/2))",
    "lavoie_plus": "3F2(a,b,c;(a+b+1)/2,2c+1;1) = 2^(a+b-2) G(c+1/2)G(a/2+b/2+1/2)"
                   "G(c-a/2-b/2+1/2) / (G(1/2)G(a)G(b)) * { G(a/2)G(b/2)/(G(c-a/2+1/2)"
                   "G(c-b/2+1/2)) - G(a/2+1/2)G(b/2+1/2)/(G(c-a/2+1)G(c-b/2+1)) }",
    "lavoie_minus": "3F2(a,b,c;(a+b+1)/2,2c-1;1) = 2^(a+b-2) G(c-1/2)G(a/2+b/2+1/2)"
                    "G(c-a/2-b/2-1/2) / (G(1/2)G(a)G(b)) * { G(a/2)G(b/2)/(G(c-a/2-1/2)"
                    "G(c-b/2-1/2)) - G(a/2+1/2)G(b/2+1/2)/(G(c-a/2)G(c-b/2)) }",
}
FORM_IDS = tuple(FORM_EQUATIONS)


class DivergenceRegion(ValueError):
    """Parameters violate the form's convergence inequality (with safety margin)."""


class ParameterPole(ValueError):
    """a or b too close to a nonpositive integer, or a series denominator
    (a+b+1)/2 or 2c+j equal to one: the series then ends before that pole, at
    a value the gamma form need not give, or is undefined."""


def registry_as_dicts(reports):
    """The suite document's closed_form_registry rows, one per form in FORM_IDS
    order, derived from that form's report among `reports` (the last, if
    several).  A form is verified by an identity verdict on at least 100
    converged samples and refuted by not_identity; anything else, a form
    without a report included, leaves it unverified."""
    by_form = {r.relation_id: r for r in reports}
    rows = []
    for fid in FORM_IDS:
        rep = by_form.get(fid)
        if rep is None:
            status, n, worst = "unverified", 0, None
        else:
            n, worst = rep.n_converged, rep.worst_rel_residual
            if rep.verdict == "identity" and n >= 100:
                status = "verified"
            elif rep.verdict == "not_identity":
                status = "refuted"
            else:
                status = "unverified"
        rows.append({"form_id": fid, "source_equation": FORM_EQUATIONS[fid],
                     "status": status, "n_samples": n,
                     "worst_rel_residual": fmt_num(worst)})
    return rows


def _coerce3(ctx: PrecisionCtx, a, b, c):
    ra, rb, rc = as_rational(a), as_rational(b), as_rational(c)
    if None not in (ra, rb, rc):
        return ra, rb, rc
    with ctx.working(8):
        return to_mpf_ambient(a), to_mpf_ambient(b), to_mpf_ambient(c)


def _require_excess(value, floor_value, form_id):
    if not float(value) > floor_value + VALIDITY_MARGIN:
        raise DivergenceRegion(
            f"{form_id}: convergence excess {float(value):.6g} not above "
            f"{floor_value} + {VALIDITY_MARGIN}"
        )


def _require_series_denominators(form_id, *dens):
    for d in dens:
        if nearest_nonpos_int(d, 0) is not None:
            raise ParameterPole(f"{form_id}: series denominator {d} is a nonpositive integer")


def _gamma_lists(form_id, a, b, c):
    """form_id's gamma products at the coerced triple (a, b, c), in the form's
    order, as (numerator args, denominator args) at the ambient precision.  h
    is a Fraction 1/2 for an exact triple, else an mpf: both exact, same values."""
    h = Fraction(1, 2) if isinstance(a, Fraction) else _HALF
    if form_id == "gauss":
        return (([c, c - a - b], [c - a, c - b]),)
    if form_id == "watson_00":
        return (([h, c + h, (a + b) / 2 + h, c - (a + b) / 2 + h],
                 [(a + 1) / 2, (b + 1) / 2, c - a / 2 + h, c - b / 2 + h]),)
    down = form_id == "lavoie_minus"
    sgn = -1 if down else 1
    return (([c + sgn * h, (a + b) / 2 + h, c - (a + b) / 2 + sgn * h], [h, a, b]),
            ([a / 2, b / 2], [c - a / 2 + sgn * h, c - b / 2 + sgn * h]),
            ([(a + 1) / 2, (b + 1) / 2],
             [c - a / 2 + (0 if down else 1), c - b / 2 + (0 if down else 1)]))


def gamma_arguments(form_id, a, b, c) -> list:
    """Every gamma argument, numerator or denominator, of form_id at (a, b, c)."""
    return [v for nums, dens in _gamma_lists(form_id, a, b, c) for v in (*nums, *dens)]


def gauss_2f1_unit(a, b, c, ctx: PrecisionCtx) -> mpf:
    """Unit-argument 2F1 summation: G(c)G(c-a-b) / (G(c-a)G(c-b)), needs c-a-b > 0."""
    a, b, c = _coerce3(ctx, a, b, c)
    _require_excess(c - a - b, 0.0, "gauss")
    with ctx.working(8):
        (nums, dens), = _gamma_lists("gauss", a, b, c)
    return gamma_product(nums, dens, ctx)


def watson_00(a, b, c, ctx: PrecisionCtx) -> mpf:
    """The j = 0 row closed form, valid for 2c - a - b > -1.

    A denominator gamma argument equal to a nonpositive integer makes the
    value an exact zero; one only within the pole guard of it raises
    NumeratorPole (see gamma_product).  Past those checks, a series
    denominator (a+b+1)/2 or 2c equal to a nonpositive integer raises
    ParameterPole.
    """
    a, b, c = _coerce3(ctx, a, b, c)
    _require_excess(2 * c - a - b, -1.0, "watson_00")
    with ctx.working(8):
        (nums, dens), = _gamma_lists("watson_00", a, b, c)
    value = gamma_product(nums, dens, ctx)
    _require_series_denominators("watson_00", nums[2], 2 * c)
    return value


def _lavoie(a, b, c, ctx: PrecisionCtx, down: bool) -> mpf:
    form_id = "lavoie_minus" if down else "lavoie_plus"
    if ctx.near_nonpos_int(a) is not None or ctx.near_nonpos_int(b) is not None:
        raise ParameterPole(f"{form_id}: a or b within pole_guard of a nonpositive integer")
    a, b, c = _coerce3(ctx, a, b, c)
    _require_excess(2 * c - a - b, 1.0 if down else -3.0, form_id)
    # the braces cancel, so the constituent quotients carry guard digits
    inner = replace(ctx, digits=ctx.digits + 12)
    with inner.working():
        pref, first, second = _gamma_lists(form_id, a, b, c)
        pref_gamma = gamma_product(*pref, inner)
        pow2 = mpmath.power(2, to_mpf_ambient(a + b) - 2)
        raw = pow2 * pref_gamma * (gamma_product(*first, inner) - gamma_product(*second, inner))
        _require_series_denominators(form_id, pref[0][1], 2 * c + (-1 if down else 1))
    with ctx.working():
        return +raw


def lavoie_plus(a, b, c, ctx: PrecisionCtx) -> mpf:
    """The j = +1 row closed form as printed, valid for 2c - a - b > -3."""
    return _lavoie(a, b, c, ctx, down=False)


def lavoie_minus(a, b, c, ctx: PrecisionCtx) -> mpf:
    """The j = -1 row closed form, computed exactly as printed.

    This form is typo-suspect; whether it holds is decided by the adjudication
    suite, not assumed here.
    """
    return _lavoie(a, b, c, ctx, down=True)


FORM_FUNCS = {
    "gauss": gauss_2f1_unit,
    "watson_00": watson_00,
    "lavoie_plus": lavoie_plus,
    "lavoie_minus": lavoie_minus,
}
