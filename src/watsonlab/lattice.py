"""The two-index Watson lattice f_{i,j}(a,b,c) = 3F2(a,b,c; (a+b+i+1)/2, 2c+j; 1).

Besides coordinate mapping and point evaluation, this module carries the
three linear relations the verify layer adjudicates:

  * the main recurrence connecting (i, j+1), (i, j) and the unit-shifted
    (i, j) point,
  * the printed cross-lattice three-term relation, evaluated exactly as
    printed (it fails; see the verify suite),
  * a corrected three-term candidate derived by the same telescoping step
    used for the main recurrence, via (a)_n - (a-1)_n = n (a)_{n-1}.

Adjudication never trusts closed forms: residuals are built from series (or
exact rational) evaluation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import mpmath
from mpmath import mpf

from . import closedform
from .mpnum import NumeratorPole, PrecisionCtx, as_rational, to_mpf_ambient
from .report import RelationInstance, finish_instance
from .series import PFQ, DivergentSeries, EvalResult, classify, eval_unit


class PreconditionViolation(ValueError):
    pass


class UnsupportedIndex(ValueError):
    pass


class DivergentPoint(ValueError):
    pass


@dataclass(frozen=True)
class WatsonPoint:
    a: object
    b: object
    c: object
    i: int
    j: int

    def shift_abc(self, k: int) -> "WatsonPoint":
        with mpmath.workprec(_carried_prec(self.a, self.b, self.c)):
            return WatsonPoint(self.a + k, self.b + k, self.c + k, self.i, self.j)

    def params(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


@dataclass(frozen=True)
class ReductionPlan:
    """f_{0,j} expanded over base-row values at unit-shifted parameters."""

    target: WatsonPoint
    terms: Tuple[Tuple[int, object], ...]      # (shift k, weight), ascending k
    value: mpf

    def as_dict(self) -> dict:
        from .report import fmt_num
        return {
            "target": {**{k: fmt_num(v) for k, v in self.target.params().items()},
                       "i": self.target.i, "j": self.target.j},
            "terms": [{"shift": k, "weight": fmt_num(w)} for k, w in self.terms],
            "value": fmt_num(self.value),
        }


def _carried_prec(*values) -> int:
    """Working precision wide enough for the mantissas the values carry."""
    bits = mpmath.mp.prec
    for v in values:
        if isinstance(v, mpf):
            bits = max(bits, v._mpf_[3])
    return bits + 20


def to_pfq(p: WatsonPoint) -> PFQ:
    """Numerators (a,b,c), denominators ((a+b+i+1)/2, 2c+j), unit argument."""
    if (exact := _exact3(p)) is not None:
        ra, rb, rc = exact
        return PFQ((ra, rb, rc), ((ra + rb + p.i + 1) / 2, 2 * rc + p.j), Fraction(1))
    with mpmath.workprec(_carried_prec(p.a, p.b, p.c)):
        a, b, c = to_mpf_ambient(p.a), to_mpf_ambient(p.b), to_mpf_ambient(p.c)
        return PFQ((a, b, c), ((a + b + p.i + 1) / 2, 2 * c + p.j), 1)


def margin(p: WatsonPoint):
    """Parametric excess s = c + j + (i+1)/2 - (a+b)/2 of the unit-argument series."""
    if (exact := _exact3(p)) is not None:
        ra, rb, rc = exact
        return rc + p.j + Fraction(p.i + 1, 2) - (ra + rb) / 2
    with mpmath.workprec(_carried_prec(p.a, p.b, p.c)):
        return (to_mpf_ambient(p.c) + p.j + mpf(p.i + 1) / 2
                - (to_mpf_ambient(p.a) + to_mpf_ambient(p.b)) / 2)


def eval_point(p: WatsonPoint, ctx: PrecisionCtx, tol=None,
               use_closed_forms: bool = False) -> EvalResult:
    """Evaluate f_{i,j}(a,b,c) by eval_unit: exact rational summation when the
    series terminates with exact data, otherwise series evaluation.

    use_closed_forms has no effect; it is kept only because
    perfbench/workloads.py and perfbench/checks.py still pass it.
    """
    try:
        return eval_unit(to_pfq(p), ctx, tol=tol)
    except DivergentSeries as exc:
        raise DivergentPoint(str(exc)) from exc


def _point_value(f: PFQ, ctx: PrecisionCtx, tol):
    """(value, abs bound, converged, is_exact); value is a Fraction when exact."""
    res = eval_unit(f, ctx, tol=tol)
    if res.exact_value is not None:
        return res.exact_value, Fraction(0), True, True
    return res.value, res.abs_err_bound, res.converged, False


def _convergent_or_terminating(p: WatsonPoint, ctx: PrecisionCtx, label: str) -> PFQ:
    """p's series; PreconditionViolation when it neither ends nor converges.  An
    inexact margin is margin(p), formed at the precision p's mantissas carry."""
    f = to_pfq(p)
    c = classify(f, ctx.pole_guard)
    if c.m is None:
        s = float(to_mpf_ambient(margin(p) if c.excess is None else c.excess))
        if s <= 0:
            raise PreconditionViolation(
                f"{label} at (i={p.i}, j={p.j}) has margin {s:.4g} <= 0 and does not terminate")
    return f


def _require_away_from_zero(value, name, guard):
    if abs(v := float(to_mpf_ambient(value))) < guard:
        raise PreconditionViolation(f"factor {name} = {v:.4g} is within {guard} of 0")


def _exact3(p: WatsonPoint):
    ra, rb, rc = as_rational(p.a), as_rational(p.b), as_rational(p.c)
    return (ra, rb, rc) if None not in (ra, rb, rc) else None


def _combine_relation(ctx, lhs_terms, rhs_terms, exact_ok):
    """Accumulate weighted sides; (weight, value, bound) triples per side."""
    if exact_ok:
        lhs = sum((w * v for w, v, _ in lhs_terms), Fraction(0))
        rhs = sum((w * v for w, v, _ in rhs_terms), Fraction(0))
        return lhs, rhs, Fraction(0)
    with ctx.working(8):
        lhs = mpf(0)
        rhs = mpf(0)
        bound = mpf(0)
        for w, v, bnd in lhs_terms:
            wv = to_mpf_ambient(w)
            lhs += wv * to_mpf_ambient(v)
            bound += abs(wv) * to_mpf_ambient(bnd)
        for w, v, bnd in rhs_terms:
            wv = to_mpf_ambient(w)
            rhs += wv * to_mpf_ambient(v)
            bound += abs(wv) * to_mpf_ambient(bnd)
        bound += (abs(lhs) + abs(rhs)) * mpf(10) ** (-(ctx.digits + 2))
        return +lhs, +rhs, +bound


def recurrence_residual(p: WatsonPoint, ctx: PrecisionCtx, tol=None,
                        relation_id: str = "recurrence_16") -> RelationInstance:
    """Residual of the main recurrence at (i, j):

        (2c+j) f_{i,j+1}(a,b,c) = (2c+j) f_{i,j}(a,b,c)
                                  - 2abc / ((a+b+i+1)(2c+j+1)) f_{i,j}(a+1,b+1,c+1)

    Both sides are produced by series (or exact rational) evaluation.
    """
    a, b, c, i, j = p.a, p.b, p.c, p.i, p.j
    guard = ctx.pole_guard
    _require_away_from_zero(a + b + i + 1, "a+b+i+1", guard)
    _require_away_from_zero(2 * c + j, "2c+j", guard)
    _require_away_from_zero(2 * c + j + 1, "2c+j+1", guard)
    f_up, f_base, f_shift = (
        _convergent_or_terminating(q, ctx, label)
        for q, label in ((WatsonPoint(a, b, c, i, j + 1), "f_{i,j+1}(a,b,c)"),
                         (p, "f_{i,j}(a,b,c)"), (p.shift_abc(1), "f_{i,j}(a+1,b+1,c+1)")))
    if (exact := _exact3(p)) is not None:
        ra, rb, rc = exact
        mult = 2 * rc + j
        coeff = Fraction(2) * ra * rb * rc / ((ra + rb + i + 1) * (2 * rc + j + 1))
        neg_coeff = -coeff
    else:
        # even unary minus re-rounds an mpf at the ambient precision, so every
        # coefficient op stays inside the guarded block
        with ctx.working(8):
            mult = to_mpf_ambient(2 * to_mpf_ambient(c) + j)
            coeff = +(2 * to_mpf_ambient(a) * to_mpf_ambient(b) * to_mpf_ambient(c)
                      / ((to_mpf_ambient(a) + to_mpf_ambient(b) + i + 1)
                         * (2 * to_mpf_ambient(c) + j + 1)))
            neg_coeff = -coeff
    v_up = _point_value(f_up, ctx, tol)
    v_base = _point_value(f_base, ctx, tol)
    if coeff == 0:
        v_shift = (Fraction(0) if exact is not None else mpf(0), Fraction(0), True, True)
    else:
        v_shift = _point_value(f_shift, ctx, tol)
    all_exact = exact is not None and v_up[3] and v_base[3] and v_shift[3]
    converged = v_up[2] and v_base[2] and v_shift[2]
    lhs, rhs, bound = _combine_relation(
        ctx,
        [(mult, v_up[0], v_up[1])],
        [(mult, v_base[0], v_base[1]), (neg_coeff, v_shift[0], v_shift[1])],
        all_exact)
    return finish_instance(relation_id, p.params(), (p.i, p.j), ctx, lhs, rhs, bound,
                           converged, all_exact)


def _three_term(p: WatsonPoint, ctx: PrecisionCtx, tol, printed: bool,
                relation_id: str) -> RelationInstance:
    a, b, c, i, j = p.a, p.b, p.c, p.i, p.j
    guard = ctx.pole_guard
    _require_away_from_zero(a + b + i + 1, "a+b+i+1", guard)
    _require_away_from_zero(2 * c + j, "2c+j", guard)
    with mpmath.workprec(_carried_prec(a, b, c)):
        left_shift = WatsonPoint(a - 1, b, c, i + 1, j)
        cross = WatsonPoint(a, b + 1, c + 1, i + 1, j - 1)
    f_main, f_left, f_cross = (
        _convergent_or_terminating(q, ctx, label)
        for q, label in ((p, "f_{i,j}(a,b,c)"), (left_shift, "f_{i+1,j}(a-1,b,c)"),
                         (cross, "f_{i+1,j-1}(a,b+1,c+1)")))
    if (exact := _exact3(p)) is not None:
        ra, rb, rc = exact
        denom = (ra + rb + i + 1) * (2 * rc + j)
        if printed:
            w2 = 2 * rc + j
            coeff = Fraction(-2) * ra * rb / denom
        else:
            w2 = Fraction(1)
            coeff = Fraction(2) * rb * rc / denom
    else:
        with ctx.working(8):
            am, bm, cm = to_mpf_ambient(a), to_mpf_ambient(b), to_mpf_ambient(c)
            denom = (am + bm + i + 1) * (2 * cm + j)
            if printed:
                w2 = +(2 * cm + j)
                coeff = +(-2 * am * bm / denom)
            else:
                w2 = mpf(1)
                coeff = +(2 * bm * cm / denom)
    v_main = _point_value(f_main, ctx, tol)
    v_left = _point_value(f_left, ctx, tol)
    if coeff == 0:
        v_cross = (Fraction(0) if exact is not None else mpf(0), Fraction(0), True, True)
    else:
        v_cross = _point_value(f_cross, ctx, tol)
    all_exact = exact is not None and v_main[3] and v_left[3] and v_cross[3]
    converged = v_main[2] and v_left[2] and v_cross[2]
    lhs, rhs, bound = _combine_relation(
        ctx,
        [(1, v_main[0], v_main[1])],
        [(w2, v_left[0], v_left[1]), (coeff, v_cross[0], v_cross[1])],
        all_exact)
    return finish_instance(relation_id, p.params(), (p.i, p.j), ctx, lhs, rhs, bound,
                           converged, all_exact)


def three_term_printed(p: WatsonPoint, ctx: PrecisionCtx, tol=None) -> RelationInstance:
    """The cross-lattice three-term relation exactly as printed:

        f_{i,j}(a,b,c) = (2c+j) f_{i+1,j}(a-1,b,c)
                         - 2ab / ((a+b+i+1)(2c+j)) f_{i+1,j-1}(a,b+1,c+1)
    """
    return _three_term(p, ctx, tol, printed=True, relation_id="three_term_printed")


def three_term_corrected(p: WatsonPoint, ctx: PrecisionCtx, tol=None) -> RelationInstance:
    """Corrected three-term candidate (re-derived; confirmed numerically by the suite):

        f_{i,j}(a,b,c) = f_{i+1,j}(a-1,b,c)
                         + 2bc / ((a+b+i+1)(2c+j)) f_{i+1,j-1}(a,b+1,c+1)

    Derivation sketch: f_{i,j}(a,b,c) and f_{i+1,j}(a-1,b,c) share denominator
    parameters, and (a)_n - (a-1)_n = n (a)_{n-1}, so their difference
    telescopes into the (i+1, j-1) series at (a, b+1, c+1) with the weight
    above.
    """
    return _three_term(p, ctx, tol, printed=False, relation_id="three_term_corrected")


def reduce_to_watson(target: WatsonPoint, ctx: PrecisionCtx) -> ReductionPlan:
    """Expand f_{0,j}, j >= 0, over base-row closed-form values.

    Iterating the main recurrence downward in j rewrites the target as
    sum_k w_k f_{0,0}(a+k, b+k, c+k); identical shifts merge, so at most j+1
    distinct shifts survive.  The weights are accumulated numerically (exactly,
    for rational inputs) at the given parameters.
    """
    if target.i != 0:
        raise UnsupportedIndex(f"reduction supports i = 0 only, got i = {target.i}")
    if target.j < 0:
        raise UnsupportedIndex(f"reduction supports j >= 0 only, got j = {target.j}")
    a, b, c, j = target.a, target.b, target.c, target.j
    s = float(to_mpf_ambient(margin(WatsonPoint(a, b, c, 0, 0))))
    if s <= 0:
        raise PreconditionViolation(f"base row margin {s:.4g} <= 0")
    exact = _exact3(target)

    def shifted_coeff(jp, k):
        # weight picked up when f_{0,jp}(a+k,...) is rewritten one row down
        if exact is not None:
            ra, rb, rc = exact
            ak, bk, ck = ra + k, rb + k, rc + k
            den = (ak + bk + 1) * (2 * ck + jp) * (2 * ck + jp - 1)
            if den == 0:
                raise PreconditionViolation(f"vanishing recurrence factor at shift {k}")
            return Fraction(-2) * ak * bk * ck / den
        with ctx.working(8):
            ak = to_mpf_ambient(a) + k
            bk = to_mpf_ambient(b) + k
            ck = to_mpf_ambient(c) + k
            den = (ak + bk + 1) * (2 * ck + jp) * (2 * ck + jp - 1)
            if den == 0:
                raise PreconditionViolation(f"vanishing recurrence factor at shift {k}")
            return +(-2 * ak * bk * ck / den)

    weights = {0: Fraction(1) if exact is not None else mpf(1)}
    with ctx.working(8):
        for jp in range(j, 0, -1):
            new = {}
            for k, w in weights.items():
                new[k] = new.get(k, 0) + w
                new[k + 1] = new.get(k + 1, 0) + w * shifted_coeff(jp, k)
            weights = new
    terms = tuple(sorted(weights.items()))
    with ctx.working(8):
        total = mpf(0)
        for k, w in terms:
            ak, bk, ck = a + k, b + k, c + k
            try:
                base = closedform.watson_00(ak, bk, ck, ctx)
            except (closedform.DivergenceRegion, NumeratorPole) as exc:
                raise PreconditionViolation(f"base value at shift {k}: {exc}") from exc
            total += to_mpf_ambient(w) * base
        value = +total
    return ReductionPlan(target=target, terms=terms, value=value)
