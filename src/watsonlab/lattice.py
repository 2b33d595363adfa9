"""The two-index Watson lattice f_{i,j}(a,b,c) = 3F2(a,b,c; (a+b+i+1)/2, 2c+j; 1).

Besides coordinate mapping and point evaluation, this module carries the
three linear relations the verify layer adjudicates:

  * the main recurrence connecting (i, j+1), (i, j) and the unit-shifted
    (i, j) point,
  * the printed cross-lattice three-term relation, evaluated exactly as
    printed (it fails; see the verify suite),
  * a corrected three-term candidate derived by the same telescoping step
    used for the main recurrence, via (a)_n - (a-1)_n = n (a)_{n-1}.

Each is w0 f(q0) = w1 f(q1) + w2 f(q2) over three lattice points; one evaluator,
:func:`_linear_relation`, takes each relation's zero factors, points and weights.

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
from .report import RelationInstance, finish_instance, fmt_num
from .series import PFQ, EvalResult, classify, eval_unit


class PreconditionViolation(ValueError):
    pass


class UnsupportedIndex(ValueError):
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
    DivergentSeries when the series neither ends nor converges.

    use_closed_forms has no effect; it is kept only because
    perfbench/workloads.py and perfbench/checks.py still pass it.
    """
    return eval_unit(to_pfq(p), ctx, tol=tol)


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


def near_zero(value, guard) -> bool:
    """_linear_relation's zero-factor rule: value is 0 or its float is within guard."""
    return value == 0 or abs(float(to_mpf_ambient(value))) < guard


def _exact3(p: WatsonPoint):
    ra, rb, rc = as_rational(p.a), as_rational(p.b), as_rational(p.c)
    return (ra, rb, rc) if None not in (ra, rb, rc) else None


def _on_params(p: WatsonPoint, ctx: PrecisionCtx, fn):
    """fn(a, b, c) on p's exact triple, or else on its mpf values inside
    ctx.working(8); even unary minus re-rounds an mpf at the ambient
    precision, so every op of fn stays inside that block."""
    if (exact := _exact3(p)) is not None:
        return fn(*exact)
    with ctx.working(8):
        return fn(*map(to_mpf_ambient, (p.a, p.b, p.c)))


def _linear_relation(relation_id: str, p: WatsonPoint, ctx: PrecisionCtx, tol,
                     factors, points, weights) -> RelationInstance:
    """The instance of w0 f(q0) = w1 f(q1) + w2 f(q2) at p.

    factors are the (name, value) pairs that must stay away from 0, points the
    (q, label) pairs q0, q1, q2, and weights(a, b, c) gives (w0, w1, w2) at p's
    parameters.  q2 is not evaluated when w2 is 0.  The sides are Fractions
    only when p is exact and every evaluated value is exact.
    """
    for name, value in factors:
        if near_zero(value, ctx.pole_guard):
            raise PreconditionViolation(f"factor {name} = {float(to_mpf_ambient(value)):.4g}"
                                        f" is within {ctx.pole_guard} of 0")
    series = [_convergent_or_terminating(q, ctx, label) for q, label in points]
    ws = _on_params(p, ctx, weights)
    if ws[2] == 0:
        series.pop()
    values = [_point_value(f, ctx, tol) for f in series]
    exact = _exact3(p) is not None and all(v[3] for v in values)
    converged = all(v[2] for v in values)
    terms = zip((0, 1, 1), ws, values)
    if exact:
        sides = [Fraction(0), Fraction(0)]
        for side, w, (v, _, _, _) in terms:
            sides[side] += w * v
        lhs, rhs, bound = sides[0], sides[1], Fraction(0)
    else:
        with ctx.working(8):
            sides = [mpf(0), mpf(0)]
            bound = mpf(0)
            for side, w, (v, bnd, _, _) in terms:
                wv = to_mpf_ambient(w)
                sides[side] += wv * to_mpf_ambient(v)
                bound += abs(wv) * to_mpf_ambient(bnd)
            bound += (abs(sides[0]) + abs(sides[1])) * mpf(10) ** (-(ctx.digits + 2))
            lhs, rhs, bound = +sides[0], +sides[1], +bound
    return finish_instance(relation_id, p.params(), (p.i, p.j), ctx, lhs, rhs, bound,
                           converged, exact)


def recurrence_residual(p: WatsonPoint, ctx: PrecisionCtx, tol=None,
                        relation_id: str = "recurrence_16") -> RelationInstance:
    """Residual of the main recurrence at (i, j):

        (2c+j) f_{i,j+1}(a,b,c) = (2c+j) f_{i,j}(a,b,c)
                                  - 2abc / ((a+b+i+1)(2c+j+1)) f_{i,j}(a+1,b+1,c+1)

    Both sides are produced by series (or exact rational) evaluation.
    """
    i, j = p.i, p.j
    return _linear_relation(
        relation_id, p, ctx, tol, *_recurrence_points(p),
        lambda a, b, c: (2 * c + j, 2 * c + j,
                         -(2 * a * b * c / ((a + b + i + 1) * (2 * c + j + 1)))))


def _recurrence_points(p: WatsonPoint):
    """Zero factors and points of the main recurrence, the unit-shifted one last."""
    a, b, c, i, j = p.a, p.b, p.c, p.i, p.j
    return ((("a+b+i+1", a + b + i + 1), ("2c+j", 2 * c + j), ("2c+j+1", 2 * c + j + 1)),
            ((WatsonPoint(a, b, c, i, j + 1), "f_{i,j+1}(a,b,c)"), (p, "f_{i,j}(a,b,c)"),
             (p.shift_abc(1), "f_{i,j}(a+1,b+1,c+1)")))


def _three_term_points(p: WatsonPoint):
    """Zero factors and points of the three-term relations, the unit-shifted one last."""
    a, b, c, i, j = p.a, p.b, p.c, p.i, p.j
    with mpmath.workprec(_carried_prec(a, b, c)):
        left_shift = WatsonPoint(a - 1, b, c, i + 1, j)
        cross = WatsonPoint(a, b + 1, c + 1, i + 1, j - 1)
    return ((("a+b+i+1", a + b + i + 1), ("2c+j", 2 * c + j)),
            ((p, "f_{i,j}(a,b,c)"), (left_shift, "f_{i+1,j}(a-1,b,c)"),
             (cross, "f_{i+1,j-1}(a,b+1,c+1)")))


def three_term_printed(p: WatsonPoint, ctx: PrecisionCtx, tol=None) -> RelationInstance:
    """The cross-lattice three-term relation exactly as printed:

        f_{i,j}(a,b,c) = (2c+j) f_{i+1,j}(a-1,b,c)
                         - 2ab / ((a+b+i+1)(2c+j)) f_{i+1,j-1}(a,b+1,c+1)
    """
    i, j = p.i, p.j
    return _linear_relation(
        "three_term_printed", p, ctx, tol, *_three_term_points(p),
        lambda a, b, c: (1, 2 * c + j, -2 * a * b / ((a + b + i + 1) * (2 * c + j))))


def three_term_corrected(p: WatsonPoint, ctx: PrecisionCtx, tol=None) -> RelationInstance:
    """Corrected three-term candidate (re-derived; confirmed numerically by the suite):

        f_{i,j}(a,b,c) = f_{i+1,j}(a-1,b,c)
                         + 2bc / ((a+b+i+1)(2c+j)) f_{i+1,j-1}(a,b+1,c+1)

    Derivation sketch: f_{i,j}(a,b,c) and f_{i+1,j}(a-1,b,c) share denominator
    parameters, and (a)_n - (a-1)_n = n (a)_{n-1}, so their difference
    telescopes into the (i+1, j-1) series at (a, b+1, c+1) with the weight
    above.
    """
    i, j = p.i, p.j
    return _linear_relation(
        "three_term_corrected", p, ctx, tol, *_three_term_points(p),
        lambda a, b, c: (1, 1, 2 * b * c / ((a + b + i + 1) * (2 * c + j))))


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
        def coeff(a, b, c):
            ak, bk, ck = a + k, b + k, c + k
            den = (ak + bk + 1) * (2 * ck + jp) * (2 * ck + jp - 1)
            if den == 0:
                raise PreconditionViolation(f"vanishing recurrence factor at shift {k}")
            return -2 * ak * bk * ck / den
        return _on_params(target, ctx, coeff)

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
            except (closedform.DivergenceRegion, closedform.ParameterPole,
                    NumeratorPole) as exc:
                raise PreconditionViolation(f"base value at shift {k}: {exc}") from exc
            total += to_mpf_ambient(w) * base
        value = +total
    return ReductionPlan(target=target, terms=terms, value=value)
