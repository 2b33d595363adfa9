import dataclasses
import hashlib
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from watsonlab import closedform, lattice, mpnum, series
from watsonlab.lattice import (PreconditionViolation, UnsupportedIndex, WatsonPoint,
                               eval_point, margin, recurrence_residual, reduce_to_watson,
                               three_term_corrected, three_term_printed, to_pfq)
from watsonlab.mpnum import PrecisionCtx
from watsonlab.series import DivergentSeries, SeriesError, eval_unit

CTX = PrecisionCtx(digits=30)

PI2_4 = "2.4674011002723396547086227499690377838284248518102"
PI2_4_M1 = "1.4674011002723396547086227499690377838284248518102"

rational = st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=24)


def test_to_pfq_examples():
    f = to_pfq(WatsonPoint(1, 1, 1, 0, 0))
    assert f.numerators == (1, 1, 1)
    assert f.denominators == (Fraction(3, 2), 2)
    f = to_pfq(WatsonPoint(1, 1, 1, 0, 1))
    assert f.denominators == (Fraction(3, 2), 3)
    f = to_pfq(WatsonPoint(Fraction(1, 2), Fraction(1, 2), 2, 0, -1))
    assert f.denominators == (Fraction(1), 3)
    assert f.argument == 1


@pytest.mark.parametrize("point, expected", [
    (WatsonPoint(1, 1, 1, 0, 0), Fraction(1, 2)),
    (WatsonPoint(1, 1, 1, 0, 1), Fraction(3, 2)),
    (WatsonPoint(Fraction(1, 2), Fraction(1, 2), 2, 0, -1), Fraction(1)),
])
def test_margin_examples(point, expected):
    assert margin(point) == expected


@given(rational, rational, rational,
       st.integers(min_value=-5, max_value=5), st.integers(min_value=-3, max_value=3))
@settings(max_examples=100, deadline=None)
def test_margin_invariant_under_unit_shift(a, b, c, i, j):
    # the shift (a,b,c) -> (a+1,b+1,c+1) leaves the excess fixed, which is what
    # makes the main recurrence self-consistent
    p = WatsonPoint(a, b, c, i, j)
    assert margin(p.shift_abc(1)) == margin(p)


def test_eval_point_exact_zero():
    res = eval_point(WatsonPoint(Fraction(-1), Fraction(1), Fraction(1), 0, 0), CTX)
    assert res.exact_value == 0 and res.method == "exact_rational"


def test_eval_point_watson_value():
    res = eval_point(WatsonPoint(1, 1, 1, 0, 0), CTX, tol=mpf(10) ** -25)
    with CTX.working(5):
        assert abs(res.value - mpf(PI2_4)) <= mpf(10) ** -25
    res = eval_point(WatsonPoint(1, 1, 1, 0, 0), CTX)
    assert res.method == "accelerated"
    with CTX.working(5):
        assert abs(res.value - mpf(PI2_4)) <= mpf(10) ** (8 - CTX.digits)


def test_eval_point_series_row_away_from_base():
    # (i, j) = (2, 0) has no closed form; mpmath at twice the precision is the oracle
    res = eval_point(WatsonPoint(1, 1, 1, 2, 0), CTX, tol=mpf(10) ** -20)
    assert res.converged
    with mpmath.workprec(2 * CTX.prec):
        ref = mpmath.hyp3f2(1, 1, 1, mpf(5) / 2, 2, 1)
        assert abs(res.value - ref) <= res.abs_err_bound


def test_eval_point_rational_near_pole_is_not_exact():
    # a = -39/40 lies within the 0.05 pole guard of -1, but exact data
    # terminates only at an exact nonpositive integer: truncating after n = 1
    # would give the exact 2/41, which is not the value of the series
    p = WatsonPoint(Fraction(-39, 40), 1, 2, 0, 0)
    ctx = PrecisionCtx(digits=20)
    res = eval_point(p, ctx, use_closed_forms=False)
    assert res.exact_value is None and res.method == "accelerated" and res.converged
    with mpmath.workprec(2 * ctx.prec):
        a = mpf(-39) / 40
        ref = mpmath.hyp3f2(a, 1, 2, (a + 2) / 2, 4, 1)
        assert abs(res.value - ref) <= res.abs_err_bound


def test_eval_point_inexact_near_pole_numerator_is_refused():
    # a = -0.97 as a float nearly ends the series at n = 1 but does not;
    # truncating there, or reading it as -1 as the Watson form's gamma factors
    # would, gives that point's value 0 (hyp3f2: 0.0409...), so it is refused
    with pytest.raises(SeriesError, match="numerator parameter -0.97"):
        eval_point(WatsonPoint(-0.97, 1, 2, 0, 0), CTX)
    with pytest.raises(PreconditionViolation, match="does not terminate"):
        recurrence_residual(WatsonPoint(-0.97, 1, -1.5, 0, 0), CTX)


def test_eval_point_near_pole_denominator_falls_through_to_series():
    # c - a/2 + 1/2 = -0.99 is a denominator gamma argument of the Watson form
    # near -1 but not at it, where the form is inapplicable; eval_point sums
    # the series (hyp3f2 at 40 digits: 0.13071873637560774080668665148740867)
    res = eval_point(WatsonPoint(0.2, -2.5, -1.39, 0, 0), CTX)
    assert res.method == "accelerated" and res.converged
    with CTX.working(10):
        ref = mpf("0.13071873637560774080668665148740867")
        assert 0 < res.abs_err_bound <= mpf(10) ** -25
        # the bound leaves out the final rounding to the context (Defect A)
        assert abs(res.value - ref) <= res.abs_err_bound + abs(ref) * mpf(2) ** -CTX.prec


def test_eval_point_divergent():
    with pytest.raises(DivergentSeries):
        eval_point(WatsonPoint(2, 2, 1, 0, 0), CTX)


# Defect E: at margins s >= 50 the direct route reports a tail bound below its
# error against Watson's closed form (2.5e-28 against 9.55e-29 at the first point)
@pytest.mark.xfail(strict=True, reason="Defect E: direct-route tail bound fails at s >= 50")
@pytest.mark.parametrize("a, b, c, digits", [(1000, 1, 1000, 30),
                                             (Fraction(1, 2), Fraction(1, 4), 200, 15)])
def test_eval_point_bound_covers_watson_at_large_margin(a, b, c, digits):
    res = eval_point(WatsonPoint(a, b, c, 0, 0), PrecisionCtx(digits=digits))
    ref = closedform.watson_00(a, b, c, PrecisionCtx(digits=80))
    with mpmath.workdps(90):
        assert abs(res.value - ref) <= res.abs_err_bound


def test_recurrence_exact_probes():
    inst = recurrence_residual(WatsonPoint(Fraction(-1), Fraction(1), Fraction(1), 0, 0), CTX)
    assert inst.exact and inst.abs_residual == 0
    assert inst.lhs == Fraction(2, 3) and inst.rhs == Fraction(2, 3)
    # a = 0 collapses both sides to (2c+j) and kills the shifted term
    inst = recurrence_residual(WatsonPoint(Fraction(0), Fraction(3, 2), Fraction(5, 4), 0, 0), CTX)
    assert inst.exact and inst.abs_residual == 0


def test_recurrence_numeric_at_base():
    inst = recurrence_residual(WatsonPoint(1, 1, 1, 0, 0), CTX, tol=mpf(10) ** -20)
    assert inst.converged
    assert float(inst.rel_residual) <= 1e-18
    # lhs = 2 (pi^2/4 - 1), rhs = 2 pi^2/4 - (2/9) * 9
    with CTX.working(5):
        assert abs(inst.lhs - 2 * (mpf(PI2_4) - 1)) <= mpf(10) ** -18


def test_recurrence_preconditions():
    with pytest.raises(PreconditionViolation):
        # 2c + j = 0
        recurrence_residual(WatsonPoint(Fraction(1), Fraction(1), Fraction(1, 2), 0, -1), CTX)
    with pytest.raises(PreconditionViolation):
        # a + b + i + 1 = 0
        recurrence_residual(WatsonPoint(Fraction(1), Fraction(1), Fraction(2), -3, 0), CTX)


def _count_pole_tests(monkeypatch):
    """A list that grows by one per nearest_nonpos_int call made through series or lattice."""
    calls = []
    for mod in (series, lattice):
        for name, value in list(vars(mod).items()):
            if value is mpnum.nearest_nonpos_int:
                def counted(x, guard, _fn=value):
                    calls.append(x)
                    return _fn(x, guard)
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_parameter_is_pole_tested_once(monkeypatch):
    ctx = PrecisionCtx(digits=30)
    with ctx.working():
        p = WatsonPoint(mpf("1.3"), mpf("0.7"), mpf("1.9"), 1, -1)
    calls = _count_pole_tests(monkeypatch)
    res = eval_unit(to_pfq(p), ctx)
    assert res.converged and res.method == "accelerated"
    assert len(calls) <= 5                  # three numerators, two denominators
    del calls[:]
    inst = recurrence_residual(p, ctx)
    assert inst.converged
    assert len(calls) <= 15                 # three points, each classified once


def test_three_term_printed_counterexample():
    inst = three_term_printed(WatsonPoint(Fraction(0), Fraction(1), Fraction(2), 0, 0), CTX)
    assert inst.exact
    assert inst.lhs == 1 and inst.rhs == 2
    assert inst.rel_residual == Fraction(1, 2)


def test_three_term_printed_single_point_coincidence():
    # one lucky zero residual, which is why multi-point sampling is mandatory
    inst = three_term_printed(WatsonPoint(Fraction(0), Fraction(1), Fraction(1), 0, 0), CTX)
    assert inst.exact and inst.abs_residual == 0


def test_three_term_corrected_probes():
    inst = three_term_corrected(WatsonPoint(Fraction(0), Fraction(1), Fraction(2), 0, 0), CTX)
    assert inst.exact and inst.abs_residual == 0
    inst = three_term_corrected(WatsonPoint(1, 1, 1, 0, 1), CTX, tol=mpf(10) ** -20)
    assert inst.converged and float(inst.rel_residual) <= 1e-18


@given(rational, rational,
       st.integers(min_value=-4, max_value=4), st.integers(min_value=-2, max_value=3))
@settings(max_examples=25, deadline=None)
def test_three_term_corrected_holds_randomly(a, b, i, j):
    c = Fraction(3, 2) - j + Fraction(i, 2) + (a + b) / 2   # margin 1 at the tight points
    # mirror the sampler's admissibility: every constituent parameter must stay
    # clear of the nonpositive integers, else guard-truncation changes the series
    checked = [a, b, c, a - 1, b + 1, c + 1,
               (a + b + i + 1) / 2, (a + b + i + 3) / 2,
               2 * c + j, 2 * c + j + 1]
    if any(CTX.near_nonpos_int(v) is not None for v in checked):
        return
    p = WatsonPoint(a, b, c, i, j)
    try:
        inst = three_term_corrected(p, CTX, tol=mpf(10) ** -18)
    except PreconditionViolation:
        return
    if not inst.converged:
        return
    assert float(inst.rel_residual) <= max(1e-10, 100 * float(inst.eval_bounds))


def test_reduce_single_term():
    plan = reduce_to_watson(WatsonPoint(Fraction(1), Fraction(1), Fraction(1), 0, 0), CTX)
    assert plan.terms == ((0, Fraction(1)),)


def test_reduce_one_step_weights_and_value():
    plan = reduce_to_watson(WatsonPoint(Fraction(1), Fraction(1), Fraction(1), 0, 1), CTX)
    assert plan.terms == ((0, Fraction(1)), (1, Fraction(-1, 9)))
    with CTX.working(5):
        assert abs(plan.value - mpf(PI2_4_M1)) <= mpf(10) ** (8 - CTX.digits)


def test_reduce_merges_shifts():
    plan = reduce_to_watson(WatsonPoint(Fraction(1), Fraction(1), Fraction(1), 0, 2), CTX)
    assert [k for k, _ in plan.terms] == [0, 1, 2]


def test_reduce_rejects_unsupported_indices():
    with pytest.raises(UnsupportedIndex):
        reduce_to_watson(WatsonPoint(1, 1, 1, 1, 1), CTX)
    with pytest.raises(UnsupportedIndex):
        reduce_to_watson(WatsonPoint(1, 1, 1, 0, -1), CTX)


def test_reduce_matches_series_across_j():
    ctx = PrecisionCtx(digits=25)
    rng = random.Random(8080)
    with ctx.working():
        for j in range(0, 7):
            done = 0
            while done < 50:
                a = mpf(rng.uniform(0.1, 3.0))
                b = mpf(rng.uniform(0.1, 3.0))
                s0 = mpf(rng.uniform(0.3, 2.0))
                c = s0 - mpf(1) / 2 + (a + b) / 2
                p = WatsonPoint(a, b, c, 0, j)
                f = to_pfq(p)
                bad = any(ctx.near_nonpos_int(v) is not None
                          for v in list(f.numerators) + list(f.denominators))
                if bad:
                    continue
                try:
                    plan = reduce_to_watson(p, ctx)
                except PreconditionViolation:
                    continue
                series = eval_unit(f, ctx, tol=mpf(10) ** -18)
                if not series.converged:
                    continue
                scale = max(1, abs(series.value))
                assert abs(plan.value - series.value) <= (
                    series.abs_err_bound + scale * mpf(10) ** (10 - ctx.digits))
                done += 1


def test_point_symmetric_in_a_b():
    rng = random.Random(17)
    with CTX.working():
        for _ in range(10):
            a = mpf(rng.uniform(0.1, 3.0))
            b = mpf(rng.uniform(0.1, 3.0))
            s = mpf(rng.uniform(0.75, 2.0))
            i, j = rng.choice([(0, 0), (1, 0), (0, 1), (2, -1)])
            c = s - j - mpf(i + 1) / 2 + (a + b) / 2
            p = WatsonPoint(a, b, c, i, j)
            q = WatsonPoint(b, a, c, i, j)
            f = to_pfq(p)
            if any(CTX.near_nonpos_int(v) is not None
                   for v in list(f.numerators) + list(f.denominators)):
                continue
            ra = eval_point(p, CTX, tol=mpf(10) ** -20, use_closed_forms=False)
            rb = eval_point(q, CTX, tol=mpf(10) ** -20, use_closed_forms=False)
            assert abs(ra.value - rb.value) <= ra.abs_err_bound + rb.abs_err_bound


def _raw(x):
    """Every bit of a value as plain data: mpf mantissas, Fraction parts, flags."""
    if isinstance(x, mpf):
        return ("mpf", x._mpf_)
    if isinstance(x, Fraction):
        return ("Q", x.numerator, x.denominator)
    if isinstance(x, float):
        return ("f", x.hex())
    if isinstance(x, (tuple, list)):
        return tuple(_raw(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, _raw(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, _raw(getattr(x, f.name))) for f in dataclasses.fields(x) if f.compare)
    return (type(x).__name__, x)


def _outcome(fn, *args):
    try:
        return _raw(fn(*args))
    except Exception as exc:            # the exception's type and text are the result
        return ("raised", type(exc).__name__, str(exc))


def _digest_points(rng, ctx):
    """A seeded sweep over the point kinds the relations treat apart."""
    pts = []
    with ctx.working():
        for _ in range(3):
            i, j = rng.choice([(0, 0), (1, 0), (0, 1), (2, -1), (-1, 1)])
            a, b, s = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(0.75, 2.0)
            c = s - j - (i + 1) / 2 + (a + b) / 2
            pts.append(WatsonPoint(a, b, c, i, j))                                # float
            pts.append(WatsonPoint(mpf(a), mpf(b), mpf(c), i, j))                 # mpf
            fa = Fraction(rng.randint(1, 30), rng.randint(1, 12))
            pts.append(WatsonPoint(fa, mpf(b), mpf(c) + fa, i, j))                # mixed
            fb = Fraction(rng.randint(1, 30), rng.randint(1, 12))
            fc = Fraction(3, 2) - j - Fraction(i + 1, 2) + (fa + fb) / 2
            pts.append(WatsonPoint(fa, fb, fc, i, j))                             # exact, series
            pts.append(WatsonPoint(Fraction(-rng.randint(1, 3)), fb, fc, i, j))   # terminating
        pts += [
            WatsonPoint(Fraction(0), Fraction(3, 2), Fraction(5, 4), 0, 0),   # zero weights
            WatsonPoint(Fraction(7, 5), Fraction(0), Fraction(9, 4), 1, 0),
            WatsonPoint(mpf(0), mpf("1.5"), mpf("1.25"), 0, 1),
            WatsonPoint(mpf("0.8"), mpf(0), mpf("1.7"), 0, 1),
            WatsonPoint(mpf("1.3"), mpf("-2.29"), mpf(2), 0, 0),             # a+b+i+1 in the guard
            WatsonPoint(Fraction(1), Fraction(1), Fraction(1, 2), 0, -1),     # 2c+j = 0
            WatsonPoint(mpf("1.2"), mpf("0.9"), mpf("-0.49"), 0, 1),          # 2c+j in the guard
            WatsonPoint(mpf("2.5"), mpf("2.5"), mpf("1.2"), 0, 0),            # margin <= 0
            WatsonPoint(Fraction(5, 2), Fraction(5, 2), Fraction(6, 5), 0, 0),
            WatsonPoint(Fraction(2), Fraction(2), Fraction(1), 0, 1),         # margin 1/2, j-1 = 0
        ]
    return pts


# SHA-256 of every output of the sweep below, as the relations gave it before
# they shared one evaluator; any change in a bit of any output moves it.
RELATIONS_DIGEST = "7d167e218b74476caaf63bf22fe9cfb18895c9a457f1e6b292453b09a622119b"


def test_relations_match_parent_digest():
    rng = random.Random(20261019)
    out = []
    for digits in (15, 20):
        ctx = PrecisionCtx(digits=digits)
        for p in _digest_points(rng, ctx):
            out.append(_outcome(to_pfq, p))
            out.append(_outcome(margin, p))
            for fn in (recurrence_residual, three_term_printed, three_term_corrected):
                out.append(_outcome(fn, p, ctx))
            out += [_outcome(reduce_to_watson, WatsonPoint(p.a, p.b, p.c, 0, j), ctx)
                    for j in range(4)]
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == RELATIONS_DIGEST
