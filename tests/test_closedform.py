import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from watsonlab import closedform, verify
from watsonlab.closedform import (FORM_EQUATIONS, FORM_IDS, DivergenceRegion,
                                  ParameterPole, gauss_2f1_unit, lavoie_minus,
                                  lavoie_plus, registry_as_dicts, watson_00)
from watsonlab.lattice import WatsonPoint, to_pfq
from watsonlab.mpnum import NumeratorPole, PrecisionCtx, gamma_product, to_mpf_ambient
from watsonlab.report import RelationReport, fmt_num
from watsonlab.series import PFQ, eval_exact, eval_unit

CTX = PrecisionCtx(digits=30)

PI2_4 = "2.4674011002723396547086227499690377838284248518102"
PI2_4_M1 = "1.4674011002723396547086227499690377838284248518102"
FOUR_OVER_PI = "1.2732395447351626861510701069801148962756771659237"
WATSON_HALF_HALF_2 = "1.2223099629457561787050273027009103004246500792867"
LAVOIE_MINUS_PRINTED_HALF_HALF_2 = "1.1317684842090334988009512062045465744672685919321"


def close(x, ref_str, rel=None):
    with CTX.working(10):
        ref = mpf(ref_str)
        rel = mpf(10) ** (8 - CTX.digits) if rel is None else rel
        return abs(x - ref) <= rel * max(1, abs(ref))


def test_gauss_values():
    # terminating: 2F1(-1, b; c; 1) = (c - b)/c
    b, c = Fraction(3, 4), Fraction(5, 2)
    with CTX.working():
        v = gauss_2f1_unit(Fraction(-1), b, c, CTX)
        assert abs(v - mpf(7) / 10) <= mpf(10) ** (6 - CTX.digits)
    assert close(gauss_2f1_unit(Fraction(1, 2), Fraction(1, 2), 2, CTX), FOUR_OVER_PI)
    assert gauss_2f1_unit(0, Fraction(5, 4), Fraction(7, 4), CTX) == 1


def test_gauss_divergence_region():
    with pytest.raises(DivergenceRegion):
        gauss_2f1_unit(1, 1, 2, CTX)          # c - a - b = 0
    with pytest.raises(DivergenceRegion):
        gauss_2f1_unit(1, 1, Fraction(83, 41), CTX)   # inside the 0.05 safety margin


def test_watson_00_values():
    assert close(watson_00(1, 1, 1, CTX), PI2_4)
    assert watson_00(-1, 1, 1, CTX) == 0
    with CTX.working():
        assert abs(watson_00(2, 2, 2, CTX) - 9) <= mpf(10) ** (6 - CTX.digits) * 9
    assert close(watson_00(Fraction(1, 2), Fraction(1, 2), 2, CTX), WATSON_HALF_HALF_2)


def test_watson_00_divergence_region():
    with pytest.raises(DivergenceRegion):
        watson_00(2, 2, 1, CTX)     # 2c - a - b = -2 < -1


def test_watson_00_symmetric_exactly():
    rng = random.Random(5)
    with CTX.working():
        for _ in range(50):
            a = mpf(rng.uniform(0.1, 3.0))
            b = mpf(rng.uniform(0.1, 3.0))
            c = mpf(rng.uniform(0.5, 3.5))
            if 2 * c - a - b <= -0.9:
                continue
            assert watson_00(a, b, c, CTX) == watson_00(b, a, c, CTX)


def test_watson_00_zero_consistency():
    # denominator gamma pole <-> terminating series sums to exactly zero
    for a, b, c in [(-1, 1, 1), (-3, 1, 3), (-1, Fraction(1, 2), 2)]:
        v = watson_00(a, b, c, CTX)
        assert v == 0
        series = eval_exact(to_pfq(WatsonPoint(Fraction(a), Fraction(b), Fraction(c), 0, 0)))
        assert series == 0


def test_watson_00_near_pole_denominator_is_inapplicable():
    # (a + 1)/2 = 0.015 lies within the guard of 0 but is not 0: Gamma there is
    # finite, and the series is 0.0409... (hyp3f2), not the structural zero
    with pytest.raises(NumeratorPole, match="not equal"):
        watson_00(-0.97, 1, 2, CTX)


def test_lavoie_plus_value_two_routes():
    direct = lavoie_plus(1, 1, 1, CTX)
    assert close(direct, PI2_4_M1)
    # second route: one step of the main recurrence off the base row
    with CTX.working():
        via_recurrence = watson_00(1, 1, 1, CTX) - mpf(2) / 9 * watson_00(2, 2, 2, CTX) / 2
        assert abs(direct - via_recurrence) <= mpf(10) ** (7 - CTX.digits)


def test_lavoie_plus_parameter_pole():
    with pytest.raises(ParameterPole):
        lavoie_plus(-1, 1, 1, CTX)
    with pytest.raises(ParameterPole):
        lavoie_plus(Fraction(1, 2), 0, 1, CTX)


def test_lavoie_minus_printed_value():
    assert close(lavoie_minus(Fraction(1, 2), Fraction(1, 2), 2, CTX),
                 LAVOIE_MINUS_PRINTED_HALF_HALF_2)


def test_lavoie_minus_disagrees_with_series():
    """The printed j = -1 form is off by far more than evaluation error here."""
    formula = lavoie_minus(Fraction(1, 2), Fraction(1, 2), 2, CTX)
    series = eval_unit(to_pfq(WatsonPoint(Fraction(1, 2), Fraction(1, 2), 2, 0, -1)),
                       CTX, tol=mpf(10) ** -20)
    assert series.converged
    with CTX.working():
        assert abs(formula - series.value) / abs(series.value) > 0.1


def test_lavoie_minus_divergence_region():
    with pytest.raises(DivergenceRegion):
        lavoie_minus(1, 1, Fraction(3, 2), CTX)   # 2c - a - b = 1, not above 1 + margin


@pytest.mark.parametrize("form_id", ["watson_00", "gauss", "lavoie_plus"])
def test_forms_agree_with_series(form_id):
    """Seeded sweep: closed form vs unit-argument series, margin in [0.75, 3]."""
    from watsonlab.closedform import FORM_FUNCS
    rng = random.Random(314159)
    tol = mpf(10) ** (-CTX.digits // 2)
    done = 0
    with CTX.working():
        while done < 25:
            a = mpf(rng.uniform(0.1, 3.0))
            b = mpf(rng.uniform(0.1, 3.0))
            s = mpf(rng.uniform(0.75, 3.0))
            if form_id == "gauss":
                c = s + a + b
                f = PFQ((a, b), (c,), 1)
            else:
                j0 = 0 if form_id == "watson_00" else 1
                c = s - j0 - mpf(1) / 2 + (a + b) / 2
                f = to_pfq(WatsonPoint(a, b, c, 0, j0))
            args_ok = all(CTX.near_nonpos_int(v) is None
                          for v in list(f.numerators) + list(f.denominators))
            if not args_ok or CTX.near_nonpos_int(c) is not None:
                continue
            try:
                formula = FORM_FUNCS[form_id](a, b, c, CTX)
            except (DivergenceRegion, ParameterPole, Exception):
                continue
            series = eval_unit(f, CTX, tol=mpf(10) ** -(CTX.digits // 2 + 5))
            if not series.converged or formula == 0:
                continue
            assert abs(formula - series.value) / abs(formula) <= tol
            done += 1


def _report(form_id, verdict, n_converged, worst):
    return RelationReport(relation_id=form_id, anchor="", samples=(), verdict=verdict,
                          worst_rel_residual=worst, counterexample=None,
                          n_converged=n_converged)


def test_registry_as_dicts_derives_status_from_reports():
    assert set(FORM_IDS) == {"gauss", "watson_00", "lavoie_plus", "lavoie_minus"}
    rows = registry_as_dicts([
        _report("watson_00", "identity", 120, mpf("1e-20")),
        _report("lavoie_plus", "identity", 50, mpf("1e-20")),
        _report("lavoie_minus", "not_identity", 40, mpf("0.4")),
        _report("recurrence_16", "identity", 500, mpf("1e-20")),
    ])
    assert [r["form_id"] for r in rows] == list(FORM_IDS)
    by_id = {r["form_id"]: r for r in rows}
    assert by_id["watson_00"] == {
        "form_id": "watson_00", "source_equation": FORM_EQUATIONS["watson_00"],
        "status": "verified", "n_samples": 120, "worst_rel_residual": fmt_num(mpf("1e-20"))}
    assert by_id["lavoie_plus"]["status"] == "unverified"   # below the 100-sample floor
    assert by_id["lavoie_plus"]["n_samples"] == 50
    assert by_id["lavoie_minus"]["status"] == "refuted"
    assert by_id["lavoie_minus"]["worst_rel_residual"] == fmt_num(mpf("0.4"))
    # no report for a form leaves it unverified with nothing measured
    assert by_id["gauss"] == {
        "form_id": "gauss", "source_equation": FORM_EQUATIONS["gauss"],
        "status": "unverified", "n_samples": 0, "worst_rel_residual": None}
    # an inconclusive verdict does not verify, however many samples converged
    rows = registry_as_dicts([_report("gauss", "inconclusive", 150, mpf(1))])
    assert rows[0]["status"] == "unverified" and rows[0]["n_samples"] == 150


def test_watson_rows_refuse_or_match_the_exact_series_at_terminating_points():
    # a, b, c over k/2, -8 <= k <= 6, where one of them ends the series: a
    # series denominator (a+b+1)/2 or 2c+j may be a nonpositive integer there
    # (watson_00(1, -3, -1) once read 0 where the series sums to 4)
    ctx = PrecisionCtx(digits=30)
    halves = [Fraction(k, 2) for k in range(-8, 7)]
    answered = 0
    for form, j in ((watson_00, 0), (lavoie_plus, 1)):
        for a in halves:
            for b in halves:
                for c in halves:
                    if all(x > 0 or x.denominator != 1 for x in (a, b, c)):
                        continue
                    try:
                        value = form(a, b, c, ctx)
                    except (DivergenceRegion, ParameterPole, NumeratorPole):
                        continue
                    exact = eval_exact(to_pfq(WatsonPoint(a, b, c, 0, j)))
                    with ctx.working(10):
                        assert abs(value - exact) <= mpf(10) ** -25 * max(1, abs(exact)), \
                            (form.__name__, a, b, c)
                    answered += 1
    assert answered > 500


# --- frozen copies of the form bodies that wrote out their gamma lists ------

def _frozen_gauss(a, b, c, ctx):
    a, b, c = closedform._coerce3(ctx, a, b, c)
    closedform._require_excess(c - a - b, 0.0, "gauss")
    with ctx.working(8):
        nums = [c, c - a - b]
        dens = [c - a, c - b]
    return gamma_product(nums, dens, ctx)


def _frozen_watson_00(a, b, c, ctx):
    a, b, c = closedform._coerce3(ctx, a, b, c)
    closedform._require_excess(2 * c - a - b, -1.0, "watson_00")
    h = Fraction(1, 2)
    with ctx.working(8):
        nums = [h, c + h, (a + b) / 2 + h, c - (a + b) / 2 + h]
        dens = [(a + 1) / 2, (b + 1) / 2, c - a / 2 + h, c - b / 2 + h]
    value = gamma_product(nums, dens, ctx)
    closedform._require_series_denominators("watson_00", nums[2], 2 * c)
    return value


def _frozen_lavoie(a, b, c, ctx, down):
    form_id = "lavoie_minus" if down else "lavoie_plus"
    if ctx.near_nonpos_int(a) is not None or ctx.near_nonpos_int(b) is not None:
        raise ParameterPole(f"{form_id}: a or b within pole_guard of a nonpositive integer")
    a, b, c = closedform._coerce3(ctx, a, b, c)
    closedform._require_excess(2 * c - a - b, 1.0 if down else -3.0, form_id)
    h = Fraction(1, 2)
    sgn = -1 if down else 1
    inner = replace(ctx, digits=ctx.digits + 12)
    with inner.working():
        pref_gamma = gamma_product(
            [c + sgn * h, (a + b) / 2 + h, c - (a + b) / 2 + sgn * h],
            [h, a, b], inner)
        pow2 = mpmath.power(2, to_mpf_ambient(a + b) - 2)
        first = gamma_product([a / 2, b / 2],
                              [c - a / 2 + sgn * h, c - b / 2 + sgn * h], inner)
        second = gamma_product([(a + 1) / 2, (b + 1) / 2],
                               [c - a / 2 + (0 if down else 1),
                                c - b / 2 + (0 if down else 1)], inner)
        raw = pow2 * pref_gamma * (first - second)
        closedform._require_series_denominators(form_id, (a + b) / 2 + h, 2 * c + sgn)
    with ctx.working():
        return +raw


_FROZEN_FORMS = {
    "gauss": _frozen_gauss,
    "watson_00": _frozen_watson_00,
    "lavoie_plus": lambda a, b, c, ctx: _frozen_lavoie(a, b, c, ctx, down=False),
    "lavoie_minus": lambda a, b, c, ctx: _frozen_lavoie(a, b, c, ctx, down=True),
}


def _form_outcome(fn, point, ctx):
    try:
        value = fn(*point, ctx)
    except Exception as exc:       # the type and text must match too
        return type(exc).__name__, str(exc)
    return getattr(value, "_mpf_", value)


@pytest.mark.parametrize("digits", [15, 30, 100])
def test_forms_bit_exact_against_frozen_parent(digits):
    # the forms read their gamma lists from one table (h an mpf for an
    # inexact triple); every value, exception type and text must be those of
    # the bodies that wrote the lists out with h = Fraction(1, 2)
    rng = random.Random(digits)
    halves = [Fraction(k, 4) for k in range(-12, 13)]
    compared = refused = 0
    for guard in (0.05, 0.3):
        ctx = PrecisionCtx(digits, guard)
        for form_id in FORM_IDS:
            rel = verify.RELATIONS[form_id]
            points = [tuple(rel.build_sample(k, seed, ctx, verify.DEFAULT_WINDOW).values())
                      for seed in (11, 0xC0FFEE) for k in range(6)]
            points += [tuple(p.values()) for p in rel.probes(ctx)]
            points += [tuple(rng.choice(halves) for _ in range(3)) for _ in range(12)]
            points += [tuple(Fraction(rng.randint(-40, 60), rng.randint(1, 9))
                             for _ in range(3)) for _ in range(12)]
            points += [tuple(rng.uniform(-3.0, 4.0) for _ in range(3)) for _ in range(6)]
            for p in points:
                new = _form_outcome(closedform.FORM_FUNCS[form_id], p, ctx)
                assert new == _form_outcome(_FROZEN_FORMS[form_id], p, ctx), (form_id, p)
                compared += 1
                refused += isinstance(new, tuple) and isinstance(new[0], str)
    assert compared == 2 * sum(12 + len(verify.RELATIONS[f].probes(PrecisionCtx(digits)))
                               + 30 for f in FORM_IDS)
    assert 0 < refused < compared
