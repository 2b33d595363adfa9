"""Acceptance gate: one test per criterion, at the stated sample counts,
precisions, and tolerances.  Run with -v to get one pass/fail line each."""

import hashlib
import json
import time
from fractions import Fraction

import pytest
from mpmath import mpf

from watsonlab import closedform, verify
from watsonlab.cli import main
from watsonlab.lattice import WatsonPoint, reduce_to_watson, to_pfq
from watsonlab.mpnum import PrecisionCtx
from watsonlab.series import eval_unit

SEED = 0xC0FFEE
PI2_4 = "2.4674011002723396547086227499690377838284248518102"
PI2_4_M1 = "1.4674011002723396547086227499690377838284248518102"


@pytest.fixture(scope="module")
def ctx30():
    return PrecisionCtx(digits=30)


@pytest.fixture(scope="module")
def suite30(ctx30):
    """Full suite, digits=30, 50 samples per relation, shared across criteria."""
    t0 = time.time()
    reports = verify.run_suite(SEED, ctx30, samples=50)
    elapsed = time.time() - t0
    return {r.relation_id: r for r in reports}, elapsed


def _announce(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_watson_identity_100_samples_digits40():
    ctx = PrecisionCtx(digits=40)
    t0 = time.time()
    rep = verify.check_relation("watson_00", 100, SEED, ctx)
    elapsed = time.time() - t0
    randoms = [s for s in rep.samples if s.kind == "sample"]
    ok = (rep.verdict == "identity"
          and len(randoms) == 100
          and all(s.converged for s in randoms)
          and all(float(s.rel_residual) <= 1e-18 for s in randoms)
          and elapsed <= 60.0)
    worst = max(float(s.rel_residual) for s in randoms)
    _announce(1, ok, f"watson_00 100 samples, worst residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_exact_values_three_routes():
    ctx = PrecisionCtx(digits=40)
    with ctx.working(5):
        pi2_4 = mpf(PI2_4)
        pi2_4_m1 = mpf(PI2_4_M1)
        # f_{0,0}(1,1,1) = pi^2/4 and f_{0,0}(2,2,2) = 9, to 25+ digits, both routes
        s111 = eval_unit(to_pfq(WatsonPoint(1, 1, 1, 0, 0)), ctx, tol=mpf(10) ** -30)
        s222 = eval_unit(to_pfq(WatsonPoint(2, 2, 2, 0, 0)), ctx, tol=mpf(10) ** -30)
        ok = (abs(s111.value - pi2_4) <= mpf(10) ** -25 * pi2_4
              and abs(s222.value - 9) <= mpf(10) ** -25 * 9
              and abs(closedform.watson_00(1, 1, 1, ctx) - pi2_4) <= mpf(10) ** -25 * pi2_4
              and abs(closedform.watson_00(2, 2, 2, ctx) - 9) <= mpf(10) ** -25 * 9)
        # f_{0,1}(1,1,1) = pi^2/4 - 1 by three independent routes, 20+ digits
        series = eval_unit(to_pfq(WatsonPoint(1, 1, 1, 0, 1)), ctx, tol=mpf(10) ** -30).value
        formula = closedform.lavoie_plus(1, 1, 1, ctx)
        plan = reduce_to_watson(WatsonPoint(Fraction(1), Fraction(1), Fraction(1), 0, 1), ctx)
        spread = max(abs(series - pi2_4_m1), abs(formula - pi2_4_m1),
                     abs(plan.value - pi2_4_m1))
        ok = ok and spread <= mpf(10) ** -20
    _announce(2, bool(ok), f"pi^2/4, 9, and pi^2/4-1 by 3 routes (spread {float(spread):.3e})")


def test_criterion_3_recurrence_500_samples_grid(ctx30):
    rep = verify.check_relation("recurrence_16", 500, SEED, ctx30)
    randoms = [s for s in rep.samples if s.kind == "sample"]
    probes = [s for s in rep.samples if s.kind == "probe"]
    cells = {s.lattice_indices for s in randoms}
    ok = (rep.verdict == "identity"
          and len(randoms) == 500
          and cells == set(verify.GRID)
          and all(s.converged for s in randoms)
          and all(float(s.rel_residual) <= 1e-10 for s in randoms)
          and probes
          and all(s.exact and s.abs_residual == 0 for s in probes))
    worst = max(float(s.rel_residual) for s in randoms)
    _announce(3, ok, f"recurrence over full grid, 500 samples, worst {worst:.3e}, "
                     f"{len(probes)} exact probes all zero")


def test_criterion_4_special_cases_suite(suite30):
    reports, _ = suite30
    case_ids = [verify._case_id(i, j) for (i, j) in verify.CASE_ORDER]
    verdicts = {cid: reports[cid].verdict for cid in case_ids}
    ok = all(v == "identity" for v in verdicts.values())
    flagged = reports[verify._case_id(2, -1)].transcription_flags
    ok = ok and any("(a+b+4)/2" in f and "(a+b+5)/2" in f for f in flagged)
    clean = all(not reports[cid].transcription_flags
                for cid in case_ids if cid != "case_2_m1")
    ok = ok and clean
    # terminating rational probes of every case come out exactly zero
    for cid in case_ids:
        probes = [s for s in reports[cid].samples if s.kind == "probe"]
        ok = ok and probes and all(s.exact and s.abs_residual == 0 for s in probes)
    _announce(4, ok, f"19 regenerated cases identity, exact probes all zero; "
                     f"(2,-1) transcription flagged: {flagged}")


def test_criterion_5_three_term_verdicts(ctx30, suite30):
    reports, _ = suite30
    printed = reports["three_term_printed"]
    ce = printed.counterexample
    ok = (printed.verdict == "not_identity"
          and ce is not None and ce.lattice_indices == (0, 0)
          and ce.params == {"a": Fraction(0), "b": Fraction(1), "c": Fraction(2)}
          and ce.lhs == 1 and ce.rhs == 2)
    corrected = verify.check_relation("three_term_corrected", 500, SEED, ctx30)
    randoms = [s for s in corrected.samples if s.kind == "sample"]
    ok = (ok and corrected.verdict == "identity"
          and len(randoms) == 500
          and all(float(s.rel_residual) <= 1e-10 for s in randoms))
    worst = max(float(s.rel_residual) for s in randoms)
    _announce(5, ok, f"printed form refuted at (0,1,2) lhs=1 rhs=2; corrected "
                     f"candidate 500 samples worst {worst:.3e}")


def test_criterion_6_lavoie_adjudication(ctx30, suite30):
    reports, _ = suite30
    plus = verify.check_relation("lavoie_plus", 100, SEED, ctx30)
    minus = verify.check_relation("lavoie_minus", 100, SEED, ctx30)
    status = {r["form_id"]: r["status"]
              for r in closedform.registry_as_dicts([plus, minus])}
    ok = (plus.verdict == "identity" and status["lavoie_plus"] == "verified"
          and minus.verdict == "not_identity"
          and status["lavoie_minus"] == "refuted"
          and minus.counterexample is not None
          and float(minus.counterexample.rel_residual) > 0.01)
    # the typo-suspect relations must not poison the suite exit criterion
    exit_ok = all(reports[rid].verdict == "identity" for rid in verify.EXPECTED_IDENTITY)
    ok = ok and exit_ok and reports["lavoie_minus"].verdict == "not_identity"
    _announce(6, ok, "lavoie_plus verified at 100 samples; lavoie_minus refuted "
                     "with counterexample; suite exit unaffected")


def test_criterion_7_thomae_macrobert(ctx30):
    thomae = verify.check_relation("thomae", 50, SEED, ctx30)
    macrobert = verify.check_relation("macrobert", 50, SEED, ctx30)
    t_rand = [s for s in thomae.samples if s.kind == "sample"]
    m_rand = [s for s in macrobert.samples if s.kind == "sample"]
    ok = (thomae.verdict == "identity" and macrobert.verdict == "identity"
          and len(t_rand) == 50 and len(m_rand) == 50
          and all(float(s.rel_residual) <= 1e-10 for s in t_rand)
          and all(float(s.rel_residual) <= 1e-10 for s in m_rand))
    _announce(7, ok, f"thomae worst {max(float(s.rel_residual) for s in t_rand):.2e}; "
                     f"macrobert worst {max(float(s.rel_residual) for s in m_rand):.2e}")


def test_criterion_8_debranges_positivity(ctx30):
    t0 = time.time()
    rep = verify.check_relation("debranges", 0, 0, ctx30)
    elapsed = time.time() - t0
    ok = (rep.verdict == "identity"
          and all(s.exact and s.lhs > 0 for s in rep.samples)
          and elapsed <= 30.0)
    _announce(8, ok, f"{len(rep.samples)} grid points strictly positive in "
                     f"exact arithmetic, {elapsed:.1f}s")


def test_criterion_9_suite_determinism(tmp_path):
    args = ["suite", "--digits", "20", "--samples", "5", "--seed", str(SEED)]
    paths = [tmp_path / f"r{k}.json" for k in range(3)]
    threads = ["1", "1", "2"]
    for p, t in zip(paths, threads):
        code = main(args + ["--out", str(p), "--threads", t])
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2] and json.loads(blobs[0])
    _announce(9, bool(ok), "three suite invocations (threads 1/1/2) byte-identical")
    # the report bytes themselves are pinned, so any change to them shows here
    assert hashlib.sha256(blobs[0]).hexdigest() == (
        "ca38e15114d1ab0b51633900342953ae268081b5b8d2037376a489bf85900cf9")
