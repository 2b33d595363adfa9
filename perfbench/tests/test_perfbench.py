"""Tests of the benchmark itself: metric names, span arithmetic, output checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath  # noqa: E402
import pytest  # noqa: E402
from mpmath import mpf  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from watsonlab import PrecisionCtx, mpnum  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in e2e + layer + [w["name"] for w in BENCHMARK["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert e2e == list(run.END_TO_END)
    assert layer == list(spans.PER_LAYER)
    # eval_d100 stays out of the benchmark file while the program fails some
    # of its ops (the known failure in README.md)
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        w for w in run.WORKLOADS if w != "eval_d100"]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in BENCHMARK["per_layer"])


def _span(name, parent, start, end):
    return spans.Span(name, parent, start, end)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.leaf", 1, 2.0, 3.0),
        _span("b", 0, 3.0, 6.0),         # overlaps a: the overlap counts once
        _span("c", 0, 8.0, 12.0),        # runs past the root: clipped at 10
        _span("d", -1, 20.0, 21.5),      # a second root without children
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.5])
    assert spans.busy_time(tree, ("a", "a.leaf")) == pytest.approx(3.0)


def test_tracer_nests_spans_and_restores_every_binding():
    ctx = PrecisionCtx(digits=30)
    tracer = spans.Tracer(("mpnum.ln_gamma", "mpnum.gamma_product"))
    with tracer.installed():
        value = mpnum.gamma_product([mpf(3)], [mpf(2)], ctx)     # Gamma(3)/Gamma(2) = 2
    assert value == 2
    assert mpnum.gamma_product is spans.TRACED["mpnum.gamma_product"]
    assert mpnum.ln_gamma is spans.TRACED["mpnum.ln_gamma"]
    names = [s.name for s in tracer.spans]
    assert names == ["mpnum.gamma_product", "mpnum.ln_gamma", "mpnum.ln_gamma"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    m = spans.layer_metrics(tracer.spans, passes=1)
    assert m["mpnum.ln_gamma.calls"] == 2 and m["mpnum.gamma_product.calls"] == 1
    outer = tracer.spans[0]
    inner = sum(s.duration for s in tracer.spans[1:])
    assert m["mpnum.gamma_product.self_s"] == pytest.approx(outer.duration - inner)
    two = spans.concat([tracer.spans, tracer.spans])
    assert [s.parent for s in two] == [-1, 0, 0, -1, 3, 3]
    assert spans.layer_metrics(two, passes=2) == pytest.approx(m)


# --- output checks -------------------------------------------------------------

def _report(rid, verdict, flags=()):
    return SimpleNamespace(relation_id=rid, verdict=verdict, transcription_flags=flags,
                           samples=(None,) * 3)


def _good_reports():
    return [_report("watson_00", "identity"), _report("lavoie_minus", "not_identity"),
            _report("three_term_printed", "not_identity"),
            _report("case_2_m1", "identity", ("printed (a+b+4)/2",))]


def test_suite_check_passes_a_good_report_and_fails_a_corrupted_hash():
    data = b'{"relations": []}\n'
    reference = {"seed": 7, "suite_sha256": checks.sha256(data)}
    assert checks.suite_failures(_good_reports(), data, data, 7, reference) == {}
    corrupted = dict(reference, suite_sha256="0" * 64)
    failures = checks.suite_failures(_good_reports(), data, data, 7, corrupted)
    assert set(failures) == {"report"}
    assert checks.suite_failed_ops(_good_reports(), failures) == 12


def test_suite_check_fails_on_differing_bytes_verdicts_and_flags():
    data = b"{}\n"
    reference = {"seed": 7, "suite_sha256": checks.sha256(data)}
    assert set(checks.suite_failures(_good_reports(), data, b"{ }\n", 8, reference)) == {"report"}
    reports = _good_reports()
    reports[0] = _report("watson_00", "inconclusive")
    reports[1] = _report("lavoie_minus", "identity")
    reports[3] = _report("case_2_m1", "identity")
    failures = checks.suite_failures(reports, data, data, 8, reference)
    assert set(failures) == {"watson_00", "lavoie_minus", "case_2_m1"}
    assert checks.suite_failed_ops(reports, failures) == 9


@pytest.fixture(scope="module")
def eval_ops():
    return workloads.eval_ops(5)


def test_eval_check_fails_on_a_perturbed_exact_value(eval_ops):
    op = eval_ops[4]                       # every fifth point terminates
    res = op.call(workloads.stream_ctx())
    assert checks.op_failure(op, res, None) is None
    bad = replace(res, exact_value=res.exact_value + Fraction(1, 10 ** 90))
    assert checks.op_failure(op, bad, None) is not None


def test_eval_check_fails_on_a_perturbed_series_value(eval_ops):
    op = eval_ops[0]
    res = op.call(workloads.stream_ctx())
    with mpmath.workdps(checks.ORACLE_DPS):
        ref = res.value + res.abs_err_bound / 2
        bad = replace(res, value=res.value + 3 * res.abs_err_bound)
    assert checks.op_failure(op, res, ref) is None
    assert checks.op_failure(op, bad, ref) is not None
    unconverged = replace(res, abs_err_bound=workloads.stream_tol() * 2)
    assert checks.op_failure(op, unconverged, ref) is not None


def test_eval_check_fails_when_only_the_final_rounding_is_missing_from_the_bound(eval_ops):
    op = eval_ops[0]
    res = op.call(workloads.stream_ctx())
    with mpmath.workdps(checks.ORACLE_DPS):
        half_ulp = abs(res.value) * mpf(2) ** -workloads.stream_ctx().prec
        ref = res.value + res.abs_err_bound + half_ulp / 2
    why = checks.op_failure(op, res, ref)
    assert why is not None and "rounding" in why


def test_gamma_check_fails_on_a_perturbed_value():
    ctx = workloads.stream_ctx()
    for op in workloads.gamma_ops(5)[:5]:          # one call of each kind
        res = op.call(ctx)
        ref = checks.gamma_ref(op)
        assert checks.op_failure(op, res, ref) is None, op.kind
        value = res.value if op.kind == "reduce" else res
        with mpmath.workdps(checks.ORACLE_DPS):
            bad_value = value * (1 + mpf(10) ** -80)
        bad = replace(res, value=bad_value) if op.kind == "reduce" else bad_value
        assert checks.op_failure(op, bad, ref) is not None, op.kind


def test_inputs_repeat_for_a_seed_and_change_with_it():
    assert (workloads.digest_of(workloads.gamma_ops(5))
            == workloads.digest_of(workloads.gamma_ops(5)))
    assert (workloads.digest_of(workloads.gamma_ops(5))
            != workloads.digest_of(workloads.gamma_ops(6)))


def test_trace_overhead_cancels_a_steady_drift():
    # untraced passes slow by 1 s per pass; each traced pass costs 0.5 s more
    walls = [(20.0, False), (11.0, False), (12.5, True), (13.0, False),
             (14.5, True), (15.0, False)]
    overhead, noise = run.trace_overhead(walls)
    assert overhead == pytest.approx(0.5)
    assert noise == pytest.approx(4.0)       # warm untraced passes: 11 .. 15
