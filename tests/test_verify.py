import collections
import concurrent.futures
import hashlib
import json
import multiprocessing
import os
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from watsonlab import closedform, lattice, verify
from watsonlab.cli import RunConfig, suite_document
from watsonlab.lattice import WatsonPoint, eval_point
from watsonlab.mpnum import PrecisionCtx
from watsonlab.verify import (CASE_ORDER, GRID, RELATIONS, SUITE_ORDER,
                              SamplingExhausted, SplitMix64, UnknownRelation,
                              _case_id, _debranges_points, _recurrence_constraints,
                              _relation_seed, check_relation, sample_params,
                              transcription_diff, worker_pool)

CTX = PrecisionCtx(digits=30)
FAST = PrecisionCtx(digits=20)


def test_splitmix64_reference_vectors():
    # canonical outputs of the splitmix64 update for seeds 0 and 1234567
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679]
    g = SplitMix64(1234567)
    assert [g.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_sample_params_deterministic_and_in_window():
    cons = _recurrence_constraints(0, 0)
    t1 = sample_params(42, 7, cons, CTX)
    t2 = sample_params(42, 7, cons, CTX)
    assert t1 == t2
    a, b, c = t1
    with CTX.working():
        s = float(c + mpf(1) / 2 - (a + b) / 2)
    assert 0.75 - 1e-9 <= s <= 3.0 + 1e-9


def test_sample_params_exhausts_on_empty_window():
    with pytest.raises(SamplingExhausted):
        sample_params(1, 1, _recurrence_constraints(0, 0), CTX, window=(2.0, 1.0))


# SHA-256 of every sampled relation's draws, taken from the samplers that
# listed their pole and zero values by hand; see test_sampler_draws_match_parent_digest
SAMPLER_DIGEST = "91a0e82c0378fae440d7dfb47c0e62deeb4ba627a14893312f1a91fae2213f09"


def test_sampler_draws_match_parent_digest():
    # the samplers now read their pole and zero values from the evaluators'
    # definitions; the draws must be those of the hand-written lists
    h = hashlib.sha256()
    n = 0
    for rid, rel in RELATIONS.items():
        if rel.build_sample is None:
            continue
        for seed in (0xC0FFEE, 1):
            rel_seed = _relation_seed(seed, rid)
            for digits in (15, 30, 100):
                for guard in (0, 0.05, 0.3):
                    ctx = PrecisionCtx(digits, guard)
                    for k in range(5):
                        try:
                            s = rel.build_sample(k, rel_seed, ctx, verify.DEFAULT_WINDOW)
                            tok = " ".join(f"{key}={getattr(v, '_mpf_', v)!r}"
                                           for key, v in s.items())
                        except SamplingExhausted:
                            tok = "SamplingExhausted"
                        h.update(f"{rid} {seed} {digits} {guard} {k} {tok}\n".encode())
                        n += 1
    assert n == 28 * 2 * 3 * 3 * 5
    assert h.hexdigest() == SAMPLER_DIGEST


def _exact_mpf(v):
    man, exp = v.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _series_values(*series):
    return {v for f in series for v in (*f.numerators, *f.denominators)}


def test_lattice_sampler_lists_imply_the_refusals_they_leave_out():
    # a lattice sampler lists the series values of all its evaluator's points
    # but the last; a pole test on that list must cover the zero factors
    # (each a listed value or twice one) and every point's series (each value
    # a listed one plus 0 or 1).  Checked in exact rationals at seeded draws
    # and exact probe triples, on every cell of every lattice relation.
    ctx = PrecisionCtx(15)
    lattice_rels = [rid for rid, rel in RELATIONS.items()
                    if getattr(rel.evaluate, "func", None) is verify._lattice_instance]
    assert len(lattice_rels) == 22
    pools = verify._RECURRENCE_PROBE_POOL + verify._THREE_TERM_PROBE_POOL
    checked = 0
    for rid in lattice_rels:
        points_of = (lattice._three_term_points if rid.startswith("three_term")
                     else lattice._recurrence_points)
        rel = RELATIONS[rid]
        constraints_at = rel.build_sample.args[0]
        walks_the_grid = rel.build_sample.args[1] is None
        draws = [rel.build_sample(k, _relation_seed(0xC0FFEE, rid), ctx, verify.DEFAULT_WINDOW)
                 for k in range(len(GRID) if walks_the_grid else 3)]
        cells = sorted({(s["i"], s["j"]) for s in draws})
        triples = [(tuple(_exact_mpf(s[key]) for key in "abc"), (s["i"], s["j"]))
                   for s in draws]
        triples += [(t, cell) for t in pools for cell in cells]
        for (a, b, c), (i, j) in triples:
            listed = set(constraints_at(i, j).values(a, b, c))
            factors, points = points_of(WatsonPoint(a, b, c, i, j))
            for name, v in factors:
                assert v in listed or v / 2 in listed, (rid, name, a, b, c, i, j)
            for q, label in points:
                for v in _series_values(lattice.to_pfq(q)):
                    assert v in listed or v - 1 in listed, (rid, label, v, a, b, c, i, j)
            checked += 1
    assert checked == 3 * len(GRID) * (1 + len(pools)) + 19 * (3 + len(pools))


def test_thomae_sampler_list_holds_every_prefactor_argument():
    # the Thomae sampler lists its two series only: each gamma prefactor
    # argument is a parameter of one of them
    rel = RELATIONS["thomae"]
    constraints = rel.build_sample.args[0]
    for k in range(10):
        s = rel.build_sample(k, _relation_seed(0xC0FFEE, "thomae"), CTX, verify.DEFAULT_WINDOW)
        abc = [_exact_mpf(s[key]) for key in "abc"]
        _, _, pref_nums, pref_dens = verify._thomae_parts(*abc)
        listed = set(constraints.values(*abc))
        assert all(v in listed for v in pref_nums + pref_dens)


def test_identity_needs_a_converged_instance():
    # every macrobert probe has a numerator within 0.4999 of 0, so none
    # converges; with no random samples requested nothing supports identity
    rep = check_relation("macrobert", 0, 1, PrecisionCtx(20, 0.4999))
    assert rep.n_converged == 0 and len(rep.samples) == 3
    assert rep.verdict == "inconclusive"
    assert check_relation("gauss", 0, 1, FAST).verdict == "identity"


def test_grid_and_case_list():
    assert len(GRID) == 77
    assert len(CASE_ORDER) == 19
    assert CASE_ORDER[0] == (0, 0) and CASE_ORDER[-1] == (-1, -2)
    assert _case_id(2, -1) == "case_2_m1"
    assert _case_id(-5, 0) == "case_m5_0"


def test_unknown_relation():
    with pytest.raises(UnknownRelation):
        check_relation("nosuch", 5, 0, CTX)


def _status(reports, form_id):
    return {r["form_id"]: r["status"]
            for r in closedform.registry_as_dicts(reports)}[form_id]


def test_watson_identity_and_registry_promotion():
    rep = check_relation("watson_00", 100, 0xC0FFEE, FAST)
    assert rep.verdict == "identity"
    assert rep.n_converged >= 100
    assert float(rep.worst_rel_residual) <= 10 ** (-FAST.digits / 3)
    assert _status([rep], "watson_00") == "verified"
    assert _status([], "watson_00") == "unverified"
    # a verified form leaves no trace: eval_point still sums the series
    res = eval_point(WatsonPoint(1, 1, 1, 0, 0), FAST)
    assert res.method == "accelerated" and res.converged


def test_lavoie_minus_refuted_with_probe_counterexample():
    rep = check_relation("lavoie_minus", 12, 0xC0FFEE, FAST)
    assert rep.verdict == "not_identity"
    ce = rep.counterexample
    assert ce.params == {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(2)}
    assert float(ce.rel_residual) > 0.01
    assert _status([rep], "lavoie_minus") == "refuted"


def test_three_term_printed_counterexample_is_first_probe():
    rep = check_relation("three_term_printed", 6, 0xC0FFEE, FAST)
    assert rep.verdict == "not_identity"
    ce = rep.counterexample
    assert ce.kind == "probe"
    assert ce.lattice_indices == (0, 0)
    assert ce.params["a"] == 0 and ce.params["b"] == 1 and ce.params["c"] == 2
    assert ce.lhs == 1 and ce.rhs == 2


def test_three_term_corrected_identity():
    rep = check_relation("three_term_corrected", 25, 0xC0FFEE, FAST)
    assert rep.verdict == "identity"
    assert float(rep.worst_rel_residual) <= 1e-6


def test_recurrence_probes_exact_and_identity():
    rep = check_relation("recurrence_16", 15, 0xC0FFEE, FAST)
    assert rep.verdict == "identity"
    probes = [s for s in rep.samples if s.kind == "probe"]
    assert probes, "deterministic probes must be prepended"
    assert all(s.exact and s.abs_residual == 0 for s in probes)


def test_transcription_diff_flags_only_case_2_m1():
    for (i, j) in CASE_ORDER:
        flags = transcription_diff(i, j)
        if (i, j) == (2, -1):
            assert len(flags) == 1
            assert "(a+b+4)/2" in flags[0] and "(a+b+5)/2" in flags[0]
        else:
            assert flags == []


def test_case_report_carries_flags():
    rep = check_relation("case_2_m1", 5, 0xC0FFEE, FAST)
    assert rep.verdict == "identity"     # the regenerated relation is true
    assert any("(a+b+4)/2" in f for f in rep.transcription_flags)
    rep = check_relation("case_0_0", 5, 0xC0FFEE, FAST)
    assert rep.transcription_flags == ()


def test_thomae_and_macrobert():
    rep = check_relation("thomae", 10, 0xC0FFEE, FAST)
    assert rep.verdict == "identity"
    # the a = 0 probe is recorded but cannot converge (prefactor zero times a
    # divergent series); it must not count toward the verdict
    assert any(not s.converged for s in rep.samples if s.kind == "probe")
    rep = check_relation("macrobert", 10, 0xC0FFEE, FAST)
    assert rep.verdict == "identity"
    x0 = [s for s in rep.samples if s.kind == "probe"][0]
    assert x0.abs_residual == 0          # x = 0 makes both sides exactly 1


def _with_debranges_grid(monkeypatch, grid):
    monkeypatch.setitem(RELATIONS, "debranges", replace(
        RELATIONS["debranges"], fixed_grid=lambda ctx: _debranges_points(grid)))


def test_debranges_grid():
    rep = check_relation("debranges", 0, 0, FAST)
    assert rep.verdict == "identity"
    assert rep.n_converged == len(rep.samples) == 1270
    assert all(s.exact for s in rep.samples)
    assert all(s.lhs > 0 for s in rep.samples)
    # spec'd spot value: n=1, alpha=1, x=1/2 gives 3/4
    spot = [s for s in rep.samples
            if s.params["n"] == 1 and s.params["alpha"] == 1 and s.params["x"] == Fraction(1, 2)]
    assert spot and spot[0].lhs == Fraction(3, 4)


def test_debranges_custom_grid(monkeypatch):
    _with_debranges_grid(monkeypatch, {"n_max": 3,
                                       "alphas": (Fraction(-1, 2), Fraction(2)),
                                       "xs": (Fraction(0), Fraction(1, 2))})
    rep = check_relation("debranges", 0, 0, FAST)
    assert rep.verdict == "identity"
    assert len(rep.samples) == 16


# n = 2 at alpha = -13/4, x = 1/10 gives 3F2 = -1/700
_NEGATIVE_GRID = {"n_max": 2, "alphas": (Fraction(-13, 4),), "xs": (Fraction(1, 10),)}


def test_exact_nonzero_residual_refutes_on_both_paths(monkeypatch):
    # the residual 1/700 is below the 0.01 floor; exactness alone makes it a
    # counterexample, evaluated in this process and on a worker pool alike
    _with_debranges_grid(monkeypatch, _NEGATIVE_GRID)
    serial = check_relation("debranges", 0, 0, FAST)
    with worker_pool(2) as pool:
        pooled = check_relation("debranges", 0, 0, FAST, pool=pool)
    for rep in (serial, pooled):
        assert rep.verdict == "not_identity"
        ce = rep.counterexample
        assert ce.exact and ce.params["n"] == 2
        assert ce.lhs == Fraction(-1, 700) and ce.rel_residual == Fraction(1, 700)


def test_check_relation_deterministic():
    r1 = check_relation("macrobert", 8, 0xBEEF, FAST)
    r2 = check_relation("macrobert", 8, 0xBEEF, FAST)
    assert json.dumps(r1.as_dict(include_samples=True)) == \
        json.dumps(r2.as_dict(include_samples=True))


def test_monotone_precision_watson():
    lo = check_relation("watson_00", 10, 0xC0FFEE, FAST)
    hi = check_relation("watson_00", 10, 0xC0FFEE, PrecisionCtx(digits=40))
    assert lo.verdict == "identity" and hi.verdict == "identity"


def test_relation_seed_mixing_stable():
    assert _relation_seed(0, "watson_00") == _relation_seed(0, "watson_00")
    assert _relation_seed(0, "watson_00") != _relation_seed(0, "gauss")


def test_suite_order_and_expectations():
    assert SUITE_ORDER[0] == "gauss"
    assert SUITE_ORDER[4] == "recurrence_16"
    assert SUITE_ORDER[5] == "case_0_0"
    assert SUITE_ORDER[-1] == "debranges"
    assert len(SUITE_ORDER) == 5 + 19 + 5
    assert RELATIONS["three_term_printed"].expected_identity is False
    assert RELATIONS["lavoie_minus"].expected_identity is False
    assert RELATIONS["lavoie_plus"].expected_identity is True


def test_parallel_tasks_match_sequential():
    seq = check_relation("case_1_0", 6, 0xC0FFEE, FAST)
    with worker_pool(2) as pool:
        par = check_relation("case_1_0", 6, 0xC0FFEE, FAST, pool=pool)
    assert json.dumps(seq.as_dict(include_samples=True)) == \
        json.dumps(par.as_dict(include_samples=True))


@pytest.mark.parametrize("relation_id, field", [("case_1_0", "probes"),
                                                ("debranges", "fixed_grid")])
def test_samples_built_once_per_check(monkeypatch, relation_id, field):
    rel = RELATIONS[relation_id]
    build = getattr(rel, field)
    calls = []

    def counted(ctx):
        calls.append(ctx)
        return build(ctx)

    monkeypatch.setitem(RELATIONS, relation_id, replace(rel, **{field: counted}))
    rep = check_relation(relation_id, 4, 0xC0FFEE, FAST)
    assert len(calls) == 1
    assert rep.samples


def test_worker_pool_capped_at_cpu_count():
    # a fork pool starts all its workers at the first task, so the cap is
    # checked on a pool that is never given one
    with worker_pool(10 ** 6) as pool:
        assert pool._max_workers == (os.cpu_count() or 1)


def test_debranges_grid_matches_across_process_counts():
    # a probe-carrying relation is compared in test_parallel_tasks_match_sequential
    seq = check_relation("debranges", 0, 0xC0FFEE, FAST)
    with worker_pool(2) as pool:
        par = check_relation("debranges", 0, 0xC0FFEE, FAST, pool=pool)
    assert json.dumps(seq.as_dict(include_samples=True)) == \
        json.dumps(par.as_dict(include_samples=True))


def _suite_bytes(threads: int) -> bytes:
    cfg = RunConfig(digits=20, seed=7, samples=2, threads=threads)
    reports = verify.run_suite(cfg.seed, cfg.ctx(), samples=cfg.samples, threads=threads)
    return json.dumps(suite_document(reports, cfg), indent=2).encode()


@pytest.fixture(scope="module")
def serial_suite():
    return _suite_bytes(1)


def test_suite_starts_one_pool(monkeypatch, serial_suite):
    started, checked = [], []
    real_check = verify.check_relation

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    def counted_check(*args, **kwargs):
        checked.append(args[0])
        return real_check(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(verify, "check_relation", counted_check)
    assert _suite_bytes(2) == serial_suite
    assert len(started) == 1
    assert not multiprocessing.active_children()      # joined before run_suite returned
    assert checked == list(SUITE_ORDER)
    assert _suite_bytes(1) == serial_suite and len(started) == 1


class _FailingPool(concurrent.futures.ProcessPoolExecutor):
    """A pool whose start, or whose first map, fails as a host without
    process support would."""
    fail_at = "start"

    def __init__(self, *args, **kwargs):
        if self.fail_at == "start":
            raise OSError("no processes")
        super().__init__(*args, **kwargs)

    def map(self, *args, **kwargs):
        raise OSError("no processes")


@pytest.mark.parametrize("fail_at", ["start", "map"])
def test_pool_oserror_falls_back_to_serial(monkeypatch, serial_suite, fail_at):
    monkeypatch.setattr(_FailingPool, "fail_at", fail_at)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FailingPool)
    seq = check_relation("case_1_0", 6, 0xC0FFEE, FAST)
    with worker_pool(2) as pool:
        assert (pool is None) == (fail_at == "start")
        par = check_relation("case_1_0", 6, 0xC0FFEE, FAST, pool=pool)
    assert json.dumps(seq.as_dict(include_samples=True)) == \
        json.dumps(par.as_dict(include_samples=True))
    assert _suite_bytes(2) == serial_suite


def test_exact_probes_evaluated_once(monkeypatch):
    # the parent evaluates each candidate probe to choose it, and the chosen
    # probe's task carries that instance instead of evaluating it again
    calls = collections.Counter()
    real = lattice.recurrence_residual

    def counted(p, ctx, **kwargs):
        calls[(p.a, p.b, p.c, p.i, p.j)] += 1
        return real(p, ctx, **kwargs)

    monkeypatch.setattr(lattice, "recurrence_residual", counted)
    rep = check_relation("case_1_0", 2, 0xC0FFEE, FAST)
    probes = [s for s in rep.samples if s.kind == "probe"]
    assert len(probes) == 3
    for s in probes:
        assert calls[(s.params["a"], s.params["b"], s.params["c"], *s.lattice_indices)] == 1
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("threads", [1, 2])
def test_each_relation_evaluated_and_judged_in_its_own_check(monkeypatch, serial_suite,
                                                             threads):
    # perfbench times each top-level check_relation call as one relation's
    # latency: in one process every task is evaluated inside its own
    # relation's call; with a pool every relation is submitted before the
    # first call, and each relation's call is entered once, in suite order
    entered, open_checks, evaluated, maps = [], [], [], []
    real_check, real_task = verify.check_relation, verify._evaluate_task

    def check(*args, **kwargs):
        entered.append(args[0])
        open_checks.append(args[0])
        try:
            return real_check(*args, **kwargs)
        finally:
            open_checks.pop()

    def task(t):
        evaluated.append(t[0])
        assert open_checks == [t[0]]
        return real_task(t)

    class MappedPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            maps.append(len(entered))
            return super().map(*args, **kwargs)

    monkeypatch.setattr(verify, "check_relation", check)
    if threads == 1:
        monkeypatch.setattr(verify, "_evaluate_task", task)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", MappedPool)
    assert _suite_bytes(threads) == serial_suite
    assert entered == list(SUITE_ORDER)
    if threads == 1:
        assert set(evaluated) == set(SUITE_ORDER)
        assert maps == []
    else:
        assert maps == [0] * len(SUITE_ORDER)


def test_judging_error_cancels_queued_tasks(monkeypatch):
    submitted = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            submitted.append(future)
            return future

    def failing(*args):
        raise RuntimeError("judging failed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(verify, "_judged", failing)
    with pytest.raises(RuntimeError, match="judging failed"):
        verify.run_suite(7, FAST, samples=50, threads=2)
    assert not multiprocessing.active_children()
    assert submitted and any(f.cancelled() for f in submitted)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_suite_bytes_under_every_start_method(monkeypatch, serial_suite, method):
    # Python 3.14 makes forkserver the default start method on Linux
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(verify, "worker_pool", lambda threads: (
        concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=context)))
    assert _suite_bytes(2) == serial_suite
