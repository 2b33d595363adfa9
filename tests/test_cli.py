import contextlib
import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from watsonlab.cli import main
from watsonlab.verify import EXPECTED_IDENTITY, GRID, SUITE_ORDER

PI2_4_30 = "2.46740110027233965470862274996"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_watson_base(capsys):
    code, out, _ = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "1",
                       "-i", "0", "-j", "0", "--digits", "40")
    assert code == 0
    assert PI2_4_30 in out
    assert "method = accelerated" in out


def test_eval_exact_zero(capsys):
    code, out, _ = run(capsys, "eval", "-a", "-1", "-b", "1", "-c", "1",
                       "-i", "0", "-j", "0")
    assert code == 0
    assert "0 (exact)" in out


def test_eval_divergent(capsys):
    code, _, err = run(capsys, "eval", "-a", "2", "-b", "2", "-c", "1",
                       "-i", "0", "-j", "0")
    assert code == 1
    assert "divergent" in err


def test_eval_rational_params(capsys):
    code, out, _ = run(capsys, "eval", "-a", "1/2", "-b", "0.5", "-c", "2",
                       "-j", "-1", "--digits", "20", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"].startswith("1.4147106052612918")


def test_digits_floor_rejected(capsys):
    code, _, err = run(capsys, "suite", "--digits", "10")
    assert code == 2
    assert err == "error: digits must lie in [15, 1000], got 10\n"
    code, _, _ = run(capsys, "eval", "-a", "1", "-b", "1", "-c", "1", "--digits", "2000")
    assert code == 2


# within 1e-7 or 1e-12 of 0..-5 on either side, or an ordinary value of modest size
# (parameters near 1e12 make a single eval take seconds)
_hostile_param = st.one_of(
    st.builds(lambda k, off, sign: k + sign * off, st.integers(-5, 0),
              st.sampled_from([Fraction(0), Fraction(1, 10 ** 7), Fraction(1, 10 ** 12)]),
              st.sampled_from([1, -1])),
    st.fractions(min_value=-6, max_value=6, max_denominator=12))


@given(command=st.sampled_from(["eval", "reduce"]), a=_hostile_param, b=_hostile_param,
       c=st.one_of(_hostile_param, st.none()),
       eps=st.sampled_from([Fraction(0), Fraction(1, 10 ** 9), Fraction(-1, 10 ** 9),
                            Fraction(1, 10 ** 12), Fraction(-1, 10 ** 12)]),
       i=st.one_of(st.just(0), st.integers(-6, 6)),         # reduce has no -i; it needs j >= 0
       j=st.one_of(st.integers(0, 4), st.integers(-4, 4)), digits=st.integers(15, 20),
       guard=st.sampled_from(["0", "0.05", "0.4999"]))
@settings(max_examples=300, deadline=None)
def test_hostile_eval_and_reduce_end_cleanly(command, a, b, c, eps, i, j, digits, guard):
    """Points at the pole guard's edge, margins near 0 and (i, j) in the grid and just
    outside it end in an exit code, never a traceback.  With c drawn as None, c is set
    so that the margin c + j + (i+1)/2 - (a+b)/2 is eps."""
    if command == "reduce":
        i = 0
    if c is None:
        c = (a + b) / 2 - j - Fraction(i + 1, 2) + eps
    index = [f"-i={i}"] if command == "eval" else []
    argv = [command, f"-a={a}", f"-b={b}", f"-c={c}", *index, f"-j={j}",
            "--digits", str(digits), "--pole-guard", guard]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


@pytest.mark.parametrize("command", [["eval", "-a", "1", "-b", "1", "-c", "1"],
                                     ["check", "watson_00", "--samples", "1"],
                                     ["suite", "--samples", "1"],
                                     ["reduce", "-a", "1", "-b", "1", "-c", "1", "-j", "1"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("guard", ["0.6", "0.5", "-1", "nan"])
def test_pole_guard_out_of_range_rejected(capsys, command, guard):
    code, out, err = run(capsys, *command, "--digits", "20", "--pole-guard", guard)
    assert code == 2
    assert out == ""
    assert err.startswith("error: pole_guard must lie in [0, 0.5)")


# guard 0 lets an exact probe reach a factor a+b+i+1 that is exactly 0; guard
# 0.4999 leaves no admissible triple for recurrence_16's sample 69
@pytest.mark.parametrize("relation, guard, samples", [
    ("case_m1_0", "0", "1"), ("case_m2_0", "0", "1"), ("case_0_m1", "0", "1"),
    ("case_m1_m2", "0", "1"), ("recurrence_16", "0.4999", "70")])
def test_check_at_the_pole_guard_edges_ends_cleanly(capsys, relation, guard, samples):
    code, out, _ = run(capsys, "check", relation, "--pole-guard", guard, "--samples", samples,
                       "--digits", "15", "--threads", "1", "--output", "json")
    assert code in (0, 1, 3)
    if relation == "recurrence_16":
        failed = [s for s in json.loads(out)["samples"] if s["note"].startswith("no admissible")]
        assert [(s["kind"], s["converged"]) for s in failed] == [("sample", False)]


@given(relation=st.sampled_from(SUITE_ORDER),
       guard=st.sampled_from(["0", "0.3", "0.45", "0.4999"]),
       seed=st.sampled_from([-1, 0, 0xFFFFFFFFFFFFFFFFFF]), digits=st.integers(15, 30))
@settings(max_examples=25, deadline=None)
def test_hostile_check_ends_cleanly(relation, guard, seed, digits):
    """Every relation at the pole guard's extremes, with a negative, a zero or a
    wider-than-64-bit seed, ends in a verdict, never a usage error or a traceback."""
    argv = ["check", relation, "--pole-guard", guard, f"--seed={seed}",
            "--digits", str(digits), "--samples", "1", "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 3), argv


@pytest.mark.parametrize("argv", [
    ["eval", "--seed", "1"], ["eval", "--samples", "1"], ["eval", "--threads", "1"],
    ["eval", "--output", "csv"],
    ["reduce", "-j", "1", "--seed", "1"], ["reduce", "-j", "1", "--samples", "1"],
    ["reduce", "-j", "1", "--threads", "1"], ["reduce", "-j", "1", "-i", "0"],
    ["check", "gauss", "--output", "table"], ["suite", "--output", "text"]],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_commands_refuse_options_they_do_not_read(capsys, argv):
    if argv[0] in ("eval", "reduce"):
        argv = argv[:1] + ["-a", "1", "-b", "1", "-c", "1"] + argv[1:]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "error:" in err


def test_check_unknown_relation(capsys):
    code, _, err = run(capsys, "check", "nosuch")
    assert code == 2
    assert "unknown relation" in err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "recurrence_16", "--samples", "6",
                       "--digits", "20", "--threads", "1")
    assert code == 0
    assert "verdict: identity" in out
    code, out, _ = run(capsys, "check", "three_term_printed", "--samples", "4",
                       "--digits", "20")
    assert code == 1
    assert "counterexample" in out and "a=0" in out


def test_check_json_and_csv(capsys):
    code, out, _ = run(capsys, "check", "macrobert", "--samples", "4",
                       "--digits", "20", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["relation_id"] == "macrobert"
    assert doc["verdict"] == "identity"
    assert "paper_anchor" in doc and doc["samples"]
    code, out, _ = run(capsys, "check", "macrobert", "--samples", "4",
                       "--digits", "20", "--output", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("relation_id,index,kind,i,j,param_a")


def test_check_recurrence_csv_has_a_row_for_every_grid_cell(capsys):
    # README names this CSV for the main recurrence's residual per grid cell
    code, out, _ = run(capsys, "check", "recurrence_16", "--samples", str(len(GRID)),
                       "--digits", "20", "--threads", "1", "--output", "csv")
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(out)) if r["kind"] == "sample"]
    assert sorted((int(r["i"]), int(r["j"])) for r in rows) == sorted(GRID)
    assert all(float(r["rel_residual"]) < 1e-6 for r in rows)


def test_reduce_text(capsys):
    code, out, _ = run(capsys, "reduce", "-a", "1", "-b", "1", "-c", "1", "-j", "1",
                       "--digits", "25")
    assert code == 0
    assert "-1/9" in out
    assert "1.4674011002723396" in out


def test_reduce_refuses_a_base_value_at_a_series_denominator_pole(capsys):
    # watson_00(1, -3, -1): 2c = -2 and the series ends first; it once printed 3.0
    code, out, err = run(capsys, "reduce", "-a", "1", "-b", "-3", "-c", "-1", "-j", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_reduce_rejects_bad_indices(capsys):
    code, _, _ = run(capsys, "reduce", "-a", "1", "-b", "1", "-c", "1", "-j", "-1")
    assert code == 2
    code, _, _ = run(capsys, "reduce", "-a", "1", "-b", "1", "-c", "1", "-j", "1", "-i", "1")
    assert code == 2


def test_env_digits_default(capsys, monkeypatch):
    monkeypatch.setenv("WATSON_DIGITS", "18")
    code, out, _ = run(capsys, "eval", "-a", "-1", "-b", "1", "-c", "1",
                       "--output", "json")
    assert code == 0
    assert json.loads(out)["digits"] == 18


def test_env_digits_invalid_rejected(capsys, monkeypatch):
    monkeypatch.setenv("WATSON_DIGITS", "abc")
    code, out, err = run(capsys, "eval", "-a", "-1", "-b", "1", "-c", "1")
    assert code == 2
    assert out == "" and "--digits" in err
    # an explicit --digits wins over the environment
    code, out, _ = run(capsys, "eval", "-a", "-1", "-b", "1", "-c", "1",
                       "--digits", "18", "--output", "json")
    assert code == 0 and json.loads(out)["digits"] == 18


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(capsys, threads):
    code, out, err = run(capsys, "check", "watson_00", "--digits", "20",
                         "--samples", "1", "--threads", threads)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: threads must be >= 1, got {threads}")


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    """One compact suite run shared by the remaining CLI assertions."""
    path = tmp_path_factory.mktemp("suite") / "report.json"
    code = main(["suite", "--digits", "20", "--samples", "4", "--seed", "7",
                 "--out", str(path), "--threads", "1"])
    return code, path.read_bytes()


def test_suite_writes_report_and_passes(small_suite, capsys):
    code, blob = small_suite
    assert code == 0
    doc = json.loads(blob)
    assert doc["suite_version"] == "1"
    assert doc["digits"] == 20 and doc["seed"] == 7
    ids = [r["relation_id"] for r in doc["relations"]]
    assert ids[:5] == ["gauss", "watson_00", "lavoie_plus", "lavoie_minus", "recurrence_16"]
    assert ids[-1] == "debranges"
    by_id = {r["relation_id"]: r for r in doc["relations"]}
    assert by_id["lavoie_minus"]["verdict"] == "not_identity"
    assert by_id["three_term_printed"]["verdict"] == "not_identity"
    assert by_id["case_2_m1"]["transcription_flags"]
    registry = {r["form_id"]: r for r in doc["closed_form_registry"]}
    assert registry["lavoie_minus"]["status"] == "refuted"
    assert "source_equation" in registry["watson_00"]


def test_suite_byte_identical_and_thread_independent(small_suite, tmp_path, capsys):
    # json is the default format: naming it changes no byte
    _, blob = small_suite
    p2 = tmp_path / "again.json"
    code = main(["suite", "--digits", "20", "--samples", "4", "--seed", "7",
                 "--out", str(p2), "--threads", "2", "--output", "json"])
    assert code == 0
    assert p2.read_bytes() == blob


def test_suite_out_path_failure(capsys):
    code, _, err = run(capsys, "suite", "--digits", "20", "--samples", "1",
                       "--out", "/nonexistent-dir/report.json")
    assert code == 2
    assert "cannot write" in err


def test_direct_skip_audit_counts_and_fails_on_unsound_skip(capsys, monkeypatch):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "direct_skip_audit.py"
    spec = importlib.util.spec_from_file_location("direct_skip_audit", path)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    assert audit.main(["--count", "60", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "unsound skips 0" in out
    # a rehearsal that always gives up skips points the mp loop finishes
    monkeypatch.setattr(audit.series, "_direct_gives_up", lambda *args: True)
    assert audit.main(["--count", "60", "--seed", "5"]) == 1
    assert "unsound skip at point" in capsys.readouterr().out


def test_levin_exact_audit_passes_and_fails_on_an_ulp(capsys, monkeypatch):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "levin_exact_audit.py"
    spec = importlib.util.spec_from_file_location("levin_exact_audit", path)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    assert audit.main(["--count", "12", "--seed", "5"]) == 0
    assert "differences 0" in capsys.readouterr().out
    # a tableau climb one unit in the last place off at the top of N
    real = audit.series._levin_climb

    def off_by_one_ulp(nm, ne, dm, de, rows, prec):
        real(nm, ne, dm, de, rows, prec)
        nm[0] += 1

    monkeypatch.setattr(audit.series, "_levin_climb", off_by_one_ulp)
    assert audit.main(["--count", "12", "--seed", "5"]) == 1
    assert "difference at point" in capsys.readouterr().out
    monkeypatch.setattr(audit.series, "_levin_climb", real)
    # a division that truncates its quotient and drops the sticky bit
    real_div = audit.series._div

    def no_sticky_bit(xm, xe, ym, ye, prec):
        if not xm or not ym:
            return real_div(xm, xe, ym, ye, prec)
        if ym < 0:
            xm, ym = -xm, -ym
        extra = prec + 3 - xm.bit_length() + ym.bit_length()
        return audit.series._round((xm << extra) // ym, xe - ye - extra, prec)

    monkeypatch.setattr(audit.series, "_div", no_sticky_bit)
    assert audit.main(["--count", "12", "--seed", "5"]) == 1
    assert "difference at point" in capsys.readouterr().out


def test_bench_record_summary_applies_the_gain_rule():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)

    def pairs(parent, change):
        return [{"parent": {"metrics": {"wall_s": p, "ops_per_s": 1 / p}},
                 "change": {"metrics": {"wall_s": c, "ops_per_s": 1 / c}}}
                for p, c in zip(parent, change)]

    spec = {"wall_s": "lower", "ops_per_s": "higher"}
    faster = record.summarize(pairs([5.0, 5.2, 5.1, 4.9], [4.0, 4.1, 3.9, 4.2]), spec)
    assert faster["wall_s"]["change_wins"] == 4 and faster["wall_s"]["gain_shown"]
    assert faster["ops_per_s"]["change_wins"] == 4 and faster["ops_per_s"]["gain_shown"]
    assert faster["wall_s"]["parent"]["median"] == 5.05
    # one lost pair in four is below nine tenths; a gap inside the spread shows nothing
    mixed = record.summarize(pairs([5.0, 5.2, 5.1, 4.9], [4.0, 5.3, 3.9, 4.2]), spec)
    assert mixed["wall_s"]["change_wins"] == 3 and not mixed["wall_s"]["gain_shown"]
    close = record.summarize(pairs([5.0, 6.0, 4.0, 5.5], [4.9, 5.9, 3.9, 5.4]), spec)
    assert close["wall_s"]["change_wins"] == 4 and not close["wall_s"]["gain_shown"]


def test_bench_record_flags_a_metric_worse_than_its_bound():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)

    def pairs(parent, change):
        return [{"parent": {"metrics": {"setup_s": p, "ops_per_s": 1 / p}},
                 "change": {"metrics": {"setup_s": c, "ops_per_s": 1 / c}}}
                for p, c in zip(parent, change)]

    spec = {"setup_s": "lower", "ops_per_s": "higher"}
    bounds = {"setup_s": 0.25, "ops_per_s": 0.25}
    # a setup_s median 0.078 -> 0.112 s (+43.6%) is past a 0.25 bound; ops_per_s
    # falls by 30.4%, past it too
    over = record.summarize(pairs([0.078] * 4, [0.112] * 4), spec, bounds)
    assert over["setup_s"]["worse_than_bound"] and over["setup_s"]["bound"] == 0.25
    assert over["ops_per_s"]["worse_than_bound"]
    # +20% is inside the bound, and a gain is never over it
    inside = record.summarize(pairs([0.1] * 4, [0.12] * 4), spec, bounds)
    assert not inside["setup_s"]["worse_than_bound"]
    assert not inside["ops_per_s"]["worse_than_bound"]
    faster = record.summarize(pairs([0.1] * 4, [0.05] * 4), spec, bounds)
    assert not faster["setup_s"]["worse_than_bound"]
    assert not faster["ops_per_s"]["worse_than_bound"]
    # a metric without a bound is never flagged
    unbound = record.summarize(pairs([0.078] * 4, [0.112] * 4), spec)
    assert unbound["setup_s"]["bound"] is None and not unbound["setup_s"]["worse_than_bound"]


def test_bench_record_ratio_separates_a_gain_from_host_drift():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    # the parent drifts from 7.6 to 3.9 s while every pair's change is 15% faster
    parent = [7.6 - 3.7 * k / 9 for k in range(10)]
    pairs = [{"parent": {"metrics": {"wall_s": p}}, "change": {"metrics": {"wall_s": 0.85 * p}}}
             for p in parent]
    wall = record.summarize(pairs, {"wall_s": "lower"})["wall_s"]
    assert wall["change_wins"] == 10 and not wall["gain_shown"]
    assert wall["ratio"]["q3"] < 1
    assert wall["ratio"]["median"] == pytest.approx(0.85)


def test_bench_record_gives_each_sides_median_pass_count():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    pairs = [{"parent": {"passes": p}, "change": {"passes": c}}
             for p, c in ((24, 30), (26, 31), (17, 25), (25, 32))]
    assert record.median_passes(pairs) == {"parent": 24.5, "change": 30.5}
    # a run that printed no wall_s line has no pass count and is left out
    pairs[0]["change"]["passes"] = None
    pairs.append({"parent": {"passes": 20}, "change": {"passes": None}})
    assert record.median_passes(pairs) == {"parent": 24, "change": 31}
    none = [{"parent": {"passes": None}, "change": {"passes": None}}]
    assert record.median_passes(none) == {"parent": None, "change": None}


def test_suite_table_is_the_check_text_of_every_relation(capsys):
    common = ["--digits", "20", "--seed", "7", "--threads", "1"]
    code, table, _ = run(capsys, "suite", "--output", "table", "--samples", "1", *common)
    texts, identity = [], True
    for rid in SUITE_ORDER:
        # the suite widens recurrence_16 to every grid cell
        samples = str(len(GRID)) if rid == "recurrence_16" else "1"
        rc, out, _ = run(capsys, "check", rid, "--samples", samples, *common)
        texts.append(out)
        identity &= rc == 0 or rid not in EXPECTED_IDENTITY
    assert table == "".join(texts)
    assert code == (0 if identity else 1)
