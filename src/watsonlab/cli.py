"""Command-line front end: eval, check, suite, reduce.

Exit codes: 0 pass, 1 refuted or divergent, 2 usage or I/O trouble,
3 inconclusive.  Only check and suite sample, so only they take --seed,
--samples and --threads.  Sampling is seeded and the suite document embeds
its run configuration, so identical invocations print identical bytes
whatever --threads is.  Despite its name, --threads sets the number of worker
processes: one ProcessPoolExecutor per command, capped at the CPU count; 1
runs everything in this process.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from . import __version__, closedform, verify
from .lattice import (PreconditionViolation, UnsupportedIndex, WatsonPoint, eval_point,
                      reduce_to_watson, to_pfq)
from .mpnum import PrecisionCtx
from .report import fmt_num
from .series import DivergentSeries, eval_unit

DEFAULT_SEED = 0xC0FFEE
_CSV_FIELDS = ["relation_id", "index", "kind", "i", "j",
               "param_a", "param_b", "param_c", "param_x", "param_n", "param_alpha",
               "lhs", "rhs", "abs_residual", "rel_residual", "eval_bounds",
               "converged", "exact"]


@dataclass(frozen=True)
class RunConfig:
    digits: int = 50
    seed: int = DEFAULT_SEED
    samples: int = 100
    pole_guard: float = 0.05
    threads: int = 1

    def __post_init__(self):
        if not 15 <= self.digits <= 1000:
            raise ValueError(f"digits must lie in [15, 1000], got {self.digits}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        self.ctx()      # refuses a pole_guard outside [0, 0.5), nan included

    def ctx(self) -> PrecisionCtx:
        return PrecisionCtx(digits=self.digits, pole_guard=self.pole_guard)


def _parse_param(text: str) -> Fraction:
    """Accept decimal strings or exact rationals p/q; both parse exactly."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse parameter {text!r}: {exc}")


_PARAM_HELP = ("an exact decimal or p/q; write a negative fraction with '=', as "
               "-c=-1/2, since argparse reads -c -1/2 as an option")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int,
                        default=os.environ.get("WATSON_DIGITS", "50"),
                        help="decimal working precision (15..1000; WATSON_DIGITS overrides the default)")
    common.add_argument("--pole-guard", type=float, default=0.05, dest="pole_guard",
                        help="minimum distance of gamma arguments from nonpositive integers "
                             "(in [0, 0.5), default 0.05)")
    common.add_argument("--out", dest="out_path", default=None,
                        help="write the report to this path instead of stdout")
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                         help="sampling seed (default 0xC0FFEE)")
    sampled.add_argument("--samples", type=int, default=100,
                         help="random samples per relation (default 100)")
    sampled.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                         help="number of worker processes evaluating instances (despite the "
                              "name; one process pool per command, at most one worker "
                              "per CPU, 1 runs in this process); reports do not depend on it")

    parser = argparse.ArgumentParser(
        prog="watsonlab",
        description="Evaluate the two-index Watson family of 3F2(1) series and "
                    "adjudicate its printed summation identities.")
    parser.add_argument("--version", action="version", version=f"watsonlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate f_{i,j}(a,b,c)")
    p_check = sub.add_parser("check", parents=[common, sampled],
                             help="adjudicate a single relation")
    p_check.add_argument("relation_id")
    p_suite = sub.add_parser("suite", parents=[common, sampled],
                             help="run the full adjudication suite and emit the report "
                                  "(--output table: the check text of every relation)")
    p_reduce = sub.add_parser("reduce", parents=[common],
                              help="expand f_{0,j} over base-row closed-form values")
    for p in (p_eval, p_reduce):
        for name in ("-a", "-b", "-c"):
            p.add_argument(name, type=_parse_param, required=True, help=_PARAM_HELP)
    p_eval.add_argument("-i", type=int, default=0)
    p_eval.add_argument("-j", type=int, default=0)
    p_reduce.add_argument("-j", type=int, required=True)
    for p, formats in ((p_eval, ("text", "json")), (p_check, ("text", "json", "csv")),
                       (p_suite, ("json", "csv", "table")), (p_reduce, ("text", "json"))):
        p.add_argument("--output", choices=formats, default=formats[0],
                       help=f"report format (default {formats[0]})")
    return parser


def _config_from(args) -> RunConfig:
    # eval and reduce take RunConfig's defaults for the sampling fields
    sampled = {k: getattr(args, k) for k in ("seed", "samples", "threads") if hasattr(args, k)}
    return RunConfig(digits=args.digits, pole_guard=args.pole_guard, **sampled)


def _emit(text: str, out_path: Optional[str]) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_eval(args, cfg: RunConfig) -> int:
    ctx = cfg.ctx()
    point = WatsonPoint(args.a, args.b, args.c, args.i, args.j)
    try:
        res = eval_point(point, ctx)
    except DivergentSeries:
        print("divergent", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output == "json":
        doc = {
            "point": {"a": str(args.a), "b": str(args.b), "c": str(args.c),
                      "i": args.i, "j": args.j},
            "digits": cfg.digits,
            "value": fmt_num(res.value),
            "abs_err_bound": fmt_num(res.abs_err_bound),
            "terms_used": res.terms_used,
            "method": res.method,
            "converged": res.converged,
            "exact_value": fmt_num(res.exact_value),
        }
        return _emit(json.dumps(doc, indent=2) + "\n", args.out_path)
    if res.exact_value is not None:
        lines = [f"{res.exact_value} (exact)"]
    else:
        lines = [mpmath.nstr(res.value, cfg.digits)]
    lines += [f"abs_err_bound = {fmt_num(res.abs_err_bound)}",
              f"method = {res.method}",
              f"terms_used = {res.terms_used}",
              f"converged = {res.converged}"]
    return _emit("\n".join(lines) + "\n", args.out_path)


_EXIT_FOR_VERDICT = {"identity": 0, "not_identity": 1, "inconclusive": 3}


def _report_text(report) -> str:
    lines = [f"relation: {report.relation_id}",
             f"anchor: {report.anchor}",
             f"verdict: {report.verdict}",
             f"samples: {len(report.samples)} ({report.n_converged} converged)",
             f"worst_rel_residual: {fmt_num(report.worst_rel_residual)}"]
    if report.counterexample is not None:
        ce = report.counterexample
        lines.append("counterexample:")
        lines.append(f"  params: " + ", ".join(f"{k}={fmt_num(v)}" for k, v in ce.params.items()))
        if ce.lattice_indices:
            lines.append(f"  (i, j): {ce.lattice_indices}")
        lines.append(f"  lhs = {fmt_num(ce.lhs)}")
        lines.append(f"  rhs = {fmt_num(ce.rhs)}")
        lines.append(f"  rel_residual = {fmt_num(ce.rel_residual)}")
    for flag in report.transcription_flags:
        lines.append(f"transcription: {flag}")
    return "\n".join(lines) + "\n"


def _csv_text(reports) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, restval="", lineterminator="\n")
    writer.writeheader()
    for report in reports:
        for row in report.csv_rows():
            writer.writerow({k: row.get(k, "") for k in _CSV_FIELDS})
    return buf.getvalue()


def _cmd_check(args, cfg: RunConfig) -> int:
    ctx = cfg.ctx()
    try:
        with verify.worker_pool(cfg.threads) as pool:
            report = verify.check_relation(args.relation_id, cfg.samples, cfg.seed, ctx,
                                           pool=pool)
    except verify.UnknownRelation:
        known = ", ".join(verify.SUITE_ORDER)
        print(f"error: unknown relation {args.relation_id!r}; known: {known}",
              file=sys.stderr)
        return 2
    if args.output == "json":
        text = json.dumps(report.as_dict(include_samples=True), indent=2) + "\n"
    elif args.output == "csv":
        text = _csv_text([report])
    else:
        text = _report_text(report)
    rc = _emit(text, args.out_path)
    return rc if rc else _EXIT_FOR_VERDICT[report.verdict]


def suite_document(reports, cfg: RunConfig) -> dict:
    """The machine-readable suite report; excludes anything run-environment
    dependent so identical configurations serialize byte-identically."""
    return {
        "suite_version": "1",
        "seed": cfg.seed,
        "digits": cfg.digits,
        "samples_per_relation": cfg.samples,
        "pole_guard": cfg.pole_guard,
        "margin_window": list(verify.DEFAULT_WINDOW),
        "relations": [r.as_dict() for r in reports],
        "closed_form_registry": closedform.registry_as_dicts(reports),
    }


def _cmd_suite(args, cfg: RunConfig) -> int:
    ctx = cfg.ctx()
    reports = verify.run_suite(cfg.seed, ctx, samples=cfg.samples, threads=cfg.threads)
    if args.output == "csv":
        text = _csv_text(reports)
    elif args.output == "table":
        text = "".join(_report_text(r) for r in reports)
    else:
        text = json.dumps(suite_document(reports, cfg), indent=2) + "\n"
    rc = _emit(text, args.out_path)
    if rc:
        return rc
    by_id = {r.relation_id: r for r in reports}
    ok = all(by_id[rid].verdict == "identity" for rid in verify.EXPECTED_IDENTITY)
    return 0 if ok else 1


def _cmd_reduce(args, cfg: RunConfig) -> int:
    ctx = cfg.ctx()
    target = WatsonPoint(args.a, args.b, args.c, 0, args.j)
    try:
        plan = reduce_to_watson(target, ctx)
    except (UnsupportedIndex, PreconditionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    series = eval_unit(to_pfq(target), ctx)
    with ctx.working(8):
        residual = abs(plan.value - series.value)
    doc = plan.as_dict()
    doc["series_value"] = fmt_num(series.value)
    doc["abs_residual_vs_series"] = fmt_num(residual)
    if args.output == "json":
        return _emit(json.dumps(doc, indent=2) + "\n", args.out_path)
    lines = [f"target: f_{{0,{args.j}}}({args.a}, {args.b}, {args.c})"]
    for term in doc["terms"]:
        lines.append(f"  shift k={term['shift']}: weight = {term['weight']}")
    lines += [f"value = {doc['value']}",
              f"series check = {doc['series_value']}",
              f"|difference| = {doc['abs_residual_vs_series']}"]
    return _emit("\n".join(lines) + "\n", args.out_path)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {"eval": _cmd_eval, "check": _cmd_check,
               "suite": _cmd_suite, "reduce": _cmd_reduce}[args.command]
    return handler(args, cfg)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
