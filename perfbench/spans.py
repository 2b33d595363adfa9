"""Spans recorded around calls into watsonlab's public functions, and the
per-layer metrics derived from them.

Nothing inside the package is edited: while a :class:`Tracer` is installed,
every binding of a traced function (module attributes, names imported into
other modules, and the ``closedform.FORM_FUNCS`` table) points at a wrapper
that records one span per call.  Spans stay in memory and are reduced to
metrics after the traced pass.  Only calls made in this process are seen;
worker processes of a process pool keep their spans to themselves.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple

from watsonlab import closedform, cli, lattice, mpnum, report, series, verify
from watsonlab.closedform import DivergenceRegion, ParameterPole
from watsonlab.lattice import PreconditionViolation
from watsonlab.mpnum import NumeratorPole
from watsonlab.series import convergence_margin, termination_degree

MODULES = (mpnum, closedform, series, lattice, verify, report, cli)

# span name -> the function it wraps
TRACED = {
    "mpnum.ln_gamma": mpnum.ln_gamma,
    "mpnum.gamma_product": mpnum.gamma_product,
    "closedform.gauss_2f1_unit": closedform.gauss_2f1_unit,
    "closedform.watson_00": closedform.watson_00,
    "closedform.lavoie_plus": closedform.lavoie_plus,
    "closedform.lavoie_minus": closedform.lavoie_minus,
    "series.eval_unit": series.eval_unit,
    "series.eval_exact": series.eval_exact,
    "series.eval_general": series.eval_general,
    "lattice.recurrence_residual": lattice.recurrence_residual,
    "lattice.three_term_printed": lattice.three_term_printed,
    "lattice.three_term_corrected": lattice.three_term_corrected,
    "lattice.eval_point": lattice.eval_point,
    "lattice.reduce_to_watson": lattice.reduce_to_watson,
    "verify.check_relation": verify.check_relation,
    "verify.sample_params": verify.sample_params,
}

ROUTES = ("exact_rational", "direct", "accelerated")
LATTICE_LAYERS = {
    "recurrence_residual": ("lattice.recurrence_residual",),
    "three_term": ("lattice.three_term_printed", "lattice.three_term_corrected"),
    "eval_point": ("lattice.eval_point",),
    "reduce_to_watson": ("lattice.reduce_to_watson",),
}
GROUPS = ("closed_forms", "recurrence", "cases", "three_term", "thomae",
          "macrobert", "debranges")


def relation_group(relation_id: str) -> str:
    if relation_id in closedform.FORM_IDS:
        return "closed_forms"
    if relation_id == "recurrence_16":
        return "recurrence"
    if relation_id.startswith("case_"):
        return "cases"
    if relation_id.startswith("three_term"):
        return "three_term"
    return relation_id


PER_LAYER = (
    ["mpnum.ln_gamma.calls", "mpnum.ln_gamma.busy_s",
     "mpnum.gamma_product.calls", "mpnum.gamma_product.self_s",
     "closedform.calls", "closedform.self_s", "closedform.inapplicable",
     "series.eval_unit.calls", "series.eval_unit.busy_s"]
    + [f"series.route.{r}.{m}" for r in ROUTES for m in ("calls", "busy_s")]
    + ["series.accelerated.partial_sums", "series.direct.hit_ratio", "series.not_converged",
       "series.eval_exact.calls", "series.eval_exact.busy_s",
       "series.eval_general.calls", "series.eval_general.busy_s"]
    + [f"lattice.{name}.{m}" for name in LATTICE_LAYERS for m in ("calls", "self_s")]
    + ["lattice.precondition_rejects",
       "verify.check_relation.calls", "verify.check_relation.busy_s",
       "verify.check_relation.self_s",
       "verify.sample_params.calls", "verify.sample_params.busy_s",
       "verify.instances", "verify.unconverged_ratio"]
    + [f"verify.group.{g}.wall_s" for g in GROUPS]
    + ["report.serialize_s", "trace.overhead_s"]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Span:
    __slots__ = ("name", "parent", "start", "end", "args", "outcome")

    def __init__(self, name, parent, start=0.0, end=0.0, args=(), outcome=None):
        self.name = name
        self.parent = parent        # index of the enclosing span, or -1
        self.start = start
        self.end = end
        self.args = args
        self.outcome = outcome      # return value, or the exception raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span for each call of the functions named in ``names``."""

    def __init__(self, names: Iterable[str] = TRACED):
        self.names = tuple(names)
        self.spans: List[Span] = []
        self._open: List[int] = []

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1, args=args)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                span.outcome = fn(*args, **kwargs)
                return span.outcome
            except Exception as exc:
                span.outcome = exc
                raise
            finally:
                span.end = perf_counter()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        """Point every binding of each traced function at its wrapper."""
        swaps = []      # (namespace dict, key, original)
        for name in self.names:
            fn = TRACED[name]
            wrapper = self._wrap(name, fn)
            for ns in [vars(m) for m in MODULES] + [closedform.FORM_FUNCS]:
                for key, value in list(ns.items()):
                    if value is fn:
                        swaps.append((ns, key, fn))
                        ns[key] = wrapper
        try:
            yield self
        finally:
            for ns, key, fn in swaps:
                ns[key] = fn


def concat(span_lists: Iterable[Sequence[Span]]) -> List[Span]:
    """One span list from several tracers' lists, parent indices shifted."""
    out: List[Span] = []
    for spans in span_lists:
        base = len(out)
        out += [Span(s.name, s.parent + base if s.parent >= 0 else -1, s.start, s.end,
                     s.args, s.outcome) for s in spans]
    return out


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for k, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(k, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def busy_time(spans: Sequence[Span], names: Tuple[str, ...]) -> float:
    """Time inside any span of ``names``, counting nested ones once."""
    total = 0.0
    for s in spans:
        if s.name in names and not _inside(spans, s, names):
            total += s.duration
    return total


def _inside(spans, s, names) -> bool:
    k = s.parent
    while k >= 0:
        if spans[k].name in names:
            return True
        k = spans[k].parent
    return False


def layer_metrics(spans: Sequence[Span], passes: int) -> Dict[str, float]:
    """Every per-layer metric except report.serialize_s and trace.overhead_s,
    per traced pass (counts and times are divided by ``passes``)."""
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(k)

    def idx(*names):
        return [k for n in names for k in by_name.get(n, ())]

    def calls(*names):
        return len(idx(*names))

    def self_s(*names):
        return sum(selfs[k] for k in idx(*names))

    m: Dict[str, float] = {}
    m["mpnum.ln_gamma.calls"] = calls("mpnum.ln_gamma")
    m["mpnum.ln_gamma.busy_s"] = busy_time(spans, ("mpnum.ln_gamma",))
    m["mpnum.gamma_product.calls"] = calls("mpnum.gamma_product")
    m["mpnum.gamma_product.self_s"] = self_s("mpnum.gamma_product")

    forms = tuple(n for n in TRACED if n.startswith("closedform."))
    m["closedform.calls"] = calls(*forms)
    m["closedform.self_s"] = self_s(*forms)
    m["closedform.inapplicable"] = sum(
        isinstance(spans[k].outcome, (DivergenceRegion, ParameterPole, NumeratorPole))
        for k in idx(*forms))

    units = [spans[k] for k in idx("series.eval_unit")]
    m["series.eval_unit.calls"] = len(units)
    m["series.eval_unit.busy_s"] = busy_time(spans, ("series.eval_unit",))
    for route in ROUTES:
        hit = [s for s in units if getattr(s.outcome, "method", None) == route]
        m[f"series.route.{route}.calls"] = len(hit)
        m[f"series.route.{route}.busy_s"] = sum(s.duration for s in hit)
    m["series.accelerated.partial_sums"] = sum(
        s.outcome.terms_used for s in units if getattr(s.outcome, "method", None) == "accelerated")
    eligible = [s for s in units if _direct_eligible(s)]
    m["series.direct.hit_ratio"] = (
        sum(s.outcome.method == "direct" for s in eligible) / len(eligible) if eligible else 0.0)
    m["series.not_converged"] = sum(
        getattr(spans[k].outcome, "converged", True) is False
        for k in idx("series.eval_unit", "series.eval_general"))
    for name in ("eval_exact", "eval_general"):
        m[f"series.{name}.calls"] = calls(f"series.{name}")
        m[f"series.{name}.busy_s"] = busy_time(spans, (f"series.{name}",))

    lattice_names = tuple(n for names in LATTICE_LAYERS.values() for n in names)
    for layer, names in LATTICE_LAYERS.items():
        m[f"lattice.{layer}.calls"] = calls(*names)
        m[f"lattice.{layer}.self_s"] = self_s(*names)
    m["lattice.precondition_rejects"] = sum(
        isinstance(spans[k].outcome, PreconditionViolation) for k in idx(*lattice_names))

    checks = [spans[k] for k in idx("verify.check_relation")]
    m["verify.check_relation.calls"] = len(checks)
    m["verify.check_relation.busy_s"] = busy_time(spans, ("verify.check_relation",))
    m["verify.check_relation.self_s"] = self_s("verify.check_relation")
    m["verify.sample_params.calls"] = calls("verify.sample_params")
    m["verify.sample_params.busy_s"] = busy_time(spans, ("verify.sample_params",))
    instances = [inst for s in checks if hasattr(s.outcome, "samples")
                 for inst in s.outcome.samples]
    m["verify.instances"] = len(instances)
    m["verify.unconverged_ratio"] = (
        sum(not inst.converged for inst in instances) / len(instances) if instances else 0.0)
    for g in GROUPS:
        m[f"verify.group.{g}.wall_s"] = sum(
            s.duration for s in checks if relation_group(s.args[0]) == g)

    out = {k: v if k.endswith("_ratio") else v / passes for k, v in m.items()}
    return {k: int(v) if unit_of(k) == "count" and v == int(v) else v for k, v in out.items()}


def _direct_eligible(span: Span) -> bool:
    """A non-terminating eval_unit call with excess > 1, which may go direct."""
    if isinstance(span.outcome, Exception):
        return False
    f, ctx = span.args[0], span.args[1]
    return termination_degree(f, ctx.pole_guard) is None and convergence_margin(f) > 1

