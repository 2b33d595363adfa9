"""Seeded sampling, residual measurement, and verdict assignment for every
printed relation: the four closed forms, the main recurrence over the full
(i, j) grid, the 19 instantiated special cases (regenerated, plus a
transcription diff against the printed text), both three-term relations, the
Thomae transformation, the quadratic 2F1 transformation, and the terminating
positivity inequality.

Sampling is splitmix64-driven and fully deterministic: two runs with the same
(seed, digits, sample counts) produce identical reports, independent of the
parallelism degree.  Deterministic probes (exact terminating instances, a = 0
rows) are prepended to the random samples so counterexamples are reproducible
without seed archaeology.

Relation instances are always evaluated series-side only; closed forms being
adjudicated never shortcut their own verification.

One verdict rule serves every relation, grids included.  Over the converged
instances: a residual above both 0.01 and 100 x its evaluation bounds, or an
exact instance with a nonzero residual, is a counterexample and gives
not_identity; every residual inside max(10^(-digits/3), 100 x its bounds) with
enough converged instances, and never fewer than one, gives identity; anything
else is inconclusive.

A sampler rejects a draw when a value on its one list, the gamma arguments
and series parameters its relation's evaluator is built from, lies within
pole_guard of a nonpositive integer; SampleConstraints says why that list
covers the evaluator's other refusals.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, List, Optional, Tuple

import mpmath
from mpmath import mpf

from . import closedform, lattice
from .mpnum import NumeratorPole, PrecisionCtx, gamma_product, to_mpf_ambient
from .report import RelationInstance, RelationReport, finish_instance
from .series import PFQ, SeriesError, eval_exact, eval_general, eval_unit

MASK64 = (1 << 64) - 1
DEFAULT_WINDOW = (0.75, 3.0)
_AB_RANGE = ("0.1", "3.0")       # a and b are drawn uniform on this interval
GRID = tuple((i, j) for i in range(-5, 6) for j in range(-3, 4))


class UnknownRelation(KeyError):
    pass


class SamplingExhausted(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# deterministic sampling

class SplitMix64:
    """The splitmix64 generator; the full 64-bit word feeds each uniform draw."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: mpf, width: mpf) -> mpf:
        """lo + u * width at the ambient precision, u the next word over 2^64."""
        return lo + mpmath.ldexp(mpf(self.next_u64()), -64) * width


def _span(lo, hi) -> Tuple[mpf, mpf]:
    """SplitMix64.uniform's (low end, width) of [lo, hi], at the ambient precision."""
    lo = to_mpf_ambient(lo)
    return lo, to_mpf_ambient(hi) - lo


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for ch in text.encode():
        h = ((h ^ ch) * 0x100000001B3) & MASK64
    return h


def _relation_seed(seed: int, relation_id: str) -> int:
    return (seed ^ _fnv1a64(relation_id)) & MASK64


@dataclass(frozen=True)
class SampleConstraints:
    """What a relation demands of a random (a, b, c) triple.

    solve_c pins the relation's tightest constituent margin to the drawn s;
    margins lists only the constituent margins solve_c does not fix, each of
    which must not fall below the window.  values(a, b, c) lists what a draw
    must keep pole_guard away from the nonpositive integers, read from the
    evaluator's own definitions: gamma_arguments, to_pfq of the lattice
    relations' points, _thomae_parts.  That test at one guard implies what is
    not listed: a lattice zero factor is a listed denominator or twice one,
    each parameter of a lattice relation's last, unit-shifted point is a
    listed x or x + 1, and each Thomae prefactor argument is a parameter of
    its series.
    """

    solve_c: Callable
    values: Callable
    margins: Callable = lambda a, b, c: []


def sample_params(seed: int, index: int, constraints: SampleConstraints,
                  ctx: PrecisionCtx, window=DEFAULT_WINDOW) -> Tuple[mpf, mpf, mpf]:
    """Deterministic parameter triple for sample `index` of a relation.

    The generator is splitmix64 seeded with seed XOR index; a and b are uniform
    on [0.1, 3.0], and c is solved so the tightest constituent margin hits the
    drawn s in window = (s_lo, s_hi).  Bounded retries reject triples with a
    margin of constraints.margins (those solve_c does not fix) below s_lo, or
    with constraints.values near a pole, and raise SamplingExhausted after
    1000, or at once for an empty window.
    """
    s_lo, s_hi = window
    if s_lo > s_hi:
        raise SamplingExhausted(f"empty margin window {window} (seed={seed}, index={index})")
    rng = SplitMix64((seed ^ index) & MASK64)
    with ctx.working():
        ab_span, s_span = _span(*_AB_RANGE), _span(s_lo, s_hi)
        for _ in range(1000):
            a = rng.uniform(*ab_span)
            b = rng.uniform(*ab_span)
            s = rng.uniform(*s_span)
            c = constraints.solve_c(a, b, s)
            if any(float(to_mpf_ambient(m)) < s_lo - 1e-9 for m in constraints.margins(a, b, c)):
                continue
            if any(ctx.near_nonpos_int(v) is not None for v in constraints.values(a, b, c)):
                continue
            return a, b, c
    raise SamplingExhausted(f"no admissible triple after 1000 retries (seed={seed}, index={index})")


def adjudication_tol(ctx: PrecisionCtx) -> mpf:
    """Per-side evaluation tolerance used while adjudicating relations."""
    return mpf(10) ** -(ctx.digits // 2 + 5)


# ---------------------------------------------------------------------------
# relation definitions

@dataclass(frozen=True)
class RelationDef:
    relation_id: str
    anchor: str
    expected_identity: bool
    build_sample: Callable          # (index, seed, ctx, window) -> dict
    evaluate: Callable              # (sample, ctx, tol) -> RelationInstance
    probes: Callable                # (ctx) -> sample dicts, or their instances
    transcription: Optional[Callable] = None   # () -> list of flag strings
    fixed_grid: Optional[Callable] = None      # (ctx) -> list of sample dicts


def _solve_c_ij(i, j):
    return lambda a, b, s: s - j - mpf(i + 1) / 2 + (a + b) / 2


def _series_params(*series: PFQ) -> list:
    return [v for f in series for v in (*f.numerators, *f.denominators)]


def _lattice_constraints(points_of: Callable, i: int, j: int) -> SampleConstraints:
    """A lattice relation at cell (i, j), listing the series of all but the last
    point that points_of gives at a WatsonPoint, as its evaluator takes them."""
    def values(a, b, c):
        _, (*listed, _shifted) = points_of(lattice.WatsonPoint(a, b, c, i, j))
        return _series_params(*(lattice.to_pfq(q) for q, _ in listed))
    return SampleConstraints(solve_c=_solve_c_ij(i, j), values=values)


_recurrence_constraints = partial(_lattice_constraints, lattice._recurrence_points)
_three_term_constraints = partial(_lattice_constraints, lattice._three_term_points)

_FORM_ROW_J = {"watson_00": 0, "lavoie_plus": 1, "lavoie_minus": -1}


def _form_series(form_id: str, a, b, c) -> PFQ:
    """The series a closed form sums: 2F1(a, b; c; 1), or its lattice row's 3F2."""
    if form_id == "gauss":
        return PFQ((a, b), (c,), 1)
    return lattice.to_pfq(lattice.WatsonPoint(a, b, c, 0, _FORM_ROW_J[form_id]))


def _form_constraints(form_id: str) -> SampleConstraints:
    return SampleConstraints(
        solve_c=((lambda a, b, s: s + a + b) if form_id == "gauss"
                 else _solve_c_ij(0, _FORM_ROW_J[form_id])),
        values=lambda a, b, c: (_series_params(_form_series(form_id, a, b, c))
                                + closedform.gamma_arguments(form_id, a, b, c)))


def _thomae_parts(a, b, c):
    """The Thomae transformation at mpf (a, b, c), formed at the ambient
    precision: its left and right series and the gamma prefactor's numerator
    and denominator arguments, with d = (a+b+1)/2, e = 2c, s = d+e-a-b-c."""
    d = (a + b + 1) / 2
    e = 2 * c
    s = d + e - a - b - c
    return (PFQ((a, b, c), (d, e), 1), PFQ((d - a, e - a, s), (b + s, c + s), 1),
            [d, e, s], [a, b + s, c + s])


# --- evaluators -------------------------------------------------------------

def _failed_instance(relation_id, params, lattice_indices, note) -> RelationInstance:
    return RelationInstance(
        relation_id=relation_id, index=0, kind="probe",
        lattice_indices=lattice_indices, params=params,
        lhs=None, rhs=None, abs_residual=None, rel_residual=None,
        eval_bounds=None, converged=False, exact=False, note=note)


def _closed_form_instance(form_id: str, sample: dict, ctx: PrecisionCtx, tol) -> RelationInstance:
    a, b, c = sample["a"], sample["b"], sample["c"]
    params = {"a": a, "b": b, "c": c}
    try:
        formula = closedform.FORM_FUNCS[form_id](a, b, c, ctx)
    except (closedform.DivergenceRegion, closedform.ParameterPole, NumeratorPole) as exc:
        return _failed_instance(form_id, params, None, f"formula inapplicable: {exc}")
    try:
        series = eval_unit(_form_series(form_id, a, b, c), ctx, tol=tol)
    except SeriesError as exc:
        return _failed_instance(form_id, params, None, f"series side: {exc}")
    exact = series.exact_value is not None
    rhs = series.exact_value if exact else series.value
    with ctx.working(8):
        fb = mpf(0) if formula == 0 else abs(formula) * mpf(10) ** (6 - ctx.digits)
        bound = fb + series.abs_err_bound
    return finish_instance(form_id, params, None, ctx, formula, rhs, bound,
                           series.converged, exact and formula == 0)


def _lattice_instance(relation_id: str, sample: dict, ctx: PrecisionCtx, tol) -> RelationInstance:
    """A lattice relation at one sample: a three-term relation, or else the main
    recurrence under relation_id.  The lattice functions are looked up at call
    time, so a rebinding of them takes effect."""
    p = lattice.WatsonPoint(sample["a"], sample["b"], sample["c"],
                            sample["i"], sample["j"])
    try:
        if relation_id == "three_term_printed":
            return lattice.three_term_printed(p, ctx, tol=tol)
        if relation_id == "three_term_corrected":
            return lattice.three_term_corrected(p, ctx, tol=tol)
        return lattice.recurrence_residual(p, ctx, tol=tol, relation_id=relation_id)
    except (lattice.PreconditionViolation, SeriesError) as exc:
        return _failed_instance(relation_id, p.params(), (p.i, p.j), str(exc))


def _thomae_instance(sample: dict, ctx: PrecisionCtx, tol) -> RelationInstance:
    a, b, c = sample["a"], sample["b"], sample["c"]
    params = {"a": a, "b": b, "c": c}
    with ctx.working(8):
        lhs_f, rhs_f, pref_nums, pref_dens = _thomae_parts(*map(to_mpf_ambient, (a, b, c)))
    try:
        left = eval_unit(lhs_f, ctx, tol=tol)
    except SeriesError as exc:
        return _failed_instance("thomae", params, None, f"lhs series: {exc}")
    try:
        pref = gamma_product(pref_nums, pref_dens, ctx)
        right = eval_unit(rhs_f, ctx, tol=tol)
    except NumeratorPole as exc:
        return _failed_instance("thomae", params, None, f"prefactor pole: {exc}")
    except SeriesError as exc:
        return _failed_instance("thomae", params, None, f"rhs series: {exc}")
    with ctx.working(8):
        rhs = +(pref * right.value)
        bound = (left.abs_err_bound + abs(pref) * right.abs_err_bound
                 + abs(rhs) * mpf(10) ** (6 - ctx.digits))
    return finish_instance("thomae", params, None, ctx, left.value, rhs, bound,
                           left.converged and right.converged)


def _macrobert_instance(sample: dict, ctx: PrecisionCtx, tol) -> RelationInstance:
    a, b, x = sample["a"], sample["b"], sample["x"]
    params = {"a": a, "b": b, "x": x}
    with ctx.working(8):
        am, bm, xm = to_mpf_ambient(a), to_mpf_ambient(b), to_mpf_ambient(x)
        den = am + bm + mpf(1) / 2
        z2 = 4 * xm * (1 - xm)
        lhs_f = PFQ((2 * am, 2 * bm), (den,), xm)
        rhs_f = PFQ((am, bm), (den,), z2)
    try:
        left = eval_general(lhs_f, ctx, tol=tol)
        right = eval_general(rhs_f, ctx, tol=tol)
    except SeriesError as exc:
        return _failed_instance("macrobert", params, None, str(exc))
    with ctx.working(8):
        bound = left.abs_err_bound + right.abs_err_bound
    return finish_instance("macrobert", params, None, ctx, left.value, right.value, bound,
                           left.converged and right.converged)


DEBRANGES_GRID = {
    "n_max": 20,
    "alphas": (Fraction(-3, 2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2),
               Fraction(1), Fraction(2), Fraction(3)),
    "xs": tuple(Fraction(k, 10) for k in range(10)),
}


def _debranges_points(grid: dict, ctx: Optional[PrecisionCtx] = None) -> List[dict]:
    """The sample dicts of a positivity grid; exact, so ctx is not needed."""
    pts = []
    for n in range(grid["n_max"] + 1):
        for alpha in grid["alphas"]:
            # denominator parameters alpha+1 and (alpha+3)/2 must not hit a
            # zero factor within the termination range n
            if any(d.denominator == 1 and -(n - 1) <= d <= 0
                   for d in (alpha + 1, (alpha + 3) / 2)):
                continue
            for x in grid["xs"]:
                pts.append({"n": n, "alpha": alpha, "x": x})
    return pts


# One zero shared by the zeros of the suite's ~1,300 grid instances; callers
# keep whole reports, and a fresh Fraction per field costs 0.23 MB a report.
_ZERO = Fraction(0)


def _debranges_instance(sample: dict, ctx: PrecisionCtx, tol) -> RelationInstance:
    n, alpha, x = sample["n"], sample["alpha"], sample["x"]
    params = {"n": Fraction(n), "alpha": alpha, "x": x}
    f = PFQ((Fraction(-n), n + alpha, (alpha + 1) / 2),
            (alpha + 1, (alpha + 3) / 2), x)
    value = eval_exact(f)
    if value > 0:
        violation = _ZERO
    elif value < 0:
        violation = -value
    else:
        violation = Fraction(1)   # exact zero still violates strict positivity
    scale = max(abs(value), Fraction(1))
    return RelationInstance(
        relation_id="debranges", index=0, kind="grid", lattice_indices=None,
        params=params, lhs=value, rhs=_ZERO, abs_residual=violation,
        rel_residual=violation / scale if violation else _ZERO, eval_bounds=_ZERO,
        converged=True, exact=True)


# --- transcription diff for the 19 printed cases ---------------------------

def _coeff_j0(i):
    return lambda a, b, c: -a * b / ((2 * c + 1) * (a + b + i + 1))


def _coeff_j1(i):
    return lambda a, b, c: -2 * a * b * c / ((2 * c + 1) * (2 * c + 2) * (a + b + i + 1))


def _coeff_jm1(i):
    return lambda a, b, c: a * b / ((2 * c - 1) * (a + b + i + 1))


def _coeff_jm2(i):
    return lambda a, b, c: -a * b * c / ((2 * c - 1) * (c - 1) * (a + b + i + 1))


# printed text of each case: denominator offsets (delta, eps) meaning
# (a+b+delta)/2 and 2c+eps for the three series slots, plus the printed
# coefficient of the parameter-shifted series
_PRINTED_CASES = {
    (0, 0): ((1, 1), (1, 0), (3, 2), _coeff_j0(0)),
    (1, 0): ((2, 1), (2, 0), (4, 2), _coeff_j0(1)),
    (2, 0): ((3, 1), (3, 0), (5, 2), _coeff_j0(2)),
    (3, 0): ((4, 1), (4, 0), (6, 2), _coeff_j0(3)),
    (4, 0): ((5, 1), (5, 0), (7, 2), _coeff_j0(4)),
    (5, 0): ((6, 1), (6, 0), (8, 2), _coeff_j0(5)),
    (-1, 0): ((0, 1), (0, 0), (2, 2), _coeff_j0(-1)),
    (-2, 0): ((-1, 1), (-1, 0), (1, 2), _coeff_j0(-2)),
    (-3, 0): ((-2, 1), (-2, 0), (0, 2), _coeff_j0(-3)),
    (-4, 0): ((-3, 1), (-3, 0), (-1, 2), _coeff_j0(-4)),
    (-5, 0): ((-4, 1), (-4, 0), (-2, 2), _coeff_j0(-5)),
    (0, 1): ((1, 2), (1, 1), (3, 3), _coeff_j1(0)),
    (1, 1): ((2, 2), (2, 1), (4, 3), _coeff_j1(1)),
    (2, 1): ((3, 2), (3, 1), (5, 3), _coeff_j1(2)),
    (0, -1): ((1, -1), (1, 0), (3, 1), _coeff_jm1(0)),
    (1, -1): ((2, -1), (2, 0), (4, 1), _coeff_jm1(1)),
    (2, -1): ((3, -1), (3, 0), (4, 1), _coeff_jm1(2)),   # (a+b+4)/2 as printed
    (1, -2): ((2, -1), (2, -2), (4, 0), _coeff_jm2(1)),
    (-1, -2): ((0, -1), (0, -2), (2, 0), _coeff_jm2(-1)),
}
CASE_ORDER = tuple(_PRINTED_CASES)

_COEFF_TEST_POINTS = (
    (Fraction(2, 7), Fraction(3, 5), Fraction(5, 3)),
    (Fraction(1, 3), Fraction(7, 4), Fraction(9, 7)),
    (Fraction(3, 11), Fraction(8, 5), Fraction(13, 6)),
    (Fraction(5, 9), Fraction(2, 3), Fraction(11, 4)),
    (Fraction(7, 13), Fraction(9, 8), Fraction(4, 3)),
)


def _regenerated_case(i: int, j: int):
    """The same case regenerated from the main recurrence, laid out in the
    arrangement the printed text uses for that j."""
    if j == -1:
        lhs = (i + 1, j)
        rhs1 = (i + 1, j + 1)
        sign = 1
    else:
        lhs = (i + 1, j + 1)
        rhs1 = (i + 1, j)
        sign = -1
    rhs2 = (i + 3, j + 2)

    def coeff(a, b, c):
        return sign * 2 * a * b * c / ((2 * c + j) * (2 * c + j + 1) * (a + b + i + 1))

    return lhs, rhs1, rhs2, coeff


def transcription_diff(i: int, j: int) -> List[str]:
    """Compare the printed case at (i, j) against the regenerated one,
    slot by slot and coefficient by coefficient."""
    printed = _PRINTED_CASES[(i, j)]
    regen = _regenerated_case(i, j)
    flags = []
    slot_names = ("lhs series", "rhs unshifted series", "rhs shifted series")
    for slot, (po, ro) in enumerate(zip(printed[:3], regen[:3])):
        if po[0] != ro[0]:
            flags.append(
                f"case (i={i}, j={j}) {slot_names[slot]}: first denominator parameter "
                f"printed (a+b+{po[0]})/2 but regenerated (a+b+{ro[0]})/2")
        if po[1] != ro[1]:
            flags.append(
                f"case (i={i}, j={j}) {slot_names[slot]}: second denominator parameter "
                f"printed 2c+{po[1]} but regenerated 2c+{ro[1]}")
    for a, b, c in _COEFF_TEST_POINTS:
        if printed[3](a, b, c) != regen[3](a, b, c):
            flags.append(
                f"case (i={i}, j={j}): printed coefficient differs from the "
                f"regenerated 2abc/((2c+j)(2c+j+1)(a+b+i+1)) form at "
                f"(a,b,c)=({a},{b},{c})")
            break
    return flags


# --- samplers and probes ----------------------------------------------------

def _sample_abc(constraints: SampleConstraints, index: int, seed: int,
                ctx: PrecisionCtx, window) -> dict:
    """Random sample `index`: an (a, b, c) triple whose margin lies in window."""
    return dict(zip(_ABC, sample_params(seed, index, constraints, ctx, window)))


def _sample_at_cell(constraints_at: Callable, cell, index: int, seed: int,
                    ctx: PrecisionCtx, window) -> dict:
    """An (a, b, c) sample at lattice cell `cell`, or, when cell is None, at the
    grid cell that `index` walks to."""
    i, j = cell if cell is not None else GRID[index % len(GRID)]
    return {**_sample_abc(constraints_at(i, j), index, seed, ctx, window), "i": i, "j": j}


def _sample_macrobert(index: int, seed: int, ctx: PrecisionCtx, window) -> dict:
    rng = SplitMix64((seed ^ index) & MASK64)
    with ctx.working():
        ab_span = _span(*_AB_RANGE)
        a = rng.uniform(*ab_span)
        b = rng.uniform(*ab_span)
        x = rng.uniform(*_span(mpf("0.01"), (2 - mpmath.sqrt(2)) / 2 - mpf("0.01")))
    return {"a": a, "b": b, "x": x}


def _given_probes(keys: Tuple[str, ...], points, ctx: PrecisionCtx) -> List[dict]:
    return [dict(zip(keys, p)) for p in points]


def _exact_probes(evaluate: Callable, plan, ctx: PrecisionCtx) -> List[RelationInstance]:
    """For each (pool, (i, j), limit) of plan, the instances of the first
    `limit` pool triples that evaluate exactly at (i, j); only evaluability
    matters, not the residual.  Each is evaluated once: its task carries it."""
    out = []
    for pool, (i, j), limit in plan:
        found = 0
        for a, b, c in pool:
            inst = evaluate({"a": a, "b": b, "c": c, "i": i, "j": j}, ctx,
                            adjudication_tol(ctx))
            if inst.converged and inst.exact:
                out.append(inst)
                found += 1
            if found >= limit:
                break
    return out


_ABC = ("a", "b", "c")

_RECURRENCE_PROBE_POOL = (
    (Fraction(0), Fraction(3, 2), Fraction(5, 4)),
    (Fraction(-1), Fraction(1), Fraction(1)),
    (Fraction(-1), Fraction(1, 2), Fraction(2)),
    (Fraction(-2), Fraction(1), Fraction(2)),
    (Fraction(-1), Fraction(2), Fraction(3, 2)),
    (Fraction(-2), Fraction(3, 2), Fraction(3)),
)

_THREE_TERM_PROBE_POOL = (
    (Fraction(0), Fraction(1), Fraction(2)),
    (Fraction(0), Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(3, 2), Fraction(5, 4)),
    (Fraction(-1), Fraction(1), Fraction(2)),
)


def _case_id(i: int, j: int) -> str:
    return f"case_{str(i).replace('-', 'm')}_{str(j).replace('-', 'm')}"


# ---------------------------------------------------------------------------
# the relation table, in suite order

def _closed_form_row(form_id: str, anchor: str, expected_identity: bool,
                     probes) -> RelationDef:
    return RelationDef(
        relation_id=form_id, anchor=anchor, expected_identity=expected_identity,
        build_sample=partial(_sample_abc, _form_constraints(form_id)),
        evaluate=partial(_closed_form_instance, form_id),
        probes=partial(_given_probes, _ABC, probes))


def _lattice_row(relation_id: str, anchor: str, expected_identity: bool,
                 constraints_at: Callable, cell, probe_plan,
                 transcription: Optional[Callable] = None) -> RelationDef:
    evaluate = partial(_lattice_instance, relation_id)
    return RelationDef(
        relation_id=relation_id, anchor=anchor, expected_identity=expected_identity,
        build_sample=partial(_sample_at_cell, constraints_at, cell),
        evaluate=evaluate, probes=partial(_exact_probes, evaluate, probe_plan),
        transcription=transcription)


RELATIONS = {rel.relation_id: rel for rel in (
    _closed_form_row(
        "gauss", "unit-argument 2F1 summation in gamma form", True,
        ((Fraction(0), Fraction(5, 4), Fraction(7, 4)),
         (Fraction(-1), Fraction(3, 4), Fraction(5, 2)),
         (Fraction(1, 2), Fraction(1, 2), Fraction(2)))),
    _closed_form_row(
        "watson_00", "classical Watson summation, base lattice point (i=0, j=0)", True,
        ((Fraction(-1), Fraction(1), Fraction(1)),
         (Fraction(1), Fraction(1), Fraction(1)),
         (Fraction(2), Fraction(2), Fraction(2)),
         (Fraction(1, 2), Fraction(1, 2), Fraction(2)))),
    _closed_form_row(
        "lavoie_plus", "gamma closed form for the j=+1 lattice row", True,
        ((Fraction(1), Fraction(1), Fraction(1)),)),
    _closed_form_row(
        "lavoie_minus", "gamma closed form for the j=-1 lattice row, as printed "
        "(typo-suspect)", False,
        ((Fraction(1, 2), Fraction(1, 2), Fraction(2)),
         (Fraction(0), Fraction(1), Fraction(2)))),
    _lattice_row(
        "recurrence_16", "main two-index contiguous recurrence of the lattice", True,
        _recurrence_constraints, None,
        tuple((_RECURRENCE_PROBE_POOL, cell, 2)
              for cell in ((0, 0), (1, 0), (1, -1), (-2, 1), (2, -1)))),
    *(_lattice_row(
        _case_id(i, j),
        f"special case (i={i}, j={j}) of the main recurrence, "
        "regenerated and diffed against the printed text", True,
        _recurrence_constraints, (i, j), ((_RECURRENCE_PROBE_POOL, (i, j), 3),),
        transcription=partial(transcription_diff, i, j))
      for i, j in CASE_ORDER),
    _lattice_row(
        "three_term_printed", "cross-lattice three-term relation, printed form", False,
        _three_term_constraints, None, ((_THREE_TERM_PROBE_POOL, (0, 0), 3),)),
    _lattice_row(
        "three_term_corrected", "cross-lattice three-term relation, corrected candidate "
        "(re-derived by telescoping)", True,
        _three_term_constraints, None,
        ((_THREE_TERM_PROBE_POOL, (0, 0), 3),
         (((Fraction(-1), Fraction(1), Fraction(2)),
           (Fraction(0), Fraction(1, 2), Fraction(7, 4))), (0, 1), 2))),
    RelationDef(
        relation_id="thomae",
        anchor="fundamental 3F2(1) transformation with d=(a+b+1)/2, e=2c",
        expected_identity=True,
        build_sample=partial(_sample_abc, SampleConstraints(
            _solve_c_ij(0, 0), lambda a, b, c: _series_params(*_thomae_parts(a, b, c)[:2]),
            margins=lambda a, b, c: [a])),
        evaluate=_thomae_instance,
        probes=partial(_given_probes, _ABC,
                       ((Fraction(0), Fraction(3, 2), Fraction(5, 4)),
                        (Fraction(1, 2), Fraction(7, 10), Fraction(6, 5))))),
    RelationDef(
        relation_id="macrobert",
        anchor="quadratic transformation of the Gauss 2F1 under x -> 4x(1-x)",
        expected_identity=True, build_sample=_sample_macrobert,
        evaluate=_macrobert_instance,
        probes=partial(_given_probes, ("a", "b", "x"),
                       ((Fraction(3, 10), Fraction(9, 20), Fraction(0)),
                        (Fraction(3, 10), Fraction(9, 20), Fraction(1, 5)),
                        (Fraction(1, 2), Fraction(1, 4), Fraction(7, 25))))),
    RelationDef(
        relation_id="debranges",
        anchor="strict positivity of the terminating conformal-mapping 3F2(x) family",
        expected_identity=True, build_sample=None, evaluate=_debranges_instance,
        probes=partial(_given_probes, (), ()),
        fixed_grid=partial(_debranges_points, DEBRANGES_GRID)),
)}

SUITE_ORDER = tuple(RELATIONS)

EXPECTED_IDENTITY = tuple(r for r in SUITE_ORDER
                          if RELATIONS[r].expected_identity)


# ---------------------------------------------------------------------------
# verdicts and orchestration

def _evaluate_task(task) -> RelationInstance:
    """The instance at position index of a (relation_id, index, kind, sample,
    seed, ctx) task.  A random sample arrives as its draw number and is drawn
    here, in DEFAULT_WINDOW; grid points and given probes arrive as their sample
    dicts, and a probe the parent evaluated to choose it as that instance, which
    is not evaluated again."""
    relation_id, index, kind, sample, seed, ctx = task
    rel = RELATIONS[relation_id]
    if kind == "sample":
        try:
            sample = rel.build_sample(sample, seed, ctx, DEFAULT_WINDOW)
        except SamplingExhausted as exc:
            inst = _failed_instance(relation_id, {}, None, str(exc))
            return replace(inst, index=index, kind=kind)
    if isinstance(sample, RelationInstance):
        return replace(sample, index=index, kind=kind)
    inst = rel.evaluate(sample, ctx, adjudication_tol(ctx))
    return replace(inst, index=index, kind=kind)


@contextlib.contextmanager
def worker_pool(threads: int):
    """A context giving one process pool for every relation its block submits,
    or None (evaluate in this process) for threads <= 1 or when no pool can be
    started.  The pool has `threads` workers, at most one per CPU: a fork pool
    starts them all at its first task, and the report does not depend on their
    number.  The pool shuts down, joining its workers, on exit, so their CPU
    time and memory count as this process's children; on an exception, the
    tasks no worker has taken yet are cancelled first, not run."""
    pool = None
    if threads > 1:
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(threads, os.cpu_count() or 1))
        except OSError:
            pass
    if pool is None:
        yield None
        return
    try:
        yield pool
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()


def _run_tasks(tasks, pool):
    """Submit tasks and give their instances in task order, as an iterator.
    On pool every chunk is queued at once, a relation's tasks in chunks of
    len(tasks) // (workers * 4); in this process (pool None, a single task, or
    a pool that cannot take them) each task is evaluated as it is read."""
    if pool is not None and len(tasks) > 1:
        try:
            chunk = max(1, len(tasks) // (pool._max_workers * 4))
            return pool.map(_evaluate_task, tasks, chunksize=chunk)
        except OSError:
            pass
    return map(_evaluate_task, tasks)


def _judged(rel: RelationDef, ctx: PrecisionCtx, instances, minimum: int) -> RelationReport:
    """The report on a relation's evaluated instances, an iterable read once,
    under the one verdict rule stated in check_relation."""
    instances = tuple(instances)
    identity_floor = 10.0 ** (-ctx.digits / 3)
    counterexample = None
    all_within = True
    n_conv = 0
    worst = None
    for inst in instances:
        if not inst.converged:
            continue
        n_conv += 1
        res = float(inst.rel_residual)
        bounds = float(inst.eval_bounds) if inst.eval_bounds is not None else 0.0
        if worst is None or res > float(worst):
            worst = inst.rel_residual
        if res > max(identity_floor, 100 * bounds):
            all_within = False
        if counterexample is None and (res > max(0.01, 100 * bounds)
                                       or (inst.exact and inst.rel_residual != 0)):
            counterexample = inst
    if counterexample is not None:
        verdict = "not_identity"
    elif all_within and n_conv >= max(minimum, 1):
        verdict = "identity"
    else:
        verdict = "inconclusive"
    return RelationReport(
        relation_id=rel.relation_id, anchor=rel.anchor, samples=instances,
        verdict=verdict, worst_rel_residual=worst, counterexample=counterexample,
        transcription_flags=tuple(rel.transcription()) if rel.transcription else (),
        n_converged=n_conv)


def _submitted(relation_id: str, n_samples: int, seed: int, ctx: PrecisionCtx, pool):
    """Plan one relation and submit its tasks through _run_tasks: the
    (RelationDef, minimum converged count, instance iterator) that _judged
    reads.  Probes and grid points are built here, in this process, and travel
    with their tasks; random samples are drawn by index where they are
    evaluated."""
    rel = RELATIONS[relation_id]
    rel_seed = _relation_seed(seed, relation_id)
    if rel.fixed_grid is not None:
        grid = rel.fixed_grid(ctx)
        work = [("grid", p) for p in grid]
        minimum = len(grid)
    else:
        work = ([("probe", p) for p in rel.probes(ctx)]
                + [("sample", k) for k in range(n_samples)])
        minimum = n_samples
    tasks = [(relation_id, k, kind, sample, rel_seed, ctx)
             for k, (kind, sample) in enumerate(work)]
    return rel, minimum, _run_tasks(tasks, pool)


def check_relation(relation_id: str, n_samples: int, seed: int, ctx: PrecisionCtx,
                   pool=None) -> RelationReport:
    """Adjudicate one relation: deterministic probes plus n_samples random draws
    with margins in DEFAULT_WINDOW, or every point of its fixed grid.  The
    instances are evaluated on pool, an open worker_pool, or in this process
    when pool is None; the report does not depend on which.  run_suite passes
    instead its dict of relations already submitted by _submitted, keyed by
    relation id, and this call judges the relation's submission as its
    instances arrive.

    The verdict rule, over converged instances only: not_identity needs one
    whose residual clears both 0.01 and 100 x its evaluation bounds, or one
    that is exact with a nonzero residual (the first such is the
    counterexample); identity needs every residual inside
    max(10^(-digits/3), 100 x its bounds) and at least the requested number of
    converged instances (every grid point, for a grid), and never fewer than
    one; anything else is inconclusive.
    """
    if relation_id not in RELATIONS:
        raise UnknownRelation(relation_id)
    if isinstance(pool, dict):
        rel, minimum, instances = pool[relation_id]
    else:
        rel, minimum, instances = _submitted(relation_id, n_samples, seed, ctx, pool)
    return _judged(rel, ctx, instances, minimum)


def run_suite(seed: int, ctx: PrecisionCtx, samples: int = 100,
              threads: int = 1) -> List[RelationReport]:
    """Adjudicate every relation in the fixed published order.

    Residual evaluation is series-only, so no verdict feeds another.  The
    main recurrence always receives enough samples to touch every cell of the
    (i, j) grid.  Every relation is planned and its tasks submitted, in suite
    order, before the first is judged; then check_relation judges each in
    turn.  With threads > 1 one worker_pool takes all 29 relations' tasks in
    that order, so its workers compute while this process plans and judges;
    in one process each relation's instances are evaluated inside its own
    check_relation call, as they are judged.
    """
    counts = {rid: max(samples, len(GRID)) if rid == "recurrence_16" else samples
              for rid in SUITE_ORDER}
    with worker_pool(threads) as pool:
        submitted = {rid: _submitted(rid, n, seed, ctx, pool) for rid, n in counts.items()}
        return [check_relation(rid, n, seed, ctx, pool=submitted)
                for rid, n in counts.items()]
