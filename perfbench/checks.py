"""Output checks and the independent oracles behind them.

The checks run outside the timed region.  The oracles:

* terminating points are summed here with ``Fraction`` arithmetic;
* non-terminating points are compared with ``mpmath.hyp3f2`` values stored
  in ``reference.json`` for the default seed (about 30 s a point at 140
  digits, too slow to recompute in a run; at 110 digits hyp3f2 lost up to 17
  digits on points with excess near 0.78); at other seeds each one is re-evaluated
  with ``eval_point`` at 115 digits instead, whose own bound and rounding
  are then about 10^-13 of the bound under test;
* closed forms are recomputed from their printed gamma formulas with
  ``mpmath.gamma``, and ``reduce_to_watson`` by walking the main recurrence
  down to Watson's formula, again with ``mpmath.gamma``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import mpmath
from mpmath import mpf

from watsonlab import PrecisionCtx
from watsonlab.lattice import WatsonPoint, eval_point

import workloads
from workloads import Op

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ORACLE_DPS = 120
HYP3F2_DPS = 140
RECHECK_DIGITS = 115      # precision of the re-evaluation at other seeds

EXPECTED_REFUTED = ("lavoie_minus", "three_term_printed")
FLAGGED_CASE = "case_2_m1"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- suite ------------------------------------------------------------------

def suite_failures(reports, data: bytes, other_data: Optional[bytes], seed: int,
                   reference: dict) -> Dict[str, str]:
    """Failed checks of one suite report, keyed by relation id or ``report``.

    ``other_data`` is the same suite run with the other process count; the
    reference hash applies only at the seed it was recorded for.
    """
    out = {}
    if seed == reference["seed"] and sha256(data) != reference["suite_sha256"]:
        out["report"] = f"sha256 {sha256(data)} != recorded {reference['suite_sha256']}"
    elif other_data is not None and data != other_data:
        out["report"] = "report bytes differ between 1 and 2 processes"
    for rep in reports:
        want = "not_identity" if rep.relation_id in EXPECTED_REFUTED else "identity"
        if rep.verdict != want:
            out[rep.relation_id] = f"verdict {rep.verdict}, expected {want}"
        elif (rep.relation_id == FLAGGED_CASE) != bool(rep.transcription_flags):
            out[rep.relation_id] = f"transcription flags {list(rep.transcription_flags)}"
    return out


def suite_failed_ops(reports, failures: Dict[str, str]) -> int:
    """Relation instances covered by failed checks; a bad report fails them all."""
    if "report" in failures:
        return sum(len(r.samples) for r in reports)
    return sum(len(r.samples) for r in reports if r.relation_id in failures)


# --- oracles ----------------------------------------------------------------

def exact_sum(a: Fraction, b: Fraction, c: Fraction, i: int, j: int) -> Fraction:
    """f_{i,j}(a,b,c) for a = -m, summed term by term in Fractions."""
    d1, d2 = (a + b + i + 1) / 2, 2 * c + j
    term, total = Fraction(1), Fraction(1)
    for n in range(-a.numerator):
        term = term * (a + n) * (b + n) * (c + n) / ((d1 + n) * (d2 + n) * (n + 1))
        total += term
    return total


def hyp3f2_ref(a, b, c, i, j) -> mpf:
    with mpmath.workdps(HYP3F2_DPS):
        a, b, c = mpf(a), mpf(b), mpf(c)
        return mpmath.hyp3f2(a, b, c, (a + b + i + 1) / 2, 2 * c + j, 1)


def _g(x):
    return mpmath.gamma(x)


def _watson(a, b, c):
    h = mpf(1) / 2
    return (_g(h) * _g(c + h) * _g((a + b) / 2 + h) * _g(c - (a + b) / 2 + h)
            / (_g((a + 1) / 2) * _g((b + 1) / 2) * _g(c - a / 2 + h) * _g(c - b / 2 + h)))


def _lavoie(a, b, c, down: bool):
    h = mpf(1) / 2
    s = -h if down else h
    shift = 0 if down else 1
    pref = (mpf(2) ** (a + b - 2) * _g(c + s) * _g((a + b) / 2 + h) * _g(c - (a + b) / 2 + s)
            / (_g(h) * _g(a) * _g(b)))
    first = _g(a / 2) * _g(b / 2) / (_g(c - a / 2 + s) * _g(c - b / 2 + s))
    second = (_g((a + 1) / 2) * _g((b + 1) / 2)
              / (_g(c - a / 2 + shift) * _g(c - b / 2 + shift)))
    return pref * (first - second)


def _reduced(a, b, c, j):
    """f_{0,j} from the main recurrence,
    f_{0,j}(a,b,c) = f_{0,j-1}(a,b,c) - 2abc/((a+b+1)(2c+j-1)(2c+j)) f_{0,j-1}(a+1,b+1,c+1)."""
    if j == 0:
        return _watson(a, b, c)
    w = 2 * a * b * c / ((a + b + 1) * (2 * c + j - 1) * (2 * c + j))
    return _reduced(a, b, c, j - 1) - w * _reduced(a + 1, b + 1, c + 1, j - 1)


def gamma_ref(op: Op) -> mpf:
    with mpmath.workdps(ORACLE_DPS):
        a, b, c = (mpf(v) for v in op.params[:3])
        if op.kind == "gauss":
            return +(_g(c) * _g(c - a - b) / (_g(c - a) * _g(c - b)))
        if op.kind == "watson_00":
            return +_watson(a, b, c)
        if op.kind in ("lavoie_plus", "lavoie_minus"):
            return +_lavoie(a, b, c, down=op.kind == "lavoie_minus")
        return +_reduced(a, b, c, op.params[4])


# --- streams ----------------------------------------------------------------

def eval_refs(ops: List[Op], seed: int, reference: dict) -> Dict[int, mpf]:
    """Reference values for non-terminating eval points, by op index."""
    if seed == reference["seed"]:
        with mpmath.workdps(HYP3F2_DPS):
            return {int(k): mpf(v) for k, v in reference["eval_d100"].items()}
    ctx = PrecisionCtx(digits=RECHECK_DIGITS, pole_guard=workloads.POLE_GUARD)
    tol = mpf(10) ** (2 - RECHECK_DIGITS)
    return {k: eval_point(WatsonPoint(*op.params), ctx, tol=tol, use_closed_forms=False).value
            for k, op in enumerate(ops) if not isinstance(op.params[0], Fraction)}


def op_failure(op: Op, result, ref) -> Optional[str]:
    """Why one stream result is wrong, or None; terminating points need no ``ref``."""
    with mpmath.workdps(ORACLE_DPS):
        if op.kind == "eval":
            if isinstance(op.params[0], Fraction):
                want = exact_sum(*op.params)
                if result.exact_value != want:
                    return f"exact value {result.exact_value} != {want}"
                return None
            if not result.converged or result.abs_err_bound > workloads.stream_tol():
                return f"not converged to tolerance (bound {mpmath.nstr(result.abs_err_bound, 5)})"
            err = abs(result.value - ref)
            if err <= result.abs_err_bound:
                return None
            why = (f"|value - ref| = {mpmath.nstr(err, 5)} > "
                   f"abs_err_bound {mpmath.nstr(result.abs_err_bound, 5)}")
            prec = workloads.stream_ctx().prec
            half_ulp = abs(result.value) * mpf(2) ** -prec
            if err <= result.abs_err_bound + half_ulp:
                # still a failure: the bound must cover the value as returned
                why += (f" (the excess fits in the rounding of the value to {prec} bits, "
                        f"{mpmath.nstr(half_ulp, 5)}, which the bound leaves out)")
            return why
        value = result.value if op.kind == "reduce" else result
        allowed = max(abs(ref), 1) * mpf(10) ** (6 - workloads.STREAM_DIGITS)
        if abs(value - ref) > allowed:
            return f"|value - ref| = {mpmath.nstr(abs(value - ref), 5)} > {mpmath.nstr(allowed, 5)}"
        return None


def stream_refs(ops: List[Op], seed: int, reference: dict) -> Dict[int, mpf]:
    if ops[0].kind == "eval":
        return eval_refs(ops, seed, reference)
    return {k: gamma_ref(op) for k, op in enumerate(ops)}
