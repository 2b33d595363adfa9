"""Sample records and per-relation reports shared by the lattice and verify layers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import mpmath
from mpmath import mpf

from .mpnum import PrecisionCtx, to_mpf_ambient

_FMT_DIGITS = 20


def fmt_num(x) -> Optional[str]:
    """Deterministic string form: Fractions exactly, mpf to 20 significant digits."""
    if x is None:
        return None
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, Fraction) or isinstance(x, int):
        return str(x)
    return mpmath.nstr(x, _FMT_DIGITS)


@dataclass(frozen=True, slots=True)
class RelationInstance:
    """One evaluated sample of a relation: both sides, residuals, and bounds.

    rel_residual = abs_residual / max(|lhs|, |rhs|, 1).  eval_bounds is the
    combined evaluation error of both sides on the same relative scale, so a
    residual is only meaningful when it clears the bounds.  Values stay exact
    Fractions whenever every constituent series terminated with rational data.
    """

    relation_id: str
    index: int
    kind: str                       # probe | sample | grid
    lattice_indices: Optional[Tuple[int, int]]
    params: dict
    lhs: object
    rhs: object
    abs_residual: object
    rel_residual: object
    eval_bounds: object
    converged: bool
    exact: bool = False
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "lattice_indices": list(self.lattice_indices) if self.lattice_indices else None,
            "params": {k: fmt_num(v) for k, v in self.params.items()},
            "lhs": fmt_num(self.lhs),
            "rhs": fmt_num(self.rhs),
            "abs_residual": fmt_num(self.abs_residual),
            "rel_residual": fmt_num(self.rel_residual),
            "eval_bounds": fmt_num(self.eval_bounds),
            "converged": self.converged,
            "exact": self.exact,
            "note": self.note,
        }


def finish_instance(relation_id: str, params: dict, lattice_indices, ctx: PrecisionCtx,
                    lhs, rhs, bound, converged: bool, exact: bool = False) -> RelationInstance:
    """The instance with both sides, its residuals, and bound on the relative scale.

    Two Fraction sides give exact residuals and bounds.  Otherwise each value is
    read as an mpf and every rounding happens inside ctx.working(8).
    """
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        abs_res = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs), Fraction(1))
        rel_res = abs_res / scale
        rel_bound = bound / scale
    else:
        with ctx.working(8):
            abs_res = abs(to_mpf_ambient(lhs) - to_mpf_ambient(rhs))
            scale = max(abs(to_mpf_ambient(lhs)), abs(to_mpf_ambient(rhs)), mpf(1))
            rel_res = +(abs_res / scale)
            rel_bound = +(to_mpf_ambient(bound) / scale)
            abs_res = +abs_res
    return RelationInstance(
        relation_id=relation_id, index=0, kind="probe", lattice_indices=lattice_indices,
        params=params, lhs=lhs, rhs=rhs, abs_residual=abs_res, rel_residual=rel_res,
        eval_bounds=rel_bound, converged=converged, exact=exact)


@dataclass(frozen=True)
class RelationReport:
    """Adjudication outcome for one relation under one seed and precision."""

    relation_id: str
    anchor: str
    samples: Tuple[RelationInstance, ...]
    verdict: str                    # identity | not_identity | inconclusive
    worst_rel_residual: object
    counterexample: Optional[RelationInstance]
    transcription_flags: Tuple[str, ...] = ()
    n_converged: int = 0

    def as_dict(self, include_samples: bool = False) -> dict:
        out = {
            "relation_id": self.relation_id,
            "paper_anchor": self.anchor,
            "verdict": self.verdict,
            "n_samples": len(self.samples),
            "n_converged": self.n_converged,
            "worst_rel_residual": fmt_num(self.worst_rel_residual),
            "counterexample": self.counterexample.as_dict() if self.counterexample else None,
            "transcription_flags": list(self.transcription_flags),
        }
        if include_samples:
            out["samples"] = [s.as_dict() for s in self.samples]
        return out

    def csv_rows(self):
        """Each sample's as_dict, its lattice indices split into i and j and
        its params spread into param_* fields."""
        for s in self.samples:
            row = s.as_dict()
            i, j = row.pop("lattice_indices") or (None, None)
            params = row.pop("params")
            yield {"relation_id": self.relation_id, "i": i, "j": j, **row,
                   **{f"param_{k}": v for k, v in params.items()}}
