"""Seeded inputs for the four benchmark workloads, and the code each one runs.

Every input is drawn before timing starts.  Random lattice points come from
the public samplers of the relations they belong to (``RELATIONS[...]
.build_sample``), so each point satisfies that relation's convergence and
pole constraints and no call is refused.  Terminating points are exact
rationals whose denominators stay clear of the pole guard.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

from mpmath import mpf

from watsonlab import PrecisionCtx, closedform, lattice, verify
from watsonlab.cli import RunConfig, suite_document

DEFAULT_SEED = 0xC0FFEE          # the CLI's default sampling seed

SUITE_DIGITS = 30
SUITE_SAMPLES = 25
STREAM_DIGITS = 100
POLE_GUARD = 0.05

EVAL_POINTS = 100                # one in five terminating
GAMMA_CALLS = 500                # one in five of each kind
GAMMA_KINDS = ("gauss", "watson_00", "lavoie_plus", "lavoie_minus", "reduce")

def stream_ctx() -> PrecisionCtx:
    return PrecisionCtx(digits=STREAM_DIGITS, pole_guard=POLE_GUARD)


def stream_tol():
    """Full tolerance 10^(2 - digits), as the ``eval`` command uses."""
    return mpf(10) ** (2 - STREAM_DIGITS)


@dataclass(frozen=True)
class Suite:
    """One adjudication suite: its seed and process count."""

    seed: int
    processes: int

    def config(self) -> RunConfig:
        return RunConfig(digits=SUITE_DIGITS, seed=self.seed, samples=SUITE_SAMPLES,
                         pole_guard=POLE_GUARD, threads=self.processes)

    def adjudicate(self):
        cfg = self.config()
        return verify.run_suite(cfg.seed, cfg.ctx(), samples=cfg.samples,
                                threads=cfg.threads)

    def serialize(self, reports) -> bytes:
        """The report bytes, encoded as the CLI's ``suite --output json`` does."""
        return (json.dumps(suite_document(reports, self.config()), indent=2) + "\n").encode()

    def digest_text(self) -> str:
        return f"suite seed={self.seed} digits={SUITE_DIGITS} samples={SUITE_SAMPLES}"


@dataclass(frozen=True)
class Op:
    """One public call of a stream workload."""

    kind: str            # eval | gauss | watson_00 | lavoie_plus | lavoie_minus | reduce
    params: Tuple        # (a, b, c, i, j) for eval and reduce, (a, b, c) otherwise

    def call(self, ctx: PrecisionCtx):
        # looked up through the modules at call time, so a tracer sees the calls
        if self.kind == "eval":
            return lattice.eval_point(lattice.WatsonPoint(*self.params), ctx,
                                      tol=stream_tol(), use_closed_forms=False)
        if self.kind == "reduce":
            return lattice.reduce_to_watson(lattice.WatsonPoint(*self.params), ctx)
        return closedform.FORM_FUNCS[self.kind](*self.params, ctx)

    def text(self) -> str:
        return self.kind + " " + " ".join(_num_text(v) for v in self.params)


def _num_text(v) -> str:
    if isinstance(v, mpf):
        return f"{v.man}*2^{v.exp}"      # exact, whatever the ambient precision
    return str(v)


def _clear_of_poles(d: Fraction) -> bool:
    k = min(0, round(d))
    return abs(d - k) > Fraction(POLE_GUARD)


def _terminating_point(rng: random.Random) -> Tuple:
    """a = -m with positive rational b, c; both denominators clear of poles."""
    while True:
        m = rng.randint(1, 12)
        b = Fraction(rng.randint(1, 36), rng.randint(1, 12))
        c = Fraction(rng.randint(1, 36), rng.randint(1, 12))
        i, j = rng.choice(verify.GRID)
        a = Fraction(-m)
        if _clear_of_poles((a + b + i + 1) / 2) and _clear_of_poles(2 * c + j):
            return (a, b, c, i, j)


def eval_ops(seed: int) -> List[Op]:
    """EVAL_POINTS lattice points; sampled ones walk the (i, j) grid in order."""
    ctx = stream_ctx()
    sampler = verify.RELATIONS["recurrence_16"].build_sample
    rng = random.Random(seed)
    ops = []
    sampled = 0
    for k in range(EVAL_POINTS):
        if k % 5 == 4:
            ops.append(Op("eval", _terminating_point(rng)))
            continue
        s = sampler(sampled, seed, ctx, verify.DEFAULT_WINDOW)
        sampled += 1
        ops.append(Op("eval", (s["a"], s["b"], s["c"], s["i"], s["j"])))
    return ops


def gamma_ops(seed: int) -> List[Op]:
    """GAMMA_CALLS closed-form calls; each kind draws from its own relation's
    sampler (reduce from watson_00's) at its own block of sample indices."""
    ctx = stream_ctx()
    rng = random.Random(seed)
    ops = []
    for k in range(GAMMA_CALLS):
        kind = GAMMA_KINDS[k % len(GAMMA_KINDS)]
        rel = "watson_00" if kind == "reduce" else kind
        index = 1000 * GAMMA_KINDS.index(kind) + k // len(GAMMA_KINDS)
        s = verify.RELATIONS[rel].build_sample(index, seed, ctx, verify.DEFAULT_WINDOW)
        if kind == "reduce":
            ops.append(Op(kind, (s["a"], s["b"], s["c"], 0, rng.randint(1, 3))))
        else:
            ops.append(Op(kind, (s["a"], s["b"], s["c"])))
    return ops


# workload name -> seed -> inputs: a Suite, or the list of Ops of a stream
WORKLOADS: Dict[str, Callable[[int], Any]] = {
    "suite_d30": lambda seed: Suite(seed, 1),
    "suite_d30_p2": lambda seed: Suite(seed, 2),
    "eval_d100": eval_ops,
    "gamma_d100": gamma_ops,
}


def digest_of(inputs) -> str:
    """SHA-256 of the exact inputs, so two runs can show they used the same ones."""
    texts = [inputs.digest_text()] if isinstance(inputs, Suite) else [op.text() for op in inputs]
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() + b"\n")
    return h.hexdigest()
