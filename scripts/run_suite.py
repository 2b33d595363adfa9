#!/usr/bin/env python3
"""Run the full adjudication suite and print a verdict table.

Writes the machine-readable report next to this script unless --out is given.

    python scripts/run_suite.py --digits 30 --samples 50 --out report.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from watsonlab import verify                                    # noqa: E402
from watsonlab.cli import RunConfig, suite_document             # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=30)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    ap.add_argument("--threads", type=int, default=1,
                    help="number of worker processes (default 1)")
    ap.add_argument("--out", default="suite_report.json")
    args = ap.parse_args()

    cfg = RunConfig(digits=args.digits, seed=args.seed, samples=args.samples,
                    threads=args.threads)
    t0 = time.time()
    reports = verify.run_suite(cfg.seed, cfg.ctx(), samples=cfg.samples,
                               threads=cfg.threads)
    elapsed = time.time() - t0

    width = max(len(r.relation_id) for r in reports)
    for r in reports:
        flag = " *" if r.transcription_flags else ""
        print(f"{r.relation_id:<{width}}  {r.verdict:<13} "
              f"worst_rel_residual={r.worst_rel_residual}{flag}")
    for r in reports:
        for f in r.transcription_flags:
            print(f"  transcription: {f}")
        if r.counterexample is not None:
            ce = r.counterexample
            print(f"  counterexample[{r.relation_id}]: params={ce.as_dict()['params']} "
                  f"lhs={ce.as_dict()['lhs']} rhs={ce.as_dict()['rhs']}")

    Path(args.out).write_text(json.dumps(suite_document(reports, cfg), indent=2) + "\n")
    bad = [r.relation_id for r in reports
           if r.relation_id in verify.EXPECTED_IDENTITY and r.verdict != "identity"]
    print(f"\n{len(reports)} relations in {elapsed:.1f}s -> {args.out}")
    if bad:
        print("FAILED expected identities:", ", ".join(bad))
        return 1
    print("all expected identities verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
