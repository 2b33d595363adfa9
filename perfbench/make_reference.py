"""Record the default-seed references that run.py checks against.

Writes perfbench/reference.json: the input digest of every workload, the
SHA-256 of the suite report, and an ``mpmath.hyp3f2`` value for every
non-terminating eval_d100 point.  The hyp3f2 values take about 30 s each at
140 digits, so a full refresh takes roughly 40 minutes on one core.  Re-run
it only when the workload inputs or the suite configuration change:

    python3 perfbench/make_reference.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    inputs = {name: make(seed) for name, make in workloads.WORKLOADS.items()}
    data, data_p2 = (suite.serialize(suite.adjudicate())
                     for suite in (inputs["suite_d30"], inputs["suite_d30_p2"]))
    if data != data_p2:
        print("suite reports differ between 1 and 2 processes", file=sys.stderr)
        return 1
    refs = {}
    for k, op in enumerate(inputs["eval_d100"]):
        if not isinstance(op.params[0], Fraction):
            with mpmath.workdps(checks.HYP3F2_DPS):
                refs[str(k)] = mpmath.nstr(checks.hyp3f2_ref(*op.params), checks.HYP3F2_DPS)
            print(f"eval_d100[{k}] done", file=sys.stderr, flush=True)
    doc = {
        "seed": seed,
        "inputs": {name: workloads.digest_of(v) for name, v in inputs.items()},
        "suite_sha256": checks.sha256(data),
        "eval_d100": refs,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
