"""Run the benchmark over two sets of ten seeds and record the baseline.

    python3 perfbench/collect.py

Writes perfbench/baseline.json.  For each workload: a set of ten untraced
runs at seeds 1..10, then, after every workload has had its first set, a
second set at seeds 11..20, and last one traced run at seed 1.  Records, per
set and end-to-end metric, the median and quartiles of the ten values and the
spread (q3 - q1) / median; how far the second median moved from the first,
in the metric's worse direction; the traced run's per-layer numbers; and the
line count of ``src/watsonlab`` (ungated, for design work).  Prints a flag
where a spread reaches a third of the metric's bound or a median moved by
more than the bound.  Runs one benchmark process at a time.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SETS = (list(range(1, 11)), list(range(11, 21)))
sys.path.insert(0, str(HERE))

from run import WORKLOADS, quartiles  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "watsonlab").glob("*.py"))


def summarise(wl: str, seeds, results, spec) -> dict:
    entry = {"seeds": seeds,
             "attempted": sum(r["attempted"] for r in results),
             "failed": sum(r["failed"] for r in results),
             "all_correct": all(r["correct"] for r in results),
             "end_to_end": {}}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        entry["end_to_end"][name] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values), "values": values}
        flag = "" if spread < m["bound"] / 3 else "  <-- spread at or above bound/3"
        print(f"{wl:14s} {name:16s} median {med:12.6g}  spread {spread:7.2%}"
              f"  bound {m['bound']:.0%}{flag}", flush=True)
    print(f"{wl:14s} failed {entry['failed']} of {entry['attempted']}", flush=True)
    return entry


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "src_watsonlab_lines": src_lines(),
               "workloads": {wl: {"sets": []} for wl in WORKLOADS}}
    for seeds in SETS:
        for wl in WORKLOADS:
            results = [bench(wl, seed, seconds, 0) for seed in seeds]
            summary["workloads"][wl]["sets"].append(summarise(wl, seeds, results, spec))
    for wl, entry in summary["workloads"].items():
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["worse_by"] = {}
        for m in spec["end_to_end"]:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            worse = sign * (second[name]["median"] - first[name]["median"]) / first[name]["median"]
            entry["worse_by"][name] = worse
            flag = "" if worse <= m["bound"] else "  <-- beyond bound"
            print(f"{wl:14s} {name:16s} second median worse by {worse:7.2%}"
                  f"  bound {m['bound']:.0%}{flag}", flush=True)
        traced = bench(wl, 1, seconds, 1)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
