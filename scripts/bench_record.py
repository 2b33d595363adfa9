#!/usr/bin/env python3
"""Record paired benchmark runs of a parent and a change checkout in BENCH_<sha>.json.

Runs the command of the change checkout's BENCHMARK.json (perfbench/run.py)
inside each checkout, pair by pair: pair i uses seed 11 + i (the second
seed set of perfbench/collect.py) and run_seconds from BENCHMARK.json, and
the parent runs first in even pairs, the change in odd ones, so host drift
falls on both sides alike.  The script writes only the record; run.py
itself leaves the checkouts as they are.

The record holds every run's end-to-end metrics, correctness and report
SHA-256, and per metric each side's median and quartiles (perfbench's
quartiles), the change in the median, the number of pairs the change won,
and whether that shows a gain: the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's quartile spread.
Beside the gain rule it gives each pair's ratio change/parent, with the
median and quartiles of those ratios: a host that drifts during a record
widens the parent's spread, but each pair runs both sides back to back, so
the ratios keep the change apart from the drift.
Each metric also reads its bound from BENCHMARK.json and stores
worse_than_bound when the change's median is worse than the parent's by more
than that fraction of it, the no-regression rule those bounds set; such a
metric is printed with OVER BOUND.
Each run also records its pass count, read from run.py's wall_s line, and
each workload the median pass count per side, printed as `passes 24 -> 30`:
a faster program fits more passes into run_seconds, and perfbench keeps
every pass's reports, so peak_rss_mb is read beside it.
It also holds each checkout's commit and the line count of its
src/watsonlab, as that checkout's perfbench/collect.py counts it.

    python scripts/bench_record.py --parent ../parent --change . \\
        --workload suite_d30 --workload gamma_d100 --pairs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from run import quartiles  # noqa: E402

REPORT_SHA = "report sha256 "
WALL_LINE = "wall_s "
FIRST_SEED = 11
SRC_LINES = "import sys; sys.path.insert(0, 'perfbench'); from collect import src_lines; print(src_lines())"


def checkout(path: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    lines = subprocess.run([sys.executable, "-c", SRC_LINES], cwd=path, capture_output=True,
                           text=True, check=True).stdout.strip()
    return {"sha": git("rev-parse", "--short", "HEAD"),
            "dirty": bool(git("status", "--porcelain")), "src_watsonlab_lines": int(lines)}


def run_once(path: Path, command, workload: str, seed: int, seconds) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds)],
                         cwd=path, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    shas = [ln[len(REPORT_SHA):] for ln in lines if ln.startswith(REPORT_SHA)]
    passes = [int(ln.rsplit("n=", 1)[1]) for ln in lines if ln.startswith(WALL_LINE)]
    return {"exit": out.returncode, "correct": result.get("correct", False),
            "attempted": result.get("attempted"), "failed": result.get("failed"),
            "report_sha256": shas[0] if shas else None,
            "passes": passes[0] if passes else None,
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            "elapsed_s": round(time.perf_counter() - t0, 2)}


def summarize(pairs, spec, bounds=None) -> dict:
    """Per metric of spec (name -> "lower" or "higher"), each side's median and
    quartiles, the gain rule, the pair ratios and, for a metric with a bound
    in bounds (name -> fraction), whether the change is worse than the parent
    by more than that bound."""
    out = {}
    for name, better in spec.items():
        sides = {}
        for side in ("parent", "change"):
            q1, med, q3 = quartiles([p[side]["metrics"][name] for p in pairs])
            sides[side] = {"median": med, "q1": q1, "q3": q3}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (p["parent"]["metrics"][name] - p["change"]["metrics"][name]) > 0
                   for p in pairs)
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        ratios = [p["change"]["metrics"][name] / p["parent"]["metrics"][name]
                  for p in pairs if p["parent"]["metrics"][name]]
        ratio = None
        if ratios:
            q1, med, q3 = quartiles(ratios)
            ratio = {"median": med, "q1": q1, "q3": q3}
        bound = (bounds or {}).get(name)
        out[name] = {
            "better": better, **sides, "bound": bound,
            "worse_than_bound": (bound is not None
                                 and sign * (change - parent) > bound * abs(parent)),
            "change_pct": 100 * (change - parent) / parent if parent else None,
            "ratio": ratio,
            "change_wins": wins, "pairs": len(pairs),
            "gain_shown": wins >= 0.9 * len(pairs) and sign * (parent - change) > spread,
        }
    return out


def median_passes(pairs) -> dict:
    """Each side's median pass count over the runs that printed one."""
    out = {}
    for side in ("parent", "change"):
        counts = [p[side]["passes"] for p in pairs if p[side].get("passes") is not None]
        out[side] = statistics.median(counts) if counts else None
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; repeat for more")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    ap.add_argument("--out", type=Path, help="output path (default BENCH_<change sha>.json)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    command = bench["command"]
    spec = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {side: checkout(path) for side, path in dirs.items()}
    record.update(command=command, run_seconds=bench["run_seconds"], workloads={})
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], command, workload, seed, bench["run_seconds"])
                print(f"{workload} seed {seed} {side}: correct {pair[side]['correct']} "
                      f"wall_s {pair[side]['metrics'].get('wall_s')} "
                      f"passes {pair[side]['passes']}", file=sys.stderr)
            pairs.append(pair)
        ok = all(p[s]["correct"] and p[s]["metrics"] for p in pairs for s in dirs)
        record["workloads"][workload] = {
            "all_correct": ok,
            "report_sha256": {s: sorted({p[s]["report_sha256"] for p in pairs} - {None})
                              for s in dirs},
            "passes": median_passes(pairs),
            "metrics": summarize(pairs, spec, bounds) if ok else None,
            "pairs": pairs,
        }
    out = args.out or Path(f"BENCH_{record['change']['sha']}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, w in record["workloads"].items():
        print(f"{workload:13s} passes {w['passes']['parent']} -> {w['passes']['change']}")
        for name, m in (w["metrics"] or {}).items():
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
            r = m["ratio"]
            ratio = "n/a" if r is None else f"{r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]"
            print(f"{workload:13s} {name:16s} {m['parent']['median']:12.6g} -> "
                  f"{m['change']['median']:12.6g}  {pct:>8s}  ratio {ratio}  "
                  f"wins {m['change_wins']}/{m['pairs']}  gain {m['gain_shown']}"
                  + ("  OVER BOUND" if m["worse_than_bound"] else ""))
        if not w["all_correct"]:
            print(f"{workload}: some run was not correct; see {out}")
    print(f"wrote {out}")
    return 0 if all(w["all_correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
