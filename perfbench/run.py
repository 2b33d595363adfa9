"""The watsonlab benchmark.

    python3 perfbench/run.py --workload suite_d30 --seed 1 --seconds 20 --trace 0

Runs one workload against the public API of the package in ``src/``, closed
loop from this one process: every input is drawn from ``--seed`` before
timing, then whole passes over the inputs repeat for about ``--seconds``.
Nothing is warmed up, since every CLI call pays mpmath's lazy set-up too.
Outputs are checked after timing.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("suite_d30", "suite_d30_p2", "eval_d100", "gamma_d100")
SETUP_SAMPLES = 15         # this process plus 14 fresh interpreters

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="watsonlab benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                   help="input seed (default: the CLI's 0xC0FFEE)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and draw the inputs, print the time taken, exit")
    return p.parse_args(argv)


def setup(workload: str, seed):
    """Import watsonlab from this checkout and draw the inputs."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import watsonlab
    if Path(watsonlab.__file__).resolve().parent != SRC / "watsonlab":
        raise SystemExit(f"watsonlab imported from {watsonlab.__file__}, not from {SRC}")
    import workloads
    if seed is None:
        seed = workloads.DEFAULT_SEED
    inputs = workloads.WORKLOADS[workload](seed)
    return seed, inputs, time.perf_counter() - t0


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=HERE.parent)
    return float(out.stdout.split()[-1])


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


class Pass:
    """One timed pass over a workload's inputs."""

    def __init__(self, tracer, traced: bool):
        self.tracer = tracer
        self.traced = traced
        self.wall = self.cpu = self.serialize_s = 0.0
        self.ops = 0
        self.latencies = []        # seconds per op, or per relation in a suite
        self.results = None        # stream results, or (reports, report bytes)


def suite_pass(suite, tracer, traced: bool) -> Pass:
    p = Pass(tracer, traced)
    c0, t0 = cpu_seconds(), time.perf_counter()
    with tracer.installed():
        reports = suite.adjudicate()
    t1 = time.perf_counter()
    data = suite.serialize(reports)
    t2 = time.perf_counter()
    p.wall, p.cpu, p.serialize_s = t2 - t0, cpu_seconds() - c0, t2 - t1
    p.ops = sum(len(r.samples) for r in reports)
    p.latencies = [s.duration for s in tracer.spans
                   if s.name == "verify.check_relation" and s.parent < 0]
    p.results = (reports, data)
    return p


def stream_pass(ops, ctx, tracer, traced: bool) -> Pass:
    p = Pass(tracer, traced)
    results, lat = [], []
    c0, t0 = cpu_seconds(), time.perf_counter()
    with tracer.installed():
        for op in ops:
            t = time.perf_counter()
            try:
                results.append(op.call(ctx))
            except Exception as exc:        # counted as a failed op
                results.append(exc)
            lat.append(time.perf_counter() - t)
    p.wall, p.cpu = time.perf_counter() - t0, cpu_seconds() - c0
    p.ops, p.latencies, p.results = len(ops), lat, results
    return p


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def trace_overhead(walls):
    """(overhead, noise) from (wall, traced) per pass in run order.

    The overhead is the median over traced passes of the pass minus the mean
    of the untraced passes either side of it, so a steady drift cancels out.
    The noise is the range of the warm untraced passes (all but the first);
    an overhead no larger than it is not resolved.
    """
    overheads = [w - (walls[k - 1][0] + walls[k + 1][0]) / 2
                 for k, (w, traced) in enumerate(walls) if traced]
    warm = [w for w, traced in walls[1:] if not traced]
    return statistics.median(overheads), max(warm) - min(warm)


def run(args) -> int:
    seed, inputs, setup0 = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup0))
        return 0
    import checks
    import spans
    import workloads

    reference = checks.load_reference()
    digest = workloads.digest_of(inputs)
    print(f"workload {args.workload}  seed {seed}  inputs sha256 {digest}")
    is_suite = isinstance(inputs, workloads.Suite)
    ctx = workloads.stream_ctx()

    def one_pass(traced: bool) -> Pass:
        # untraced suite passes still time each check_relation call, for latency
        if is_suite:
            names = spans.TRACED if traced else ("verify.check_relation",)
            return suite_pass(inputs, spans.Tracer(names), traced)
        return stream_pass(inputs, ctx, spans.Tracer(spans.TRACED if traced else ()), traced)

    # the first pass is untraced and cold; with --trace 1 a warm untraced pass
    # follows, then traced and untraced passes alternate and end untraced, so
    # every traced pass has a warm untraced pass on either side
    passes = [one_pass(False)]
    if args.trace:
        passes.append(one_pass(False))
        for _ in range(max(1, round(args.seconds / (2 * passes[0].wall)))):
            passes += [one_pass(True), one_pass(False)]
    else:
        while len(passes) < round(args.seconds / passes[0].wall):
            passes.append(one_pass(False))
    rss = peak_rss_mb()
    setups = [setup0] + [setup_in_fresh_interpreter(args.workload, seed)
                         for _ in range(SETUP_SAMPLES - 1)]

    # --- output checks, outside the timed region
    failed, attempted = 0, sum(p.ops for p in passes)
    if seed == reference["seed"] and digest != reference["inputs"][args.workload]:
        print("check failed: inputs differ from the recorded default-seed inputs")
        failed = attempted
    elif is_suite:
        reports, data = passes[0].results
        other = workloads.Suite(seed, 3 - inputs.processes)
        failures = checks.suite_failures(reports, data, other.serialize(other.adjudicate()),
                                         seed, reference)
        if any(p.results[1] != data for p in passes):
            failures["report"] = "report bytes differ between passes"
        for key, why in failures.items():
            print(f"check failed: {key}: {why}")
        failed = len(passes) * checks.suite_failed_ops(reports, failures)
        print(f"report sha256 {checks.sha256(data)}")
    else:
        refs = checks.stream_refs(inputs, seed, reference)
        for n, p in enumerate(passes):
            for k, (op, res) in enumerate(zip(inputs, p.results)):
                why = (f"raised {res!r}" if isinstance(res, Exception)
                       else checks.op_failure(op, res, refs.get(k)))
                if why:
                    failed += 1
                    print(f"check failed: pass {n} op {k} ({op.kind} {op.params[3:]}): {why}")
        print(f"checked {len(refs)} values against references")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.6g}")

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    series = {
        "setup_s": setups,
        "wall_s": [p.wall for p in untraced],
        "ops_per_s": [p.ops / p.wall for p in untraced],
        "cpu_s": [p.cpu for p in untraced],
    }
    # each op's (or relation's) median over the untraced passes, so a burst of
    # host noise in one pass does not fill the top of the distribution
    lat_ms = [1e3 * statistics.median(op) for op in zip(*(p.latencies for p in untraced))]
    e2e = {name: quartiles(v)[1] for name, v in series.items()}
    e2e["latency_p50_ms"] = statistics.median(lat_ms)
    e2e["latency_p90_ms"] = percentile(lat_ms, 90)
    e2e["peak_rss_mb"] = rss
    for name, unit in END_TO_END.items():
        values = series.get(name)
        if values is not None:
            q1, med, q3 = quartiles(values)
            print(f"{name:16s} {med:12.6g} {unit:4s} [q1 {q1:.6g}, q3 {q3:.6g}] n={len(values)}")
        else:
            n = len(lat_ms) if name.startswith("latency") else 1
            print(f"{name:16s} {e2e[name]:12.6g} {unit:4s} n={n}")

    if args.trace:
        layer = spans.layer_metrics(spans.concat([p.tracer.spans for p in traced]), len(traced))
        layer["report.serialize_s"] = statistics.median(p.serialize_s for p in traced)
        layer["trace.overhead_s"], noise = trace_overhead([(p.wall, p.traced) for p in passes])
        print(f"traced passes {len(traced)}, untraced {len(untraced)}; warm untraced passes "
              f"span {noise:.3g} s"
              + (", so the tracing overhead is unresolved" if abs(layer["trace.overhead_s"]) <= noise
                 else ""))
        for name in spans.PER_LAYER:
            print(f"{name:40s} {layer[name]:14.6g} {spans.unit_of(name)}")
        metrics = {n: {"value": layer[n], "unit": spans.unit_of(n)} for n in spans.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
