"""One fresh process of the benchmark: set up a workload, then measure or trace it.

    python3 perfbench/worker.py --root . --workload census --seed 1 --setup-only --out end.txt
    python3 perfbench/worker.py --root . --workload census --seed 1 --seconds 25 \\
        --trace 0 --out result.json

The result goes to ``--out`` as JSON; ``run.py`` turns it into the
benchmark's output line.  A set-up-only run writes the monotonic time
at which its set-up ended instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import stats
from tracer import COUNT_FIELDS, Tracer, layer_metrics


def _peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def measure(workload, seconds: float) -> dict:
    """Whole passes until another would overrun ``seconds``; at least one."""
    passes = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(check=not passes))
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            break
    # The same queries in the same order each pass: one sample per query,
    # its median over passes.  A census pass is a single query, so there
    # the tail is that sweep's median, not the slowest of a few sweeps.
    samples = [statistics.median(col) for col in zip(*(p.latencies for p in passes))]
    tail, tail_label = stats.tail(samples)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    defect = sum(p.defect for p in passes)
    return {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "known_defect": defect,
        "misses": [m for p in passes for m in p.misses],
        "failures": passes[0].failures,
        "samples": len(samples),
        "tail_label": tail_label,
        "items_per_s": statistics.median([n / seconds for p in passes for n, seconds in p.batches]),
        "latency_p50_ms": statistics.median(samples) * 1000,
        "latency_tail_ms": tail * 1000,
        "ok_share": 1 - (failed + defect) / attempted,
        "peak_rss_mb": _peak_rss_mb(),
    }


def trace(workload) -> dict:
    """One untraced pass, then two traced ones whose work counts must agree."""
    plain = workload.run_pass(check=True)
    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for _ in range(2):
            tracer.reset()
            result = workload.run_pass(check=False)
            span_stats, child_counts = tracer.aggregate()
            runs.append((result, layer_metrics(span_stats, child_counts, tracer.counts)))
    finally:
        tracer.uninstall()
    (first, layers), (second, layers2) = runs
    drift = [
        f"traced runs disagree on {name}: {metric['value']} vs {layers2[name]['value']}"
        for name, metric in layers.items()
        if name.rpartition(".")[2] in COUNT_FIELDS and metric["value"] != layers2[name]["value"]
    ]
    layers["trace.overhead_s"] = {"value": first.busy_s - plain.busy_s, "unit": "s"}
    passes = (plain, first, second)
    misses = [m for p in passes for m in p.misses] + drift
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(drift)
    return {
        "attempted": attempted,
        "failed": failed,
        "known_defect": sum(p.defect for p in passes),
        "misses": misses,
        "failures": plain.failures,
        "untraced_s": plain.busy_s,
        "traced_s": [first.busy_s, second.busy_s],
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.root / "src"))
    import nsdeg
    import workloads

    workdir = args.root / ".perfbench"
    workload = workloads.make(args.workload, args.seed, workdir)
    workload.setup()
    if args.setup_only:
        args.out.write_text(repr(time.monotonic()))
        return 0
    # Set-up objects stay alive but out of the collector's way, so that
    # garbage collection costs what the program's own objects cost.
    gc.collect()
    gc.freeze()
    result = trace(workload) if args.trace else measure(workload, args.seconds)
    result["config"] = workload.config()
    result["item"] = workload.item
    result["nsdeg_version"] = nsdeg.__version__
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
