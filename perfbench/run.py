"""nsdeg benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload census-par --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nsdeg is imported from ``src``.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Workloads, metrics and predictions
are described in ``perfbench/README.md``.  Every run also writes a result
file with run metadata and the failing queries to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("census", "census-par", "big-rings", "ideal-lab")
#: Set-up is timed this many times in fresh processes; the median is reported.
SETUP_RUNS = 5
#: Every run must end well inside the 180 s a run may take.
DEADLINE_S = 170


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(root: Path, args, extra: list[str], deadline: float) -> None:
    """Run worker.py to completion; raise on failure or at the deadline."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    subprocess.run(cmd, cwd=root, check=True, timeout=max(1.0, deadline - time.monotonic()))


def timed_setup(root: Path, args, out: Path, deadline: float) -> float:
    """Seconds from spawning a set-up-only worker to the end of its set-up.

    The worker writes the time its set-up ended on the system-wide
    monotonic clock.  Timing the process's exit instead would round up
    to the 50 ms polling step that waiting with a timeout uses.
    """
    t0 = time.monotonic()
    worker(root, args, ["--setup-only", "--out", str(out)], deadline)
    return float(out.read_text()) - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nsdeg benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "nsdeg" / "__init__.py").is_file():
        print(f"error: no nsdeg sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench"
    (work / "results").mkdir(parents=True, exist_ok=True)
    out = work / f"worker-{os.getpid()}.json"

    try:
        setup = [timed_setup(root, args, out, deadline) for _ in range(SETUP_RUNS if not args.trace else 0)]
        worker(root, args, ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)], deadline)
        result = json.loads(out.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        out.unlink(missing_ok=True)

    if args.trace:
        metrics = result.pop("layers")
    else:
        metrics = {
            "items_per_s": {"value": result["items_per_s"], "unit": "items/s"},
            "latency_p50_ms": {"value": result["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": result["latency_tail_ms"], "unit": "ms"},
            "ok_share": {"value": result["ok_share"], "unit": "share"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        result["setup_runs_s"] = setup

    line = {
        "correct": not result["misses"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        # queries not answered: failures and the known defect
        "failed_share": (result["failed"] + result["known_defect"]) / result["attempted"],
        **result,
        **line,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work / "results" / name).write_text(json.dumps(record, indent=2) + "\n")

    for miss in result["misses"][:20]:
        print(f"check failed: {miss}")
    for failure in result["failures"]:
        kind = "known defect" if failure["known_defect"] else "failed query"
        print(f"{kind}: {failure['generators']} {failure['error']}: {failure['message']}")
    if not args.trace:
        print(f"{args.workload}: {result['passes']} pass(es); items are {result['item']}; "
              f"latency over {result['samples']} queries, tail is {result['tail_label']}; "
              f"failed_share {record['failed_share']:.4f}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
