"""Compare two sets of perfbench records, metric by metric.

    python3 tools/bench_diff.py PARENT_DIR CHANGE_DIR > BENCH_<n>.json

Each directory holds copies of ``.perfbench/results/*.json`` records,
one per run, collected from the parent commit and from the change with
the same benchmark settings.  Within each workload the records are
paired in file-name order, so name the i-th run of both sides alike
(``census-par-01.json`` ...).  For every end-to-end metric that
``BENCHMARK.json`` lists, the output gives each side's median and
quartiles, the ratio of the medians (change / parent), the pairs the
change won and lost (ties count for neither), and two verdicts:

* ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile distance;
* ``worse_than_bound``: the change's median is worse than the parent's
  by more than the metric's bound.

Traced records (``--trace 1``) carry the per-layer metrics of
``BENCHMARK.json`` instead; for those the output gives each side's
median and their ratio, with no verdict, since the layers have no
bounds.  Traced and untraced records are never compared together.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Run metadata that must agree across every record compared.
SHARED = ("seed", "seconds", "trace", "nproc", "cpu_model", "python")


def load(directory: Path) -> dict[str, list[dict]]:
    """The records of ``directory`` by workload, in file-name order; each
    record gains its file's path under ``path``."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("correct"):
            raise SystemExit(f"{path}: the run's outputs were not correct")
        record["path"] = str(path)
        runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_values(records: list[dict], name: str) -> list[float]:
    """The metric ``name`` of each record, naming the file that lacks it."""
    missing = [r["path"] for r in records if name not in r["metrics"]]
    if missing:
        raise SystemExit(f"{missing[0]}: no {name} metric")
    return [r["metrics"][name]["value"] for r in records]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], higher_is_better: bool, bound: float) -> dict:
    sign = 1 if higher_is_better else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    a, b = summary(parent), summary(change)
    gain = sign * (b["median"] - a["median"])
    return {
        "parent": a,
        "change": b,
        "ratio": b["median"] / a["median"] if a["median"] else None,
        "pairs_won": won,
        "pairs_lost": lost,
        "gain": won >= 0.9 * len(parent) and gain > a["q3"] - a["q1"],
        "worse_than_bound": -gain > bound * abs(a["median"]),
    }


def compare_layer(parent: list[float], change: list[float]) -> dict:
    """Medians and their ratio (change / parent) of a per-layer metric."""
    a, b = statistics.median(parent), statistics.median(change)
    return {"parent": a, "change": b, "ratio": b / a if a else None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="directory of the parent's records")
    ap.add_argument("change", type=Path, help="directory of the change's records")
    args = ap.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    if set(parent) != set(change):
        raise SystemExit(f"workloads differ: {sorted(parent)} against {sorted(change)}")
    every = [r for runs in (*parent.values(), *change.values()) for r in runs]
    traced = bool(every and every[0]["trace"])
    odd = [r["path"] for r in every if bool(r["trace"]) != traced]
    if odd:
        raise SystemExit(f"{odd[0]}: traced and untraced records cannot be compared together")
    meta = {key: sorted({json.dumps(r[key]) for r in every}) for key in SHARED}
    mixed = [key for key, seen in meta.items() if len(seen) > 1]
    if mixed:
        raise SystemExit(f"the records differ in {mixed}")

    out = {"run": {key: json.loads(seen[0]) for key, seen in meta.items()}, "workloads": {}}
    for name in sorted(parent):
        a, b = parent[name], change[name]
        if len(a) != len(b):
            raise SystemExit(f"{name}: {len(a)} parent runs against {len(b)} change runs")
        if traced:
            metrics = {
                m["name"]: compare_layer(metric_values(a, m["name"]), metric_values(b, m["name"]))
                for m in benchmark["per_layer"]
            }
        else:
            metrics = {
                m["name"]: compare(
                    metric_values(a, m["name"]),
                    metric_values(b, m["name"]),
                    m["better"] == "higher",
                    m["bound"],
                )
                for m in benchmark["end_to_end"]
            }
        out["workloads"][name] = {"pairs": len(a), "config": a[0]["config"], "metrics": metrics}
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
