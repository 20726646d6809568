"""Spans around the calls into each nsdeg module, recorded from outside.

The tracer replaces public functions and methods with timing wrappers.
A function is replaced in every ``nsdeg`` module namespace that bound
it (``nsdeg.sweep.classify``, ``nsdeg.herzog.cdeg``...), so calls from
one module into another are caught; methods are replaced on their
class.  Spans are kept in flat arrays in memory and aggregated when a
traced pass ends.

A forked child process (the sweep's worker pool) inherits the wrappers
but records nothing: only the parent's spans are kept.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

#: (module, attribute, span name) of the plain functions that are traced.
FUNCTIONS = (
    ("nsdeg.ideals", "canonical_ideal", "ideals.canonical_ideal"),
    ("nsdeg.ideals", "reduction", "ideals.reduction"),
    ("nsdeg.ideals", "length_quotient", "ideals.length_quotient"),
    ("nsdeg.degrees", "classify", "degrees.classify"),
    ("nsdeg.degrees", "cdeg", "degrees.cdeg"),
    ("nsdeg.degrees", "ddeg", "degrees.ddeg"),
    ("nsdeg.degrees", "tdeg", "degrees.tdeg"),
    ("nsdeg.degrees", "canonical_index", "degrees.canonical_index"),
    ("nsdeg.degrees", "tcdeg_check", "degrees.tcdeg_check"),
    ("nsdeg.degrees", "endomorphism_blowup", "degrees.endomorphism_blowup"),
    ("nsdeg.herzog", "herzog_matrix", "herzog.herzog_matrix"),
    ("nsdeg.herzog", "herzog_consistency", "herzog.herzog_consistency"),
    ("nsdeg.lab", "profile_ideal", "lab.profile_ideal"),
    ("nsdeg.lab", "socle_witnesses", "lab.socle_witnesses"),
    ("nsdeg.lab", "is_closed", "lab.is_closed"),
    ("nsdeg.lab", "is_reflexive", "lab.is_reflexive"),
    ("nsdeg.sweep", "evaluate_ring", "sweep.evaluate_ring"),
    ("nsdeg.sweep", "run_sweep", "sweep.run_sweep"),
    ("nsdeg.cli", "main", "cli.main"),
)

#: Generator functions: each resumption is a span, each item a ``yielded`` count.
GENERATORS = (
    ("nsdeg.lab", "enumerate_ideals", "lab.enumerate_ideals"),
    ("nsdeg.sweep", "enumerate_semigroups", "sweep.enumerate_semigroups"),
)

#: (module, class, method, span name) of the traced methods.
METHODS = (
    ("nsdeg.semigroup", "NumericalSemigroup", "__init__", "semigroup.construct"),
    ("nsdeg.ideals", "RelativeIdeal", "__init__", "ideals.construct"),
    ("nsdeg.ideals", "RelativeIdeal", "product", "ideals.product"),
    ("nsdeg.ideals", "RelativeIdeal", "colon", "ideals.colon"),
    ("nsdeg.sweep", "SweepReport", "render", "sweep.render"),
)


#: Per-layer metrics of a traced run: span name plus a field.  ``calls``,
#: ``self_s`` and ``total_s`` come from the spans, ``yielded`` and
#: ``report_bytes`` from counters, and ``steps`` counts the products a
#: reduction performs.
PER_LAYER = (
    "semigroup.construct.calls",
    "semigroup.construct.self_s",
    "ideals.construct.calls",
    "ideals.construct.self_s",
    "ideals.canonical_ideal.calls",
    "ideals.product.calls",
    "ideals.product.self_s",
    "ideals.colon.calls",
    "ideals.colon.self_s",
    "ideals.reduction.calls",
    "ideals.reduction.self_s",
    "ideals.reduction.steps",
    "ideals.length_quotient.self_s",
    "degrees.classify.calls",
    "degrees.classify.self_s",
    "degrees.classify.total_s",
    "degrees.cdeg.calls",
    "degrees.ddeg.calls",
    "degrees.tdeg.calls",
    "degrees.canonical_index.total_s",
    "degrees.tcdeg_check.total_s",
    "degrees.endomorphism_blowup.total_s",
    "herzog.herzog_matrix.calls",
    "herzog.herzog_matrix.self_s",
    "herzog.herzog_consistency.total_s",
    "lab.enumerate_ideals.yielded",
    "lab.enumerate_ideals.self_s",
    "lab.profile_ideal.calls",
    "lab.profile_ideal.total_s",
    "lab.socle_witnesses.total_s",
    "lab.is_closed.calls",
    "lab.is_reflexive.calls",
    "sweep.enumerate_semigroups.self_s",
    "sweep.evaluate_ring.calls",
    "sweep.evaluate_ring.self_s",
    "sweep.run_sweep.self_s",
    "sweep.render.total_s",
    "sweep.report_bytes",
    "cli.main.self_s",
)

#: Fields that count work; they must repeat exactly between traced runs.
COUNT_FIELDS = ("calls", "yielded", "steps", "report_bytes")


@dataclass
class SpanStats:
    calls: int = 0
    spans: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records one span per traced call: name, parent span, start and end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.enabled = True
        self._patches: list[tuple[object, str, object]] = []
        self.reset()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Forget recorded spans and counts; installed wrappers stay."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._id(name)
        count_bytes = name == "sweep.render"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[nid] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count_bytes:
                self.counts["sweep.report_bytes"] += len(result.encode())
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._id(name)

        def drive(gen):
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[name + ".yielded"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[nid] += 1
            return drive(fn(*args, **kwargs))

        return traced

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "nsdeg" and not modname.startswith("nsdeg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for modname, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            self._bind_everywhere(original, self.wrap(name, original))
        for modname, attr, name in GENERATORS:
            original = getattr(importlib.import_module(modname), attr)
            self._bind_everywhere(original, self.wrap_generator(name, original))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._set(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def aggregate(self) -> tuple[dict[str, SpanStats], Counter]:
        stats, child_counts = aggregate_spans(
            self.names, self.name_id, self.parent, self.start, self.end
        )
        for nid, name in enumerate(self.names):
            stats.setdefault(name, SpanStats()).calls = self.calls[nid]
        return stats, child_counts


def aggregate_spans(names, name_id, parent, start, end):
    """Per-name span count, total and self time, plus parent/child call counts.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    ``total_s`` sums every span of a name, which counts a nested span of
    the same name twice; no traced function calls itself.
    """
    n = len(start)
    child_time = [0.0] * n
    child_counts: Counter = Counter()
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
            child_counts[(names[name_id[p]], names[name_id[i]])] += 1
    stats: dict[str, SpanStats] = {}
    for i in range(n):
        name = names[name_id[i]]
        s = stats.get(name)
        if s is None:
            s = stats[name] = SpanStats()
        d = end[i] - start[i]
        s.spans += 1
        s.total_s += d
        s.self_s += d - child_time[i]
    return stats, child_counts


def layer_metrics(stats: dict[str, SpanStats], child_counts: Counter, counts: Counter) -> dict:
    """Every PER_LAYER metric as ``{name: {"value": v, "unit": u}}``."""
    out = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "report_bytes":
            value, unit = counts[metric], "bytes"
        elif field == "yielded":
            value, unit = counts[metric], "count"
        elif field == "steps":
            value, unit = child_counts[(base, "ideals.product")], "count"
        else:
            value = getattr(stats.get(base, SpanStats()), field)
            unit = "count" if field == "calls" else "s"
        out[metric] = {"value": value, "unit": unit}
    return out
