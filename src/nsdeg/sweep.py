"""Exhaustive sweeps over all numerical semigroups up to a genus bound.

Enumeration walks the classical tree whose root is the full semigroup
and whose children remove one minimal generator above the Frobenius
number; every semigroup of each genus appears exactly once.  For every
ring visited the sweep records the degree report, re-checks each
theorem as a property, and records the conjectured inequality
cdeg >= ddeg as data: theorems failing is an error condition, a
conjecture counterexample is a finding.

The sweep walks the tree level by level: genus g + 1 is the children
of genus g, sorted by generators, which is the report's order within a
genus.  Each level goes through the workers in order, in bounded
chunks; a worker returns a ring's row together with its children's
minimal generators, so the parent holds the generator tuples of one
level and of the next, never a row it has already written.  Tallies
are counted as rows arrive.  CSV rows go straight to the output; the
JSON summary comes before ``"rings"``, so JSON rows are spooled to a
temporary file beside the output and copied in after the summary.
JSON rows come from :func:`_json_row`, a writer for the row's one
shape that writes what ``json.dumps(row, indent=2)`` writes at a
fraction of its cost; the summary stays on json.dumps.  The
report is written to a temporary file in the output's directory and
renamed onto it only once the sweep has succeeded, so a failing sweep
leaves no partial report behind.  A symlinked output is followed, so the
file it names receives the report; an output that exists but is not a
regular file (a pipe, a device, a directory) is refused.

Each name in the report's schema has one source.  The CSV columns are
``CSV_COLUMNS``.  The property names are the keys :func:`evaluate_ring`
sets, in its order; the summary's tallies take them from the first row.
Herzog's realized-candidate label is
:attr:`~nsdeg.herzog.HerzogConsistency.cdeg_realized`.

Reports are deterministic byte for byte for a fixed configuration; the
parallelism level changes only its own echo in the JSON config block.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from functools import partial
from collections.abc import Callable, Iterator

from ._bits import indecomposables
from .degrees import classify
from .errors import CapExceeded, NoValidOrientation
from .herzog import herzog_consistency
from .lab import enumerate_ideals, is_closed, is_principal, is_reflexive
from .semigroup import NumericalSemigroup

#: The deepest sweep that fits a day of 2 CPUs and 8 GB of parent memory.
#:
#: n_g, the number of semigroups of genus g (OEIS A007323), grows about
#: like the golden ratio per genus: n_32 = 15,195,070, n_33 = 24,896,206,
#: n_34 = 40,761,087, n_35 = 66,687,201.  Both budgets are scaled from
#: two genus <= 22 JSON sweeps with --jobs 2 (2 vCPUs, Python 3.11.7),
#: of 38.1 and 34.0 s.
#:
#: Time: levels 20 to 22 took 12.0 to 15.3 s per 100,000 rings, 5.5 to
#: 7.5 us x g per ring at genus g.  At 7.5 us x g, the top of that
#: range, a sweep to genus G takes the sum over g <= G of
#: n_g x 7.5 us x g: 4.2 h for G = 33, 7.1 h for 34, 20 h for 36 and
#: 34 h for 37.  The day allows G <= 36.
#:
#: Memory: at its peak the parent holds the generator tuples of levels
#: G - 1 and G.  A tuple of e generators costs 56 + 8e bytes, plus 16
#: for the references to it in the level and chunk lists; the mean e is
#: about 0.4 g + 1.5 (9.55 at genus 20).  G = 33 needs 40.1 M tuples of
#: about 190 bytes, 7.6 GB; G = 34 needs 65.7 M of 193 bytes, 12.7 GB.
#: (The genus <= 22 sweeps peaked at 45.8 MB holding 165,440 tuples,
#: under this estimate.)  8 GB allows G <= 33, the tighter of the two
#: budgets.
HARD_MAX_GENUS = 33
#: Ideal-level exhaustive checks run only up to this genus inside sweeps.
#:
#: Budget: the pass may take at most an eighth of a serial genus <= 18
#: sweep.  Its cost about doubles per genus, led by the ordinary semigroup
#: <g+1, ..., 2g+1>, all 2**g of whose gap subsets are ideals: that one
#: ring's pass takes 0.005, 0.011 and 0.028 s at g = 10, 11 and 12.
#: Measured on a 2-vCPU host, Python 3.11.7, in-process: the serial
#: genus <= 18 sweep (33,282 rings) took 3.5 to 6.0 s with the pass,
#: 4.1 s in the median of four runs.  The pass over the 477 rings of
#: genus 1 to 10 takes 0.29 to 0.30 s, about 7 % of the sweep, and over
#: the 820 of genus 1 to 11 it takes 0.51 to 0.70 s, about 15 %.  The
#: budget allows genus 10.
IDEAL_CHECK_GENUS = 10
#: Most rings a worker evaluates per task.
MAX_CHUNK = 256

#: The CSV report's columns.  Each is the row's key of that name, except
#: ``e0`` (the multiplicity), ``tcdeg_ok`` and ``herzog_ok`` (those
#: properties' verdicts); see :func:`_csv_row`.
CSV_COLUMNS = (
    "genus",
    "generators",
    "frobenius",
    "type",
    "e0",
    "cdeg",
    "ddeg",
    "tdeg",
    "canonical_index",
    "gorenstein",
    "almost_gorenstein",
    "conjecture_ok",
    "tcdeg_ok",
    "herzog_ok",
)


def _check_max_genus(max_genus: int) -> None:
    if not 1 <= max_genus <= HARD_MAX_GENUS:
        raise CapExceeded(f"max_genus must lie in [1, {HARD_MAX_GENUS}]")


@dataclass(frozen=True)
class SweepConfig:
    max_genus: int
    check_conjecture: bool = False
    check_herzog: bool = False
    output_format: str = "csv"
    parallelism: int = 1

    def validate(self) -> None:
        _check_max_genus(self.max_genus)
        if self.parallelism < 1:
            raise CapExceeded("parallelism must be a positive integer")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def _children(S: NumericalSemigroup) -> list[tuple[int, ...]]:
    """The minimal generators of the children of S in the tree, by
    increasing removed generator, by mask arithmetic on S's window.

    Removing a minimal generator m > F leaves T = S minus {m}: its
    conductor is m + 1, its window is S's with [c, m) filled in, and its
    multiplicity is S's unless m was it.  T's minimal generators are its
    positive elements below span = m + 1 + multiplicity that are not a
    positive element of T plus a generator of T.  T is generated by
    (G minus {m}), m + G and 3m; a generator h moves the positive
    elements to multiplicity + h and up, below the span only if h <= m,
    so the generators that count are those of S below m.
    """
    c, mu, gens = S.conductor, S.multiplicity, S.generators
    kids = []
    for i, m in enumerate(gens):
        if m < c:  # children remove only generators above F = c - 1
            continue
        kid_mu = m + 1 if m == mu else mu
        positives = S._ext(m + 1 + kid_mu) & ~(1 << m | 1)
        kids.append(tuple(indecomposables(positives, gens[:i])))
    return kids


def enumerate_semigroups(max_genus: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= max_genus, exactly once.

    Depth-first preorder; children are visited by increasing removed
    generator, so the order is deterministic.
    """
    _check_max_genus(max_genus)
    stack = [(1,)]
    while stack:
        S = NumericalSemigroup(stack.pop())
        yield S
        if S.genus < max_genus:
            stack.extend(reversed(_children(S)))


def _walk_levels(max_genus: int, node: Callable, mapper: Callable = map) -> Iterator:
    """The values of node over the tree up to max_genus, level by level.

    ``node(gens, expand=...)`` returns a value and, when asked to expand,
    the generator tuples of the children of the semigroup ``gens``.
    Values come genus by genus, by generators within a genus.  ``mapper``
    is ``map`` or an ordered parallel map of the same shape.
    """
    level = [(1,)]
    for genus in range(max_genus + 1):
        children = []
        for value, kids in mapper(partial(node, expand=genus < max_genus), level):
            children.extend(kids)
            yield value
        level = sorted(children)


def _sweep_node(gens: tuple[int, ...], check_herzog: bool, expand: bool) -> tuple[dict, list]:
    """One ring's row, and its children's generators if asked to expand."""
    S = NumericalSemigroup(gens)
    return evaluate_ring(S, check_herzog), _children(S) if expand else []


def evaluate_ring(S: NumericalSemigroup, check_herzog: bool = False) -> dict:
    """Degree report plus property verdicts for one ring, as a plain dict.

    The properties are theorems re-checked for every ring, None where a
    check does not apply; their keys here are the only list of them.
    """
    report = classify(S)
    symmetric = S.conductor == 0 or S.is_symmetric()
    ideals_checked = S.conductor != 0 and S.genus <= IDEAL_CHECK_GENUS
    row = {
        **report.to_dict(),
        "properties": {
            "lower_bound": report.cdeg >= report.type_r - 1,
            "vanishing": (report.cdeg == 0) == (report.ddeg == 0) == symmetric,
            "ag_implies_ddeg_one": (
                not report.almost_gorenstein or report.type_r == 1 or report.ddeg == 1
            ),
            "trace_identity": report.ddeg == report.tdeg,
            "tcdeg": None if report.tcdeg is None else report.tcdeg.equal,
            "closed_reflexive_principal": not any(
                not is_principal(E) and is_closed(E) and is_reflexive(E) for E in enumerate_ideals(S)
            ) if ideals_checked else None,
            "herzog": None,
        },
        "conjecture_ok": report.cdeg >= report.ddeg,
    }
    # The Herzog keys come after conjecture_ok: counterexample rows are
    # dumped in key order.
    if check_herzog and S.embedding_dim == 3 and not symmetric:
        try:
            hc = herzog_consistency(S, report)
        except NoValidOrientation:
            # data, not a theorem failure; surfaced in the report
            row["herzog_note"] = "no_valid_orientation"
        else:
            row["properties"]["herzog"] = hc.ddeg_match and hc.cdeg_in_candidates
            row["herzog_cdeg_realized"] = hc.cdeg_realized
    return row


@dataclass
class SweepReport:
    """A sweep's summary: counts, tallies and findings, without the rows."""

    config: SweepConfig
    # a dict, not a Counter: add runs once per ring in the sweep's parent
    # process, and a Counter's item update costs more than a dict's
    genus_counts: dict[int, int] = field(default_factory=dict)
    #: One tally per property, made from the first row's keys.
    properties: dict[str, dict] = field(default_factory=dict)
    ddeg_one_census: dict[str, int] = field(
        default_factory=lambda: {"almost_gorenstein": 0, "other": 0}
    )
    conjecture: dict | None = None
    herzog_no_orientation: list[list[int]] = field(default_factory=list)
    herzog_candidate_census: Counter = field(default_factory=Counter)

    def has_property_failures(self) -> bool:
        return any(t["failures"] for t in self.properties.values())

    def has_counterexamples(self) -> bool:
        return bool(self.conjecture and self.conjecture["counterexamples"])

    def add(self, row: dict) -> None:
        """Count one ring's row into the tallies."""
        self.genus_counts[row["genus"]] = self.genus_counts.get(row["genus"], 0) + 1
        verdicts = row["properties"]
        tallies = self.properties
        if not tallies:
            tallies = self.properties = {name: {"checked": 0, "failures": []} for name in verdicts}
        for name, verdict in verdicts.items():
            if verdict is not None:
                tally = tallies[name]
                tally["checked"] += 1
                if not verdict:
                    tally["failures"].append(list(row["generators"]))
        if row.get("herzog_note") == "no_valid_orientation":
            self.herzog_no_orientation.append(list(row["generators"]))
        if "herzog_cdeg_realized" in row:
            self.herzog_candidate_census[row["herzog_cdeg_realized"]] += 1
        if row["ddeg"] == 1:
            key = "almost_gorenstein" if row["almost_gorenstein"] else "other"
            self.ddeg_one_census[key] += 1
        if self.conjecture is not None and not row["conjecture_ok"]:
            self.conjecture["counterexamples"].append(row)

    def render(self) -> str:
        """The report's head: the CSV header line, or the JSON summary.

        The JSON head ends with the opening bracket of ``"rings"``; the
        rows and the closing brackets follow it (see :func:`run_sweep`).
        """
        if self.config.output_format == "csv":
            return ",".join(CSV_COLUMNS) + "\n"
        payload = {
            "config": asdict(self.config),
            "genus_counts": {str(g): n for g, n in sorted(self.genus_counts.items())},
            "properties": self.properties,
            "ddeg_one_census": self.ddeg_one_census,
            "herzog_no_orientation": self.herzog_no_orientation,
            "herzog_candidate_census": dict(sorted(self.herzog_candidate_census.items())),
            "conjecture": self.conjecture,
            "rings": [],
        }
        return json.dumps(payload, indent=2)[: -len("]\n}")]


def _json_leaf(value) -> str:
    """A row's int, bool or None as json.dumps writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _csv_row(row: dict) -> str:
    """A row of :func:`evaluate_ring` as one CSV line, without its newline.

    No cell can hold a comma, a quote or a newline (the generators are
    joined by semicolons), so the cells need no quoting; None is ``NA``.
    """
    verdicts = row["properties"]
    cells = row | {"generators": ";".join(map(str, row["generators"])), "e0": row["multiplicity"],
                   "tcdeg_ok": verdicts["tcdeg"], "herzog_ok": verdicts["herzog"]}
    return ",".join(["NA" if cells[c] is None else _json_leaf(cells[c]) for c in CSV_COLUMNS])


def _json_row(row: dict) -> str:
    """A row of :func:`evaluate_ring` as ``json.dumps(row, indent=2)``
    writes it, nested four more spaces as an element of ``"rings"``.

    json.dumps with ``indent`` always runs the pure-Python encoder; this
    writer knows the row's one shape (the DegreeReport keys, then
    ``properties`` and ``conjecture_ok``, then the optional Herzog keys)
    and writes it from one template, byte for byte the same.
    """
    ideal = row["idealization"]
    tc = row["tcdeg"]
    tcdeg = "null" if tc is None else (
        f'{{\n        "lhs": {tc["lhs"]},\n        "rhs": {tc["rhs"]},\n'
        f'        "equal": {_json_leaf(tc["equal"])}\n      }}'
    )
    gens = ",\n        ".join(map(str, row["generators"]))
    props = ",\n        ".join([f'"{k}": {_json_leaf(v)}' for k, v in row["properties"].items()])
    text = (
        f'{{\n      "generators": [\n        {gens}\n      ],\n'
        f'      "frobenius": {row["frobenius"]},\n'
        f'      "genus": {row["genus"]},\n'
        f'      "multiplicity": {row["multiplicity"]},\n'
        f'      "embedding_dim": {row["embedding_dim"]},\n'
        f'      "type": {row["type"]},\n'
        f'      "cdeg": {row["cdeg"]},\n'
        f'      "ddeg": {row["ddeg"]},\n'
        f'      "tdeg": {row["tdeg"]},\n'
        f'      "canonical_index": {row["canonical_index"]},\n'
        f'      "gorenstein": {_json_leaf(row["gorenstein"])},\n'
        f'      "almost_gorenstein": {_json_leaf(row["almost_gorenstein"])},\n'
        f'      "ddeg_is_one": {_json_leaf(row["ddeg_is_one"])},\n'
        f'      "idealization": {{\n        "cdeg": {_json_leaf(ideal["cdeg"])},\n'
        f'        "ddeg": {_json_leaf(ideal["ddeg"])}\n      }},\n'
        f'      "tcdeg": {tcdeg},\n'
        f'      "properties": {{\n        {props}\n      }},\n'
        f'      "conjecture_ok": {_json_leaf(row["conjecture_ok"])}'
    )
    for key in ("herzog_note", "herzog_cdeg_realized"):
        if key in row:
            text += f',\n      "{key}": {json.dumps(row[key])}'
    return text + "\n    }"


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (it honours ``taskset`` and container CPU sets),
    else the host's CPU count, and 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(cfg: SweepConfig, out: str | os.PathLike) -> SweepReport:
    """Evaluate every ring up to the genus bound, write the report to out.

    Returns the summary.  out is replaced only when the whole sweep
    succeeded; on any error it is left as it was.  A symlink is followed:
    the file it names is replaced.  An existing out that is not a regular
    file is refused with an OSError naming out.
    """
    cfg.validate()
    out = os.fspath(out)
    # exists and isfile follow links through the kernel, which also
    # resolves /dev/stdout to the pipe or terminal it stands for
    if os.path.exists(out) and not os.path.isfile(out):
        raise OSError(f"not a regular file: {out!r}")
    target = os.path.realpath(out)
    report = SweepReport(
        cfg,
        conjecture={"statement": "cdeg >= ddeg", "counterexamples": []}
        if cfg.check_conjecture
        else None,
    )
    # Beside the file out names, so that the final rename stays on one
    # file system.
    tmp = f"{target}.{os.getpid()}.tmp"
    spool = f"{target}.{os.getpid()}.rows.tmp"
    node = partial(_sweep_node, check_herzog=cfg.check_herzog)
    # More workers than CPUs only add processes; the report still echoes
    # the requested parallelism.
    workers = min(cfg.parallelism, _usable_cpus())
    try:
        with ExitStack() as stack:
            try:
                fh = stack.enter_context(open(tmp, "w", encoding="utf-8"))
            except OSError as exc:
                # name the path asked for, not the temporary file beside it
                raise OSError(exc.errno, exc.strerror, out) from None
            mapper = map
            if workers > 1:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
                # on an error, drop the rest of the level instead of finishing it
                stack.callback(pool.shutdown, cancel_futures=True)

                def mapper(fn, level):
                    # about four tasks per worker and level: every level
                    # ends in a barrier, and on the small levels more
                    # tasks cost more round trips than they balance
                    chunk = min(MAX_CHUNK, math.ceil(len(level) / (workers * 4)))
                    return pool.map(fn, level, chunksize=chunk)

            rows = _walk_levels(cfg.max_genus, node, mapper)
            if cfg.output_format == "csv":
                fh.write(report.render())
                for row in rows:
                    report.add(row)
                    fh.write(_csv_row(row) + "\n")
            else:
                with open(spool, "w+", encoding="utf-8") as sp:
                    for i, row in enumerate(rows):
                        report.add(row)
                        sp.write(("\n    " if i == 0 else ",\n    ") + _json_row(row))
                    fh.write(report.render())
                    sp.seek(0)
                    shutil.copyfileobj(sp, fh, 1 << 20)
                fh.write("\n  ]\n}\n")
        os.replace(tmp, target)
    finally:
        for path in (tmp, spool):
            if os.path.exists(path):
                os.unlink(path)
    return report
