"""Exhaustive sweeps over all numerical semigroups up to a genus bound.

Enumeration walks the classical tree whose root is the full semigroup
and whose children remove one minimal generator above the Frobenius
number; every semigroup of each genus appears exactly once.  For every
ring visited the sweep records the degree report, re-checks each
theorem as a property, and records the conjectured inequality
cdeg >= ddeg as data: theorems failing is an error condition, a
conjecture counterexample is a finding.

Reports are deterministic byte for byte for a fixed configuration; the
parallelism level changes only its own echo in the JSON config block.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from collections.abc import Iterator

from .degrees import classify
from .errors import CapExceeded, NoValidOrientation
from .herzog import herzog_consistency
from .ideals import unit_ideal
from .lab import enumerate_ideals, is_closed, is_reflexive
from .semigroup import NumericalSemigroup

HARD_MAX_GENUS = 40
#: Ideal-level exhaustive checks run only up to this genus inside sweeps.
IDEAL_CHECK_GENUS = 10

#: Properties re-checked for every ring; all are theorems.
PROPERTY_NAMES = (
    "lower_bound",
    "vanishing",
    "ag_implies_ddeg_one",
    "trace_identity",
    "tcdeg",
    "closed_reflexive_principal",
    "herzog",
)


@dataclass(frozen=True)
class SweepConfig:
    max_genus: int
    check_conjecture: bool = False
    check_herzog: bool = False
    output_format: str = "csv"
    parallelism: int = 1

    def validate(self) -> None:
        if not 1 <= self.max_genus <= HARD_MAX_GENUS:
            raise CapExceeded(f"max_genus must lie in [1, {HARD_MAX_GENUS}]")
        if self.parallelism < 1:
            raise CapExceeded("parallelism must be a positive integer")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def _child_generators(S: NumericalSemigroup, removed: int) -> list[int]:
    """A generating set of S minus one minimal generator above the Frobenius."""
    gens = set(S.generators)
    gens.discard(removed)
    gens.update(removed + g for g in S.generators)
    gens.update((2 * removed, 3 * removed))
    return sorted(gens)


def enumerate_semigroups(max_genus: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= max_genus, exactly once.

    Depth-first preorder; children are visited by increasing removed
    generator, so the order is deterministic.
    """
    if not 1 <= max_genus <= HARD_MAX_GENUS:
        raise CapExceeded(f"max_genus must lie in [1, {HARD_MAX_GENUS}]")
    stack = [NumericalSemigroup([1])]
    while stack:
        S = stack.pop()
        yield S
        if S.genus >= max_genus:
            continue
        children = [
            NumericalSemigroup(_child_generators(S, m))
            for m in S.generators
            if m > S.frobenius
        ]
        stack.extend(reversed(children))


def evaluate_ring(gens: tuple[int, ...], check_herzog: bool = False) -> dict:
    """Degree report plus property verdicts for one ring, as a plain dict."""
    S = NumericalSemigroup(gens)
    report = classify(S)
    symmetric = S.conductor == 0 or S.is_symmetric()

    props: dict[str, bool | None] = {}
    props["lower_bound"] = report.cdeg >= report.type_r - 1
    vanish_c = report.cdeg == 0
    vanish_d = report.ddeg == 0
    props["vanishing"] = vanish_c == vanish_d and vanish_d == symmetric
    props["ag_implies_ddeg_one"] = (
        not report.almost_gorenstein or report.type_r == 1 or report.ddeg == 1
    )
    props["trace_identity"] = report.ddeg == report.tdeg
    props["tcdeg"] = None if report.tcdeg is None else report.tcdeg.equal

    if S.conductor == 0 or S.genus > IDEAL_CHECK_GENUS:
        props["closed_reflexive_principal"] = None
    else:
        unit = unit_ideal(S)
        verdict = True
        for E in enumerate_ideals(S):
            if E != unit and is_closed(E) and is_reflexive(E):
                verdict = False
                break
        props["closed_reflexive_principal"] = verdict

    herzog_note = None
    herzog_realized = None
    if check_herzog and S.embedding_dim == 3 and S.conductor > 0 and not S.is_symmetric():
        try:
            hc = herzog_consistency(S)
            props["herzog"] = hc.ddeg_match and hc.cdeg_in_candidates
            first = hc.data.a1 * hc.data.b1 * hc.data.c1
            second = hc.data.a2 * hc.data.b2 * hc.data.c2
            hits = {name for name, v in (("a1b1c1", first), ("a2b2c2", second)) if v == hc.direct_cdeg}
            herzog_realized = "both" if len(hits) == 2 else (hits.pop() if hits else "neither")
        except NoValidOrientation:
            # data, not a theorem failure; surfaced in the report
            props["herzog"] = None
            herzog_note = "no_valid_orientation"
    else:
        props["herzog"] = None

    row = report.to_dict()
    row["properties"] = props
    row["conjecture_ok"] = report.cdeg >= report.ddeg
    if herzog_note:
        row["herzog_note"] = herzog_note
    if herzog_realized:
        row["herzog_cdeg_realized"] = herzog_realized
    return row


@dataclass
class SweepReport:
    config: SweepConfig
    genus_counts: dict[int, int]
    rows: list[dict]
    properties: dict[str, dict]
    ddeg_one_census: dict[str, int]
    conjecture: dict | None
    herzog_no_orientation: list[list[int]] = field(default_factory=list)
    herzog_candidate_census: dict[str, int] = field(default_factory=dict)

    def has_property_failures(self) -> bool:
        return any(t["failures"] for t in self.properties.values())

    def has_counterexamples(self) -> bool:
        return bool(self.conjecture and self.conjecture["counterexamples"])

    def to_json_str(self) -> str:
        payload = {
            "config": asdict(self.config),
            "genus_counts": {str(g): n for g, n in sorted(self.genus_counts.items())},
            "properties": self.properties,
            "ddeg_one_census": self.ddeg_one_census,
            "herzog_no_orientation": self.herzog_no_orientation,
            "herzog_candidate_census": self.herzog_candidate_census,
            "conjecture": self.conjecture,
            "rings": self.rows,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv_str(self) -> str:
        def fmt(value) -> str:
            if value is None:
                return "NA"
            if isinstance(value, bool):
                return "true" if value else "false"
            return str(value)

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
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
            ]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row["genus"],
                    ";".join(str(g) for g in row["generators"]),
                    row["frobenius"],
                    row["type"],
                    row["multiplicity"],
                    row["cdeg"],
                    row["ddeg"],
                    row["tdeg"],
                    row["canonical_index"],
                    fmt(row["gorenstein"]),
                    fmt(row["almost_gorenstein"]),
                    fmt(row["conjecture_ok"]),
                    fmt(row["properties"]["tcdeg"]),
                    fmt(row["properties"]["herzog"]),
                ]
            )
        return buf.getvalue()

    def render(self) -> str:
        return self.to_json_str() if self.config.output_format == "json" else self.to_csv_str()


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Evaluate every ring up to the genus bound and aggregate the results."""
    cfg.validate()
    inputs = [S.generators for S in enumerate_semigroups(cfg.max_genus)]

    work = partial(evaluate_ring, check_herzog=cfg.check_herzog)
    if cfg.parallelism > 1:
        chunk = max(1, len(inputs) // (cfg.parallelism * 8))
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            rows = list(pool.map(work, inputs, chunksize=chunk))
    else:
        rows = [work(gens) for gens in inputs]

    rows.sort(key=lambda r: (r["genus"], tuple(r["generators"])))

    genus_counts: dict[int, int] = {}
    properties = {
        name: {"checked": 0, "failures": []} for name in PROPERTY_NAMES
    }
    census = {"almost_gorenstein": 0, "other": 0}
    candidate_census: dict[str, int] = {}
    counterexamples = []
    no_orientation = []
    for row in rows:
        genus_counts[row["genus"]] = genus_counts.get(row["genus"], 0) + 1
        for name in PROPERTY_NAMES:
            verdict = row["properties"][name]
            if verdict is None:
                continue
            properties[name]["checked"] += 1
            if not verdict:
                properties[name]["failures"].append(list(row["generators"]))
        if row.get("herzog_note") == "no_valid_orientation":
            no_orientation.append(list(row["generators"]))
        realized = row.get("herzog_cdeg_realized")
        if realized:
            candidate_census[realized] = candidate_census.get(realized, 0) + 1
        if row["ddeg"] == 1:
            key = "almost_gorenstein" if row["almost_gorenstein"] else "other"
            census[key] += 1
        if cfg.check_conjecture and not row["conjecture_ok"]:
            counterexamples.append(row)

    conjecture = (
        {"statement": "cdeg >= ddeg", "counterexamples": counterexamples}
        if cfg.check_conjecture
        else None
    )
    return SweepReport(
        config=cfg,
        genus_counts=genus_counts,
        rows=rows,
        properties=properties,
        ddeg_one_census=census,
        conjecture=conjecture,
        herzog_no_orientation=no_orientation,
        herzog_candidate_census=dict(sorted(candidate_census.items())),
    )
