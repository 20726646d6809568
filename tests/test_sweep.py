import csv
import io
import json
from dataclasses import replace
from functools import cache, partial
from itertools import islice

import pytest

from nsdeg import CapExceeded, NumericalSemigroup
from nsdeg import sweep
from nsdeg.sweep import SweepConfig, enumerate_semigroups, evaluate_ring, run_sweep

from oracles import count_semigroups_of_genus


def genus_counts(max_genus):
    counts = {}
    for S in enumerate_semigroups(max_genus):
        counts[S.genus] = counts.get(S.genus, 0) + 1
    return [counts.get(g, 0) for g in range(max_genus + 1)]


def test_tree_small():
    assert genus_counts(3) == [1, 1, 2, 4]
    seen = list(enumerate_semigroups(1))
    assert [S.generators for S in seen] == [(1,), (2, 3)]


def test_tree_counts_match_brute_force():
    counts = genus_counts(6)
    for g in range(7):
        assert counts[g] == count_semigroups_of_genus(g)


def test_tree_no_duplicates():
    seen = set()
    for S in enumerate_semigroups(7):
        assert S.generators not in seen
        seen.add(S.generators)


def tree_node(gens, expand):
    S = NumericalSemigroup(gens)
    return S, sweep._children(S) if expand else []


def test_children_match_the_full_constructor():
    # below 2m + 2 lie all minimal generators of S minus {m}, whose
    # conductor is m + 1 and whose multiplicity is at most m + 1
    children = 0
    for S in enumerate_semigroups(16):
        expected = [
            NumericalSemigroup([x for x in range(1, 2 * m + 2) if x in S and x != m]).generators
            for m in S.generators
            if m > S.frobenius
        ]
        assert sweep._children(S) == expected
        children += len(expected)
    # one edge into each semigroup of genus 1 to 17 (OEIS A007323)
    assert children == 19_814


def test_level_walk_matches_preorder():
    levels = {}
    for S in sweep._walk_levels(12, tree_node):
        # genus by genus, by generators within a genus
        assert S.genus == max(levels, default=0) or S.genus == max(levels) + 1
        levels.setdefault(S.genus, []).append(S.generators)
    assert all(level == sorted(level) for level in levels.values())
    preorder = {}
    for S in enumerate_semigroups(12):
        preorder.setdefault(S.genus, set()).add(S.generators)
    assert {g: set(level) for g, level in levels.items()} == preorder
    assert all(len(level) == len(set(level)) for level in levels.values())
    assert [len(levels[g]) for g in range(7)] == [count_semigroups_of_genus(g) for g in range(7)]


# The start of the depth-first preorder; ideal-lab's set-up shuffles
# strata built in this order, so its default-seed digest depends on it.
PREORDER_8 = [
    (1,), (2, 3), (3, 4, 5), (4, 5, 6, 7), (5, 6, 7, 8, 9), (6, 7, 8, 9, 10, 11),
    (7, 8, 9, 10, 11, 12, 13), (8, 9, 10, 11, 12, 13, 14, 15),
    (9, 10, 11, 12, 13, 14, 15, 16, 17), (8, 10, 11, 12, 13, 14, 15, 17),
    (8, 9, 11, 12, 13, 14, 15), (8, 9, 10, 12, 13, 14, 15), (8, 9, 10, 11, 13, 14, 15),
    (8, 9, 10, 11, 12, 14, 15), (8, 9, 10, 11, 12, 13, 15), (8, 9, 10, 11, 12, 13, 14),
    (7, 9, 10, 11, 12, 13, 15), (7, 10, 11, 12, 13, 15, 16), (7, 9, 11, 12, 13, 15, 17),
    (7, 9, 10, 12, 13, 15), (7, 9, 10, 11, 13, 15), (7, 9, 10, 11, 12, 15),
    (7, 9, 10, 11, 12, 13), (7, 8, 10, 11, 12, 13), (7, 8, 11, 12, 13, 17),
    (7, 8, 10, 12, 13), (7, 8, 10, 11, 13), (7, 8, 10, 11, 12), (7, 8, 9, 11, 12, 13),
    (7, 8, 9, 12, 13),
]


def test_preorder_is_pinned():
    assert [S.generators for S in islice(enumerate_semigroups(8), 30)] == PREORDER_8


def test_caps(tmp_path):
    with pytest.raises(CapExceeded):
        list(enumerate_semigroups(41))
    with pytest.raises(CapExceeded):
        list(enumerate_semigroups(0))
    with pytest.raises(CapExceeded):
        run_sweep(SweepConfig(max_genus=50), tmp_path / "report.csv")
    assert list(tmp_path.iterdir()) == []


def sweep_json(tmp_path, **kwargs):
    """A JSON sweep's summary, its parsed report and its rings."""
    path = tmp_path / "report.json"
    report = run_sweep(SweepConfig(output_format="json", **kwargs), path)
    payload = json.loads(path.read_text())
    return report, payload, payload["rings"]


def test_run_sweep_small_all_clean(tmp_path):
    report, _, rows = sweep_json(tmp_path, max_genus=2)
    assert sum(report.genus_counts.values()) == 4
    assert not report.has_property_failures()
    for row in rows:
        assert row["gorenstein"] or row["almost_gorenstein"]


def test_run_sweep_includes_golden_ring(tmp_path):
    report, _, rows = sweep_json(tmp_path, max_genus=8)
    row = next(r for r in rows if r["generators"] == [5, 7, 9])
    assert row["genus"] == 8
    assert (row["cdeg"], row["ddeg"], row["almost_gorenstein"]) == (2, 1, False)
    assert not report.has_property_failures()
    # the ddeg = 1 stratum strictly exceeds the almost Gorenstein part
    assert report.ddeg_one_census["other"] >= 1


def test_conjecture_is_data(tmp_path):
    report = run_sweep(SweepConfig(max_genus=6, check_conjecture=True), tmp_path / "a.csv")
    assert report.conjecture is not None
    assert report.conjecture["counterexamples"] == []
    report = run_sweep(SweepConfig(max_genus=6), tmp_path / "b.csv")
    assert report.conjecture is None


def test_herzog_flag(tmp_path):
    report = run_sweep(SweepConfig(max_genus=8, check_herzog=True), tmp_path / "a.csv")
    tally = report.properties["herzog"]
    assert tally["checked"] > 0
    assert tally["failures"] == []
    # which cdeg candidate is attained is recorded, never interpreted
    assert sum(report.herzog_candidate_census.values()) == tally["checked"]
    assert "neither" not in report.herzog_candidate_census
    off = run_sweep(SweepConfig(max_genus=8), tmp_path / "b.csv")
    assert off.properties["herzog"]["checked"] == 0
    assert off.herzog_candidate_census == {}


def test_no_orientation_rings_are_surfaced(tmp_path):
    report, _, rows = sweep_json(tmp_path, max_genus=12, check_herzog=True)
    assert [7, 9, 10] in report.herzog_no_orientation
    assert not report.has_property_failures()
    row = next(r for r in rows if r["generators"] == [7, 9, 10])
    assert row["herzog_note"] == "no_valid_orientation"
    assert row["properties"]["herzog"] is None


def test_determinism_and_formats(tmp_path):
    cfg = SweepConfig(max_genus=6, check_conjecture=True, output_format="csv")
    report = run_sweep(cfg, tmp_path / "a.csv")
    run_sweep(cfg, tmp_path / "b.csv")
    a = (tmp_path / "a.csv").read_text()
    assert a == (tmp_path / "b.csv").read_text()
    lines = a.splitlines()
    assert lines[0] == (
        "genus,generators,frobenius,type,e0,cdeg,ddeg,tdeg,canonical_index,"
        "gorenstein,almost_gorenstein,conjecture_ok,tcdeg_ok,herzog_ok"
    )
    assert lines[1].startswith("0,1,-1,1,1,0,0,0,0,true,true,true,NA,NA")
    assert len(lines) == 1 + sum(report.genus_counts.values())

    cfg = SweepConfig(max_genus=5, check_conjecture=True, check_herzog=True, output_format="json")
    run_sweep(cfg, tmp_path / "a.json")
    run_sweep(cfg, tmp_path / "b.json")
    ja = (tmp_path / "a.json").read_text()
    assert ja == (tmp_path / "b.json").read_text()
    # the streamed report is what json.dumps makes of the whole payload
    assert ja == json.dumps(json.loads(ja), indent=2) + "\n"


def test_parallel_runs_match_serial(tmp_path):
    for fmt in ("csv", "json"):
        cfg = SweepConfig(max_genus=7, check_conjecture=True, check_herzog=True, output_format=fmt)
        serial = run_sweep(cfg, tmp_path / f"serial.{fmt}")
        parallel = run_sweep(replace(cfg, parallelism=2), tmp_path / f"parallel.{fmt}")
        assert serial.properties == parallel.properties
        assert serial.conjecture == parallel.conjecture
        assert serial.genus_counts == parallel.genus_counts
        # everything except the echoed parallelism must be byte-identical
        a = (tmp_path / f"serial.{fmt}").read_bytes()
        b = (tmp_path / f"parallel.{fmt}").read_bytes()
        if fmt == "json":
            assert b.count(b'"parallelism": 2') == 1
            b = b.replace(b'"parallelism": 2', b'"parallelism": 1')
        assert a == b


def test_failure_witness_replay(tmp_path):
    report = run_sweep(SweepConfig(max_genus=8, check_herzog=True), tmp_path / "a.csv")
    for tally in report.properties.values():
        for witness in tally["failures"]:
            row = evaluate_ring(NumericalSemigroup(witness), check_herzog=True)
            assert not all(
                v for v in row["properties"].values() if v is not None
            )


def test_report_failure_helpers(tmp_path):
    report = run_sweep(SweepConfig(max_genus=3, check_conjecture=True), tmp_path / "a.csv")
    assert not report.has_property_failures()
    assert not report.has_counterexamples()
    report.properties["vanishing"]["failures"].append([2, 3])
    assert report.has_property_failures()
    report.conjecture["counterexamples"].append({"generators": [2, 3]})
    assert report.has_counterexamples()


def test_evaluate_ring_row_shape():
    row = evaluate_ring(NumericalSemigroup([5, 7, 9]), check_herzog=True)
    assert row["type"] == 2
    assert row["conjecture_ok"] is True
    assert set(row["properties"]) == {
        "lower_bound",
        "vanishing",
        "ag_implies_ddeg_one",
        "trace_identity",
        "tcdeg",
        "closed_reflexive_principal",
        "herzog",
    }
    assert row["properties"]["herzog"] is True
    full = evaluate_ring(NumericalSemigroup([1]))
    assert full["properties"]["tcdeg"] is None
    assert full["properties"]["closed_reflexive_principal"] is None


def _dumped(row):
    return json.dumps(row, indent=2).replace("\n", "\n    ")


@cache
def walk12(check_herzog):
    """The rows of a genus <= 12 sweep; shared by the row-writer tests."""
    return tuple(sweep._walk_levels(12, partial(sweep._sweep_node, check_herzog=check_herzog)))


@pytest.mark.parametrize("check_herzog", [False, True])
def test_json_row_writer_matches_json_dumps(check_herzog):
    rows = walk12(check_herzog)
    for row in rows:
        assert sweep._json_row(row) == _dumped(row), row["generators"]
    # the walk holds each null and each optional key the writer handles
    assert len(rows) == 1413
    assert sum(row["tcdeg"] is None for row in rows) == 1
    assert sum(row["idealization"]["ddeg"] is None for row in rows) == 121
    assert sum("herzog_note" in row for row in rows) == check_herzog
    assert sum("herzog_cdeg_realized" in row for row in rows) == 71 * check_herzog


def _csv_module_line(row):
    """A CSV line as the csv module writes the columns' values, taken
    from the row one by one: the reference for sweep._csv_row."""
    def flag(value):
        return "NA" if value is None else ("true" if value else "false")

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([
        row["genus"],
        ";".join(str(g) for g in row["generators"]),
        row["frobenius"],
        row["type"],
        row["multiplicity"],
        row["cdeg"],
        row["ddeg"],
        row["tdeg"],
        row["canonical_index"],
        flag(row["gorenstein"]),
        flag(row["almost_gorenstein"]),
        flag(row["conjecture_ok"]),
        flag(row["properties"]["tcdeg"]),
        flag(row["properties"]["herzog"]),
    ])
    return buf.getvalue()


@pytest.mark.parametrize("check_herzog", [False, True])
def test_csv_row_writer_matches_the_csv_module(check_herzog):
    cells = set()
    for row in walk12(check_herzog):
        line = sweep._csv_row(row) + "\n"
        assert line == _csv_module_line(row), row["generators"]
        cells.update(line.rstrip("\n").split(","))
    # the walk holds every spelling of a flag: true, false and NA
    assert {"true", "false", "NA"} <= cells


def test_json_row_writer_on_every_herzog_key():
    base = evaluate_ring(NumericalSemigroup([5, 7, 9]))
    variants = [
        {"herzog_note": "no_valid_orientation"},
        {"herzog_cdeg_realized": "both"},
        {"herzog_cdeg_realized": "neither"},
        {"herzog_note": "no_valid_orientation", "herzog_cdeg_realized": "a1b1c1"},
    ]
    for extra in variants:
        row = {**base, **extra}
        assert sweep._json_row(row) == _dumped(row), extra


def test_pool_size_is_clamped_to_cpu_count(monkeypatch, tmp_path):
    # a stand-in executor records its size and maps serially, so no
    # process is started whatever parallelism is requested
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def map(self, fn, items, chunksize=1):
            assert 1 <= chunksize <= sweep.MAX_CHUNK
            return map(fn, items)

    def report(name, parallelism):
        run_sweep(SweepConfig(max_genus=5, output_format="json", parallelism=parallelism), tmp_path / name)
        return json.loads((tmp_path / name).read_text())

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    # the CPUs the process may run on count, not the host's
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = report("serial.json", 1)
    pooled = report("pooled.json", 64)
    assert sizes == [2]
    assert pooled["rings"] == serial["rings"]
    assert pooled["config"]["parallelism"] == 64
    # pinned to one CPU (taskset -c 0), --jobs 2 runs in-process
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0})
    assert report("pinned.json", 2)["rings"] == serial["rings"]
    assert sizes == [2]
    # without an affinity call, the host's CPU count caps the pool
    monkeypatch.delattr(sweep.os, "sched_getaffinity")
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
    assert report("host.json", 64)["rings"] == serial["rings"]
    assert sizes == [2, 3]
    # an unknown CPU count means one worker, which runs in-process
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert report("unknown.json", 3)["rings"] == serial["rings"]
    assert sizes == [2, 3]
