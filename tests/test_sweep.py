import json

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


def test_caps():
    with pytest.raises(CapExceeded):
        list(enumerate_semigroups(41))
    with pytest.raises(CapExceeded):
        list(enumerate_semigroups(0))
    with pytest.raises(CapExceeded):
        run_sweep(SweepConfig(max_genus=50))


def test_run_sweep_small_all_clean():
    report = run_sweep(SweepConfig(max_genus=2))
    assert sum(report.genus_counts.values()) == 4
    assert not report.has_property_failures()
    for row in report.rows:
        assert row["gorenstein"] or row["almost_gorenstein"]


def test_run_sweep_includes_golden_ring():
    report = run_sweep(SweepConfig(max_genus=8))
    row = next(r for r in report.rows if r["generators"] == [5, 7, 9])
    assert row["genus"] == 8
    assert (row["cdeg"], row["ddeg"], row["almost_gorenstein"]) == (2, 1, False)
    assert not report.has_property_failures()
    # the ddeg = 1 stratum strictly exceeds the almost Gorenstein part
    assert report.ddeg_one_census["other"] >= 1


def test_conjecture_is_data():
    report = run_sweep(SweepConfig(max_genus=6, check_conjecture=True))
    assert report.conjecture is not None
    assert report.conjecture["counterexamples"] == []
    report = run_sweep(SweepConfig(max_genus=6))
    assert report.conjecture is None


def test_herzog_flag():
    report = run_sweep(SweepConfig(max_genus=8, check_herzog=True))
    tally = report.properties["herzog"]
    assert tally["checked"] > 0
    assert tally["failures"] == []
    # which cdeg candidate is attained is recorded, never interpreted
    assert sum(report.herzog_candidate_census.values()) == tally["checked"]
    assert "neither" not in report.herzog_candidate_census
    off = run_sweep(SweepConfig(max_genus=8))
    assert off.properties["herzog"]["checked"] == 0
    assert off.herzog_candidate_census == {}


def test_no_orientation_rings_are_surfaced():
    report = run_sweep(SweepConfig(max_genus=12, check_herzog=True))
    assert [7, 9, 10] in report.herzog_no_orientation
    assert not report.has_property_failures()
    row = next(r for r in report.rows if r["generators"] == [7, 9, 10])
    assert row["herzog_note"] == "no_valid_orientation"
    assert row["properties"]["herzog"] is None


def test_determinism_and_formats():
    cfg = SweepConfig(max_genus=6, check_conjecture=True, output_format="csv")
    a = run_sweep(cfg).to_csv_str()
    b = run_sweep(cfg).to_csv_str()
    assert a == b
    lines = a.splitlines()
    assert lines[0] == (
        "genus,generators,frobenius,type,e0,cdeg,ddeg,tdeg,canonical_index,"
        "gorenstein,almost_gorenstein,conjecture_ok,tcdeg_ok,herzog_ok"
    )
    assert lines[1].startswith("0,1,-1,1,1,0,0,0,0,true,true,true,NA,NA")
    assert len(lines) == 1 + sum(run_sweep(cfg).genus_counts.values())

    ja = run_sweep(SweepConfig(max_genus=5, output_format="json")).to_json_str()
    jb = run_sweep(SweepConfig(max_genus=5, output_format="json")).to_json_str()
    assert ja == jb


def test_parallel_runs_match_serial():
    serial = run_sweep(SweepConfig(max_genus=7, check_conjecture=True))
    parallel = run_sweep(SweepConfig(max_genus=7, check_conjecture=True, parallelism=2))
    # everything except the echoed configuration must be byte-identical
    assert serial.to_csv_str() == parallel.to_csv_str()
    assert serial.rows == parallel.rows
    assert serial.properties == parallel.properties
    assert serial.conjecture == parallel.conjecture
    assert serial.genus_counts == parallel.genus_counts


def test_failure_witness_replay():
    report = run_sweep(SweepConfig(max_genus=8, check_herzog=True))
    for tally in report.properties.values():
        for witness in tally["failures"]:
            row = evaluate_ring(tuple(witness), check_herzog=True)
            assert not all(
                v for v in row["properties"].values() if v is not None
            )


def test_report_failure_helpers():
    report = run_sweep(SweepConfig(max_genus=3, check_conjecture=True))
    assert not report.has_property_failures()
    assert not report.has_counterexamples()
    report.properties["vanishing"]["failures"].append([2, 3])
    assert report.has_property_failures()
    report.conjecture["counterexamples"].append({"generators": [2, 3]})
    assert report.has_counterexamples()


def test_evaluate_ring_row_shape():
    row = evaluate_ring((5, 7, 9), check_herzog=True)
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
    full = evaluate_ring((1,))
    assert full["properties"]["tcdeg"] is None
    assert full["properties"]["closed_reflexive_principal"] is None


def test_pool_size_is_clamped_to_cpu_count(monkeypatch):
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

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    serial = run_sweep(SweepConfig(max_genus=5))
    report = run_sweep(SweepConfig(max_genus=5, parallelism=64))
    assert sizes == [2]
    assert report.rows == serial.rows
    assert report.to_csv_str() == serial.to_csv_str()
    assert json.loads(report.to_json_str())["config"]["parallelism"] == 64
    # an unknown CPU count means one worker, which runs in-process
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert run_sweep(SweepConfig(max_genus=5, parallelism=3)).rows == serial.rows
    assert sizes == [2]
