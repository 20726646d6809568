import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_diff.py"
_SPEC = importlib.util.spec_from_file_location("bench_diff", _PATH)
bench_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_diff)

#: Ten parent runs; their quartiles are 102.25 and 106.75, 4.5 apart.
PARENT = [100.0 + i for i in range(10)]


def shifted(delta, losses=0):
    """PARENT moved by ``delta``, except the last ``losses`` runs, which lose by one."""
    return [p + delta if i < len(PARENT) - losses else p - 1 for i, p in enumerate(PARENT)]


def test_ties_count_for_neither_side():
    out = bench_diff.compare(PARENT, list(PARENT), True, 0.25)
    assert (out["pairs_won"], out["pairs_lost"], out["gain"], out["ratio"]) == (0, 0, False, 1.0)
    out = bench_diff.compare([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], True, 0.25)
    assert (out["pairs_won"], out["pairs_lost"]) == (1, 1)


@pytest.mark.parametrize("losses, gain", [(0, True), (1, True), (2, False)])
def test_gain_needs_nine_of_ten_pairs(losses, gain):
    out = bench_diff.compare(PARENT, shifted(10, losses), True, 0.25)
    assert (out["pairs_won"], out["pairs_lost"]) == (10 - losses, losses)
    assert out["gain"] is gain


@pytest.mark.parametrize("delta, gain", [(4.0, False), (4.5, False), (5.0, True)])
def test_gain_must_exceed_the_parents_interquartile_distance(delta, gain):
    out = bench_diff.compare(PARENT, shifted(delta), True, 0.25)
    assert out["pairs_won"] == 10
    assert (out["parent"]["q1"], out["parent"]["q3"]) == (102.25, 106.75)
    assert out["gain"] is gain


def test_lower_is_better_metrics_win_by_falling():
    out = bench_diff.compare(PARENT, shifted(-10), False, 0.25)
    assert (out["pairs_won"], out["pairs_lost"], out["gain"]) == (10, 0, True)
    out = bench_diff.compare(PARENT, shifted(10), False, 0.25)
    assert (out["pairs_won"], out["pairs_lost"], out["gain"]) == (0, 10, False)


@pytest.mark.parametrize(
    "factor, higher_is_better, worse",
    [(0.8, True, False), (0.7, True, True), (1.2, False, False), (1.3, False, True), (2.0, True, False)],
)
def test_worse_than_bound(factor, higher_is_better, worse):
    out = bench_diff.compare(PARENT, [p * factor for p in PARENT], higher_is_better, 0.25)
    assert out["worse_than_bound"] is worse


def test_load_rejects_a_run_whose_outputs_were_wrong(tmp_path):
    record = {"workload": "big-rings", "correct": True}
    (tmp_path / "big-rings-01.json").write_text(json.dumps(record))
    (tmp_path / "big-rings-02.json").write_text(json.dumps({**record, "seed": 2}))
    assert [r.get("seed") for r in bench_diff.load(tmp_path)["big-rings"]] == [None, 2]
    (tmp_path / "big-rings-03.json").write_text(json.dumps({**record, "correct": False}))
    with pytest.raises(SystemExit, match="big-rings-03.json: the run's outputs were not correct"):
        bench_diff.load(tmp_path)


BENCHMARK = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())


def record(trace, metrics, workload="ideal-lab"):
    """A run record with the shared metadata ``main`` checks."""
    meta = {"seed": 1, "seconds": 25, "nproc": 2, "cpu_model": "cpu", "python": "3.11.7"}
    return {"workload": workload, "correct": True, "trace": trace, "config": {}, **meta, "metrics": metrics}


def layers(scale):
    return {m["name"]: {"value": scale * (i + 1), "unit": m["unit"]} for i, m in enumerate(BENCHMARK["per_layer"])}


def end_to_end(scale):
    return {m["name"]: {"value": scale * (i + 1), "unit": m["unit"]} for i, m in enumerate(BENCHMARK["end_to_end"])}


def write_runs(directory, records):
    directory.mkdir()
    for i, rec in enumerate(records):
        (directory / f"{rec['workload']}-{i:02d}.json").write_text(json.dumps(rec))


def test_traced_records_compare_per_layer_medians(tmp_path, capsys):
    write_runs(tmp_path / "a", [record(1, layers(1.0)), record(1, layers(3.0))])
    write_runs(tmp_path / "b", [record(1, layers(1.0)), record(1, layers(1.0))])
    assert bench_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = json.loads(capsys.readouterr().out)["workloads"]["ideal-lab"]["metrics"]
    assert list(out) == [m["name"] for m in BENCHMARK["per_layer"]]
    first = BENCHMARK["per_layer"][0]["name"]
    # medians of (1, 3) and (1, 1); no verdict on layers, which have no bounds
    assert out[first] == {"parent": 2.0, "change": 1.0, "ratio": 0.5}
    assert out["trace.overhead_s"]["ratio"] == 0.5


def test_untraced_records_still_get_verdicts(tmp_path, capsys):
    write_runs(tmp_path / "a", [record(0, end_to_end(1.0)), record(0, end_to_end(1.0))])
    write_runs(tmp_path / "b", [record(0, end_to_end(1.0)), record(0, end_to_end(1.0))])
    assert bench_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = json.loads(capsys.readouterr().out)["workloads"]["ideal-lab"]["metrics"]
    assert list(out) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert (out["items_per_s"]["gain"], out["items_per_s"]["worse_than_bound"]) == (False, False)


@pytest.mark.parametrize("odd_side", ["a", "b"])
def test_a_mix_of_traced_and_untraced_records_is_refused_by_file(tmp_path, odd_side):
    plain = [record(0, end_to_end(1.0)), record(0, end_to_end(1.0))]
    odd = [record(0, end_to_end(1.0)), record(1, layers(1.0))]
    write_runs(tmp_path / "a", odd if odd_side == "a" else plain)
    write_runs(tmp_path / "b", odd if odd_side == "b" else plain)
    odd_file = tmp_path / odd_side / "ideal-lab-01.json"
    with pytest.raises(SystemExit, match=f"{odd_file}: traced and untraced records cannot be compared together"):
        bench_diff.main([str(tmp_path / "a"), str(tmp_path / "b")])


def test_a_missing_metric_is_named_with_its_file(tmp_path):
    short = layers(1.0)
    del short["lab.is_closed.calls"]
    write_runs(tmp_path / "a", [record(1, layers(1.0))])
    write_runs(tmp_path / "b", [record(1, short)])
    with pytest.raises(SystemExit, match="ideal-lab-00.json: no lab.is_closed.calls metric"):
        bench_diff.main([str(tmp_path / "a"), str(tmp_path / "b")])
