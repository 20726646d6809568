import csv
import hashlib
import io
import json

import pytest

from nsdeg import NumericalSemigroup, classify
from nsdeg.cli import main
from nsdeg.lab import DEFAULT_ENUMERATION_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degrees_human(capsys):
    code, out, _ = run(capsys, "degrees", "--gens", "5,7,9")
    assert code == 0
    assert "cdeg: 2" in out
    assert "ddeg: 1" in out
    assert "almost_gorenstein: false" in out
    assert "idealization_cdeg: 6" in out
    assert "idealization_ddeg: 1" in out


def test_degrees_large_canonical_index(capsys):
    code, out, err = run(capsys, "degrees", "--gens", "1001,1003,1009")
    assert code == 0, err
    assert "cdeg: 250" in out
    assert "ddeg: 3" in out
    assert "canonical_index: 112" in out


def test_degrees_gorenstein(capsys):
    code, out, _ = run(capsys, "degrees", "--gens", "2,3")
    assert code == 0
    assert "gorenstein: true" in out
    assert "cdeg: 0" in out
    assert "ddeg: 0" in out
    assert "tdeg: 0" in out
    assert "idealization_ddeg: absent" in out


def test_degrees_json_roundtrip(capsys):
    code, out, _ = run(capsys, "degrees", "--gens", "5,7,9", "--json")
    assert code == 0
    payload = json.loads(out)
    recomputed = classify(NumericalSemigroup(payload["generators"])).to_dict()
    assert payload == recomputed


def test_human_and_json_agree(capsys):
    _, human, _ = run(capsys, "degrees", "--gens", "3,4,5")
    _, raw, _ = run(capsys, "degrees", "--gens", "3,4,5", "--json")
    payload = json.loads(raw)
    for key in ("cdeg", "ddeg", "tdeg", "canonical_index"):
        assert f"{key}: {payload[key]}" in human


def test_info(capsys):
    code, out, _ = run(capsys, "info", "--gens", "5,7,9")
    assert code == 0
    assert "frobenius: 13" in out
    assert "genus: 8" in out
    assert "gaps: 1,2,3,4,6,8,11,13" in out
    code, out, _ = run(capsys, "info", "--gens", "5,7,9", "--json")
    assert json.loads(out)["type"] == 2


def test_ideal_bidual(capsys):
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "bidual")
    assert code == 0
    assert "elements_below_conductor: 0,2,5,7" in out
    assert "conductor: 9" in out  # 9..13 merge with the tail after adding 13


def test_ideal_dual_and_trace(capsys):
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "dual")
    assert code == 0
    assert "elements_below_conductor: 5,7,10,12" in out
    assert "conductor: 14" in out
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "trace")
    assert code == 0
    assert "offset: 5" in out  # trace of the canonical ideal is M


def test_ideal_flags(capsys):
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "closed")
    assert code == 0 and "closed: true" in out
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "reflexive")
    assert code == 0 and "reflexive: false" in out
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "closed", "--json")
    assert code == 0 and out == '{"closed": true}\n'
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "reflexive", "--json")
    assert code == 0 and out == '{"reflexive": false}\n'
    code, out, _ = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "profile", "--json")
    payload = json.loads(out)
    assert payload["rel_ddeg"] == 1
    assert payload["canonical"] is True


def test_herzog(capsys):
    code, out, _ = run(capsys, "herzog", "--gens", "5,7,9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["assignment"] == [7, 9, 5]
    assert payload["consistency"]["ddeg_match"] is True
    code, out, _ = run(capsys, "herzog", "--gens", "5,7,9")
    assert "ddeg_formula: 1" in out


def test_lab_csv(capsys):
    code, out, _ = run(capsys, "lab", "--gens", "3,4,5", "--enumerate-ideals")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert rows[0]["gap_subset_mask"] == "0"
    assert rows[0]["principal"] == "true"
    assert [r["gap_subset_mask"] for r in rows] == ["0", "1", "2", "3"]


def test_lab_refuses_the_worst_case_past_the_cap(capsys):
    # all 2**g gap subsets of the ordinary semigroup <g+1, ..., 2g+1> are
    # ideals, so it is the costliest ring of its genus to enumerate
    g = DEFAULT_ENUMERATION_CAP + 1
    gens = ",".join(str(x) for x in range(g + 1, 2 * g + 2))
    code, out, err = run(capsys, "lab", "--gens", gens, "--enumerate-ideals")
    assert code == 1
    assert "TooLarge" in err
    assert out == ""


def test_sweep_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "sweep", "--max-genus", "4", "--check-conjecture",
        "--out", str(out_path), "--format", "csv",
    )
    assert code == 0
    assert "rings: 15" in out
    assert "conjecture cdeg >= ddeg: 0 counterexample(s)" in out
    text = out_path.read_text()
    assert text.startswith("genus,generators,")
    assert len(text.splitlines()) == 16

    json_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "sweep", "--max-genus", "4", "--out", str(json_path), "--format", "json",
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    assert payload["genus_counts"] == {"0": 1, "1": 1, "2": 2, "3": 4, "4": 7}


def test_sweep_deterministic_output(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        run(capsys, "sweep", "--max-genus", "5", "--out", str(p), "--format", "json")
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


# Digests of the genus <= 12 reports as first recorded; a change that
# alters any value, row order or formatting in either report breaks them.
GOLDEN_REPORTS_12 = {
    "csv": ("74c7e7886180ca81a6b5217d25e3236ec0586eb68204a5cd535f854aa5efc6df", 83290),
    "json": ("e4b6291820caadb816074bc26284946e63f095d215c4f0721a12b4309d0b87f6", 1159659),
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_REPORTS_12))
def test_sweep_golden_report(tmp_path, capsys, fmt):
    path = tmp_path / f"report.{fmt}"
    code, _, _ = run(
        capsys, "sweep", "--max-genus", "12", "--check-conjecture", "--check-herzog",
        "--out", str(path), "--format", fmt,
    )
    assert code == 0
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN_REPORTS_12[fmt]


def test_sweep_exit_codes(tmp_path, capsys, monkeypatch):
    import nsdeg.cli as cli_mod

    real = cli_mod.run_sweep

    def with_property_failure(cfg, out):
        report = real(cfg, out)
        report.properties["vanishing"]["failures"].append([9, 9])
        return report

    monkeypatch.setattr(cli_mod, "run_sweep", with_property_failure)
    code, _, _ = run(capsys, "sweep", "--max-genus", "2", "--out", str(tmp_path / "a.csv"))
    assert code == 3

    def with_counterexample(cfg, out):
        report = real(cfg, out)
        with open(out, newline="") as fh:
            first_row = next(csv.DictReader(fh))
        report.conjecture["counterexamples"].append(first_row)
        return report

    monkeypatch.setattr(cli_mod, "run_sweep", with_counterexample)
    code, out, _ = run(
        capsys, "sweep", "--max-genus", "2", "--check-conjecture",
        "--out", str(tmp_path / "b.csv"),
    )
    assert code == 0  # counterexamples alone are data
    assert "conjecture cdeg >= ddeg: 1 counterexample(s)" in out
    code, _, _ = run(
        capsys, "sweep", "--max-genus", "2", "--check-conjecture",
        "--strict-conjecture", "--out", str(tmp_path / "c.csv"),
    )
    assert code == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_sweep_leaves_out_unchanged(tmp_path, capsys, monkeypatch, fmt, jobs):
    import nsdeg.sweep as sweep_mod
    from nsdeg.errors import InternalInvariantViolation

    real = sweep_mod.evaluate_ring
    seen = []

    # In-process, the 20th ring fails; forked workers inherit the patch
    # but count apart, so there the ring <5,7,9> (genus 8) fails.
    def failing(S, check_herzog=False):
        seen.append(S.generators)
        if (jobs == "1" and len(seen) == 20) or S.generators == (5, 7, 9):
            raise InternalInvariantViolation("planted failure")
        return real(S, check_herzog)

    monkeypatch.setattr(sweep_mod, "evaluate_ring", failing)
    out_path = tmp_path / f"report.{fmt}"
    out_path.write_bytes(b"an earlier report\n")
    code, _, err = run(
        capsys, "sweep", "--max-genus", "9", "--out", str(out_path), "--format", fmt,
        "--jobs", jobs,
    )
    assert code == 2
    assert "planted failure" in err
    if jobs == "1":
        assert len(seen) == 20
    assert out_path.read_bytes() == b"an earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == [out_path.name]


def test_sweep_past_the_genus_cap_is_refused(tmp_path, capsys):
    from nsdeg.sweep import HARD_MAX_GENUS

    out_path = tmp_path / "report.csv"
    code, _, err = run(
        capsys, "sweep", "--max-genus", str(HARD_MAX_GENUS + 1), "--out", str(out_path),
    )
    assert code == 1
    assert "CapExceeded" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_into_a_missing_directory_is_an_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.csv"
    code, out, err = run(capsys, "sweep", "--max-genus", "2", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: FileNotFoundError: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_missing_directory_error_names_the_out_path(tmp_path, capsys):
    out_path = tmp_path / "missing" / "r.csv"
    code, _, err = run(capsys, "sweep", "--max-genus", "2", "--out", str(out_path))
    assert code == 1
    assert f"'{out_path}'" in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_names_flag(capsys):
    code, _, err = run(capsys, "degrees", "--gens", "5,x,9")
    assert code == 1
    assert "--gens" in err
    code, _, err = run(capsys, "degrees")
    assert code == 1
    assert "--gens" in err
    code, _, err = run(capsys, "ideal", "--gens", "5,7,9", "--ideal", "0,2", "--op", "nope")
    assert code == 1
    assert "--op" in err


def test_computational_errors_verbatim(capsys):
    code, _, err = run(capsys, "degrees", "--gens", "6,9")
    assert code == 1
    assert "GcdNotOne" in err
    code, _, err = run(capsys, "herzog", "--gens", "4,5,6")
    assert code == 1
    assert "SymmetricSemigroup" in err
    code, _, err = run(capsys, "herzog", "--gens", "2,3")
    assert code == 1
    assert "NotThreeGenerated" in err
    code, _, err = run(capsys, "herzog", "--gens", "7,9,10")
    assert code == 1
    assert "NoValidOrientation" in err


def test_help_exits_clean(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "sweep" in out


def test_python_dash_m_runs_the_cli(capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nsdeg

    # from a source checkout: nsdeg is importable only through PYTHONPATH
    src = str(Path(nsdeg.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "nsdeg", "info", "--gens", "5,7,9"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    code, out, _ = run(capsys, "info", "--gens", "5,7,9")
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert "gaps: 1,2,3,4,6,8,11,13" in out
