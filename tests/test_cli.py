import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dangling", [False, True])
def test_sweep_through_a_symlink_writes_the_file_it_names(tmp_path, capsys, fmt, dangling):
    # the link and its target in different directories: the temporary
    # files go beside the target, and the link stays a link
    direct = tmp_path / f"direct.{fmt}"
    assert run(capsys, "sweep", "--max-genus", "3", "--out", str(direct), "--format", fmt)[0] == 0
    data = tmp_path / "data"
    data.mkdir()
    target = data / f"target.{fmt}"
    if not dangling:
        target.write_text("old\n")
    links = tmp_path / "links"
    links.mkdir()
    link = links / f"link.{fmt}"
    link.symlink_to(target)
    code, out, err = run(capsys, "sweep", "--max-genus", "3", "--out", str(link), "--format", fmt)
    assert (code, err) == (0, "")
    assert out.endswith(f"report written to {link}\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == direct.read_bytes()
    assert [p.name for p in data.iterdir()] == [target.name]
    assert [p.name for p in links.iterdir()] == [link.name]


def test_sweep_refuses_an_out_that_is_not_a_regular_file(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    link = tmp_path / "link"
    link.symlink_to(fifo)
    for out_path in (fifo, link):
        code, out, err = run(capsys, "sweep", "--max-genus", "3", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == f"error: OSError: not a regular file: '{out_path}'\n"
        assert stat.S_ISFIFO(fifo.stat().st_mode) and link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link"]


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


# One line per invocation: the command line (split on single spaces, so
# two spaces hold an empty argument) -> exit code and the first 16 hex
# digits of the sha256 of stdout, a NUL byte and stderr, as first
# recorded.  Every command, every --op, text and --json, on rings from
# the full one to conductors near 10**5, and the input errors; a change
# to any byte of any of these outputs breaks it.
CLI_GOLDEN = {
    "info --gens 1": (0, "5d1f5c7938dbc02a"),
    "info --gens 1 --json": (0, "d9273a83b1c5446f"),
    "degrees --gens 1": (0, "94d07ad8434b3746"),
    "degrees --gens 1 --json": (0, "d6714ba8c54ebdbd"),
    "herzog --gens 1": (1, "64bcf7e29ac2e329"),
    "herzog --gens 1 --json": (1, "64bcf7e29ac2e329"),
    "ideal --gens 1 --ideal 0 --op bidual": (0, "695b5ea7e549e451"),
    "ideal --gens 1 --ideal 0 --op bidual --json": (0, "2f648950ff127531"),
    "ideal --gens 1 --ideal 0 --op trace": (0, "9fa9162064672950"),
    "ideal --gens 1 --ideal 0 --op trace --json": (0, "2f648950ff127531"),
    "ideal --gens 1 --ideal 0 --op dual": (0, "dd4264a58ddc77d8"),
    "ideal --gens 1 --ideal 0 --op dual --json": (0, "2f648950ff127531"),
    "ideal --gens 1 --ideal 0 --op closed": (0, "0320b3ecaaf640e0"),
    "ideal --gens 1 --ideal 0 --op closed --json": (0, "87c90eb5c8b2256f"),
    "ideal --gens 1 --ideal 0 --op reflexive": (0, "405f6860290063c3"),
    "ideal --gens 1 --ideal 0 --op reflexive --json": (0, "f61ead203e1cd7c4"),
    "ideal --gens 1 --ideal 0 --op profile": (0, "a2490094fd2070da"),
    "ideal --gens 1 --ideal 0 --op profile --json": (0, "19be22994ad023a1"),
    "info --gens 2,3": (0, "54839e2e037d712a"),
    "info --gens 2,3 --json": (0, "91a02e749b10b3c9"),
    "degrees --gens 2,3": (0, "2c3c9bd1273271e7"),
    "degrees --gens 2,3 --json": (0, "9b03bb573a52a82d"),
    "herzog --gens 2,3": (1, "7893984a659b1b9f"),
    "herzog --gens 2,3 --json": (1, "7893984a659b1b9f"),
    "ideal --gens 2,3 --ideal 0,1 --op bidual": (0, "695b5ea7e549e451"),
    "ideal --gens 2,3 --ideal 0,1 --op bidual --json": (0, "5689b7f3ee86db71"),
    "ideal --gens 2,3 --ideal 0,1 --op trace": (0, "c566badc0c008d65"),
    "ideal --gens 2,3 --ideal 0,1 --op trace --json": (0, "d8922eb8d94847ab"),
    "ideal --gens 2,3 --ideal 0,1 --op dual": (0, "05ace4de9ce14edf"),
    "ideal --gens 2,3 --ideal 0,1 --op dual --json": (0, "d8922eb8d94847ab"),
    "ideal --gens 2,3 --ideal 0,1 --op closed": (0, "7e10ee36589c373d"),
    "ideal --gens 2,3 --ideal 0,1 --op closed --json": (0, "7c47ef746f517045"),
    "ideal --gens 2,3 --ideal 0,1 --op reflexive": (0, "405f6860290063c3"),
    "ideal --gens 2,3 --ideal 0,1 --op reflexive --json": (0, "f61ead203e1cd7c4"),
    "ideal --gens 2,3 --ideal 0,1 --op profile": (0, "c45f7297b005f8be"),
    "ideal --gens 2,3 --ideal 0,1 --op profile --json": (0, "50f88ac948fdd5c2"),
    "info --gens 3,4,5": (0, "d7eac222a45b6784"),
    "info --gens 3,4,5 --json": (0, "e25400b43309f337"),
    "degrees --gens 3,4,5": (0, "d3323ce4b034844d"),
    "degrees --gens 3,4,5 --json": (0, "9ee77c6a9581a02e"),
    "herzog --gens 3,4,5": (0, "d5a9cf828ff04921"),
    "herzog --gens 3,4,5 --json": (0, "80fe4cc8fa9a497e"),
    "ideal --gens 3,4,5 --ideal 0,1 --op bidual": (0, "695b5ea7e549e451"),
    "ideal --gens 3,4,5 --ideal 0,1 --op bidual --json": (0, "d42551027f4aca1c"),
    "ideal --gens 3,4,5 --ideal 0,1 --op trace": (0, "00197f0f5dc8ac3e"),
    "ideal --gens 3,4,5 --ideal 0,1 --op trace --json": (0, "a965d994d4bbbb50"),
    "ideal --gens 3,4,5 --ideal 0,1 --op dual": (0, "9208ed5dbe9eb340"),
    "ideal --gens 3,4,5 --ideal 0,1 --op dual --json": (0, "a965d994d4bbbb50"),
    "ideal --gens 3,4,5 --ideal 0,1 --op closed": (0, "0320b3ecaaf640e0"),
    "ideal --gens 3,4,5 --ideal 0,1 --op closed --json": (0, "87c90eb5c8b2256f"),
    "ideal --gens 3,4,5 --ideal 0,1 --op reflexive": (0, "a21790a59af99336"),
    "ideal --gens 3,4,5 --ideal 0,1 --op reflexive --json": (0, "3026d47cdf3f403f"),
    "ideal --gens 3,4,5 --ideal 0,1 --op profile": (0, "6fec286477b576ff"),
    "ideal --gens 3,4,5 --ideal 0,1 --op profile --json": (0, "98b0499f5ba3a9e8"),
    "info --gens 5,7,9": (0, "5134d6a788b89cad"),
    "info --gens 5,7,9 --json": (0, "0e109136783ea707"),
    "degrees --gens 5,7,9": (0, "e227e86599494674"),
    "degrees --gens 5,7,9 --json": (0, "e33a81d92a88239d"),
    "herzog --gens 5,7,9": (0, "08a98b8bc4042310"),
    "herzog --gens 5,7,9 --json": (0, "40b49c518bd71326"),
    "ideal --gens 5,7,9 --ideal 0,2 --op bidual": (0, "b1c48da9a0c0e6f2"),
    "ideal --gens 5,7,9 --ideal 0,2 --op bidual --json": (0, "067d207ebbdf172f"),
    "ideal --gens 5,7,9 --ideal 0,2 --op trace": (0, "789f1c309948c4f9"),
    "ideal --gens 5,7,9 --ideal 0,2 --op trace --json": (0, "ffe52d3ad3cc70a4"),
    "ideal --gens 5,7,9 --ideal 0,2 --op dual": (0, "a4efd2416be54133"),
    "ideal --gens 5,7,9 --ideal 0,2 --op dual --json": (0, "5ceb38916912ed09"),
    "ideal --gens 5,7,9 --ideal 0,2 --op closed": (0, "0320b3ecaaf640e0"),
    "ideal --gens 5,7,9 --ideal 0,2 --op closed --json": (0, "87c90eb5c8b2256f"),
    "ideal --gens 5,7,9 --ideal 0,2 --op reflexive": (0, "a21790a59af99336"),
    "ideal --gens 5,7,9 --ideal 0,2 --op reflexive --json": (0, "3026d47cdf3f403f"),
    "ideal --gens 5,7,9 --ideal 0,2 --op profile": (0, "20028aeec20f008e"),
    "ideal --gens 5,7,9 --ideal 0,2 --op profile --json": (0, "ef7e11dd3434b571"),
    "ideal --gens 5,7,9 --ideal 3,5 --op bidual": (0, "90bfa567835ed434"),
    "ideal --gens 5,7,9 --ideal 3,5 --op bidual --json": (0, "94b4c09e266b33b1"),
    "ideal --gens 5,7,9 --ideal 3,5 --op trace": (0, "789f1c309948c4f9"),
    "ideal --gens 5,7,9 --ideal 3,5 --op trace --json": (0, "ffe52d3ad3cc70a4"),
    "ideal --gens 5,7,9 --ideal 3,5 --op dual": (0, "d2fbb68869e3e12e"),
    "ideal --gens 5,7,9 --ideal 3,5 --op dual --json": (0, "65d5164595d52329"),
    "ideal --gens 5,7,9 --ideal 3,5 --op closed": (0, "0320b3ecaaf640e0"),
    "ideal --gens 5,7,9 --ideal 3,5 --op closed --json": (0, "87c90eb5c8b2256f"),
    "ideal --gens 5,7,9 --ideal 3,5 --op reflexive": (0, "a21790a59af99336"),
    "ideal --gens 5,7,9 --ideal 3,5 --op reflexive --json": (0, "3026d47cdf3f403f"),
    "ideal --gens 5,7,9 --ideal 3,5 --op profile": (0, "20028aeec20f008e"),
    "ideal --gens 5,7,9 --ideal 3,5 --op profile --json": (0, "ef7e11dd3434b571"),
    "info --gens 7,9,10": (0, "1f033d5edd73d4af"),
    "info --gens 7,9,10 --json": (0, "8adf9862c042240f"),
    "degrees --gens 7,9,10": (0, "c87ddec6b6c7354c"),
    "degrees --gens 7,9,10 --json": (0, "94e76db54c0756d1"),
    "herzog --gens 7,9,10": (1, "7930c6abf04d9c90"),
    "herzog --gens 7,9,10 --json": (1, "7930c6abf04d9c90"),
    "ideal --gens 7,9,10 --ideal 0,1 --op bidual": (0, "bcfed690fd804e8f"),
    "ideal --gens 7,9,10 --ideal 0,1 --op bidual --json": (0, "15ec586454cc0396"),
    "ideal --gens 7,9,10 --ideal 0,1 --op trace": (0, "c87c6aaa0efd413e"),
    "ideal --gens 7,9,10 --ideal 0,1 --op trace --json": (0, "055a3fae02ea1967"),
    "ideal --gens 7,9,10 --ideal 0,1 --op dual": (0, "00acf713168fcda2"),
    "ideal --gens 7,9,10 --ideal 0,1 --op dual --json": (0, "d79721657940e366"),
    "ideal --gens 7,9,10 --ideal 0,1 --op closed": (0, "7e10ee36589c373d"),
    "ideal --gens 7,9,10 --ideal 0,1 --op closed --json": (0, "7c47ef746f517045"),
    "ideal --gens 7,9,10 --ideal 0,1 --op reflexive": (0, "a21790a59af99336"),
    "ideal --gens 7,9,10 --ideal 0,1 --op reflexive --json": (0, "3026d47cdf3f403f"),
    "ideal --gens 7,9,10 --ideal 0,1 --op profile": (0, "0694ffae3772fef4"),
    "ideal --gens 7,9,10 --ideal 0,1 --op profile --json": (0, "e20afe10fad3d87b"),
    "info --gens 101,203,307": (0, "20acd9e86ee29731"),
    "info --gens 101,203,307 --json": (0, "aa34e40624fc0686"),
    "degrees --gens 101,203,307": (0, "ba740d5e5807ac62"),
    "degrees --gens 101,203,307 --json": (0, "20dbc64eae68aee9"),
    "herzog --gens 101,203,307": (0, "693f56fe26d0c4d3"),
    "herzog --gens 101,203,307 --json": (0, "8caecac125e33107"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op bidual": (0, "194738c214aea095"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op bidual --json": (0, "ecd35ce010d61cea"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op trace": (0, "2845afe581c1f21c"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op trace --json": (0, "f5762919fa4e4bfd"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op dual": (0, "088c086013d5432b"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op dual --json": (0, "ee7d5593c60cc3d1"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op closed": (0, "7e10ee36589c373d"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op closed --json": (0, "7c47ef746f517045"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op reflexive": (0, "a21790a59af99336"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op reflexive --json": (0, "3026d47cdf3f403f"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op profile": (0, "a7ed678e223f5a54"),
    "ideal --gens 101,203,307 --ideal 0,4,9 --op profile --json": (0, "3145df0b0dfc30db"),
    "info --gens 1001,1003,1009": (0, "9de02a1d8e29ec41"),
    "info --gens 1001,1003,1009 --json": (0, "e84fed8112e451db"),
    "degrees --gens 1001,1003,1009": (0, "9409084e5c53ac49"),
    "degrees --gens 1001,1003,1009 --json": (0, "cd7796914e18fe64"),
    "herzog --gens 1001,1003,1009": (0, "29e3a1d58053b839"),
    "herzog --gens 1001,1003,1009 --json": (0, "ecff4ee7051cf532"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op bidual": (0, "c5d715a4ea1c05b1"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op bidual --json": (0, "8b91f742d2d760ce"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op trace": (0, "5c4b2bc197f11ed2"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op trace --json": (0, "a96e895bb647923e"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op dual": (0, "5ab54ace066de57c"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op dual --json": (0, "206d06d362f1e900"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op closed": (0, "7e10ee36589c373d"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op closed --json": (0, "7c47ef746f517045"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op reflexive": (0, "a21790a59af99336"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op reflexive --json": (0, "3026d47cdf3f403f"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op profile": (0, "75c72108ea73371a"),
    "ideal --gens 1001,1003,1009 --ideal 0,2 --op profile --json": (0, "fa91935139e7d3c2"),
    "lab --gens 1 --enumerate-ideals": (1, "f96505de05b54e19"),
    "lab --gens 2,3 --enumerate-ideals": (0, "2f6b66881382f903"),
    "lab --gens 3,4,5 --enumerate-ideals": (0, "3822aa79a85609c9"),
    "lab --gens 5,7,9 --enumerate-ideals": (0, "206582d7dc4f0113"),
    "lab --gens 7,9,10 --enumerate-ideals": (0, "78c4f7127d21f793"),
    "info --gens 4,6": (1, "4ef868c2a4706ac4"),
    "degrees --gens 4,6 --json": (1, "4ef868c2a4706ac4"),
    "info --gens 0,3": (1, "4c155b65340e114b"),
    "degrees --gens 0,3 --json": (1, "4c155b65340e114b"),
    "info --gens x": (1, "97ea67b1ea94ccd4"),
    "degrees --gens x --json": (1, "97ea67b1ea94ccd4"),
    "info --gens ": (1, "c2f32b863ad4194d"),
    "degrees --gens  --json": (1, "c2f32b863ad4194d"),
    "ideal --gens 5,7,9 --ideal  --op dual": (1, "6e1c0f5138661d89"),
    "lab --gens 21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41 --enumerate-ideals": (1, "f2fe4e69dc82f063"),
    "sweep --max-genus 40 --out r.csv": (1, "c66388481b9183ca"),
}


@pytest.mark.parametrize("line", sorted(CLI_GOLDEN))
def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *line.split(" "))
    digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()[:16]
    assert (code, digest) == CLI_GOLDEN[line], (out, err)
    assert list(tmp_path.iterdir()) == []


_OPS = ["bidual", "trace", "dual", "closed", "reflexive", "profile"]
_gens_arg = st.one_of(
    st.lists(st.integers(min_value=-1, max_value=60), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", ",", "x", "5,,7", "5, 7"]),
)
_ideal_arg = st.lists(st.integers(min_value=-2**63, max_value=2**63), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs)))


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(["info", "degrees", "herzog", "ideal", "lab"]))
    # --opt=value, so that a value starting with "-" is never read as an option
    argv = [command, f"--gens={draw(_gens_arg)}"]
    if command == "ideal":
        argv += [f"--ideal={draw(_ideal_arg)}", f"--op={draw(st.sampled_from(_OPS))}"]
    if command == "lab":
        argv.append("--enumerate-ideals")
    elif draw(st.booleans()):
        argv.append("--json")
    return argv


@given(_command_lines())
@settings(max_examples=300, deadline=None)
def test_exit_codes_follow_the_contract(argv):
    # 0 with an answer, or 1 with nothing on stdout and one error line;
    # 2 would be an internal bug, and no input here should reach one
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error: ", "usage error: ")), (argv, lines)
        assert err.getvalue().endswith("\n")


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


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("argv", [
    ["info", "--gens", "5,7,9"],
    ["degrees", "--gens", "5,7,9", "--json"],
    ["lab", "--gens", "3,4,5", "--enumerate-ideals"],
])
def test_a_closed_stdout_pipe_is_one_error_line(argv):
    # click meets the pipe error by swapping both streams for wrappers and
    # exiting; main returns 1 instead, on the streams it was called with
    pipe, err = _ClosedPipe(), io.StringIO()
    with contextlib.redirect_stdout(pipe), contextlib.redirect_stderr(err):
        code = main(argv)
        assert (sys.stdout, sys.stderr) == (pipe, err)
    assert code == 1
    assert err.getvalue() == "error: BrokenPipeError: [Errno 32] Broken pipe\n"


def _nsdeg_process_env():
    # nsdeg from this checkout, with stdout block-buffered as in a plain shell:
    # PYTHONUNBUFFERED would hide the bytes a failed flush leaves behind
    import nsdeg

    env = dict(os.environ, PYTHONPATH=str(Path(nsdeg.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_a_pipe_closed_before_the_first_write_gets_one_error_line():
    # a few bytes into a pipe with no reader: the failed flush leaves them in
    # stdout's buffer, and the interpreter's last flush must not retry them
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nsdeg", "info", "--gens", "5,7,9"],
            stdout=write_end, stderr=subprocess.PIPE, env=_nsdeg_process_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_a_reader_closing_the_pipe_early_gets_one_error_line():
    # about 3 MB of gaps behind a pipe that holds far less: nsdeg is still
    # writing when the reader takes 10 bytes and closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "nsdeg", "info", "--gens", "1000,1001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_nsdeg_process_env(),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert head == b"generators"
    # no "Exception ignored" line from the interpreter's last flush
    assert err == b"error: BrokenPipeError: [Errno 32] Broken pipe\n"
