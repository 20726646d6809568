"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
All checks are exact integer comparisons; the only tolerances are the
stated wall-clock budgets.
"""

import json
import math
import time
from itertools import permutations
from types import SimpleNamespace

import pytest

from nsdeg import (
    NumericalSemigroup,
    classify,
    herzog_consistency,
    unit_ideal,
)
from nsdeg.errors import NoValidOrientation
from nsdeg.lab import enumerate_ideals, is_closed, is_reflexive
from nsdeg.sweep import SweepConfig, run_sweep

from oracles import count_semigroups_of_genus, minimal_relation

GENUS_COUNTS_12 = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592]


def _line(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} - {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep12(tmp_path_factory):
    """The genus <= 12 sweep's summary, with its rows read back from the report."""
    path = tmp_path_factory.mktemp("sweep12") / "report.json"
    t0 = time.perf_counter()
    report = run_sweep(SweepConfig(max_genus=12, check_conjecture=True, output_format="json"), path)
    elapsed = time.perf_counter() - t0
    rows = json.loads(path.read_text())["rings"]
    return SimpleNamespace(
        rows=rows,
        genus_counts=report.genus_counts,
        conjecture=report.conjecture,
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def herzog_family():
    """Every non-symmetric minimally 3-generated semigroup, generators <= 40."""
    t0 = time.perf_counter()
    matched, mismatched, no_orientation = [], [], []
    for a in range(2, 41):
        for b in range(a + 1, 41):
            for c in range(b + 1, 41):
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                S = NumericalSemigroup([a, b, c])
                if S.generators != (a, b, c) or S.is_symmetric():
                    continue
                try:
                    hc = herzog_consistency(S)
                except NoValidOrientation:
                    no_orientation.append((a, b, c))
                    continue
                if hc.ddeg_match and hc.cdeg_in_candidates:
                    matched.append((a, b, c))
                else:
                    mismatched.append((a, b, c))
    return matched, mismatched, no_orientation, time.perf_counter() - t0


def test_criterion_1_golden_example():
    rep = classify(NumericalSemigroup([5, 7, 9]))
    values_ok = (
        rep.type_r == 2
        and rep.cdeg == 2
        and rep.ddeg == 1
        and rep.tdeg == 1
        and rep.almost_gorenstein is False
    )
    best = min(
        _timed_classify() for _ in range(200)
    )
    ok = _line(
        1,
        values_ok and best < 1e-3,
        f"type 2, cdeg 2, ddeg 1, tdeg 1, not almost Gorenstein; "
        f"best time {best * 1e6:.0f} us (< 1 ms)",
    )
    assert ok


def _timed_classify():
    t0 = time.perf_counter()
    classify(NumericalSemigroup([5, 7, 9]))
    return time.perf_counter() - t0


def test_criterion_2_gorenstein_vanishing(sweep12):
    bad = [
        r["generators"]
        for r in sweep12.rows
        if not r["properties"]["vanishing"]
    ]
    total = sum(sweep12.genus_counts.values())
    ok = _line(
        2,
        not bad and sweep12.elapsed < 10.0,
        f"cdeg=0 <=> ddeg=0 <=> symmetric on all {total} rings of genus <= 12 "
        f"in {sweep12.elapsed:.2f}s (< 10 s); violations: {bad[:5]}",
    )
    assert ok


def test_criterion_3_lower_bound_and_ag(sweep12):
    bad_bound = [r["generators"] for r in sweep12.rows if r["cdeg"] < r["type"] - 1]
    bad_ag = [
        r["generators"]
        for r in sweep12.rows
        if r["cdeg"] == r["type"] - 1 and r["type"] >= 2 and r["ddeg"] != 1
    ]
    ok = _line(
        3,
        not bad_bound and not bad_ag,
        f"cdeg >= type-1 everywhere; equality with type >= 2 forces ddeg = 1; "
        f"violations: {(bad_bound + bad_ag)[:5]}",
    )
    assert ok


def test_criterion_4_trace_identity(sweep12):
    bad = [r["generators"] for r in sweep12.rows if r["ddeg"] != r["tdeg"]]
    ok = _line(4, not bad, f"ddeg = tdeg on every ring; violations: {bad[:5]}")
    assert ok


def test_criterion_5_blowup_change_of_rings(sweep12):
    checked = [r for r in sweep12.rows if r["tcdeg"] is not None]
    bad = [r["generators"] for r in checked if not r["tcdeg"]["equal"]]
    ok = _line(
        5,
        not bad and len(checked) == sum(sweep12.genus_counts.values()) - 1,
        f"cdeg(M-M ring) = cdeg + e0 - 2*type on {len(checked)} non-DVR rings; "
        f"violations: {bad[:5]}",
    )
    assert ok


def test_criterion_6a_herzog_closed_form_on_its_domain(herzog_family):
    matched, mismatched, no_orientation, elapsed = herzog_family
    ok = _line(
        "6a",
        not mismatched and elapsed < 30.0,
        f"a1*b2*c1 = ddeg and cdeg in {{a1*b1*c1, a2*b2*c2}} on all "
        f"{len(matched)} rings admitting a normalized orientation "
        f"({elapsed:.1f}s < 30 s); mismatches: {mismatched[:5]}",
    )
    assert ok


def _broken_inequalities(gens):
    """One line per assignment (a, b, c) of ``gens``: the normalization
    inequalities its exponents break.

    The exponents are read slot by slot from the matrix relations
    (a1 + a2) a = b2 b + c1 c, (b1 + b2) b = a1 a + c2 c and
    (c1 + c2) c = a2 a + b1 b, with each relation found by trial division
    in ``tests/oracles.py``, not by ``nsdeg.herzog``.
    """
    relation = {}
    for g in gens:
        u, v = (x for x in gens if x != g)
        _, [(p, q)] = minimal_relation(g, u, v)
        relation[g] = {u: p, v: q}
    lines = []
    for a, b, c in permutations(gens):
        b2, c1 = relation[a][b], relation[a][c]
        a1, c2 = relation[b][a], relation[b][c]
        a2, b1 = relation[c][a], relation[c][b]
        rules = {"a1 <= a2": (a1, a2), "b2 <= b1": (b2, b1), "c1 <= c2": (c1, c2)}
        broken = [f"{rule} ({x} > {y})" for rule, (x, y) in rules.items() if x > y]
        lines.append(f"  (a, b, c) = {(a, b, c)} breaks {', '.join(broken) or 'nothing'}")
    return lines


def test_criterion_6b_herzog_orientation_always_exists(herzog_family):
    matched, _, no_orientation, _ = herzog_family
    ok = _line(
        "6b",
        not no_orientation,
        f"{len(no_orientation)} of {len(matched) + len(no_orientation)} rings "
        f"admit no orientation satisfying a1<=a2, b2<=b1, c1<=c2 "
        f"(first: {no_orientation[:5]})",
    )
    assert ok, (
        "The closed form's exponent normalization is unsatisfiable for "
        f"{len(no_orientation)} rings in the family, e.g. {no_orientation[:5]}. "
        "For (7, 9, 10) the ring is almost Gorenstein with ddeg = 1, the six "
        "assignments give consistent matrices with formula values "
        "{2, 3, 4, 6}, and every assignment violates at least one inequality, so no "
        "implementation can equate the normalized product with ddeg on these "
        "rings.  The closed form is verified exactly on every ring where the "
        "normalization holds (criterion 6a).  Per ring, each assignment and "
        "the inequalities it breaks:\n"
        + "\n".join(f"{gens}:\n" + "\n".join(_broken_inequalities(gens)) for gens in no_orientation[:5])
    )


def test_criterion_7_idealization_formulas():
    def idealization(gens):
        rep = classify(NumericalSemigroup(gens))
        return (rep.idealization_cdeg, rep.idealization_ddeg)

    pair = idealization([5, 7, 9])
    gor = idealization([2, 3])
    dvr = idealization([1])
    ok = _line(
        7,
        pair == (6, 1) and gor == (2, None) and dvr == (None, None),
        f"(5,7,9) -> {pair}; Gorenstein -> {gor}; DVR -> {dvr}",
    )
    assert ok


def test_criterion_8_closed_reflexive_principal():
    t0 = time.perf_counter()
    checked = 0
    violations = []
    for S in _semigroups_up_to_genus(10):
        if S.genus == 0:
            continue
        unit = unit_ideal(S)
        for E in enumerate_ideals(S):
            checked += 1
            if is_closed(E) and is_reflexive(E) and E != unit:
                violations.append((S.generators, E.elements_below_conductor()))
    elapsed = time.perf_counter() - t0
    ok = _line(
        8,
        not violations and elapsed < 60.0,
        f"only S itself is closed and reflexive among {checked} normalized "
        f"ideals over all semigroups of genus <= 10 ({elapsed:.1f}s < 60 s); "
        f"violations: {violations[:3]}",
    )
    assert ok


def _semigroups_up_to_genus(max_genus):
    from nsdeg.sweep import enumerate_semigroups

    return enumerate_semigroups(max_genus)


def test_criterion_9_enumeration_counts(sweep12):
    got = [sweep12.genus_counts.get(g, 0) for g in range(13)]
    brute = [count_semigroups_of_genus(g) for g in range(9)]
    ok = _line(
        9,
        got == GENUS_COUNTS_12 and brute == GENUS_COUNTS_12[:9],
        f"per-genus counts {got}; brute-force gap-subset recount agrees "
        f"for genus <= 8",
    )
    assert ok


def test_criterion_10_conjecture_report(sweep12):
    section = sweep12.conjecture
    counterexamples = None if section is None else section["counterexamples"]
    ok = _line(
        10,
        section is not None and counterexamples is not None,
        f"conjecture section present; statement {section['statement']!r}; "
        f"{len(counterexamples)} counterexample(s) recorded as data",
    )
    # a nonempty counterexample list is a finding, not a failure
    assert ok
    if counterexamples:
        print("conjecture counterexamples:", [r["generators"] for r in counterexamples])
