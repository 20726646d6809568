import hashlib
import json
from collections import Counter
from dataclasses import replace
from itertools import combinations
from math import gcd

import pytest

from nsdeg import (
    AmbiguousDecomposition,
    InternalInvariantViolation,
    NotThreeGenerated,
    NoValidOrientation,
    NsdegError,
    NumericalSemigroup,
    SymmetricSemigroup,
    cdeg,
    classify,
    ddeg,
    herzog_consistency,
    herzog_matrix,
)
from nsdeg.herzog import _minimal_relation
from nsdeg.sweep import enumerate_semigroups

from oracles import minimal_relation, representations

#: Every (g, u, v) with u < v and g outside {u, v}, all in [2, 40).
RELATION_FAMILY = [(g, u, v) for u, v in combinations(range(2, 40), 2) for g in range(2, 40) if g not in (u, v)]


def test_herzog_outputs_are_pinned():
    # every gcd-1 triple of [3, 40]: the payload that `nsdeg herzog --json`
    # prints plus the realized label, or the error, one line each, hashed in
    # order; any change to an assignment, an exponent, a verdict or a name
    # changes the digest
    digest, outcomes = hashlib.sha256(), Counter()
    for gens in combinations(range(3, 41), 3):
        if gcd(*gens) != 1:
            continue
        try:
            hc = herzog_consistency(NumericalSemigroup(gens))
        except NsdegError as e:
            line = f"{type(e).__name__}: {e}"
            outcomes[type(e).__name__] += 1
        else:
            line = json.dumps({**hc.data.to_dict(), "consistency": hc.to_dict(), "realized": hc.cdeg_realized})
            outcomes["oriented"] += 1
        digest.update(f"{line}\n".encode())
    assert outcomes == {"oriented": 2891, "NoValidOrientation": 340,
                        "SymmetricSemigroup": 1836, "NotThreeGenerated": 2070}
    assert digest.hexdigest() == "52bc244df5be2a46664ba5a24da909a887d3a3fbe2ca2c330dd088eefba8b242"


def test_five_seven_nine():
    data = herzog_matrix(NumericalSemigroup([5, 7, 9]))
    assert data.assignment == (7, 9, 5)
    assert data.exponents == (1, 1, 2, 1, 1, 4)
    assert data.ddeg_formula == 1
    assert data.cdeg_candidates == (2, 4)


def test_three_four_five():
    data = herzog_matrix(NumericalSemigroup([3, 4, 5]))
    assert data.assignment == (3, 4, 5)
    assert data.exponents == (1, 2, 1, 1, 1, 1)
    assert data.ddeg_formula == 1
    assert data.cdeg_candidates == (1, 2)


def test_rejections():
    with pytest.raises(NotThreeGenerated):
        herzog_matrix(NumericalSemigroup([2, 3]))
    with pytest.raises(NotThreeGenerated):
        herzog_matrix(NumericalSemigroup([4, 5, 6, 7]))
    with pytest.raises(SymmetricSemigroup):
        herzog_matrix(NumericalSemigroup([4, 5, 6]))


def test_consistency_seven_nine_eleven():
    hc = herzog_consistency(NumericalSemigroup([7, 9, 11]))
    assert hc.ddeg_match
    assert hc.cdeg_in_candidates
    assert hc.formula_ddeg == hc.direct_ddeg


def test_consistency_golden_values():
    hc = herzog_consistency(NumericalSemigroup([5, 7, 9]))
    assert (hc.direct_cdeg, hc.direct_ddeg) == (2, 1)
    assert hc.direct_cdeg in (2, 4)
    hc = herzog_consistency(NumericalSemigroup([3, 4, 5]))
    assert (hc.direct_cdeg, hc.direct_ddeg) == (1, 1)


def test_no_valid_orientation_is_reported_not_repaired():
    # smallest ring whose exponents violate the normalization in every
    # assignment; ddeg = 1 there while every oriented product is >= 2
    S = NumericalSemigroup([7, 9, 10])
    assert ddeg(S) == 1
    with pytest.raises(NoValidOrientation):
        herzog_matrix(S)


@pytest.mark.parametrize("patched", [
    {9: (3, {5: 3, 7: 0})},  # a zero coefficient: 7 would get the pair (1, 0)
    {5: (4, {7: 1, 9: 2})},  # 5's pair (1, 4) no longer sums to its multiple
])
def test_exponents_that_break_herzogs_theorem_are_a_bug(monkeypatch, patched):
    # <5, 7, 9> has the relations 5*5 = 7 + 2*9, 2*7 = 5 + 9, 3*9 = 4*5 + 7;
    # positivity and the sums hold in every assignment or in none, so a
    # failure is an internal error, not a ring without an orientation
    import nsdeg.herzog as herzog_mod

    real = herzog_mod._minimal_relation
    monkeypatch.setattr(herzog_mod, "_minimal_relation", lambda g, u, v: patched.get(g) or real(g, u, v))
    with pytest.raises(InternalInvariantViolation, match="not a positive split"):
        herzog_matrix(NumericalSemigroup([5, 7, 9]))


def test_identities_and_minimality_independent_recheck():
    for S in enumerate_semigroups(9):
        if S.embedding_dim != 3 or S.genus == 0 or S.is_symmetric():
            continue
        try:
            data = herzog_matrix(S)
        except NoValidOrientation:
            continue
        a, b, c = data.assignment
        a1, a2, b1, b2, c1, c2 = data.exponents
        assert a1 * a + c2 * c == (b1 + b2) * b
        assert (a1 + a2) * a == b2 * b + c1 * c
        assert b1 * b + a2 * a == (c1 + c2) * c
        # pure powers are minimal in the subsemigroup of the other two
        for g, n in ((a, a1 + a2), (b, b1 + b2), (c, c1 + c2)):
            u, v = (x for x in (a, b, c) if x != g)
            assert representations(n * g, u, v)
            assert not any(representations(k * g, u, v) for k in range(1, n))


def test_formula_matches_direct_on_small_family():
    for S in enumerate_semigroups(9):
        if S.embedding_dim != 3 or S.genus == 0 or S.is_symmetric():
            continue
        try:
            hc = herzog_consistency(S)
        except NoValidOrientation:
            continue
        assert hc.ddeg_match, S
        assert hc.cdeg_in_candidates, S


def test_consistency_from_a_degree_report_matches_the_direct_counts():
    # the sweep passes classify's report; the one-argument call counts
    # cdeg and ddeg itself, and both give the same verdicts and values
    checked = unoriented = 0
    for S in enumerate_semigroups(12):
        if S.embedding_dim != 3 or S.genus == 0 or S.is_symmetric():
            continue
        try:
            alone = herzog_consistency(S)
        except NoValidOrientation:
            with pytest.raises(NoValidOrientation):
                herzog_consistency(S, classify(S))
            unoriented += 1
            continue
        assert herzog_consistency(S, classify(S)) == alone, S
        checked += 1
    assert (checked, unoriented) == (71, 1)  # the one without: <7, 9, 10>
    with pytest.raises(ValueError, match="degree report"):
        herzog_consistency(NumericalSemigroup([5, 7, 9]), classify(NumericalSemigroup([7, 9, 11])))


def test_realized_label_matches_a_recount_from_the_exponents():
    # the label a sweep records is which product the direct cdeg equals,
    # recounted here from the exponents alone
    labels = Counter()
    for S in enumerate_semigroups(12):
        if S.embedding_dim != 3 or S.genus == 0 or S.is_symmetric():
            continue
        try:
            hc = herzog_consistency(S, classify(S))
        except NoValidOrientation:
            continue
        a1, a2, b1, b2, c1, c2 = hc.data.exponents
        first, second = a1 * b1 * c1 == hc.direct_cdeg, a2 * b2 * c2 == hc.direct_cdeg
        expected = {(True, True): "both", (True, False): "a1b1c1",
                    (False, True): "a2b2c2", (False, False): "neither"}[first, second]
        assert hc.cdeg_realized == expected, S
        assert hc.cdeg_in_candidates == (hc.cdeg_realized != "neither"), S
        labels[hc.cdeg_realized] += 1
    assert labels == {"a1b1c1": 64, "a2b2c2": 7}
    # the other two labels, on values no ring above reaches: for <5, 7, 9>
    # the products are 2 and 4, and with b1 = 4 both are 4
    hc = herzog_consistency(NumericalSemigroup([5, 7, 9]))
    assert hc.data.cdeg_products == {"a1b1c1": 2, "a2b2c2": 4}
    assert replace(hc, direct_cdeg=3).cdeg_realized == "neither"
    assert replace(hc, data=replace(hc.data, b1=4), direct_cdeg=4).cdeg_realized == "both"


def test_structural_candidate_inequality():
    # under the normalization, a1*b1*c1 >= a1*b2*c1 = ddeg identically
    for gens in ([5, 7, 9], [3, 4, 5], [7, 9, 11], [5, 8, 9], [4, 7, 9]):
        S = NumericalSemigroup(gens)
        data = herzog_matrix(S)
        assert data.a1 * data.b1 * data.c1 >= data.ddeg_formula
        assert data.ddeg_formula == ddeg(S)
        assert cdeg(S) in data.cdeg_candidates


def test_serialization():
    payload = herzog_matrix(NumericalSemigroup([5, 7, 9])).to_dict()
    assert payload["assignment"] == [7, 9, 5]
    assert payload["exponents"] == {"a1": 1, "a2": 1, "b1": 2, "b2": 1, "c1": 1, "c2": 4}
    assert payload["ddeg_formula"] == 1
    assert payload["cdeg_candidates"] == [2, 4]


def test_minimal_relation_matches_trial_division():
    ambiguous = 0
    for g, u, v in RELATION_FAMILY:
        n, reps = minimal_relation(g, u, v)
        if len(reps) > 1:
            ambiguous += 1
            with pytest.raises(AmbiguousDecomposition) as err:
                _minimal_relation(g, u, v)
            assert str(err.value) == (
                f"{n}*{g} = {n * g} decomposes over ({u}, {v}) in {len(reps)} ways; contradicts non-symmetry"
            )
        else:
            [(p, q)] = reps
            assert _minimal_relation(g, u, v) == (n, {u: p, v: q}), (g, u, v)
    shared = sum(gcd(u, v) > 1 for _, u, v in RELATION_FAMILY)
    assert (len(RELATION_FAMILY), ambiguous, shared) == (25308, 3185, 9648)


def test_minimal_relation_stops_by_its_bound():
    # n*g is a multiple of u once n = u / gcd(u, g), and of v once n = v / gcd(v, g)
    reached = set()
    for g, u, v in RELATION_FAMILY:
        n, _ = minimal_relation(g, u, v)
        bound = min(u // gcd(u, g), v // gcd(v, g))
        assert n <= bound, (g, u, v)
        if n == bound:
            reached.add((g, u, v))
    assert (2, 3, 5) in reached
