from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nsdeg import (
    EmptyGenerators,
    FullSemigroup,
    GcdNotOne,
    NumericalSemigroup,
    Overflow,
)
from nsdeg import semigroup
from nsdeg.degrees import endomorphism_blowup
from nsdeg.ideals import maximal_ideal, unit_ideal
from nsdeg.sweep import enumerate_semigroups

from oracles import gaps_of, semigroup_set


def test_full_semigroup():
    S = NumericalSemigroup([1])
    assert S.frobenius == -1
    assert S.gaps == ()
    assert S.genus == 0
    assert S.generators == (1,)
    assert S.type == 1


def test_five_seven_nine_against_oracle():
    S = NumericalSemigroup([5, 7, 9])
    assert S.frobenius == 13
    assert S.gaps == (1, 2, 3, 4, 6, 8, 11, 13)
    assert S.genus == 8
    assert list(S.gaps) == gaps_of([5, 7, 9])


def test_redundant_generator_removed():
    S = NumericalSemigroup([3, 4, 5, 8])
    assert S.generators == (3, 4, 5)
    assert S.embedding_dim == 3


def test_contains():
    S = NumericalSemigroup([5, 7, 9])
    assert not S.contains(11)
    assert S.contains(14)
    assert S.contains(0)
    assert not S.contains(-3)
    assert 10_000 in S
    oracle = semigroup_set([5, 7, 9], 64)
    assert all((z in S) == (z in oracle) for z in range(64))


def pseudo_frobenius_scan(S):
    """Gaps x with x + s in S for every positive s in S, by the definition."""
    positives = [s for s in range(1, S.conductor + 1) if s in S]
    return [x for x in S.gaps if all((x + s) in S for s in positives)]


def test_pseudo_frobenius():
    # the type counts the pseudo-Frobenius numbers
    for gens, pf in (([5, 7, 9], [11, 13]), ([3, 4, 5], [1, 2]), ([2, 3], [1])):
        S = NumericalSemigroup(gens)
        assert pseudo_frobenius_scan(S) == pf
        assert S.type == len(pf)
    assert NumericalSemigroup([1]).type == 1  # DVR convention


def test_pseudo_frobenius_definition_scan():
    S = NumericalSemigroup([5, 7, 9])
    expected = [
        x
        for x in S.gaps
        if all((x + s) in S for s in semigroup_set([5, 7, 9], 40) if 0 < s)
    ]
    assert expected == [11, 13]
    assert S.type == len(expected)


def test_pseudo_frobenius_mask_matches_plain_sets():
    # the mask the type is counted from, kept for the closedness test,
    # against the definition on plain sets
    checked = 0
    for S in enumerate_semigroups(10):
        if S.conductor == 0:
            assert S._pf == 0
            continue
        bound = 2 * S.conductor + 2
        s_elems = semigroup_set(list(S.generators), bound)
        positives = [s for s in s_elems if 0 < s <= S.conductor]
        want = [x for x in range(S.conductor) if x not in s_elems and all(x + s in s_elems for s in positives)]
        assert [x for x in range(S.conductor) if S._pf >> x & 1] == want, S
        assert S._pf.bit_length() <= S.conductor
        checked += 1
    assert checked == 477


def test_is_symmetric():
    assert NumericalSemigroup([2, 3]).is_symmetric()
    assert not NumericalSemigroup([5, 7, 9]).is_symmetric()
    assert NumericalSemigroup([3, 4]).is_symmetric()
    with pytest.raises(FullSemigroup):
        NumericalSemigroup([1]).is_symmetric()


def test_construction_errors(monkeypatch):
    with pytest.raises(EmptyGenerators):
        NumericalSemigroup([])
    with pytest.raises(GcdNotOne) as info:
        NumericalSemigroup([6, 9])
    assert info.value.gcd == 3
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])
    with pytest.raises(Overflow):
        NumericalSemigroup([1, 2**63])
    monkeypatch.setattr(semigroup, "DEFAULT_WINDOW_CAP", 0)
    with pytest.raises(Overflow):
        NumericalSemigroup([2, 3])


def test_window_cap_bounds_frobenius(monkeypatch):
    # frobenius of <2, 2001> is 1999; caps below that must refuse
    monkeypatch.setattr(semigroup, "DEFAULT_WINDOW_CAP", 1000)
    with pytest.raises(Overflow, match="^frobenius number exceeds the window cap 1000$"):
        NumericalSemigroup([2, 2001])
    # conductor 2000, one past the cap: the window shows it, and the cap refuses it
    monkeypatch.setattr(semigroup, "DEFAULT_WINDOW_CAP", 1999)
    with pytest.raises(Overflow, match="^frobenius number exceeds the window cap 1999$"):
        NumericalSemigroup([2, 2001])
    monkeypatch.setattr(semigroup, "DEFAULT_WINDOW_CAP", 3000)
    S = NumericalSemigroup([2, 2001])
    assert S.frobenius == 1999


def test_from_generators_idempotent():
    for gens in ([5, 7, 9], [3, 4, 5, 8], [2, 3], [1], [4, 6, 7]):
        S = NumericalSemigroup(gens)
        T = NumericalSemigroup(S.generators)
        assert S == T
        assert (T.frobenius, T.gaps, T.generators, T._window) == (
            S.frobenius,
            S.gaps,
            S.generators,
            S._window,
        )


def test_serialization():
    S = NumericalSemigroup([5, 7, 9])
    assert S.to_dict() == {
        "generators": [5, 7, 9],
        "frobenius": 13,
        "genus": 8,
        "type": 2,
        "multiplicity": 5,
        "embedding_dim": 3,
    }


def test_invariants_over_small_genus():
    for S in enumerate_semigroups(12):
        if S.genus == 0:
            continue
        pf = pseudo_frobenius_scan(S)
        assert S.type == len(pf) >= 1
        assert S.frobenius in pf
        assert S.is_symmetric() == (len(pf) == 1)
        assert 2 * S.genus >= S.frobenius + 1
        assert (2 * S.genus == S.frobenius + 1) == S.is_symmetric()


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_window_closed_under_generators(gens):
    import math

    if math.gcd(*gens) != 1:
        gens = gens + [max(gens) + 1]
        if math.gcd(*gens) != 1:
            return
    S = NumericalSemigroup(gens)
    elems = [z for z in range(S.conductor + 2 * max(gens)) if z in S]
    for a in elems:
        for g in S.generators:
            assert (a + g) in S


@given(st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
# conductors in the thousands: the window doubles five or six times, each
# round resuming the closure from the narrower window's
@example([31, 35])
@example([37, 39])
@example([47, 50, 53])
@example([43, 45])
@example([53, 59])
@example([61, 64])
# a doubling round that ends with exactly m members after the last gap
# stops there; one that ends with m - 1 of them doubles the window
@example([2, 63])
@example([8, 9])
@example([16, 17])
@example([3, 32])
@example([3, 35])
def test_gaps_match_oracle(gens):
    import math

    if math.gcd(*gens) != 1:
        return
    bounds = []
    closure = semigroup._closure_window

    def recording(gens, bound):
        bounds.append(bound)
        return closure(gens, bound)

    with mock.patch.object(semigroup, "_closure_window", recording):
        S = NumericalSemigroup(gens)
    oracle = gaps_of(list(gens))
    assert list(S.gaps) == oracle
    conductor = oracle[-1] + 1 if oracle else 0
    assert S.conductor == S.frobenius + 1 == conductor
    # the window doubles from max(2m + 2, 64) and stops at the first
    # bound with m members after the last gap
    m = min(gens)
    want = [max(2 * m + 2, 64)]
    while want[-1] - conductor < m:
        want.append(2 * want[-1])
    assert bounds == want


def test_genus_counts_the_gaps():
    # bound 64 passes conductor + multiplicity (at most 2g + g + 1) for g <= 12
    for S in enumerate_semigroups(12):
        oracle = gaps_of(list(S.generators), 64)
        assert S.genus == len(S.gaps) == len(oracle)
        assert isinstance(S.gaps, tuple)
        assert S.gaps == tuple(oracle)


def test_two_generated_ring_near_the_cap_holds_no_gap_list():
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        S = NumericalSemigroup([1000, 1001])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the membership window alone is 125 kB; a tuple of the gaps is 18 MB
    assert held < 1 << 20
    oracle = gaps_of([1000, 1001], 1_001_000)
    assert S.genus == len(S.gaps) == len(oracle) == 499_500
    assert S.gaps == tuple(oracle)


def test_blowup_semigroup_matches_the_colon():
    # M : M of every ring of genus <= 12 and of a few larger ones: the
    # closure of its generators has the colon's window and conductor
    rings = [S for S in enumerate_semigroups(12) if S.genus]
    rings += [NumericalSemigroup(g) for g in ([7, 9, 10], [101, 203, 307], [1001, 1003, 1009])]
    for S in rings:
        M = maximal_ideal(S)
        T = M.colon(M)
        blowup = endomorphism_blowup(S)
        assert (blowup._window, blowup.conductor) == (T._window, T.conductor), S
        assert blowup.offset == T.offset == 0, S
    assert len(rings) == 1415


def test_semigroup_and_its_unit_ideal_are_one_value_set():
    # S is the value set 0 + S: as a semigroup and as an ideal over
    # itself it answers membership, masks and key alike, and its mask is
    # the plain-set closure of its generators
    rings = list(enumerate_semigroups(10))
    for S in rings:
        U = unit_ideal(S)
        stop = S.conductor + S.multiplicity + 3
        members = semigroup_set(list(S.generators), stop)
        assert S._ext(stop) == sum(1 << z for z in members), S
        assert [z for z in range(-2, stop) if S.contains(z)] == sorted(members), S
        assert all(U.contains(z) == S.contains(z) for z in range(-2, stop)), S
        assert all(U._ext(t) == S._ext(t) for t in range(-1, stop)), S
        assert (U._missing(), U.key()) == (S._missing(), S.key()), S
    assert len(rings) == 478
