import time

import pytest

from nsdeg import (
    FullSemigroup,
    InternalInvariantViolation,
    NumericalSemigroup,
    canonical_index,
    cdeg,
    classify,
    ddeg,
    endomorphism_blowup,
    tcdeg_check,
    tdeg,
)
from nsdeg.ideals import RelativeIdeal, generate
from nsdeg.sweep import enumerate_semigroups

S579 = NumericalSemigroup([5, 7, 9])
S345 = NumericalSemigroup([3, 4, 5])
S23 = NumericalSemigroup([2, 3])
FULL = NumericalSemigroup([1])


def test_cdeg():
    assert cdeg(S579) == 2
    assert cdeg(S23) == 0
    assert cdeg(S345) == 1
    assert cdeg(FULL) == 0


def test_ddeg():
    assert ddeg(S579) == 1
    assert ddeg(S23) == 0
    assert ddeg(S345) == 1
    assert ddeg(FULL) == 0


def test_tdeg():
    assert tdeg(S579) == 1
    assert tdeg(S23) == 0
    assert tdeg(S345) == 1


def test_canonical_index():
    assert canonical_index(S345) == 2
    assert canonical_index(S23) == 0
    # K^2, K^3, K^4 pairwise distinct and K^5 = K^4 (see test_ideals power oracle)
    assert canonical_index(S579) == 4
    assert canonical_index(FULL) == 0


def test_canonical_index_past_a_fixed_step_cap():
    # K needs 112 products to stabilize; the reduction loop is bounded by
    # the genus, not by a fixed number of steps
    rep = classify(NumericalSemigroup([1001, 1003, 1009]))
    assert (rep.cdeg, rep.ddeg, rep.canonical_index) == (250, 3, 112)


@pytest.mark.parametrize(
    "gens, expected",
    [
        ([87, 131, 132, 211], (129, 30, 80)),
        ([106, 109, 158, 221], (130, 41, 87)),
        ([146, 151, 236], (224, 32, 72)),
    ],
)
def test_rings_past_a_fixed_step_cap_match_plain_sets(gens, expected):
    # rings of the big-rings benchmark whose canonical index exceeds 64;
    # the expected (cdeg, ddeg, canonical index) come from plain sets
    from oracles import colon_set, conductor_of, semigroup_set, stable_power_index

    rep = classify(NumericalSemigroup(gens))
    assert (rep.cdeg, rep.ddeg, rep.canonical_index) == expected

    # the Frobenius number is below min(gens) * max(gens)
    top = min(gens) * max(gens)
    probe = semigroup_set(gens, top)
    c = conductor_of(probe, 0, top)
    bound = 2 * c + 2 * min(gens)
    s = {x for x in probe if x < bound}
    k = {x for x in range(bound) if c - 1 - x not in s}
    k_dual = colon_set(s, k, 0, c, bound) | set(range(c, bound))
    k_bidual = colon_set(s, k_dual, -c, c, bound)
    gaps = {z for z in range(c) if z not in s}
    assert (len(k - s), len(k_bidual - k), stable_power_index(gaps, k)) == expected


def test_ring_near_the_window_cap():
    # F = 653,799 is the largest Frobenius number pinned against the
    # window cap of 10**6; the bound is generous, the run is well under 1 s
    t0 = time.perf_counter()
    rep = classify(NumericalSemigroup([1400, 1401, 1403]))
    assert time.perf_counter() - t0 < 30
    assert (rep.frobenius, rep.genus, rep.type_r) == (653799, 327366, 2)
    assert (rep.cdeg, rep.ddeg, rep.canonical_index) == (932, 2, 699)


# Counterexamples to cdeg >= ddeg, with their certificates: K minus S
# (counted by cdeg) and K** minus K (counted by ddeg), K normalized to
# min K = 0.  Every element of either set lies below the conductor.
COUNTEREXAMPLES = [
    (
        [13, 14, 15, 16, 17, 18, 21, 23], 17, 5,
        [1, 3, 5, 6, 19, 20, 22, 24],
        [2, 4, 7, 8, 9, 10, 11, 12, 25],
    ),
    (
        [17, 18, 19, 20, 21, 22, 23, 24, 27, 29, 31], 22, 6,
        [1, 3, 5, 7, 8, 25, 26, 28, 30, 32],
        [2, 4, 6, 9, 10, 11, 12, 13, 14, 15, 16, 33],
    ),
    (
        [19, 20, 21, 22, 23, 24, 25, 26, 28, 31, 32, 33, 36], 24, 6,
        [2, 3, 7, 8, 10, 27, 29, 30, 34, 35],
        [4, 5, 6, 9, 11, 12, 13, 14, 15, 16, 17, 18, 37],
    ),
]


@pytest.mark.parametrize("gens, genus, type_r, k_minus_s, bidual_minus_k", COUNTEREXAMPLES)
def test_conjecture_counterexample_certificates(gens, genus, type_r, k_minus_s, bidual_minus_k):
    from oracles import colon_set, gaps_of

    gaps = set(gaps_of(gens))
    frob = max(gaps)
    bound = 2 * frob + 2 * min(gens)
    s = {x for x in range(bound) if x not in gaps}
    k = {x for x in range(bound) if x > frob or frob - x in gaps}
    k_dual = colon_set(s, k, 0, frob + 1, bound) | set(range(frob + 1, bound))
    k_bidual = colon_set(s, k_dual, -frob - 1, frob + 1, bound)
    assert sorted(k - s) == k_minus_s
    assert sorted(k_bidual - k) == bidual_minus_k

    rep = classify(NumericalSemigroup(gens))
    assert (rep.genus, rep.type_r) == (genus, type_r)
    assert (rep.cdeg, rep.ddeg) == (len(k_minus_s), len(bidual_minus_k))
    assert rep.cdeg < rep.ddeg


def test_classify_golden():
    rep = classify(S579)
    assert rep.type_r == 2
    assert rep.cdeg == 2
    assert rep.ddeg == 1
    assert rep.tdeg == 1
    assert not rep.almost_gorenstein
    assert not rep.gorenstein
    assert rep.ddeg_is_one

    rep = classify(S345)
    assert (rep.cdeg, rep.type_r, rep.almost_gorenstein) == (1, 2, True)

    rep = classify(S23)
    assert rep.gorenstein
    assert (rep.cdeg, rep.ddeg, rep.tdeg, rep.canonical_index) == (0, 0, 0, 0)


def test_classify_full_semigroup():
    rep = classify(FULL)
    assert rep.gorenstein and rep.almost_gorenstein
    assert rep.idealization_cdeg is None
    assert rep.idealization_ddeg is None
    assert rep.tcdeg is None


def test_idealization_degrees():
    for S, want in ((S579, (6, 1)), (S23, (2, None)), (FULL, (None, None))):
        rep = classify(S)
        assert (rep.idealization_cdeg, rep.idealization_ddeg) == want


def test_endomorphism_blowup():
    A = endomorphism_blowup(S579)
    assert A.gaps == (1, 2, 3, 4, 6, 8)
    assert endomorphism_blowup(S345) == FULL
    assert endomorphism_blowup(S23) == FULL
    with pytest.raises(FullSemigroup):
        endomorphism_blowup(FULL)


def test_tcdeg_check():
    chk = tcdeg_check(S579)
    assert (chk.lhs, chk.rhs, chk.equal) == (3, 3, True)
    chk = tcdeg_check(S345)
    assert (chk.lhs, chk.rhs, chk.equal) == (0, 0, True)
    chk = tcdeg_check(S23)
    assert (chk.lhs, chk.rhs, chk.equal) == (0, 0, True)
    with pytest.raises(FullSemigroup):
        tcdeg_check(FULL)


def test_tcdeg_lhs_on_the_gap_mask_matches_the_blowup_ring():
    # classify counts cdeg(M : M) on the ideal's gap mask; the ring of
    # M : M, with its own K and U, stays the reference
    for S in enumerate_semigroups(12):
        if S.genus:
            assert classify(S).tcdeg.lhs == cdeg(endomorphism_blowup(S)), S
    for gens in ([101, 203, 307], [1001, 1003, 1009], [1730, 1731, 1733]):
        S = NumericalSemigroup(gens)
        assert classify(S).tcdeg.lhs == cdeg(endomorphism_blowup(S)), gens


def test_tcdeg_lhs_matches_a_plain_set_count():
    # T = M : M from the plain-set colon; cdeg(T) counts the gaps x of T
    # with F_T - x also a gap
    from oracles import colon_set, semigroup_set

    for S in enumerate_semigroups(9):
        if not S.genus:
            continue
        c = S.conductor
        bound = 2 * c + S.multiplicity + 2
        m_set = semigroup_set(list(S.generators), bound) - {0}
        t_gaps = set(range(c)) - colon_set(m_set, m_set, 0, c, bound)
        f_t = max(t_gaps, default=-1)
        assert classify(S).tcdeg.lhs == sum(f_t - x in t_gaps for x in t_gaps), S


def test_tcdeg_rejects_a_colon_that_is_no_ring(monkeypatch):
    # S + {0, 3} over <5,7,9> is an ideal containing 0, but 3 + 3 = 6 is
    # outside it: the closure check on M : M must catch such a colon
    monkeypatch.setattr(RelativeIdeal, "colon", lambda E, F: generate(S579, [0, 3]))
    with pytest.raises(InternalInvariantViolation):
        classify(S579)


def test_report_serialization():
    d = classify(S579).to_dict()
    assert d["type"] == 2
    assert d["idealization"] == {"cdeg": 6, "ddeg": 1}
    assert d["tcdeg"] == {"lhs": 3, "rhs": 3, "equal": True}


def test_theorems_over_small_genus():
    found_ddeg_one_non_ag = False
    for S in enumerate_semigroups(9):
        rep = classify(S)
        # classify shares K and K* between degrees; the single-invariant
        # functions rebuild each from scratch
        single = (cdeg(S), ddeg(S), tdeg(S), canonical_index(S))
        assert (rep.cdeg, rep.ddeg, rep.tdeg, rep.canonical_index) == single
        symmetric = S.genus == 0 or S.is_symmetric()
        assert (rep.cdeg == 0) == (rep.ddeg == 0) == symmetric == rep.gorenstein
        assert rep.cdeg >= rep.type_r - 1
        if rep.almost_gorenstein and rep.type_r >= 2:
            assert rep.ddeg == 1
        assert rep.ddeg == rep.tdeg
        if S.genus > 0:
            assert rep.tcdeg.equal
        if rep.ddeg_is_one and not rep.almost_gorenstein:
            found_ddeg_one_non_ag = True
    # ddeg = 1 reaches beyond the almost Gorenstein stratum
    assert found_ddeg_one_non_ag


def test_conjecture_holds_on_small_family():
    # recorded as data elsewhere; here it simply has no small counterexample
    for S in enumerate_semigroups(9):
        assert cdeg(S) >= ddeg(S)


def test_degrees_match_set_oracle():
    from oracles import colon_set, conductor_of, semigroup_set

    for gens in ([5, 7, 9], [4, 6, 7], [6, 7, 8, 9, 10], [3, 7], [8, 9, 15]):
        bound = 400
        S = NumericalSemigroup(gens)
        elems = semigroup_set(list(gens), bound)
        frob = conductor_of(elems, 0, bound // 2) - 1
        k_set = {x for x in range(bound) if x >= 0 and (frob - x < 0 or frob - x not in elems)}
        assert cdeg(S) == len([x for x in k_set if x not in elems and x < bound // 2])
        dual_set = colon_set(elems, k_set, -60, 200, bound)
        bidual_set = colon_set(elems, dual_set, -60, 200, bound)
        assert ddeg(S) == len(
            [x for x in bidual_set if 0 <= x < bound // 2 and x not in k_set]
        )
