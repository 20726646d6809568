import pytest

from nsdeg import (
    FullSemigroup,
    NumericalSemigroup,
    TooLarge,
    canonical_ideal,
    generate,
    length_quotient,
    maximal_ideal,
    unit_ideal,
)
from nsdeg.lab import (
    _maximal_sum,
    enumerate_ideals,
    gap_subset_mask,
    is_canonical,
    is_closed,
    is_principal,
    is_reflexive,
    profile_ideal,
    socle_witnesses,
)
from nsdeg.sweep import enumerate_semigroups

from oracles import colon_set, minkowski, semigroup_set, socle_quotient_set, valid_gap_subsets

S579 = NumericalSemigroup([5, 7, 9])
S345 = NumericalSemigroup([3, 4, 5])


def test_is_closed():
    assert is_closed(canonical_ideal(S579))
    assert not is_closed(maximal_ideal(S579))  # M - M gains 11 and 13
    assert is_closed(unit_ideal(S579))
    T = maximal_ideal(S579).colon(maximal_ideal(S579))
    assert 11 in T and 13 in T


def _unnormalized_ideals(S):
    """K, M, K*, tr K and K * K, none of minimum 0 with window S's, and shifts."""
    K, M = canonical_ideal(S), maximal_ideal(S)
    base = (K, M, K.dual(), K.trace(), K.product(K))
    return [F for E in base for F in (E, E.shift(5), E.shift(-7))]


def test_is_closed_by_pseudo_frobenius_matches_the_colon():
    # the pseudo-Frobenius test against E : E formed and compared with S,
    # on ideals the enumeration does not reach
    rings = [S for S in enumerate_semigroups(12) if S.conductor > 0]
    rings.append(NumericalSemigroup([101, 203, 307]))
    closed = not_closed = 0
    for S in rings:
        for E in _unnormalized_ideals(S):
            want = is_principal(E.colon(E))
            assert is_closed(E) == want, (S, E)
            closed += want
            not_closed += not want
    assert len(rings) == 1413
    assert closed and not_closed


def test_reflexive_and_principal():
    M = maximal_ideal(S579)
    assert is_reflexive(M)
    assert not is_principal(M)
    assert not is_closed(M)
    U = unit_ideal(S579)
    assert is_reflexive(U) and is_principal(U) and is_closed(U)
    K = canonical_ideal(S579)
    assert not is_reflexive(K)
    assert length_quotient(K.bidual(), K) == 1


def test_socle_quotient():
    assert dict(socle_witnesses(canonical_ideal(S345))).get(0) == 1
    assert dict(socle_witnesses(unit_ideal(S345))).get(0) == 0
    # for <5,7,9>: 9 + 2 = 11 is outside S, so K/(t^0) is not a vector space
    assert dict(socle_witnesses(canonical_ideal(S579))).get(0) is None


def test_socle_witnesses():
    ws = socle_witnesses(canonical_ideal(S345))
    assert (0, 1) in ws
    assert socle_witnesses(canonical_ideal(S579)) == []


def test_socle_witnesses_match_plain_sets():
    # every ideal of every ring of genus <= 8, recounted on plain sets
    checked = 0
    for S in enumerate_semigroups(8):
        if S.conductor == 0:
            continue
        m = S.multiplicity
        bound = 2 * (S.conductor + m) + 2
        s_elems = semigroup_set(list(S.generators), bound)
        m_elems = s_elems - {0}
        for E in enumerate_ideals(S):
            e_elems = {z for z in range(bound) if z in E}
            me_elems = minkowski(m_elems, e_elems, bound)
            want = {c: socle_quotient_set(s_elems, e_elems, me_elems, c) for c in range(m + 3) if c in E}
            # candidates run up to min(M + E) = m
            witnesses = [(c, n) for c, n in want.items() if c <= m and n is not None]
            assert socle_witnesses(E) == witnesses
            # the plain-set count is shift-invariant; the masks run off min E
            assert socle_witnesses(E.shift(3)) == [(c + 3, n) for c, n in witnesses]
            got = dict(socle_witnesses(E))
            for c in (m, m + 1, m + 2):
                if c in E:
                    assert got.get(c) == want[c]
            checked += 1
    assert checked > 1000


def test_profile_paths_match_the_built_ideals():
    # every ideal of every ring of genus <= 9: the dual with S as its left
    # side, the canonical test by key and the M + E of socle_witnesses
    # against the unit, canonical and maximal ideals built, and the dual
    # against the plain-set colon
    checked = 0
    for S in enumerate_semigroups(9):
        if S.conductor == 0:
            continue
        c = S.conductor
        bound = 2 * c + 2
        s_elems = semigroup_set(list(S.generators), bound)
        U, K, M = unit_ideal(S), canonical_ideal(S), maximal_ideal(S)
        for E in enumerate_ideals(S):
            D = E.dual()
            assert D == U.colon(E), (S, E)
            assert is_canonical(E) == (E.key() == K.key()), (S, E)
            assert _maximal_sum(E) == M.product(E), (S, E)
            e_elems = {z for z in range(bound) if z in E}
            assert D.conductor <= c, (S, E)
            assert {z for z in range(-1, c + 1) if z in D} == colon_set(s_elems, e_elems, -1, c + 1, bound), (S, E)
            checked += 1
    assert checked == 22365


def test_is_canonical():
    K = canonical_ideal(S579)
    assert is_canonical(K)
    assert is_canonical(K.shift(7))
    assert not is_canonical(maximal_ideal(S579))


def test_identity_by_key_matches_plain_sets():
    # every ideal of every ring of genus <= 8 and a translate of it,
    # against plain-set statements of the three identities
    checked = 0
    for S in enumerate_semigroups(8):
        if S.conductor == 0:
            continue
        frob = S.frobenius
        bound = 2 * (S.conductor + S.multiplicity) + 8
        # complete past bound - min F for the translate's negative minimum
        s_elems = semigroup_set(list(S.generators), 2 * bound)
        k_elems = {x for x in range(2 * bound) if frob - x not in s_elems}
        for E in enumerate_ideals(S):
            for F in (E, E.shift(-3)):
                lo = F.offset
                f = {z for z in range(lo, bound) if z in F}
                top = bound - lo
                assert is_principal(F) == (f == {lo + x for x in s_elems if lo + x < bound})
                ends = colon_set(f, f, -1, S.conductor + 1, bound)
                assert is_closed(F) == (ends == {x for x in s_elems if x <= S.conductor})
                assert is_canonical(F) == ({z - lo for z in f} == {x for x in k_elems if x < top})
            checked += 1
    assert checked > 1000


def test_enumerate_small_cases():
    S23 = NumericalSemigroup([2, 3])
    ideals = list(enumerate_ideals(S23))
    assert len(ideals) == 2
    assert ideals[0] == unit_ideal(S23)
    assert ideals[1].conductor == 0  # the full set of nonnegative integers

    ideals = list(enumerate_ideals(S345))
    assert len(ideals) == 4
    masks = [gap_subset_mask(E) for E in ideals]
    assert masks == [0b00, 0b01, 0b10, 0b11]

    S25 = NumericalSemigroup([2, 5])
    got = [gap_subset_mask(E) for E in enumerate_ideals(S25)]
    assert got == valid_gap_subsets([2, 5], [1, 3], semigroup_set([2, 5], 32))


def test_enumerate_matches_brute_force_everywhere():
    for S in enumerate_semigroups(9):
        if S.genus == 0:
            continue
        got = [gap_subset_mask(E) for E in enumerate_ideals(S)]
        want = valid_gap_subsets(
            list(S.generators), list(S.gaps), semigroup_set(list(S.generators), 4 * (S.frobenius + 2))
        )
        assert got == want, S


def test_enumerate_guards():
    with pytest.raises(FullSemigroup):
        next(enumerate_ideals(NumericalSemigroup([1])))
    big = NumericalSemigroup(list(range(25, 50)))
    assert big.genus == 24
    with pytest.raises(TooLarge):
        next(enumerate_ideals(big))


def test_closed_reflexive_implies_principal_small():
    for S in enumerate_semigroups(8):
        if S.genus == 0:
            continue
        unit = unit_ideal(S)
        for E in enumerate_ideals(S):
            if is_closed(E) and is_reflexive(E):
                assert E == unit, (S, E)


def test_canonical_implies_closed():
    for S in enumerate_semigroups(7):
        if S.genus == 0:
            continue
        for E in enumerate_ideals(S):
            if is_canonical(E):
                assert is_closed(E), (S, E)


def test_rel_ddeg_shift_invariant_and_reflexivity():
    for E in enumerate_ideals(S579):
        defect = length_quotient(E.bidual(), E)
        assert length_quotient(E.shift(5).bidual(), E.shift(5)) == defect
        assert (defect == 0) == is_reflexive(E)


def test_profile():
    prof = profile_ideal(canonical_ideal(S345).shift(4))
    assert prof.ideal.offset == 0
    assert prof.is_canonical and prof.is_closed
    assert not prof.is_reflexive
    assert prof.rel_ddeg == 1
    assert (0, 1) in prof.socle_witnesses
    assert not prof.needs_ext_check

    prof = profile_ideal(generate(S345, [0, 2]))
    E = generate(S345, [0, 2])
    assert prof.rel_ddeg == length_quotient(E.bidual(), E)


def test_ext_check_flagging():
    # the unit ideal of a non-Gorenstein ring carries only the trivial
    # witness (0, 0) and must not be flagged
    assert not profile_ideal(unit_ideal(S345)).needs_ext_check
    flagged = []
    for S in enumerate_semigroups(6):
        if S.genus == 0:
            continue
        for E in enumerate_ideals(S):
            prof = profile_ideal(E)
            # profile shares E** and M + E; the standalone functions do not
            assert prof.is_reflexive == is_reflexive(E)
            assert prof.rel_ddeg == length_quotient(E.bidual(), E)
            assert prof.socle_witnesses == tuple(socle_witnesses(E))
            if prof.needs_ext_check:
                flagged.append((S, E, prof))
            if prof.is_canonical and prof.socle_witnesses:
                assert not prof.needs_ext_check
    # flags mark genuine Ext-undecided cases only
    for S, E, prof in flagged:
        assert is_closed(E) and not is_canonical(E)
        assert any(n >= 1 for _, n in prof.socle_witnesses)
