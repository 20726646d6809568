import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nsdeg import (
    AmbientMismatch,
    EmptyGenerators,
    InternalInvariantViolation,
    NotContained,
    NumericalSemigroup,
    canonical_ideal,
    endomorphism_blowup,
    generate,
    length_quotient,
    maximal_ideal,
    reduction,
    unit_ideal,
)
from nsdeg._bits import bit_positions, ones, reverse_bits
from nsdeg.ideals import ReductionData, RelativeIdeal
from nsdeg.lab import enumerate_ideals
from nsdeg.sweep import enumerate_semigroups

from oracles import colon_set, conductor_of, ideal_set, minkowski, semigroup_set, stable_power_index

S579 = NumericalSemigroup([5, 7, 9])
S345 = NumericalSemigroup([3, 4, 5])
S23 = NumericalSemigroup([2, 3])


def elements(E, stop):
    return [z for z in range(E.offset, stop) if z in E]


def test_generate_unit():
    assert generate(S579, [0]) == unit_ideal(S579)


def test_generate_two_values_matches_oracle():
    E = generate(S579, [0, 2])
    assert E.conductor == 14
    assert E.elements_below_conductor() == [0, 2, 5, 7, 9, 10, 11, 12]
    oracle = ideal_set(semigroup_set([5, 7, 9], 80), [0, 2], 80)
    assert set(elements(E, 40)) == {z for z in oracle if z < 40}


def test_generate_maximal_ideal():
    M = generate(S345, [3, 4, 5])
    assert M == maximal_ideal(S345)
    assert M.offset == 3
    assert elements(M, 10) == [3, 4, 5, 6, 7, 8, 9]


def test_generate_empty():
    with pytest.raises(EmptyGenerators):
        generate(S579, [])


def test_minimal_generators():
    K = canonical_ideal(S579)
    assert K.minimal_generators() == [0, 2]
    assert unit_ideal(S579).minimal_generators() == [0]
    assert maximal_ideal(S579).minimal_generators() == [5, 7, 9]
    assert generate(S579, K.minimal_generators()) == K


def test_constructor_rejects_sets_not_closed():
    S_values = sum(1 << z for z in (0, 5, 7, 9, 10, 12))
    assert RelativeIdeal(S579, 0, S_values, 14) == unit_ideal(S579)
    for values in ((0,), (0, 5, 7, 9, 10)):  # 0 + 5 and 7 + 5 are missing
        with pytest.raises(InternalInvariantViolation):
            RelativeIdeal(S579, 0, sum(1 << z for z in values), 14)


def test_union():
    E = generate(S579, [0, 2])
    assert E.union(E) == E
    assert generate(S579, [0]).union(generate(S579, [2])) == E
    assert maximal_ideal(S345).union(unit_ideal(S345)) == unit_ideal(S345)


def test_product():
    K345 = canonical_ideal(S345)
    assert unit_ideal(S345).product(K345) == K345
    # K*K for <3,4,5> is the whole of the nonnegative integers
    KK = K345.product(K345)
    assert KK.offset == 0 and KK.conductor == 0
    K = canonical_ideal(S579)
    KK579 = K.product(K)
    assert 13 in KK579  # 13 = 2 + 11
    oracle = minkowski(set(elements(K, 60)), set(elements(K, 60)), 60)
    assert set(elements(KK579, 50)) == {z for z in oracle if z < 50}



@pytest.mark.parametrize("gens", [[3, 4, 5], [5, 7, 9], [4, 7, 10]])
def test_product_in_both_orders_matches_minkowski(gens):
    # product shifts by the argument's generators only, so each order
    # runs a different loop; one factor is translated off min 0
    S = NumericalSemigroup(gens)
    ideals = list(enumerate_ideals(S))
    bound = 2 * S.conductor + 8
    for E in ideals:
        e = set(elements(E, bound))
        for F0 in ideals:
            F = F0.shift(2)
            f = set(elements(F, bound))
            want = minkowski(e, f, bound)
            assert E.product(F) == F.product(E)
            assert set(elements(E.product(F), bound)) == want


def test_colon():
    K = canonical_ideal(S345)
    assert unit_ideal(S345).colon(K) == maximal_ideal(S345)
    D = unit_ideal(S579).colon(canonical_ideal(S579))
    assert elements(D, 16) == [5, 7, 10, 12, 14, 15]
    for E in (canonical_ideal(S579), maximal_ideal(S579), generate(S579, [1, 3])):
        assert 0 in E.colon(E)


def test_colon_matches_oracle():
    s_elems = semigroup_set([5, 7, 9], 120)
    for gens_e, gens_f in ([(0, 2), (5, 7, 9)], [(0,), (0, 2)], [(3, 4), (0, 2, 6)]):
        E = generate(S579, list(gens_e))
        F = generate(S579, list(gens_f))
        got = E.colon(F)
        e_set = ideal_set(s_elems, list(gens_e), 120)
        f_set = ideal_set(s_elems, list(gens_f), 120)
        want = colon_set(e_set, f_set, -40, 40, 120)
        assert {z for z in range(-40, 40) if z in got} == want


def test_dual_and_bidual():
    K = canonical_ideal(S579)
    B = K.bidual()
    # bidual adds exactly 13, after which 9..13 merge into the tail
    assert B == K.union(generate(S579, [13]))
    assert elements(B, 16) == [0, 2, 5, 7, 9, 10, 11, 12, 13, 14, 15]
    assert length_quotient(B, K) == 1
    S_ideal = unit_ideal(S579)
    assert S_ideal.bidual() == S_ideal
    M = maximal_ideal(S579)
    assert M.bidual() == M
    assert not M.colon(M) == S_ideal  # M is reflexive but not closed


def test_trace():
    assert canonical_ideal(S345).trace() == maximal_ideal(S345)
    assert unit_ideal(S345).trace() == unit_ideal(S345)
    assert canonical_ideal(S579).trace() == maximal_ideal(S579)


def test_length_quotient():
    K = canonical_ideal(S579)
    assert length_quotient(K, unit_ideal(S579)) == 2  # elements {2, 11}
    assert length_quotient(K, K) == 0
    assert length_quotient(K.bidual(), K) == 1
    with pytest.raises(NotContained) as info:
        length_quotient(unit_ideal(S579), K)
    assert info.value.witness == 2


def test_reduction():
    assert reduction(canonical_ideal(S345)).reduction_number == 2
    assert reduction(unit_ideal(S345)).reduction_number == 0
    assert reduction(unit_ideal(S345).shift(6)) == reduction(unit_ideal(S345).shift(6))
    # power chain of K over <5,7,9>: K^2, K^3, K^4 all distinct, K^5 = K^4
    data = reduction(canonical_ideal(S579))
    assert data.element_value == 0
    assert data.reduction_number == 4


def test_reduction_against_power_oracle():
    s_elems = semigroup_set([5, 7, 9], 200)
    k_set = {z for z in range(200) if z in canonical_ideal(S579)}
    powers = [s_elems]
    for _ in range(6):
        powers.append(minkowski(powers[-1], k_set, 200))
    stab = next(
        r
        for r in range(6)
        if {z for z in powers[r + 1] if z < 100} == {z for z in powers[r] if z < 100}
    )
    assert reduction(canonical_ideal(S579)).reduction_number == stab


def test_reduction_matches_the_power_oracle_everywhere():
    # every ideal of every ring of genus <= 7, and a translate of it
    for S in enumerate_semigroups(7):
        if S.genus == 0:
            continue
        gaps = set(S.gaps)
        for E in enumerate_ideals(S):
            want = stable_power_index(gaps, set(elements(E, S.conductor)))
            assert reduction(E) == ReductionData(0, want), (S, E)
            assert reduction(E.shift(5)) == ReductionData(5, want), (S, E)


def test_reduction_past_the_genus_bound_is_a_bug(monkeypatch):
    # the index of K over <5,7,9> is 4, which a genus of 4 allows; a
    # semigroup claiming genus 3 leaves the loop too few steps, which
    # only a bug could cause
    S = NumericalSemigroup([5, 7, 9])
    S.genus = 4
    assert reduction(canonical_ideal(S)).reduction_number == 4
    S.genus = 3
    with pytest.raises(InternalInvariantViolation) as info:
        reduction(canonical_ideal(S))
    # the benchmark files the old fixed-cap error as a known defect and
    # leaves it out of its failure count; this error must not match it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import is_known_defect

    assert not is_known_defect(info.value)


def test_reduction_number_at_most_multiplicity_minus_one():
    # Lipman: in a one-dimensional Cohen-Macaulay local ring of
    # multiplicity e, every m-primary ideal has reduction number <= e - 1
    for S in enumerate_semigroups(12):
        assert reduction(canonical_ideal(S)).reduction_number <= S.multiplicity - 1, S
    for S in enumerate_semigroups(9):
        if S.genus == 0:
            continue
        for E in enumerate_ideals(S):
            assert reduction(E).reduction_number <= S.multiplicity - 1, (S, E)


def test_canonical_ideal_values():
    assert canonical_ideal(S579).elements_below_conductor() == [0, 2, 5, 7, 9, 10, 11, 12]
    assert canonical_ideal(S23) == unit_ideal(S23)
    K = canonical_ideal(S345)
    assert K.elements_below_conductor() == [0, 1]
    assert K.conductor == 3
    full = NumericalSemigroup([1])
    assert canonical_ideal(full) == unit_ideal(full)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        unit_ideal(S579).union(unit_ideal(S345))
    with pytest.raises(AmbientMismatch):
        unit_ideal(S579).product(unit_ideal(S345))
    with pytest.raises(AmbientMismatch):
        length_quotient(unit_ideal(S579), unit_ideal(S345))


def _small_family():
    for S in enumerate_semigroups(6):
        if S.genus == 0:
            continue
        yield S, list(enumerate_ideals(S))


def test_currying_identity_everywhere():
    # (S : E E*) = (E** : E) for every enumerated ideal
    for S, ideals in _small_family():
        unit = unit_ideal(S)
        for E in ideals:
            lhs = unit.colon(E.product(E.dual()))
            rhs = E.bidual().colon(E)
            assert lhs == rhs, (S, E)


def test_shift_invariance():
    for S, ideals in _small_family():
        unit = unit_ideal(S)
        for E in ideals[:12]:
            for z in (-3, 4):
                F = E.shift(z)
                assert length_quotient(F.bidual(), F) == length_quotient(E.bidual(), E)
                assert F.trace() == E.trace()
                assert reduction(F).reduction_number == reduction(E).reduction_number


def test_dual_is_order_reversing_and_triality():
    for S, ideals in _small_family():
        for E in ideals:
            for F in ideals[:6]:
                if F.contains_ideal(E):
                    assert E.dual().contains_ideal(F.dual())
            assert E.dual().dual().dual() == E.dual()


def test_canonical_ideal_dualizes_exactly():
    for S, ideals in _small_family():
        K = canonical_ideal(S)
        for E in ideals:
            assert K.colon(K.colon(E)) == E, (S, E)


def test_trace_lands_in_ring():
    for S, ideals in _small_family():
        unit = unit_ideal(S)
        for E in ideals:
            assert unit.contains_ideal(E.product(E.dual()))


def test_multiplicity_length_consistency():
    # for the m-primary shift C = (frobenius+1) + K:  min(C) - len(S\C) = len(K\S)
    for S, _ in _small_family():
        K = canonical_ideal(S)
        C = K.shift(S.frobenius + 1)
        unit = unit_ideal(S)
        assert unit.contains_ideal(C)
        e0 = C.offset
        assert e0 - length_quotient(unit, C) == length_quotient(K, unit)


@given(
    st.lists(st.integers(min_value=2, max_value=20), min_size=2, max_size=3),
    st.lists(st.integers(min_value=-6, max_value=18), min_size=1, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_generate_yields_valid_ideals(gens, ideal_gens):
    import math

    if math.gcd(*gens) != 1:
        return
    S = NumericalSemigroup(gens)
    E = generate(S, ideal_gens)
    assert E.offset == min(ideal_gens)
    for e in E.elements_below_conductor():
        for g in S.generators:
            assert (e + g) in E
    assert E.conductor == conductor_of(
        {z for z in range(E.offset, E.conductor + 5) if z in E},
        E.offset,
        E.conductor + 5,
    )


def _large_rings(rng, count, max_conductor=1500):
    """Seeded rings with 3 or 4 generators in [20, 150).

    The plain-set oracles are quadratic in their bound, so rings with a
    conductor above ``max_conductor`` are passed over.
    """
    rings = []
    while len(rings) < count:
        gens = rng.sample(range(20, 150), 3 + len(rings) % 2)
        if math.gcd(*gens) == 1:
            S = NumericalSemigroup(gens)
            if S.conductor <= max_conductor:
                rings.append(S)
    return rings


def test_calculus_matches_plain_sets_on_large_rings():
    rng = random.Random(2209)
    for S in _large_rings(rng, 8):
        m = S.multiplicity
        # generators of the random ideals lie in [0, 2m), so every
        # conductor below involved is at most S.conductor + 4m
        bound = S.conductor + 4 * m + 2
        s_set = semigroup_set(list(S.generators), bound)
        m_set = s_set - {0}
        ideals = {
            "K": (canonical_ideal(S), {x for x in range(bound) if S.frobenius - x not in s_set}),
            "M": (maximal_ideal(S), m_set),
        }
        for name in ("E", "F"):
            gens = rng.sample(range(2 * m), rng.randint(1, 4))
            ideals[name] = (generate(S, gens), ideal_set(s_set, gens, bound))

        for E, e_set in ideals.values():
            gens = E.minimal_generators()
            assert ideal_set(s_set, gens, bound) == e_set, (S, E)
            for g in gens:
                assert g not in ideal_set(s_set, [h for h in gens if h != g], bound), (S, E, g)

        for a, b in (("E", "F"), ("E", "K"), ("K", "K"), ("M", "F"), ("K", "M")):
            (E, e_set), (F, f_set) = ideals[a], ideals[b]
            P = E.product(F)
            assert P == F.product(E)
            assert P.conductor < bound
            assert {z for z in range(bound) if z in P} == minkowski(e_set, f_set, bound), (S, a, b)
            Q = E.colon(F)
            lo, hi = E.offset - F.offset - 1, E.conductor
            assert Q.conductor <= hi
            assert {z for z in range(lo, hi) if z in Q} == colon_set(e_set, f_set, lo, hi, bound), (S, a, b)

        T = endomorphism_blowup(S)
        c = S.conductor
        assert {z for z in range(c) if z in T} == colon_set(m_set, m_set, 0, c, bound), S


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 5000])
@pytest.mark.parametrize("fill", [0.05, 0.9])
def test_bit_positions_matches_naive_loop(width, fill):
    rng = random.Random(width)
    mask = sum(1 << i for i in range(width - 1) if rng.random() < fill)
    if width:
        mask |= 1 << (width - 1)
    assert bit_positions(mask) == [i for i in range(width) if mask >> i & 1]


def test_reverse_bits_matches_naive_loop():
    def naive(mask, width):
        out = 0
        for i in range(width):
            out = out << 1 | mask >> i & 1
        return out

    rng = random.Random(0)
    for width in range(131):
        # bits above the width, up to the sign's infinitely many, are dropped
        for mask in (0, ones(width), -1, 1 << width, rng.getrandbits(width + 70), ~rng.getrandbits(width)):
            assert reverse_bits(mask, width) == naive(mask, width), (mask, width)


@pytest.mark.parametrize("width", [1000, 10**5, 10**6])
def test_reverse_bits_on_wide_windows(width):
    rng = random.Random(width)
    sparse = sum(1 << i for i in rng.sample(range(width + 100), 40))
    expected = sum(1 << (width - 1 - i) for i in bit_positions(sparse) if i < width)
    assert reverse_bits(sparse, width) == expected
    dense = rng.getrandbits(width + 100)
    flipped = reverse_bits(dense, width)
    assert bit_positions(flipped) == sorted(width - 1 - i for i in bit_positions(dense & ones(width)))
    assert reverse_bits(flipped, width) == dense & ones(width)
