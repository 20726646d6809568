"""Guards on how many ideals and semigroups the checks build, and on leaks.

Identity questions (principal, closed, canonical, a stabilized power)
compare translation-invariant keys, so they build no unit ideal and no
translate.  A dual takes S itself as its left side and M + E is a union
of shifts of E, so a profile builds no unit, canonical or maximal ideal,
and closedness is tested against the pseudo-Frobenius numbers of S, so
it builds no E : E; only ints are cached on the semigroup, so no
reference cycle ties a ring to its ideals.  A classify builds no unit
ideal and no ring for M : M.  A sweep builds each ring once per visit,
through the one semigroup constructor, and its children's generators by
mask arithmetic, not by construction.
"""

import gc
from functools import partial

from nsdeg import NumericalSemigroup, classify, sweep
from nsdeg.ideals import RelativeIdeal
from nsdeg.lab import enumerate_ideals, profile_ideal


def _count_constructions(monkeypatch, cls=RelativeIdeal, name="__init__"):
    counter = [0]
    construct = getattr(cls, name)

    def counting(*args):
        counter[0] += 1
        return construct(*args)

    monkeypatch.setattr(cls, name, counting)
    return counter


def test_constructions_per_profile(monkeypatch):
    # the enumeration's own ideal, S : E, E** and M + E; the duals read S
    # itself, K is known by its key, M + E is built directly, and E : E
    # is not formed since closedness is read off the pseudo-Frobenius
    # numbers of S
    counter = _count_constructions(monkeypatch)
    S = NumericalSemigroup([7, 9, 10, 11, 12, 13])
    profiles = 0
    for E in enumerate_ideals(S):
        profile_ideal(E)
        profiles += 1
    assert profiles == 97
    assert counter[0] <= 4 * profiles


def test_constructions_per_classify(monkeypatch):
    # K, K*, K** and tr K, the lengths over S reading S itself; one
    # product per reduction step (canonical index 20) and the re-verified
    # step; two in the change-of-ring check (M and M : M), whose left side
    # counts on the gap mask of M : M and whose right side reuses the
    # cdeg already counted
    counter = _count_constructions(monkeypatch)
    rep = classify(NumericalSemigroup([101, 203, 307]))
    assert rep.canonical_index == 20
    assert counter[0] <= 27


def test_semigroups_per_swept_ring(monkeypatch):
    # the ring itself from its generators, once per visit; every semigroup
    # goes through the one constructor, and the change-of-ring check
    # counts on the ideal M : M, so it builds no ring
    counter = _count_constructions(monkeypatch, NumericalSemigroup)
    node = partial(sweep._sweep_node, check_herzog=True)
    rings = sum(1 for _ in sweep._walk_levels(12, node))
    assert rings == 1413
    assert counter[0] == rings


def test_degrees_and_profiles_leave_no_reference_cycles():
    S = NumericalSemigroup([5, 7, 9])
    ideals = list(enumerate_ideals(S))
    gc.collect()
    gc.disable()
    try:
        for gens in ([5, 7, 9], [7, 9, 10], [101, 203, 307]):
            classify(NumericalSemigroup(gens))
        for E in ideals:
            profile_ideal(E)
        assert gc.collect() == 0
    finally:
        gc.enable()
