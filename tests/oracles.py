"""Independent brute-force oracles used to pin expected values.

Everything here works on plain Python sets and ranges, never on the
library's bitset representation, so a bug in the fast paths cannot hide
in the expectations.  Cofinite sets are handled through an explicitly
computed conductor: callers must pass sets that are complete up to a
bound comfortably past every conductor involved.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations


def semigroup_set(gens: list[int], bound: int) -> set[int]:
    """Members of the monoid generated by ``gens`` below ``bound``, by DP."""
    member = [False] * bound
    member[0] = True
    for z in range(1, bound):
        member[z] = any(z >= g and member[z - g] for g in gens)
    return {z for z in range(bound) if member[z]}


def gaps_of(gens: list[int], bound: int = 4096) -> list[int]:
    s = semigroup_set(gens, bound)
    run = 0
    for z in range(bound):
        run = run + 1 if z in s else 0
        if run >= min(gens):
            conductor = z - run + 1
            return [x for x in range(conductor) if x not in s]
    raise AssertionError("oracle bound too small")


def conductor_of(elems: set[int], lo: int, hi: int) -> int:
    """Least c with [c, hi) inside ``elems``; elements assumed cofinite."""
    missing = [z for z in range(lo, hi) if z not in elems]
    return missing[-1] + 1 if missing else lo


def ideal_set(s_elems: set[int], gens: list[int], bound: int) -> set[int]:
    """Union of g + S truncated below ``bound``."""
    return {g + s for g in gens for s in s_elems if g + s < bound}


def minkowski(a: set[int], b: set[int], bound: int) -> set[int]:
    return {x + y for x in a for y in b if x + y < bound}


def colon_set(e: set[int], f: set[int], lo: int, hi: int, known: int) -> set[int]:
    """{z in [lo, hi) : z + f in e for all f}, via the conductor of e.

    ``known`` is the bound up to which both input sets are complete.
    """
    e_cond = conductor_of(e, min(e), known)
    out = set()
    for z in range(lo, hi):
        if all(z + x in e for x in f if x < e_cond - z):
            out.add(z)
    return out


def stable_power_index(gaps: set[int], k_set: set[int]) -> int:
    """Least r with (r+1)K = rK, for a K inside the naturals containing 0.

    The powers nK grow from S (0 in K), so only their gaps are tracked,
    starting from ``gaps``, the gaps of S: z stays a gap of (n+1)K = nK + K
    iff z - y is a gap of nK for every y of K up to z.
    """
    ks = sorted(y for y in k_set if y <= max(gaps, default=0))
    r = 0
    while True:
        nxt = {z for z in gaps if all(z - y in gaps for y in ks[: bisect_right(ks, z)])}
        if nxt == gaps:
            return r
        gaps, r = nxt, r + 1


def valid_gap_subsets(gens: list[int], gaps: list[int], s_elems: set[int]) -> list[int]:
    """Bitmasks of gap subsets G with (S union G) + generators closed.

    Brute force over all 2**genus subsets, in increasing mask order.
    """
    out = []
    gap_index = {g: i for i, g in enumerate(gaps)}
    top = max(gaps) if gaps else 0
    for mask in range(1 << len(gaps)):
        chosen = {gaps[i] for i in range(len(gaps)) if mask >> i & 1}
        ok = True
        for g in chosen:
            for m in gens:
                h = g + m
                if h <= top and h not in s_elems and h not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mask)
    return out


def count_semigroups_of_genus(genus: int) -> int:
    """Number of numerical semigroups with exactly ``genus`` gaps.

    Enumerates candidate gap sets inside [1, 2*genus - 1] and keeps the
    ones whose complement is closed under addition.
    """
    if genus == 0:
        return 1
    count = 0
    for gap_tuple in combinations(range(1, 2 * genus), genus):
        gaps = set(gap_tuple)
        top = max(gaps)

        def member(z: int) -> bool:
            return z >= 0 and z not in gaps

        ok = True
        for x in range(1, top + 1):
            if not member(x):
                continue
            for y in range(x, top - x + 1):
                if member(y) and not member(x + y):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count
