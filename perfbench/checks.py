"""Plain-set recounts that the workloads check nsdeg's answers against.

They take only a semigroup's gaps and generators from nsdeg, so a bug
in the bitset calculus cannot hide behind the same bug here.
"""

from __future__ import annotations

from collections.abc import Iterable

#: Number of numerical semigroups of genus 0, 1, ..., 18 (OEIS A007323).
GENUS_COUNTS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467)


def cdeg_recount(gaps: Iterable[int]) -> int:
    """|K \\ S| with K = {x >= 0 : F - x not in S}, counted on plain sets.

    Every x > F lies in S, so only x in [0, F] can count; there both x
    and F - x lie in [0, F], where "not in S" means "is a gap".
    """
    gapset = set(gaps)
    frobenius = max(gapset, default=-1)
    canonical = {x for x in range(frobenius + 1) if frobenius - x in gapset}
    return len(canonical & gapset)


def count_ideals(gaps: Iterable[int], generators: Iterable[int], cap: int) -> int:
    """Number of normalized relative ideals S u G, or cap + 1 once it exceeds cap.

    G ranges over gap sets with g + m in S u G for every g in G and every
    generator m: gaps are decided from the largest down, and a gap may
    join G only when every gap it reaches by one generator already has.
    Bit i of a mask stands for the i-th largest gap.
    """
    order = sorted(gaps, reverse=True)
    index = {g: i for i, g in enumerate(order)}
    reach = [sum(1 << index[g + m] for m in generators if g + m in index) for g in order]
    count = 0

    def walk(i: int, chosen: int) -> None:
        nonlocal count
        if count > cap:
            return
        if i == len(order):
            count += 1
            return
        walk(i + 1, chosen)
        if reach[i] & ~chosen == 0:
            walk(i + 1, chosen | (1 << i))

    walk(0, 0)
    return min(count, cap + 1)
