"""Exact arithmetic on numerical semigroups.

A numerical semigroup S is an additive submonoid of the nonnegative
integers with finite complement.  Everything here is exact integer
arithmetic; membership below the conductor is stored in a single Python
int used as a bitset (bit z set  <=>  z in S), and every z at or above
the conductor is a member by definition.

The construction computes the Frobenius number, gap set, minimal
generating system and pseudo-Frobenius numbers eagerly; instances are
immutable after construction and safe to share between threads or
processes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._bits import bit_positions, lowest_bit, ones, reverse_bits, runs_of_length
from .errors import EmptyGenerators, FullSemigroup, GcdNotOne, NotMember, Overflow

#: Hard cap on frobenius + 1; exceeding it is an input error, not a crash.
DEFAULT_WINDOW_CAP = 10**6

_INT64_MAX = 2**63 - 1


def _closure_window(gens: list[int], bound: int) -> int:
    """Membership mask of the monoid generated by ``gens`` on [0, bound).

    Fixpoint of shift-or closure; per generator the shift doubles, so the
    cost is logarithmic in ``bound`` rather than linear.
    """
    cap = ones(bound)
    mask = 1
    while True:
        before = mask
        for g in gens:
            if g >= bound:
                continue
            step = g
            while step < bound:
                grown = (mask | (mask << step)) & cap
                if grown == mask:
                    break
                mask = grown
                step <<= 1
        if mask == before:
            return mask


class NumericalSemigroup:
    """The numerical semigroup generated by a set of positive integers.

    >>> S = NumericalSemigroup([5, 7, 9])
    >>> S.frobenius, S.genus, S.type
    (13, 8, 2)
    """

    __slots__ = (
        "generators",
        "frobenius",
        "conductor",
        "genus",
        "gaps",
        "multiplicity",
        "embedding_dim",
        "type",
        "_window",
        "_pf",
    )

    def __init__(self, generators: Iterable[int]):
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if gens[-1] > _INT64_MAX:
            raise Overflow(f"generator {gens[-1]} exceeds the 64-bit input range")
        g = math.gcd(*gens)
        if g != 1:
            raise GcdNotOne(g)

        m = gens[0]
        if m > DEFAULT_WINDOW_CAP:
            raise Overflow(f"multiplicity {m} exceeds the window cap {DEFAULT_WINDOW_CAP}")

        # Grow the window until it shows m consecutive members; the first
        # such run starts exactly at the conductor.
        limit = DEFAULT_WINDOW_CAP + m + 1
        bound = min(max(2 * m + 2, 64), limit)
        while True:
            mask = _closure_window(gens, bound)
            runs = runs_of_length(mask, m)
            if runs:
                break
            if bound >= limit:
                raise Overflow(f"frobenius number exceeds the window cap {DEFAULT_WINDOW_CAP}")
            bound = min(bound * 2, limit)

        conductor = lowest_bit(runs)
        if conductor > DEFAULT_WINDOW_CAP:
            raise Overflow(f"frobenius number exceeds the window cap {DEFAULT_WINDOW_CAP}")

        self.conductor = conductor
        self.frobenius = conductor - 1
        self._window = mask & ones(conductor)
        self.gaps = tuple(bit_positions(~self._window & ones(conductor)))
        self.genus = len(self.gaps)

        if conductor == 0:
            mingens: tuple[int, ...] = (1,)
        else:
            # A minimal generator is a positive element not of the form
            # s + t with s, t positive; all of them lie below conductor + m.
            span = conductor + m
            ext = self._window | (ones(m) << conductor)
            positives = ext & ~1
            sums = 0
            for g0 in gens:
                if g0 < span:
                    sums |= positives << g0
            sums &= ones(span)
            mingens = tuple(bit_positions(positives & ~sums))
        self.generators = mingens
        self.multiplicity = mingens[0]
        self.embedding_dim = len(mingens)

        if conductor == 0:
            self._pf = ()
            self.type = 1  # DVR convention
        else:
            # x is pseudo-Frobenius iff x is a gap and x + g in S for
            # every minimal generator g.
            reach = conductor + mingens[-1]
            ext = self._window | (ones(reach - conductor) << conductor)
            acc = ones(conductor)
            for g0 in mingens:
                acc &= ext >> g0
            self._pf = tuple(bit_positions(acc & ~self._window & ones(conductor)))
            self.type = len(self._pf)

    # -- membership ----------------------------------------------------

    def contains(self, z: int) -> bool:
        if z < 0:
            return False
        if z >= self.conductor:
            return True
        return bool((self._window >> z) & 1)

    def __contains__(self, z: int) -> bool:
        return self.contains(z)

    # -- classical invariants ------------------------------------------

    def apery_set(self, n: int) -> list[int]:
        """Smallest element of S in each residue class mod n, sorted.

        Raises NotMember unless n is a positive element of S.
        """
        if n <= 0 or not self.contains(n):
            raise NotMember(f"{n} is not a positive element of the semigroup")
        out: list[int] = []
        seen = [False] * n
        found = 0
        z = 0
        while found < n:
            if self.contains(z) and not seen[z % n]:
                seen[z % n] = True
                out.append(z)
                found += 1
            z += 1
        return sorted(out)

    def pseudo_frobenius(self) -> list[int]:
        """Gaps x with x + s in S for every positive s in S, sorted.

        The count is the Cohen-Macaulay type of the semigroup ring; the
        Frobenius number is always among them.  Raises FullSemigroup for
        the full semigroup, whose pseudo-Frobenius set is empty.
        """
        if self.conductor == 0:
            raise FullSemigroup("the full semigroup has no pseudo-Frobenius numbers")
        return list(self._pf)

    def is_symmetric(self) -> bool:
        """True iff x in S  <=>  frobenius - x not in S for all integers x.

        Symmetry is the Gorenstein criterion for semigroup rings.  Checked
        by literal bit reversal of the window, independently of the type.
        """
        if self.conductor == 0:
            raise FullSemigroup("symmetry is undefined for the full semigroup")
        c = self.conductor
        return reverse_bits(self._window, c) == (~self._window & ones(c))

    # -- plumbing -------------------------------------------------------

    def elements_below(self, stop: int) -> list[int]:
        """All members in [0, stop)."""
        mask = self._window
        if stop > self.conductor:
            mask |= ones(stop - self.conductor) << self.conductor
        return bit_positions(mask & ones(stop))

    def to_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "type": self.type,
            "multiplicity": self.multiplicity,
            "embedding_dim": self.embedding_dim,
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"
