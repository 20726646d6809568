"""Exact arithmetic on numerical semigroups and the value sets they share
with their ideals.

A numerical semigroup S is an additive submonoid of the nonnegative
integers with finite complement.  Everything here is exact integer
arithmetic.  S is stored as a value set, the way its relative ideals
are (Barucci-Dobbs-Fontana, Mem. AMS 1997; Rosales-Garcia-Sanchez,
Numerical Semigroups, 2009): a least element, here 0, a conductor, and
membership in between held in a single Python int used as a bitset
(bit z set  <=>  z in S); every z at or above the conductor is a member
by definition.  :class:`_ValueSet` holds that storage and the only
membership test, extension mask, gap mask, translation key and closure
check; :class:`NumericalSemigroup` and the relative ideals of
``ideals.py`` are its two kinds.

Every semigroup is built one way, from a generating set: the closure of
the generators on a window that doubles until m members, m the least
generator, follow its last gap, which puts the conductor right after
that gap.  The construction then computes the Frobenius number, the
genus (by counting the window's set bits), the minimal generating
system and the type, the number of pseudo-Frobenius numbers, counted
off a mask without listing them; that mask is kept, as an int, for the
closedness test of ``lab.py``.  The gaps are listed from the window
only when asked for, so a ring of genus in the hundreds of thousands
holds one int, not a tuple of that many.  Instances are immutable after
construction, apart from one cache that is filled on first use with a
value fixed by the window (K's key, :meth:`NumericalSemigroup.canonical_key`),
and safe to share between threads or processes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._bits import bit_positions, indecomposables, ones, reverse_bits
from .errors import (
    EmptyGenerators,
    FullSemigroup,
    GcdNotOne,
    InternalInvariantViolation,
    Overflow,
)

#: Hard cap on frobenius + 1; exceeding it is an input error, not a crash.
#: Budget: one ring at the cap builds and classifies in about a second on
#: one core and in under 100 MB.  Measured on a 2-vCPU host, Python 3.11,
#: seven runs each over three processes: <1730,1731,1733> (F = 998,209,
#: canonical index 864), the slowest of the <m, m+1, m+3> rings tried
#: near the cap, takes 0.29 to 0.41 s, and its Herzog matrix 0.8 to 1.4 ms
#: more; <1000,1001> (F = 998,999, genus 499,500) takes 0.012 to 0.024 s.
#: Either peaks at 22 MB of process memory.  A ring holds its 125 kB
#: window and no list of its gaps (that list would be 18 MB); each
#: ideal's window is 125 kB.
DEFAULT_WINDOW_CAP = 10**6

_INT64_MAX = 2**63 - 1


def _closure_window(gens: list[int], bound: int) -> int:
    """Membership mask of the monoid generated by ``gens`` on [0, bound).

    Shift-or closure from the mask of {0}, in one pass over the
    generators.  For a generator g the shifts g, 2g, 4g, ... turn the
    mask X into X + {0, g, ..., (2^j - 1)g}; they stop once the shift
    reaches the bound, or once that mask is closed under 2^j g, which
    then makes it hold X + <g>.  So the pass ends with
    0 + <g1> + ... + <gk>, the whole closure, which is closed under
    every gi.  The window only cuts off its top, since no element below
    the bound comes from one above it.  Per generator the shift doubles,
    so the cost is logarithmic in ``bound`` rather than linear.
    """
    mask, cap = 1, ones(bound)
    for g in gens:
        step = g
        while step < bound:
            grown = (mask | (mask << step)) & cap
            if grown == mask:
                break
            mask = grown
            step <<= 1
    return mask


class _ValueSet:
    """A set of integers containing every integer from its conductor on.

    ``offset`` is its least element, ``conductor`` the least c with
    [c, infinity) inside it, and bit i of ``_window`` is set when
    offset + i is a member, for offset + i below the conductor.  A set
    with no element below its conductor has offset = conductor and an
    empty window.
    """

    __slots__ = ("offset", "conductor", "_window")

    def contains(self, z: int) -> bool:
        if z < self.offset:
            return False
        if z >= self.conductor:
            return True
        return bool((self._window >> (z - self.offset)) & 1)

    __contains__ = contains

    def _ext(self, stop: int) -> int:
        """Indicator mask of the set over [offset, stop)."""
        length = stop - self.offset
        if length <= 0:
            return 0
        mask = self._window
        if stop > self.conductor:
            mask |= ones(stop - self.conductor) << (self.conductor - self.offset)
        return mask & ones(length)

    def _missing(self) -> int:
        """Mask of the integers of [offset, conductor) outside the set."""
        return ~self._window & ones(self.conductor - self.offset)

    def key(self) -> tuple[int, int]:
        """Normal form of the set minus its least element: two value sets
        are translates of each other exactly when their keys are equal."""
        return self.conductor - self.offset, self._window

    def _check_closed(self, gens: Iterable[int], missing: int) -> None:
        """Raise InternalInvariantViolation unless adding each of ``gens``
        keeps the set inside itself.

        ``missing`` is the set's gap mask, :meth:`_missing`; a constructor
        that normalized the set has already computed it.
        """
        for g in gens:
            if (self._window << g) & missing:
                raise InternalInvariantViolation(f"value set is not closed under adding {g}")


class NumericalSemigroup(_ValueSet):
    """The numerical semigroup generated by a set of positive integers.

    It is the value set with offset 0; membership, the gap mask and the
    translation key are those of every value set.

    >>> S = NumericalSemigroup([5, 7, 9])
    >>> S.frobenius, S.genus, S.type
    (13, 8, 2)
    """

    __slots__ = (
        "generators",
        "frobenius",
        "genus",
        "multiplicity",
        "embedding_dim",
        "type",
        # only ints are cached, so no reference cycle ties a ring to its
        # ideals: the pseudo-Frobenius mask (bit x set: x in PF(S)) and
        # K's key, filled on first use by canonical_key
        "_pf",
        "_k_key",
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

        # Grow the window until m members follow its last gap: they start
        # exactly at the conductor, since a run of m members holds every
        # integer after it.
        limit = DEFAULT_WINDOW_CAP + m + 1
        bound = min(max(2 * m + 2, 64), limit)
        while True:
            mask = _closure_window(gens, bound)
            conductor = (~mask & ones(bound)).bit_length()
            if bound - conductor >= m or bound >= limit:
                break
            bound = min(bound * 2, limit)
        # Stopping at the limit with fewer than m members after the last
        # gap leaves that gap at limit - m = cap + 1 or above, so this one
        # test also refuses a window that never found the conductor.
        if conductor > DEFAULT_WINDOW_CAP:
            raise Overflow(f"frobenius number exceeds the window cap {DEFAULT_WINDOW_CAP}")

        window = mask & ones(conductor)
        self.offset = 0
        self.conductor = conductor
        self.frobenius = conductor - 1
        self._window = window
        self.genus = conductor - window.bit_count()

        if conductor == 0:
            mingens: tuple[int, ...] = (1,)
            self.type = 1  # DVR convention
            self._pf = 0
        else:
            # A minimal generator is a positive element not of the form
            # s + t with s, t positive; all of them lie below conductor + m.
            mingens = tuple(indecomposables(self._ext(conductor + m) & ~1, gens))
            # x is pseudo-Frobenius iff x is a gap and x + g in S for
            # every minimal generator g; the type counts them.
            ext = self._ext(conductor + mingens[-1])
            acc = ones(conductor)
            for g0 in mingens:
                acc &= ext >> g0
            self._pf = acc & ~window
            self.type = self._pf.bit_count()
        self.generators = mingens
        self.multiplicity = mingens[0]
        self.embedding_dim = len(mingens)
        # Reversing the gap mask here would add work to every construction.
        self._k_key: tuple[int, int] | None = None

    def canonical_key(self) -> tuple[int, int]:
        """The key of the canonical ideal K: conductor c and the window of
        x in [0, c) with frobenius - x a gap, the gap mask read backwards.

        The reversal is made once, on first use, and kept in ``_k_key``,
        so K, the symmetry test, the canonicality test of every ideal and
        the Herzog path's cdeg and ddeg share it; a ring that never asks
        for K or its symmetry never reverses.
        """
        if self._k_key is None:
            c = self.conductor
            self._k_key = (c, reverse_bits(self._missing(), c))
        return self._k_key

    # -- classical invariants ------------------------------------------

    @property
    def gaps(self) -> tuple[int, ...]:
        """The gaps, ascending; listed from the window on each access."""
        return tuple(bit_positions(self._missing()))

    def is_symmetric(self) -> bool:
        """True iff x in S  <=>  frobenius - x not in S for all integers x.

        Symmetry is the Gorenstein criterion for semigroup rings.  Checked
        as S = K by literal bit reversal: K's cached key holds the gap mask
        read backwards, and reversal on c bits is an involution, so this
        equals reading the window backwards against the gap mask.  The
        type is not read, so the check stays independent of it.
        """
        if self.conductor == 0:
            raise FullSemigroup("symmetry is undefined for the full semigroup")
        return self.canonical_key()[1] == self._window

    # -- plumbing -------------------------------------------------------

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
