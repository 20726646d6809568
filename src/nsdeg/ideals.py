"""Calculus of monomial fractional ideals of a numerical semigroup.

A relative ideal of S is a set E of integers with E + S inside E,
bounded below and containing every large enough integer.  It is stored
in normal form: the minimum element (offset), the minimal conductor
(every z >= conductor belongs to E), and a bitset window over
[offset, conductor).  Two relative ideals are equal exactly when these
three parts coincide, which makes all the identity checks in the test
suite exact set comparisons.

Products and colons run over minimal generators, by the value-set
identities (Barucci-Dobbs-Fontana, Mem. AMS 1997; Rosales-Garcia-Sanchez,
Numerical Semigroups, 2009)

    E + F = union of f + E,   E : F = intersection of E - f,

f ranging over the minimal generators of F.  An ideal's minimal
generators are E minus (M + E), where M + E is the union of g + E over
the minimal generators g of S; each ideal computes them once, on first
use.  An operation thus costs about one shift per generator of one
factor rather than one per element of its window; the canonical ideal
K has only type(S) generators.  The reduction loop is bounded by the
genus of S, a theorem (see :func:`reduction`), not by a fixed count.

All operations are pure; results are re-normalized and re-validated on
construction, so a bug in any operation surfaces immediately as an
InternalInvariantViolation rather than as a corrupted value.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from ._bits import bit_positions, lowest_bit, ones, reverse_bits
from .errors import (
    AmbientMismatch,
    EmptyGenerators,
    InternalInvariantViolation,
    NotContained,
    Overflow,
)
from .semigroup import NumericalSemigroup

#: Guard on intermediate window lengths (ideal powers etc.).
_IDEAL_WINDOW_CAP = 10**7


class RelativeIdeal:
    """A monomial fractional ideal of a numerical semigroup, by value set.

    Construct through :func:`generate`, :func:`canonical_ideal`,
    :func:`unit_ideal` or :func:`maximal_ideal`; the raw constructor
    takes an arbitrary half-line description (mask over [start, tail)
    plus everything at or above tail) and normalizes it.
    """

    __slots__ = ("ambient", "offset", "conductor", "_window", "_gens")

    def __init__(self, ambient: NumericalSemigroup, start: int, mask: int, tail: int):
        if tail < start:
            raise InternalInvariantViolation("half-line tail precedes its start")
        full = ones(tail - start)
        mask &= full
        if mask == 0:
            offset = conductor = tail
            window = missing = 0
        else:
            lo = lowest_bit(mask)
            offset = start + lo
            # bit i set: offset + i is not in E; the highest one is the
            # Frobenius number of E
            missing = (full ^ mask) >> lo
            conductor = offset + missing.bit_length()
            window = (mask >> lo) & ones(conductor - offset)
        self.ambient = ambient
        self.offset = offset
        self.conductor = conductor
        self._window = window
        self._gens: list[int] | None = None
        self._validate(missing)

    def _validate(self, missing: int) -> None:
        # E + g inside E for every minimal generator g of the ambient;
        # ``missing`` marks the integers of [offset, conductor) not in E.
        for g in self.ambient.generators:
            if (self._window << g) & missing:
                raise InternalInvariantViolation(
                    f"value set is not closed under adding {g}"
                )

    def _generators(self) -> list[int]:
        """Minimal generators as offsets from min E, computed once.

        They are E minus (M + E) and lie below conductor + multiplicity.
        """
        if self._gens is None:
            S = self.ambient
            ext = self._ext(self.conductor + S.multiplicity)
            sums = 0
            for g in S.generators:
                sums |= ext << g
            self._gens = bit_positions(ext & ~sums)
        return self._gens

    # -- membership and views -------------------------------------------

    def contains(self, z: int) -> bool:
        if z < self.offset:
            return False
        if z >= self.conductor:
            return True
        return bool((self._window >> (z - self.offset)) & 1)

    def __contains__(self, z: int) -> bool:
        return self.contains(z)

    def _ext(self, stop: int) -> int:
        """Indicator mask of E over [offset, stop)."""
        length = stop - self.offset
        if length <= 0:
            return 0
        mask = self._window
        if stop > self.conductor:
            mask |= ones(stop - self.conductor) << (self.conductor - self.offset)
        return mask & ones(length)

    def elements_below_conductor(self) -> list[int]:
        return [self.offset + i for i in bit_positions(self._window)]

    def shift(self, z: int) -> "RelativeIdeal":
        """The translate z + E."""
        return RelativeIdeal(self.ambient, self.offset + z, self._window, self.conductor + z)

    # -- lattice and multiplicative operations ---------------------------

    def _check_ambient(self, other: "RelativeIdeal") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("ideals live over different ambient semigroups")

    def union(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Ideal sum: the union of the two value sets."""
        self._check_ambient(other)
        start = min(self.offset, other.offset)
        tail = min(self.conductor, other.conductor)
        mask = (self._ext(tail) << (self.offset - start)) | (
            other._ext(tail) << (other.offset - start)
        )
        return RelativeIdeal(self.ambient, start, mask, tail)

    def product(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Ideal product: the Minkowski sum of the two value sets.

        E + F is the union of f + E over the minimal generators f of F,
        F being whichever factor has fewer of them.
        """
        self._check_ambient(other)
        start = self.offset + other.offset
        tail = min(self.conductor + other.offset, other.conductor + self.offset)
        length = tail - start
        if length > _IDEAL_WINDOW_CAP:
            raise Overflow("product window exceeds the size bound")
        e, f = self, other
        if len(e._generators()) < len(f._generators()):
            e, f = f, e
        emask = e._ext(e.offset + length)
        acc = 0
        for g in f._generators():
            if g >= length:
                break
            acc |= emask << g
        return RelativeIdeal(self.ambient, start, acc & ones(length), tail)

    def colon(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """E : F = all z with z + F inside E; realizes Hom(F, E).

        z + F lies in E exactly when z + f does for every minimal
        generator f of F, so E : F is the intersection of E - f.
        """
        self._check_ambient(other)
        start = self.offset - other.offset
        length = self.conductor - self.offset
        missing = ~self._window & ones(length)
        bad = 0
        for f in other._generators():
            if f >= length:
                break
            bad |= missing >> f
        return RelativeIdeal(self.ambient, start, ~bad & ones(length), start + length)

    def dual(self) -> "RelativeIdeal":
        """S - E, the value set of Hom(E, S)."""
        return unit_ideal(self.ambient).colon(self)

    def bidual(self) -> "RelativeIdeal":
        return self.dual().dual()

    def trace(self) -> "RelativeIdeal":
        """E * (S - E); always lands inside S and is shift-invariant."""
        return self.product(self.dual())

    def minimal_generators(self) -> list[int]:
        """Minimal G with generate(S, G) = E, namely E minus (M + E)."""
        return [self.offset + f for f in self._generators()]

    def contains_ideal(self, other: "RelativeIdeal") -> bool:
        """True iff other is a subset of self."""
        self._check_ambient(other)
        if other.offset < self.offset:
            return False
        stop = max(self.conductor, other.conductor)
        big = self._ext(stop)
        small = other._ext(stop) << (other.offset - self.offset)
        return not (small & ~big)

    def to_dict(self) -> dict:
        return {
            "ambient": list(self.ambient.generators),
            "elements_below_conductor": self.elements_below_conductor(),
            "conductor": self.conductor,
            "offset": self.offset,
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelativeIdeal)
            and self.ambient == other.ambient
            and self.offset == other.offset
            and self.conductor == other.conductor
            and self._window == other._window
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.offset, self.conductor, self._window))

    def __repr__(self) -> str:
        return (
            f"RelativeIdeal(offset={self.offset}, "
            f"elements={self.elements_below_conductor()}, conductor={self.conductor})"
        )


@dataclass(frozen=True)
class ReductionData:
    """Principal reduction of an ideal by its minimum-value element."""

    element_value: int
    reduction_number: int


# -- constructors --------------------------------------------------------


def generate(S: NumericalSemigroup, gens: Iterable[int]) -> RelativeIdeal:
    """Smallest relative ideal containing ``gens``: the union of g + S."""
    vals = sorted({int(v) for v in gens})
    if not vals:
        raise EmptyGenerators("an ideal needs at least one generator")
    start = vals[0]
    tail = start + S.conductor
    acc = 0
    for v in vals:
        if v >= tail:
            continue
        length = tail - v
        mask = S._window
        if length > S.conductor:
            mask |= ones(length - S.conductor) << S.conductor
        acc |= (mask & ones(length)) << (v - start)
    return RelativeIdeal(S, start, acc, tail)


def unit_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """S considered as an ideal over itself."""
    return RelativeIdeal(S, 0, S._window, S.conductor)


def maximal_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """The positive elements of S."""
    return RelativeIdeal(S, 1, S._window >> 1, max(S.conductor, 1))


def canonical_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """The canonical ideal K = { x : frobenius - x not in S }, min 0.

    For symmetric semigroups K equals S; it always sits between S and
    the nonnegative integers.  It is the unique normalized ideal (up to
    the chosen shift) that dualizes exactly: (K : (K : E)) = E for every
    relative ideal E.
    """
    c = S.conductor
    if c == 0:
        return unit_ideal(S)
    return RelativeIdeal(S, 0, reverse_bits(~S._window & ones(c), c), c)


# -- lengths and reductions ----------------------------------------------


def length_quotient(big: RelativeIdeal, small: RelativeIdeal) -> int:
    """lambda(E/F) = |E minus F| for F contained in E.

    Raises NotContained (with a witness element) if F is not inside E.
    """
    big._check_ambient(small)
    anchor = min(big.offset, small.offset)
    stop = max(big.conductor, small.conductor)
    b = big._ext(stop) << (big.offset - anchor)
    s = small._ext(stop) << (small.offset - anchor)
    extra = s & ~b
    if extra:
        raise NotContained(anchor + lowest_bit(extra))
    return (b & ~s).bit_count()


def reduction(ideal: RelativeIdeal) -> ReductionData:
    """Reduction data of E by a = t^min(E).

    Returns the least r >= 0 with E^(r+1) = a + E^r as value sets; the
    stabilization is re-verified one step further.  Each power is one
    product over the generators of E (or of the power, if it has fewer).

    r is at most the genus g of S.  The shifted powers E_n = nE - na form
    a chain S = E_0, E_1, ... inside the nonnegative integers: a in E
    gives E_(n-1) inside E_n, and min nE = na keeps E_n nonnegative.
    E_(r+1) = E_r implies E_(r+2) = E_r + E - a = E_(r+1), so the chain
    grows strictly until it stops.  It starts from S, which misses g
    nonnegative integers, so it grows at most g times.  The loop runs
    g + 1 steps; running past them can only be an implementation bug.
    """
    a = ideal.offset
    prev = unit_ideal(ideal.ambient)
    cur = ideal
    for r in range(ideal.ambient.genus + 1):
        if cur == prev.shift(a):
            if cur.product(ideal) != cur.shift(a):
                raise InternalInvariantViolation("reduction did not stabilize")
            return ReductionData(a, r)
        prev, cur = cur, cur.product(ideal)
    raise InternalInvariantViolation("reduction did not stabilize within genus + 1 steps")
