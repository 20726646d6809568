"""Calculus of monomial fractional ideals of a numerical semigroup.

A relative ideal of S is a set E of integers with E + S inside E,
bounded below and containing every large enough integer.  It is stored
in normal form: the minimum element (offset), the minimal conductor
(every z >= conductor belongs to E), and a bitset window over
[offset, conductor).  Two relative ideals are equal exactly when these
three parts coincide, which makes all the identity checks in the test
suite exact set comparisons.

S itself is the value set 0 + S, stored the same way: both are value
sets of ``semigroup.py``, which hold the one membership test, extension
mask, gap mask and closure check that every operation here uses.
Identity up to translation is a comparison of keys: a value set's key,
(conductor - offset, window), is the normal form of E - min E, so E is
a translate of F, or of S, exactly when their keys are equal.  Asking
whether an ideal is principal, closed or canonical, or whether a power
has stabilized, therefore builds no unit ideal and no translate.

Products and colons run over minimal generators, by the value-set
identities (Barucci-Dobbs-Fontana, Mem. AMS 1997; Rosales-Garcia-Sanchez,
Numerical Semigroups, 2009)

    E + F = union of f + E,   E : F = intersection of E - f,

f ranging over the minimal generators of F.  Each has one kernel.
Every sum (a generated ideal, a product, and the sums M + E that give an
ideal's minimal generators) is one call of ``_bits.shift_union``.  One
colon kernel, :func:`_colon`, serves E : F and the dual S : F alike:
its left side is any value set over F's ambient, and S is the left side
of every dual, so no dual or bidual builds a unit ideal.  A length
quotient takes S itself on either side in the same way, so no degree
over S builds one either.  An ideal's minimal generators are E minus
(M + E), where M + E is the union of g + E over the minimal generators g
of S; each ideal computes them once, on first use, except the maximal
ideal, whose generators are those of S.  An operation thus costs one
shift per generator of its argument F rather than one per element of
its window, so callers pass the factor with fewer generators as the
argument: the canonical ideal K has only type(S) generators, and its
dual has at least as many.  The reduction loop multiplies each power by
E, so a power's own generators are never computed; it is bounded by the
multiplicity of S, a theorem (see :func:`reduction`), not by a fixed
count.

All operations are pure; results are re-normalized and re-validated on
construction, so a bug in any operation surfaces immediately as an
InternalInvariantViolation rather than as a corrupted value.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._bits import bit_positions, indecomposables, lowest_bit, ones, shift_union
from .errors import (
    AmbientMismatch,
    EmptyGenerators,
    InternalInvariantViolation,
    NotContained,
)
from .semigroup import NumericalSemigroup, _ValueSet


class RelativeIdeal(_ValueSet):
    """A monomial fractional ideal of a numerical semigroup, by value set.

    Construct through :func:`generate`, :func:`canonical_ideal`,
    :func:`unit_ideal` or :func:`maximal_ideal`; the raw constructor
    takes an arbitrary half-line description (mask over [start, tail)
    plus everything at or above tail), normalizes it to a value set and
    checks that it is closed under adding the ambient's generators.
    """

    __slots__ = ("ambient", "_gens")

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
        self._check_closed(ambient.generators, missing)

    def _generators(self) -> list[int]:
        """Minimal generators as offsets from min E, computed once.

        They are E minus (M + E) and lie below conductor + multiplicity.
        """
        if self._gens is None:
            S = self.ambient
            self._gens = indecomposables(self._ext(self.conductor + S.multiplicity), S.generators)
        return self._gens

    # -- views ------------------------------------------------------------

    def elements_below_conductor(self) -> list[int]:
        return [self.offset + i for i in bit_positions(self._ext(self.conductor))]

    def shift(self, z: int) -> "RelativeIdeal":
        """The translate z + E; E itself for z = 0, ideals being immutable."""
        if z == 0:
            return self
        return RelativeIdeal(self.ambient, self.offset + z, self._window, self.conductor + z)

    # -- lattice and multiplicative operations ---------------------------

    def product(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Ideal product: the Minkowski sum of the two value sets.

        E + F is the union of f + E over the minimal generators f of the
        argument F, one shift each; pass the factor with fewer generators
        as F.

        The window needs no size guard: its length is the smaller of the
        factors' conductor - offset, and every relative ideal E contains
        min E + S, so conductor - offset <= c(S) <= DEFAULT_WINDOW_CAP.
        """
        _check_ambients(self, other)
        start = self.offset + other.offset
        tail = min(self.conductor + other.offset, other.conductor + self.offset)
        length = tail - start
        acc = shift_union(self._ext(self.offset + length), other._generators(), length)
        return RelativeIdeal(self.ambient, start, acc, tail)

    def colon(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """E : F = all z with z + F inside E; realizes Hom(F, E)."""
        _check_ambients(self, other)
        return _colon(self, other)

    def dual(self) -> "RelativeIdeal":
        """S - E, the value set of Hom(E, S), with S itself as the left side."""
        return _colon(self.ambient, self)

    def bidual(self) -> "RelativeIdeal":
        return self.dual().dual()

    def trace(self) -> "RelativeIdeal":
        """E * (S - E); always lands inside S and is shift-invariant."""
        return self.dual().product(self)

    def minimal_generators(self) -> list[int]:
        """Minimal G with generate(S, G) = E, namely E minus (M + E)."""
        return [self.offset + f for f in self._generators()]

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
            and (self.ambient is other.ambient or self.ambient == other.ambient)
            and self.offset == other.offset
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.offset, self.key()))

    def __repr__(self) -> str:
        return (
            f"RelativeIdeal(offset={self.offset}, "
            f"elements={self.elements_below_conductor()}, conductor={self.conductor})"
        )


# -- constructors --------------------------------------------------------


def generate(S: NumericalSemigroup, gens: Iterable[int]) -> RelativeIdeal:
    """Smallest relative ideal containing ``gens``: the union of g + S."""
    vals = sorted({int(v) for v in gens})
    if not vals:
        raise EmptyGenerators("an ideal needs at least one generator")
    start = vals[0]
    acc = shift_union(S._window, [v - start for v in vals], S.conductor)
    return RelativeIdeal(S, start, acc, start + S.conductor)


def _check_ambients(E: _ValueSet, F: _ValueSet) -> None:
    """Raise AmbientMismatch unless E and F live over one semigroup,
    S itself living over S."""
    A = E if isinstance(E, NumericalSemigroup) else E.ambient
    B = F if isinstance(F, NumericalSemigroup) else F.ambient
    if A is not B and A != B:
        raise AmbientMismatch("ideals live over different ambient semigroups")


def _colon(A: _ValueSet, F: RelativeIdeal) -> RelativeIdeal:
    """A : F over F's ambient, for A that ambient S itself or an ideal over it.

    z + F lies in A exactly when z + f does for every minimal generator f
    of F, so A : F is the intersection of A - f: one shift of A's gap
    mask per generator.  S has the offset, conductor, window and gap mask
    of the unit ideal, so the dual S : F needs no unit ideal built.
    """
    start = A.offset - F.offset
    length = A.conductor - A.offset
    missing = A._missing()
    bad = 0
    for f in F._generators():
        if f >= length:
            break
        bad |= missing >> f
    return RelativeIdeal(F.ambient, start, ~bad, start + length)


def unit_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """S considered as an ideal over itself.

    The duals, the identity tests, reduction's start and the length
    quotients over S all read S itself, which has this ideal's offset,
    conductor, window and gap mask; the unit ideal is built only where
    an operation takes it as an argument, as in the product E * S or the
    colon E : S.
    """
    return RelativeIdeal(S, 0, S._window, S.conductor)


def maximal_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """The positive elements of S, with its minimal generators those of S.

    M's minimal generators are M minus (M + M), and that set is the
    minimal generating system of S (Rosales-Garcia-Sanchez, Numerical
    Semigroups, 2009, ch. 1), so they are read off S, shifted by min M =
    e0, with no scan of M's window.
    """
    M = RelativeIdeal(S, 1, S._window >> 1, max(S.conductor, 1))
    M._gens = [g - S.multiplicity for g in S.generators]
    return M


def canonical_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """The canonical ideal K = { x : frobenius - x not in S }, min 0.

    For symmetric semigroups K equals S; it always sits between S and
    the nonnegative integers.  It is the unique normalized ideal (up to
    the chosen shift) that dualizes exactly: (K : (K : E)) = E for every
    relative ideal E.
    """
    c, window = S.canonical_key()
    return RelativeIdeal(S, 0, window, c)


# -- lengths and reductions ----------------------------------------------


def length_quotient(big: _ValueSet, small: _ValueSet) -> int:
    """lambda(E/F) = |E minus F| for F contained in E.

    Either side may be S itself, which stands for the unit ideal: it has
    the unit ideal's offset, conductor and window, so cdeg = lambda(K/S)
    and tdeg = lambda(S/tr K) build no unit ideal.  S must then be the
    other side's ambient, as for the left side of a colon; ideals over
    different semigroups raise AmbientMismatch.  Raises NotContained
    (with a witness element) if F is not inside E.
    """
    _check_ambients(big, small)
    anchor = min(big.offset, small.offset)
    stop = max(big.conductor, small.conductor)
    b = big._ext(stop) << (big.offset - anchor)
    s = small._ext(stop) << (small.offset - anchor)
    extra = s & ~b
    if extra:
        raise NotContained(anchor + lowest_bit(extra))
    return (b & ~s).bit_count()


def reduction(ideal: RelativeIdeal) -> int:
    """Reduction number of E by its principal reduction a = t^min(E).

    Returns the least r >= 0 with E^(r+1) = a + E^r as value sets; the
    stabilization is re-verified one step further.  Each power is one
    product over the generators of E.  min E^n = na, so E^(r+1) is
    a + E^r exactly when the two have the same key, and E^0 = S has
    S's key.

    r is at most e0 - 1, e0 the multiplicity of S (Lipman, Stable ideals
    and Arf rings, Amer. J. Math. 93, 1971; Eakin-Sathaye, Prestable
    ideals, J. Algebra 41, 1976).  Their hypotheses hold here.  The ring
    R = k[[t^S]] is a one-dimensional Cohen-Macaulay local domain of
    multiplicity e0, and for N > -min E the monomial ideal I = t^N E is
    m-primary with the reduction number of E.  A monomial ideal has at
    most e0 minimal generators, one per class mod e0, so
    mu(I^e0) <= e0 < e0 + 1, and Eakin-Sathaye give I^e0 = x I^(e0-1)
    for some x once the residue field is infinite; extending k keeps
    every value set.  Taking values, e0 E' = v(x) + (e0 - 1) E' with
    E' = N + E; comparing minima gives v(x) = N + a, so
    e0 E = a + (e0 - 1) E: the reduction by t^a used here stops by then
    too.  The loop runs e0 steps, at most genus + 1 since 1, ..., e0 - 1
    are gaps; running past them can only be an implementation bug.
    """
    S = ideal.ambient
    prev = S.key()
    cur = ideal
    for r in range(S.multiplicity):
        key = cur.key()
        if key == prev:
            if cur.product(ideal).key() != key:
                raise InternalInvariantViolation("reduction did not stabilize")
            return r
        prev, cur = key, cur.product(ideal)
    raise InternalInvariantViolation("reduction did not stabilize within multiplicity steps")
