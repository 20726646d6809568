"""Closed, reflexive and precanonical ideals, and exhaustive enumeration.

An ideal E is closed when E : E = S, reflexive when E** = E, principal
when it is a shift of S.  Closed + reflexive forces principal in this
setting, and the enumeration below makes that an exhaustively checkable
statement: every normalized relative ideal with minimum 0 is S plus a
set of gaps that is stable under adding generators.

The flags read what is fixed per ring off the semigroup, once: closedness
tests E against the pseudo-Frobenius numbers of S, whose mask the
construction of S keeps, so no E : E is formed; canonicality compares
E's key with K's, reversed once per ring and cached on S.  Only ints are
cached there, so no reference cycle ties a ring to its ideals.

The canonicality test of a closed ideal via a socle condition needs an
Ext-vanishing hypothesis that has no value-set criterion; profiles
therefore carry the socle witnesses as data, and a closed non-canonical
ideal with a witness is flagged as needing the Ext check rather than
being asserted either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from .errors import FullSemigroup, TooLarge
from ._bits import shift_union
from .ideals import RelativeIdeal, length_quotient
from .semigroup import NumericalSemigroup

#: Enumeration is refused above this genus.  The worst case of a genus g
#: is the ordinary semigroup <g+1, ..., 2g+1>, all 2**g of whose gap
#: subsets are ideals.  ``nsdeg lab --enumerate-ideals`` on it took 3.5 s
#: at genus 16, 6.0 s at 17, 16.3 s at 18 and 33.0 s at 19 (one run each
#: on one core of a 2-vCPU host, Python 3.11.7): about double per genus.
#: The budget is one minute for the worst case, so the cap is 19; genus
#: 20 would take about 66 s.  Memory: the enumeration lists its 2**19
#: gap-subset masks at genus 19 before the first ideal, 22 MiB at its
#: peak (tracemalloc); the whole command peaks at 126 MB of process memory.
DEFAULT_ENUMERATION_CAP = 19


def is_closed(E: RelativeIdeal) -> bool:
    """True iff E : E = S, decided by the pseudo-Frobenius numbers of S.

    E : E is never formed.  It is False exactly when some x in PF(S) has
    x + E inside E, one shift of E's window against its gap mask per x
    (Rosales-Garcia-Sanchez, Numerical Semigroups, 2009, ch. 2-4):

    * T = E : E is a numerical semigroup containing S: it holds 0, is
      closed under addition and contains S since E is an ideal, and a
      negative z would put z + min E below min E.
    * If T != S, let x = max(T minus S).  For every positive s in S,
      x + s lies in T and exceeds x, so it lies in S: x is in PF(S).
    * Conversely, any gap of S inside T shows T != S.

    PF(S) is the mask the semigroup's construction counts its type from.
    """
    window, missing = E._window, E._missing()
    pf = E.ambient._pf
    while pf:
        x = pf.bit_length() - 1
        if not (window << x) & missing:
            return False
        pf ^= 1 << x
    return True


def is_reflexive(E: RelativeIdeal) -> bool:
    """True iff the bidual S - (S - E) is E itself."""
    return E.bidual() == E


def is_principal(E: RelativeIdeal) -> bool:
    """True iff E = min(E) + S."""
    return E.key() == E.ambient.key()


def is_canonical(E: RelativeIdeal) -> bool:
    """True iff E is a shift of the canonical ideal.

    K's key is the gap mask of S read backwards, the window canonical_ideal
    builds K from; it is reversed once per ring and cached on S, so no K
    is built and no reversal is repeated per ideal.
    """
    return E.key() == E.ambient.canonical_key()


def _maximal_sum(E: RelativeIdeal) -> RelativeIdeal:
    """M + E, the union of g + E over the minimal generators g of S.

    It is E's window shifted by each g, read from min E: it starts at
    min E + e0, e0 the multiplicity, and holds every integer from
    conductor(E) + e0 on.  M itself is not built.
    """
    S = E.ambient
    width = E.conductor - E.offset + S.multiplicity
    acc = shift_union(E._window, S.generators, width)
    return RelativeIdeal(S, E.offset, acc, E.offset + width)


def socle_witnesses(E: RelativeIdeal) -> list[tuple[int, int]]:
    """All (c, n) with M + E inside c + S and n = lambda(E/(c + S)).

    M + E is formed as the union of g + E over the generators g of S,
    with no M built.  By the gap mask of S, the same for every c: for
    c <= min(M + E), M + E lies in c + S iff no element of M + E below
    c + conductor(S) is c plus a gap of S.  Then c + S lies in E, and
    both hold every integer from the larger conductor on, so
    |E minus (c + S)| is c - min E + genus(S) less the integers of
    [min E, conductor(E)) missing from E.
    """
    S = E.ambient
    me = _maximal_sum(E)
    gaps = S._missing()
    near = me._ext(me.offset + S.conductor)
    base = S.genus - E.offset - E._missing().bit_count()
    return [
        (c, c + base)
        for c in range(E.offset, me.offset + 1)
        if c in E and not (near << (me.offset - c)) & gaps
    ]


@dataclass(frozen=True)
class IdealProfile:
    """Flags and metrics of one normalized relative ideal."""

    ideal: RelativeIdeal
    is_closed: bool
    is_reflexive: bool
    is_principal: bool
    is_canonical: bool
    rel_ddeg: int
    socle_witnesses: tuple[tuple[int, int], ...]

    @property
    def needs_ext_check(self) -> bool:
        """Closed with a nontrivial socle witness but not canonical.

        Witnesses with n = 0 are excluded: they only say E is a shift of
        c + S, where the vector-space condition is vacuous.
        """
        return (
            self.is_closed
            and any(n >= 1 for _, n in self.socle_witnesses)
            and not self.is_canonical
        )


def profile_ideal(E: RelativeIdeal) -> IdealProfile:
    """Profile of E after normalizing its minimum to 0."""
    norm = E.shift(-E.offset)
    # The flag and the length stay two computations on the shared bidual,
    # so that rel_ddeg == 0 <=> reflexive remains a check.
    bidual = norm.bidual()
    return IdealProfile(
        ideal=norm,
        is_closed=is_closed(norm),
        is_reflexive=bidual == norm,
        is_principal=is_principal(norm),
        is_canonical=is_canonical(norm),
        rel_ddeg=length_quotient(bidual, norm),
        socle_witnesses=tuple(socle_witnesses(norm)),
    )


def gap_subset_mask(E: RelativeIdeal) -> int:
    """Bitmask over the ambient gaps (bit i = i-th smallest gap is in E)."""
    return sum(1 << i for i, g in enumerate(E.ambient.gaps) if g in E)


def enumerate_ideals(S: NumericalSemigroup) -> Iterator[RelativeIdeal]:
    """Every normalized relative ideal of S with minimum 0, exactly once.

    The ideals are exactly the sets S union G where G is a gap subset
    with g + generator in S union G for every g in G.  Gap subsets are
    emitted in increasing bitmask order (bit i = i-th smallest gap), so
    S comes first and the full semigroup last.

    The admissible subsets are listed as int masks in one flat pass
    before the first ideal is yielded, then sorted; each ideal is built
    from its mask through the validating constructor as it is yielded.
    """
    if S.conductor == 0:
        raise FullSemigroup("the full semigroup only carries its own shifts")
    if S.genus > DEFAULT_ENUMERATION_CAP:
        raise TooLarge(f"genus {S.genus} exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}")

    # Gap subsets are held as position masks (bit g set: the gap g is
    # chosen); choosing the gap g requires the gaps in g + generators,
    # all above g.  Deciding the gaps from the highest down, each subset
    # chosen so far is kept and, when it holds every gap g requires,
    # extended by g.  Position masks order like the gap-index masks.
    gap_mask = S._missing()
    gen_mask = sum(1 << m for m in S.generators)
    subsets = [0]
    for g in reversed(S.gaps):
        bit, need = 1 << g, (gen_mask << g) & gap_mask
        subsets += [c | bit for c in subsets if not need & ~c]
    subsets.sort()
    for chosen in subsets:
        yield RelativeIdeal(S, 0, S._window | chosen, S.conductor)
