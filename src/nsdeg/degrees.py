"""Gorenstein-deviation invariants of a numerical semigroup ring.

All degrees are lengths of quotients of value sets of the canonical
ideal K (normalized so min K = 0):

* cdeg  = lambda(K / S), the canonical degree;
* ddeg  = lambda(K** / K), the bi-canonical degree (K** the bidual);
* tdeg  = lambda(S / tr K), the trace degree;
* canonical index = reduction number of K.

cdeg vanishes exactly for Gorenstein (symmetric) rings, is bounded
below by type - 1, and meets the bound exactly for almost Gorenstein
rings.  The change-of-ring formulas for the idealization of the maximal
ideal and for the blow-up ring M - M are applied, never modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import reverse_bits
from .errors import FullSemigroup, InternalInvariantViolation
from .ideals import RelativeIdeal, canonical_ideal, length_quotient, maximal_ideal, reduction
from .semigroup import NumericalSemigroup


def cdeg(S: NumericalSemigroup) -> int:
    """Canonical degree: lambda(K / (min K + S)) = |K \\ S|, over S itself."""
    return length_quotient(canonical_ideal(S), S)


def ddeg(S: NumericalSemigroup) -> int:
    """Bi-canonical degree: lambda(K** / K)."""
    K = canonical_ideal(S)
    return length_quotient(K.bidual(), K)


def tdeg(S: NumericalSemigroup) -> int:
    """Trace degree: lambda(S / tr(K)), over S itself; equals ddeg in this setting."""
    return length_quotient(S, canonical_ideal(S).trace())


def canonical_index(S: NumericalSemigroup) -> int:
    """Reduction number of the canonical ideal; 0 iff Gorenstein."""
    return reduction(canonical_ideal(S))


def _blowup_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """T = M - M as an ideal over S, checked to be a ring.

    T is formed by one colon.  It contains 0, and it is a semigroup
    exactly when it is closed under adding its own generators as an
    S-module (its construction already checked S's), so a wrong colon
    raises InternalInvariantViolation here.
    """
    if S.conductor == 0:
        raise FullSemigroup("M - M is undefined for the full semigroup")
    M = maximal_ideal(S)
    T = M.colon(M)
    if T.offset != 0:
        raise InternalInvariantViolation("M - M does not contain 0")
    T._check_closed(T._generators()[1:], T._missing())
    return T


def endomorphism_blowup(S: NumericalSemigroup) -> NumericalSemigroup:
    """The semigroup of the ring M : M, i.e. the value set M - M.

    T = M - M is a ring containing S, so T's positive generators as an
    S-module together with the generators of S generate T as a semigroup.
    It is built from those generators by the semigroup's own closure, so
    its window is computed independently of the colon's.  ``classify``
    does not build it; it stays as the reference for the change-of-ring
    check's left side.
    """
    T = _blowup_ideal(S)
    return NumericalSemigroup([*T.minimal_generators()[1:], *S.generators])


@dataclass(frozen=True)
class TcdegCheck:
    """Both sides of cdeg(M:M ring) = cdeg + e0 - 2*type, computed independently."""

    lhs: int
    rhs: int
    equal: bool

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "equal": self.equal}


def tcdeg_check(S: NumericalSemigroup) -> TcdegCheck:
    """Verify the change-of-ring identity for A = M : M.

    The residue-extension degree is 1 here because M : M is again a
    semigroup ring over the same field.  The left side reads only the
    value set of M : M, the right side only invariants of S.
    """
    if S.conductor == 0:
        raise FullSemigroup("the identity is degenerate for the full semigroup")
    return _tcdeg(S, cdeg(S))


def _tcdeg(S: NumericalSemigroup, cd: int) -> TcdegCheck:
    """Both sides of the identity, given cd = cdeg(S).

    The right side needs only cd and invariants of S, so a caller that
    has counted cd already builds no second K.  The left side reads only
    the value set of T = M : M: cdeg(T) = |K_T minus T| counts the gaps x
    of T with F_T - x also a gap, which is T's gap mask ANDed with its
    reversal over [0, c_T).  So it builds no semigroup for T, and no K_T
    or U_T.
    """
    T = _blowup_ideal(S)
    missing = T._missing()
    lhs = (missing & reverse_bits(missing, T.conductor)).bit_count()
    rhs = cd + S.multiplicity - 2 * S.type
    return TcdegCheck(lhs, rhs, lhs == rhs)


@dataclass(frozen=True)
class DegreeReport:
    """Every computed invariant of one semigroup ring."""

    generators: tuple[int, ...]
    frobenius: int
    genus: int
    multiplicity: int
    embedding_dim: int
    type_r: int
    cdeg: int
    ddeg: int
    tdeg: int
    canonical_index: int
    gorenstein: bool
    almost_gorenstein: bool
    ddeg_is_one: bool
    tcdeg: TcdegCheck | None

    @property
    def idealization_cdeg(self) -> int | None:
        """cdeg of the idealization of M, 2*cdeg + 2; None for a DVR."""
        return None if self.genus == 0 else 2 * self.cdeg + 2

    @property
    def idealization_ddeg(self) -> int | None:
        """ddeg of the idealization of M, 2*ddeg - 1; None if Gorenstein."""
        return None if self.gorenstein else 2 * self.ddeg - 1

    def to_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "multiplicity": self.multiplicity,
            "embedding_dim": self.embedding_dim,
            "type": self.type_r,
            "cdeg": self.cdeg,
            "ddeg": self.ddeg,
            "tdeg": self.tdeg,
            "canonical_index": self.canonical_index,
            "gorenstein": self.gorenstein,
            "almost_gorenstein": self.almost_gorenstein,
            "ddeg_is_one": self.ddeg_is_one,
            "idealization": {"cdeg": self.idealization_cdeg, "ddeg": self.idealization_ddeg},
            "tcdeg": self.tcdeg.to_dict() if self.tcdeg is not None else None,
        }


def classify(S: NumericalSemigroup) -> DegreeReport:
    """Full degree report with internal consistency cross-checks.

    K and K* are built once and every degree is read from them, K* and
    K** through ``dual``; the two lengths over S take S itself, so no
    unit ideal is built.  The single-invariant functions above stay as
    the reference for tests.  ddeg and tdeg share K* but part after it:
    one goes through K**, the other through tr K = K * K*.  The
    change-of-ring check reads its right side off this cdeg; its left
    side counts cdeg of M : M on that ideal's gap mask, building no
    semigroup for it.

    The cross-checks (cdeg >= type - 1; Gorenstein <=> cdeg = 0 <=>
    ddeg = 0) are theorems, so a failure is an implementation bug and
    raises InternalInvariantViolation.
    """
    r = S.type
    K = canonical_ideal(S)
    K_dual = K.dual()
    cd = length_quotient(K, S)
    dd = length_quotient(K_dual.dual(), K)
    td = length_quotient(S, K_dual.product(K))
    ci = reduction(K)
    gorenstein = r == 1

    if cd < r - 1:
        raise InternalInvariantViolation(f"cdeg {cd} below type - 1 = {r - 1}")
    if (cd == 0) != (dd == 0) or gorenstein != (cd == 0):
        raise InternalInvariantViolation(
            f"vanishing mismatch: type {r}, cdeg {cd}, ddeg {dd}"
        )

    tc = _tcdeg(S, cd) if S.conductor > 0 else None
    return DegreeReport(
        generators=S.generators,
        frobenius=S.frobenius,
        genus=S.genus,
        multiplicity=S.multiplicity,
        embedding_dim=S.embedding_dim,
        type_r=r,
        cdeg=cd,
        ddeg=dd,
        tdeg=td,
        canonical_index=ci,
        gorenstein=gorenstein,
        almost_gorenstein=cd == r - 1,
        ddeg_is_one=dd == 1,
        tcdeg=tc,
    )
