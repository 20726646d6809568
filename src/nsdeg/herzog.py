"""Closed-form degrees of 3-generated non-symmetric semigroup rings.

Such a ring is defined by the 2x2 minors of a 3x2 matrix of pure
variable powers with exponents (a1, a2, b1, b2, c1, c2), one pair per
variable.  Numerically the minors say, for generators (a, b, c):

    (a1 + a2) a = b2 b + c1 c
    (b1 + b2) b = a1 a + c2 c
    (c1 + c2) c = a2 a + b1 b

where each left-hand multiple is the least multiple of its generator
lying in the subsemigroup spanned by the other two, and the mixed
representation on the right is unique in the non-symmetric case.  For a
generator g over the other two, u and v, whether n*g lies in <u, v> is
a linear congruence in the coefficient of u modulo v/gcd(u, v), so each
candidate n costs O(1) (see ``_minimal_relation``).

Under the normalization a1 <= a2, b2 <= b1, c1 <= c2 the bi-canonical
degree is the product a1*b2*c1 and the canonical degree is one of
a1*b1*c1 or a2*b2*c2.  The normalization depends on which generator
plays which variable; not every assignment satisfies it (for (5, 7, 9)
the sorted assignment gives exponents violating c1 <= c2 and a wrong
product), so all six assignments are searched in a fixed order and the
first one passing every check wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .degrees import DegreeReport, cdeg, ddeg
from .errors import (
    AmbiguousDecomposition,
    InternalInvariantViolation,
    NotThreeGenerated,
    NoValidOrientation,
    SymmetricSemigroup,
)
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class HerzogData:
    """Matrix exponents for one generator-to-variable assignment."""

    assignment: tuple[int, int, int]
    a1: int
    a2: int
    b1: int
    b2: int
    c1: int
    c2: int

    @property
    def exponents(self) -> tuple[int, int, int, int, int, int]:
        return (self.a1, self.a2, self.b1, self.b2, self.c1, self.c2)

    @property
    def ddeg_formula(self) -> int:
        return self.a1 * self.b2 * self.c1

    @property
    def cdeg_products(self) -> dict[str, int]:
        """The two products cdeg is one of, by name."""
        return {"a1b1c1": self.a1 * self.b1 * self.c1, "a2b2c2": self.a2 * self.b2 * self.c2}

    @property
    def cdeg_candidates(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.cdeg_products.values())))

    def to_dict(self) -> dict:
        return {
            "assignment": list(self.assignment),
            "exponents": {
                "a1": self.a1,
                "a2": self.a2,
                "b1": self.b1,
                "b2": self.b2,
                "c1": self.c1,
                "c2": self.c2,
            },
            "ddeg_formula": self.ddeg_formula,
            "cdeg_candidates": list(self.cdeg_candidates),
        }


def _minimal_relation(g: int, u: int, v: int) -> tuple[int, dict[int, int]]:
    """Least n >= 1 with n*g in <u, v>, plus its unique representation.

    The subsemigroup <u, v> need not be numerical (d = gcd(u, v) may
    exceed one), so membership is decided by a linear congruence.  For
    t = n*g, p*u + q*v = t with q an integer means p*(u/d) = t/d mod v/d,
    which is solvable iff d divides t; its solutions p are p0 + k*(v/d)
    with p0 the least of them, and q >= 0 means p*u <= t.  So t lies in
    <u, v> iff d | t and p0*u <= t, and then it has
    floor((t - p0*u) / (u*v/d)) + 1 representations, the one with the
    fewest u first.  Each n costs O(1).

    The search stops by n = min(u/gcd(u, g), v/gcd(v, g)): that multiple
    of g is lcm(u, g) or lcm(v, g), a multiple of u or of v, so it lies
    in <u, v>.  Passing the bound is a bug, not an input error.
    """
    d = gcd(u, v)
    step = v // d
    inverse = pow(u // d, -1, step)
    for n in range(1, min(u // gcd(u, g), v // gcd(v, g)) + 1):
        total = n * g
        if total % d:
            continue
        p = total // d * inverse % step
        rest = total - p * u
        if rest < 0:
            continue
        count = rest // (u * step) + 1
        if count > 1:
            raise AmbiguousDecomposition(
                f"{n}*{g} = {total} decomposes over ({u}, {v}) in "
                f"{count} ways; contradicts non-symmetry"
            )
        return n, {u: p, v: rest // v}
    raise InternalInvariantViolation(f"no multiple of {g} found in <{u}, {v}>")


def herzog_matrix(S: NumericalSemigroup) -> HerzogData:
    """Matrix exponents of a minimally 3-generated, non-symmetric semigroup.

    A generator's exponent pair is its two coefficients in the minimal
    relations of the other two generators, whichever variable it plays.
    By Herzog's theorem (Generators and relations of abelian semigroups
    and semigroup rings, Manuscripta Math. 3, 1970) both are positive and
    they sum to the generator's own minimal multiple; as neither depends
    on the assignment, both are checked once, and a failure is a bug.
    Then the six assignments are searched with the first slot ascending
    and the second descending, and the first one satisfying the
    inequality normalization is returned.  The relation identities are
    re-verified on the result.
    """
    if S.embedding_dim != 3:
        raise NotThreeGenerated(
            f"semigroup is minimally {S.embedding_dim}-generated, need 3"
        )
    if S.is_symmetric():
        raise SymmetricSemigroup(
            "symmetric 3-generated semigroups are complete intersections"
        )

    gens = S.generators
    relation: dict[int, tuple[int, dict[int, int]]] = {}
    for g in gens:
        u, v = (x for x in gens if x != g)
        relation[g] = _minimal_relation(g, u, v)
    for g, (n, _) in relation.items():
        pair = [rep[g] for h, (_, rep) in relation.items() if h != g]
        if min(pair) < 1 or sum(pair) != n:
            raise InternalInvariantViolation(
                f"exponents {pair} of {g} are not a positive split of its minimal multiple {n}"
            )

    for a in gens:
        others = [x for x in gens if x != a]
        for b in sorted(others, reverse=True):
            c = others[0] if others[1] == b else others[1]
            rep_a, rep_b, rep_c = (relation[x][1] for x in (a, b, c))
            b2, c1 = rep_a[b], rep_a[c]
            a1, c2 = rep_b[a], rep_b[c]
            a2, b1 = rep_c[a], rep_c[b]
            if not (a1 <= a2 and b2 <= b1 and c1 <= c2):
                continue
            data = HerzogData((a, b, c), a1, a2, b1, b2, c1, c2)
            _verify_relations(data)
            return data
    raise NoValidOrientation(
        f"no assignment of {list(gens)} satisfies the exponent inequalities"
    )


def _verify_relations(data: HerzogData) -> None:
    a, b, c = data.assignment
    checks = (
        (data.a1 + data.a2) * a == data.b2 * b + data.c1 * c,
        (data.b1 + data.b2) * b == data.a1 * a + data.c2 * c,
        (data.c1 + data.c2) * c == data.a2 * a + data.b1 * b,
    )
    if not all(checks):
        raise InternalInvariantViolation(f"matrix relations fail for {data}")


@dataclass(frozen=True)
class HerzogConsistency:
    """Formula values cross-checked against the direct degree computations."""

    formula_ddeg: int
    direct_ddeg: int
    direct_cdeg: int
    ddeg_match: bool
    cdeg_in_candidates: bool
    data: HerzogData

    @property
    def cdeg_realized(self) -> str:
        """Which product the direct cdeg equals: ``a1b1c1``, ``a2b2c2``,
        ``both`` or ``neither``.  Recorded by sweeps, never interpreted."""
        hits = [name for name, p in self.data.cdeg_products.items() if p == self.direct_cdeg]
        return "both" if len(hits) == 2 else hits[0] if hits else "neither"

    def to_dict(self) -> dict:
        return {
            "formula_ddeg": self.formula_ddeg,
            "direct_ddeg": self.direct_ddeg,
            "direct_cdeg": self.direct_cdeg,
            "ddeg_match": self.ddeg_match,
            "cdeg_in_candidates": self.cdeg_in_candidates,
        }


def herzog_consistency(S: NumericalSemigroup, report: DegreeReport | None = None) -> HerzogConsistency:
    """Compare the closed forms with the value-set computations.

    The direct cdeg and ddeg are those of ``report``, a caller's
    ``classify(S)``, so K, K* and K** are not built a second time;
    without one they are counted here.  Either way they come from the
    value sets and the formula from the exponents, so the check stays
    independent.
    """
    data = herzog_matrix(S)
    if report is None:
        direct_d, direct_c = ddeg(S), cdeg(S)
    elif report.generators != S.generators:
        raise ValueError(f"degree report of {list(report.generators)} given for {S!r}")
    else:
        direct_d, direct_c = report.ddeg, report.cdeg
    return HerzogConsistency(
        formula_ddeg=data.ddeg_formula,
        direct_ddeg=direct_d,
        direct_cdeg=direct_c,
        ddeg_match=data.ddeg_formula == direct_d,
        cdeg_in_candidates=direct_c in data.cdeg_candidates,
        data=data,
    )
