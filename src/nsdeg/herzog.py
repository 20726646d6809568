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

The three relations fill one table: coef[h][g] is the coefficient of g
in the minimal relation of h.  Every assignment reads its six exponents
from it by one rule: along the cycle a -> b -> c -> a, a variable's
first exponent is its coefficient in the next generator's relation and
its second its coefficient in the previous one's (a1 in b's, a2 in c's,
b1 in c's, b2 in a's, c1 in a's, c2 in b's).

Under the normalization a1 <= a2, b2 <= b1, c1 <= c2 the bi-canonical
degree is the product a1*b2*c1 and the canonical degree is one of
a1*b1*c1 or a2*b2*c2.  The normalization depends on which generator
plays which variable.  Not every assignment satisfies it (for (5, 7, 9)
the sorted assignment gives exponents violating c1 <= c2 and a wrong
product), and some rings pass more than one ((3, 4, 5) passes three),
so the six assignments are searched in a fixed order and the first one
passing wins: the order is part of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import permutations
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
        """The two products cdeg is one of, each named by its factors."""
        return {"a1b1c1": self.a1 * self.b1 * self.c1, "a2b2c2": self.a2 * self.b2 * self.c2}

    @property
    def cdeg_candidates(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.cdeg_products.values())))

    def to_dict(self) -> dict:
        return {
            "assignment": list(self.assignment),
            "exponents": dict(zip(_EXPONENT_NAMES, self.exponents)),
            "ddeg_formula": self.ddeg_formula,
            "cdeg_candidates": list(self.cdeg_candidates),
        }


#: The exponents' field names, a1 to c2: every field after the assignment.
_EXPONENT_NAMES = tuple(f.name for f in fields(HerzogData)[1:])


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

    The three minimal relations fill the table ``coef[h][g]``, the
    coefficient of g in the relation of h.  Column g is g's exponent
    pair, whichever variable g plays.  By Herzog's theorem (Generators
    and relations of abelian semigroups and semigroup rings, Manuscripta
    Math. 3, 1970) both entries are positive and they sum to g's own
    minimal multiple; as neither depends on the assignment, both are
    checked once, before the search, and a failure is a bug.

    Each assignment (a, b, c) reads its exponents by the cycle rule of
    the module docstring: a variable's first exponent is its entry in
    the next generator's row along a -> b -> c -> a, its second in the
    previous one's.  The six assignments are searched with a ascending
    and then b descending, and the first one satisfying the inequality
    normalization is returned.  1,012 of the 3,231 non-symmetric rings
    with generators <= 40 pass more than one (<3, 4, 5> passes three),
    so this order picks the printed assignment and is part of the
    output.  The relation identities are re-verified on the result.
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
    multiple, coef = {}, {}  # coef[h][g]: the coefficient of g in h's relation
    for h in gens:
        multiple[h], coef[h] = _minimal_relation(h, *(x for x in gens if x != h))
    for g in gens:
        pair = [coef[h][g] for h in gens if h != g]
        if min(pair) < 1 or sum(pair) != multiple[g]:
            raise InternalInvariantViolation(
                f"exponents {pair} of {g} are not a positive split of its minimal multiple {multiple[g]}"
            )

    for cycle in sorted(permutations(gens), key=lambda p: (p[0], -p[1])):
        # along the cycle, x = cycle[i] is followed by cycle[i - 2] and preceded by cycle[i - 1]
        a1, a2, b1, b2, c1, c2 = [coef[h][x] for i, x in enumerate(cycle) for h in (cycle[i - 2], cycle[i - 1])]
        if a1 <= a2 and b2 <= b1 and c1 <= c2:
            data = HerzogData(cycle, a1, a2, b1, b2, c1, c2)
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
        """Every field but ``data``, by name in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "data"}


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
