"""The finite subgroups of SL(2) over cyclotomic fields.

Generators follow the classical presentation of the binary polyhedral
groups: the cyclic group C_n and binary dihedral group D_n use a primitive
2n-th root of unity (pinned to zeta_2n for determinism), the binary
icosahedral group I uses a primitive 5th root.  All matrix entries are
exact; every determinant is exactly 1.

:class:`SL2Matrix` checks the determinant of every matrix but a product;
:func:`group_elements` closes the generators on values in the one field
``cyclotomic._to_int_coords`` picks for their entries and checks each new
element's determinant exactly; the tables serve criterion 4 of the
acceptance suite.  :func:`group_contains` decides containment from the
labels alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .cyclotomic import (
    IMAG_UNIT,
    SQRT2,
    SQRT5,
    CyclotomicNumber,
    _raw,
    _to_int_coords,
    as_cyclotomic,
    zeta,
)
from .errors import ClosureBoundExceededError, ExactArithmeticError, excerpt
from .exprparse import numeral

#: Closure enumeration failsafe; the largest group here has 120 elements,
#: so exceeding this signals a transcription bug in a generator.
CLOSURE_BOUND = 1000


class SL2Matrix(namedtuple("SL2Matrix", "a b c d")):
    """An exact 2x2 matrix of determinant 1, entries CyclotomicNumbers."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        self = super().__new__(cls, *map(as_cyclotomic, (a, b, c, d)))
        if self.det() != 1:
            raise ValueError(f"determinant of {self} is not 1")
        return self

    def det(self) -> CyclotomicNumber:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        """The product, built with ``_make``: det(AB) = det(A) det(B), so a
        product of factors of determinant 1 needs no check."""
        return SL2Matrix._make((
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        ))

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


class GroupSpec(namedtuple("GroupSpec", "kind n")):
    """One of the finite subgroup families: C_n, D_n, T, O, I."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int = 0):
        if kind not in ("C", "D", "T", "O", "I"):
            raise ValueError(f"unknown group kind {kind!r}")
        if kind in ("C", "D") and n < 1:
            raise ValueError(f"{kind}_n needs n >= 1")
        if kind in ("T", "O", "I") and n:
            raise ValueError(f"{kind} takes no parameter")
        return super().__new__(cls, kind, n)

    @property
    def order(self) -> int:
        """Group order: |C_n| = 2n, |D_n| = 4n, |T| = 24, |O| = 48, |I| = 120."""
        return {"C": 2 * self.n, "D": 4 * self.n, "T": 24, "O": 48, "I": 120}[self.kind]

    @property
    def label(self) -> str:
        return f"{self.kind}{self.n}" if self.kind in ("C", "D") else self.kind

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        text = text.strip()
        if text in ("T", "O", "I"):
            return GroupSpec(text)
        n = (numeral(text[1:]) if text[:1] in ("C", "D") and text[1:].isdecimal()
             and text.isascii() else None)
        if n is not None:
            return GroupSpec(text[0], n)
        raise ValueError(f"not a group label: {excerpt(text)}")

    def __str__(self):
        return self.label


def _tetrahedral_generators():
    i = IMAG_UNIT
    half = as_cyclotomic(1) / 2
    return (
        SL2Matrix(i, 0, 0, -i),
        SL2Matrix(0, i, i, 0),
        SL2Matrix(half * (1 + i), half * (-1 + i), half * (1 + i), half * (1 - i)),
    )


@lru_cache(maxsize=None)
def group_generators(spec: GroupSpec):
    """The defining generator matrices, determinants verified exactly."""
    if spec.kind in ("C", "D"):
        eps = zeta(2 * spec.n)
        flip = (SL2Matrix(0, IMAG_UNIT, IMAG_UNIT, 0),) if spec.kind == "D" else ()
        return (SL2Matrix(eps, 0, 0, eps ** -1),) + flip
    if spec.kind == "T":
        return _tetrahedral_generators()
    if spec.kind == "O":
        r2 = SQRT2.inverse()
        return _tetrahedral_generators() + (
            SL2Matrix(r2 * (1 + IMAG_UNIT), 0, 0, r2 * (1 - IMAG_UNIT)),)
    # icosahedral
    eps = zeta(5)
    r5 = SQRT5.inverse()
    return (
        SL2Matrix(eps ** 3, 0, 0, eps ** 2),
        SL2Matrix(
            r5 * (eps - eps ** 4), r5 * (eps ** 3 - eps ** 2),
            r5 * (eps ** 3 - eps ** 2), r5 * (eps ** 4 - eps),
        ),
    )


def _layout(g: SL2Matrix):
    """The stored ``(order, coords, den)`` of each entry of ``g``."""
    return tuple([(x.order, x.coords, x.den) for x in g])


@lru_cache(maxsize=None)
def group_elements(spec: GroupSpec):
    """All elements, as the closure of the generators under multiplication.

    Every group here has even order, so it contains -1, the only element of
    order 2 in SL(2).  The closure starts from {1, -1} and adds each new
    product p with -p, multiplying only p further since (-p) g = -(p g).
    Breadth-first products keep the enumeration order deterministic.

    The closure runs on values in one field: the generators' entries are
    written once in Q(zeta_m), m the lcm of their orders (past the order
    cap, OrderCapExceededError), over ``den``, the lcm of their
    denominators (2 for T and O, 5 for I, 1 for C_n and D_n).  Sums and
    products of values of order m keep order m unless rational, so the set
    of elements seen holds the entries' stored layouts (:func:`_layout`).
    Each new product must stay over den (ExactArithmeticError) and have
    determinant 1 (ValueError), which ``SL2Matrix.__mul__`` does not check.
    """
    m, den, vecs = _to_int_coords([x for g in group_generators(spec) for x in g])
    gens = [SL2Matrix._make([_raw(m, v, den) for v in vecs[i:i + 4]])
            for i in range(0, len(vecs), 4)]
    identity = SL2Matrix(1, 0, 0, 1)
    ordered = [identity, SL2Matrix(-1, 0, 0, -1)]
    seen = set(map(_layout, ordered))
    frontier = [identity]
    while frontier:
        next_frontier = []
        for q in frontier:
            for g in gens:
                p = q * g
                key = _layout(p)
                if key not in seen:
                    if any(den % x.den for x in p):
                        raise ExactArithmeticError(
                            f"a product left the denominator {den} of the closure")
                    if p.det() != 1:
                        raise ValueError(f"a product in the closure of {spec.label} "
                                         "has determinant other than 1")
                    negated = SL2Matrix._make([-x for x in p])
                    ordered += (p, negated)
                    seen.update((key, _layout(negated)))
                    next_frontier.append(p)
                    if len(ordered) > CLOSURE_BOUND:
                        raise ClosureBoundExceededError(
                            f"closure of {spec.label} exceeded {CLOSURE_BOUND} elements")
        frontier = next_frontier
    return tuple(ordered)


#: The group that each polyhedral group's monomial generators generate
#: together with -1, in the standard embeddings: the diagonal and
#: antidiagonal elements of T, O and I.
POLYHEDRAL_SUBGROUPS = {
    GroupSpec("T"): GroupSpec("D", 2),
    GroupSpec("O"): GroupSpec("D", 4),
    GroupSpec("I"): GroupSpec("C", 5),
}


def group_contains(big: GroupSpec, small: GroupSpec) -> bool:
    """Literal containment of the standard matrix groups, from the labels.

    C_m and D_m are generated by monomial matrices: diag(zeta_2m,
    zeta_2m^-1), whose (m/n)-th power generates C_n when n divides m, and,
    for D_m, the [[0, i], [i, 0]] of every D_n.  So C_n or D_n lies in C_m
    or D_m by divisibility, and in T, O or I iff it lies in the monomial
    elements of that group, its :data:`POLYHEDRAL_SUBGROUPS` entry.  C_m
    and D_m contain none of T, O and I, and among those only T lies in O.
    """
    if small.kind in ("C", "D"):
        big = POLYHEDRAL_SUBGROUPS.get(big, big)
        return small.kind in ("C", big.kind) and big.n % small.n == 0
    return big == small or (big.kind, small.kind) == ("O", "T")
