"""Symmetry of binary forms under the finite subgroups of SL(2).

A form is semi-invariant under a group when every generator carries it to
an exact scalar multiple of itself; the scalars extend multiplicatively to
a character.  :func:`semi_invariance` decides the monomial generators (all
of C_n and D_n, and all but one of T, O and I) by two coefficient rules,
checked once for the group they generate with -1, and substitutes the one
generator of T, O and I with no zero entry.  Klein's generative
description produces all semi-invariants of a group from its factors:
:func:`klein_factors` holds Klein's data (x and y for C_n, the ground
forms otherwise, with the exponents nu_i), and :func:`klein_generate`,
:func:`klein_degree`, :func:`ground_forms` and criterion 6 of the
acceptance suite read it.  The classification of quartics, quintics and
sextics with extra symmetry is a catalog of normal forms keyed by the
traditional Roman numerals; each entry is Klein data (exponents and pencil
pairs) that :func:`klein_generate` expands.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .cyclotomic import CyclotomicNumber, as_cyclotomic
from .errors import (
    CoefficientTooLargeError,
    DegreeTooLargeError,
    InfiniteStabilizerError,
    NoGroundFormsError,
    ZeroFormError,
    ZeroParameterError,
)
from .exprparse import MAX_COEFFICIENT_BITS, form, growth_norm
from .groups import POLYHEDRAL_SUBGROUPS, GroupSpec, group_contains, group_generators
from .polynomials import MAX_PROFILE_DEGREE, BinaryForm


class SemiInvarianceCertificate(namedtuple("SemiInvarianceCertificate", "group scalars")):
    """Exact scalars lambda_g with f o g = lambda_g * f per generator."""

    __slots__ = ()


#: Klein's ground forms of a group: ``forms`` is (x, y) for C_n and
#: (F1, F2, F3) otherwise, and ``nu`` holds nu_i = |G| / (2 deg F_i).
GroundFormSet = namedtuple("GroundFormSet", "forms nu")


def semi_invariance(f: BinaryForm, spec: GroupSpec):
    """Certificate with one exact scalar per generator, or None.

    The monomial generators are decided by two coefficient rules, checked
    once, before any generator is built, for the group they generate with
    -1: the group itself for C_n and D_n, its :data:`POLYHEDRAL_SUBGROUPS`
    entry for T, O and I.  -1 scales every form by (-1)^d, so it adds no
    condition.  diag(u, u^-1) scales a_i by u^(d-2i): the support rule asks
    u^(2g) = 1, g the gcd of the support-index differences, which for the
    generator zeta_2n of C_n and D_n means that n divides g.
    [[0, w], [w, 0]] sends f(x, y) to w^d f(y, x): D_n adds the reversal
    rule, that the reversed coefficients are proportional to f.  A form
    that passes both has the scalar u^(d-2i), or w^d a_(d-i) / a_i, at the
    first support index i, stored as a_i times its factor over a_i, as
    ``f.substitute(m).proportional_to(f)`` stores it (substitution acts on
    a monomial matrix term by term).  Only the generators with four nonzero
    entries are substituted: one each of T, O and I.
    """
    if not f:
        raise ZeroFormError("the zero form is semi-invariant under everything")
    sub = POLYHEDRAL_SUBGROUPS.get(spec, spec)
    if _support_gcd(f) % sub.n or sub.kind == "D" and not _reverses(f):
        return None
    scalars = []
    for m in group_generators(spec):
        if m.a and m.b:  # four nonzero entries; the others are monomial
            lam = f.substitute(m).proportional_to(f)
            if lam is None:
                return None
        else:
            lam = _monomial_scalar(f, m)
        scalars.append(lam)
    return SemiInvarianceCertificate(spec, tuple(scalars))


def _monomial_scalar(f: BinaryForm, m) -> CyclotomicNumber:
    """The scalar of f o m = scalar * f for m = diag(u, u^-1) or [[0, w],
    [w, 0]], given that f passes m's rule."""
    c, d = f.coeffs, f.degree
    i0 = next(i for i, a in enumerate(c) if a)
    if m.a:
        return c[i0] * m.a ** (d - 2 * i0) / c[i0]
    return c[d - i0] * m.b ** d / c[i0]


def _reverses(f: BinaryForm) -> bool:
    """The reversal rule: the reversed coefficients are proportional to f."""
    return BinaryForm._of(f.coeffs[::-1]).proportional_to(f) is not None


def _support_gcd(f: BinaryForm) -> int:
    """The gcd of the differences of the indices of the nonzero coefficients
    (0 for a monomial): C_n and D_n need n to divide it."""
    support = [i for i, c in enumerate(f.coeffs) if c]
    return gcd(*(i - support[0] for i in support))


def is_stable(f: BinaryForm) -> bool:
    """Every root has multiplicity strictly below degree/2 and the degree is
    positive; the zero form raises ZeroFormError."""
    return 2 * max(f.multiplicity_profile(), default=0) < f.degree


def has_finite_stabilizer(f: BinaryForm) -> bool:
    """At least three distinct roots force a finite stabilizer; the zero
    form raises ZeroFormError."""
    return len(f.multiplicity_profile()) >= 3


def catalog_stabilizer(f: BinaryForm):
    """Certificates of the maximal catalog groups under which f is
    semi-invariant, ordered by group order, then label.

    The support rule of :func:`semi_invariance` refutes every C_n and D_n
    whose n does not divide g, the gcd of the support-index differences,
    and every T, O and I whose :data:`POLYHEDRAL_SUBGROUPS` entry's n does
    not.  Every C_n and D_n left lies in C_g or D_g, and D_n passes the
    reversal rule iff D_g does; so the candidates are C_g, D_g and the T, O
    and I left, at most five, each certified once by
    :func:`semi_invariance`.  Maximality is with respect to literal
    containment of the standard matrix groups.  Conjugate copies are out of
    scope: the catalog's normal forms realize their stabilizers in the
    standard embeddings.  Three distinct roots need two support indices, so
    g is at least 1.
    """
    if not has_finite_stabilizer(f):
        raise InfiniteStabilizerError(
            "forms with at most two distinct roots have infinite stabilizer")
    g = _support_gcd(f)
    candidates = [GroupSpec("C", g), GroupSpec("D", g)]
    candidates += [big for big, sub in POLYHEDRAL_SUBGROUPS.items() if g % sub.n == 0]
    certs = (semi_invariance(f, spec) for spec in candidates)
    passing = [c for c in certs if c is not None]
    maximal = [
        c for c in passing
        if not any(d.group != c.group and group_contains(d.group, c.group) for d in passing)
    ]
    return sorted(maximal, key=lambda c: (c.group.order, c.group.label))


@lru_cache(maxsize=None)
def klein_factors(spec: GroupSpec) -> GroundFormSet:
    """Klein's data for the group: the factors F_i and nu_i.

    For C_n: x and y.  For D_n: x^n + y^n, x^n - y^n, xy.  The tetrahedral,
    octahedral and icosahedral triples are the classical ones over Q(i), Q,
    and Q(zeta_5).  nu_i = |G| / (2 deg F_i), so nu = (n, n) for C_n.  D_n
    with n > MAX_PROFILE_DEGREE raises DegreeTooLargeError before any form.
    """
    if spec.kind == "D" and spec.n > MAX_PROFILE_DEGREE:
        raise DegreeTooLargeError(
            f"D_n ground forms of degree {spec.n} exceed the bound {MAX_PROFILE_DEGREE}")
    x, y = BinaryForm([1, 0]), BinaryForm([0, 1])
    if spec.kind == "C":
        forms = (x, y)
    elif spec.kind == "D":
        n = spec.n
        forms = (x ** n + y ** n, x ** n - y ** n, x * y)
    elif spec.kind == "T":
        forms = (
            form("x^4 + 2*sqrtm3*x^2*y^2 + y^4"),
            form("x^4 - 2*sqrtm3*x^2*y^2 + y^4"),
            form("x*y*(x^4 - y^4)"),
        )
    elif spec.kind == "O":
        forms = (
            form("x*y*(x^4 - y^4)"),
            form("x^8 + 14*x^4*y^4 + y^8"),
            form("x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12"),
        )
    else:
        forms = (
            form("x*y*(x^10 + 11*x^5*y^5 - y^10)"),
            form("-(x^20 + y^20) + 228*(x^15*y^5 - x^5*y^15) - 494*x^10*y^10"),
            form("(x^30 + y^30) + 522*(x^25*y^5 - x^5*y^25)"
                 " - 10005*(x^20*y^10 + x^10*y^20)"),
        )
    nu = tuple(spec.order // (2 * g.degree) for g in forms)
    return GroundFormSet(forms, nu)


def ground_forms(spec: GroupSpec) -> GroundFormSet:
    """The three forms cutting the sub-generic orbits, with nu_i: the
    :func:`klein_factors` of every group but C_n, which has no triple."""
    if spec.kind == "C":
        raise NoGroundFormsError("cyclic groups have no ground-form triple")
    return klein_factors(spec)


def klein_degree(spec: GroupSpec, alpha: int, beta: int, gamma: int, count: int) -> int:
    """Degree of :func:`klein_generate`'s form with ``count`` parameter pairs."""
    gf = klein_factors(spec)
    return (sum(e * f.degree for e, f in zip((alpha, beta, gamma), gf.forms))
            + count * gf.nu[0] * gf.forms[0].degree)


def klein_generate(spec: GroupSpec, alpha: int, beta: int, gamma: int, params=()) -> BinaryForm:
    """The general semi-invariant of the group, expanded:
    F1^alpha F2^beta F3^gamma prod_i (lambda_i F1^nu1 + mu_i F2^nu2) over
    the :func:`klein_factors`.  C_n has the two factors x and y, so gamma
    is ignored there.  A negative exponent raises ValueError, a degree
    above :data:`~stackygit.polynomials.MAX_PROFILE_DEGREE` raises
    DegreeTooLargeError, and parameter pairs whose growth norms
    (:func:`~stackygit.exprparse.growth_norm`) have more than
    :data:`~stackygit.exprparse.MAX_COEFFICIENT_BITS` bits together raise
    CoefficientTooLargeError, all before any product is formed.
    """
    if min(alpha, beta, gamma) < 0:
        raise ValueError(f"exponents must be nonnegative, got {(alpha, beta, gamma)}")
    for lam, mu in params:
        if not as_cyclotomic(lam) and not as_cyclotomic(mu):
            raise ZeroParameterError("(0, 0) is not a point of P^1")
    degree = klein_degree(spec, alpha, beta, gamma, len(params))
    if degree > MAX_PROFILE_DEGREE:
        raise DegreeTooLargeError(
            f"degree {degree} exceeds the bound {MAX_PROFILE_DEGREE}")
    bits = sum(growth_norm((as_cyclotomic(lam), as_cyclotomic(mu))).bit_length()
               for lam, mu in params)
    if bits > MAX_COEFFICIENT_BITS:
        raise CoefficientTooLargeError(
            f"parameter pairs of {bits} bits exceed the bound {MAX_COEFFICIENT_BITS}")
    gf = klein_factors(spec)
    f1, f2 = gf.forms[:2]
    result = f1 ** alpha * f2 ** beta
    if len(gf.forms) == 3:
        result = result * gf.forms[2] ** gamma
    if params:
        p1, p2 = f1 ** gf.nu[0], f2 ** gf.nu[1]
        for lam, mu in params:
            result = result * (lam * p1 + mu * p2)
    return result


# -- the normal-form catalog ---------------------------------------------------


class CatalogCase(namedtuple("CatalogCase", "case group exponents fixed default_params genericity",
                             defaults=((), (), ""))):
    """A normal form with extra symmetry, as Klein data of
    :func:`klein_generate` for ``group``: the exponents (alpha, beta,
    gamma), the ``fixed`` pencil pairs and as many free (lambda:mu) pairs
    as ``default_params`` holds.

    ``genericity`` documents the open condition under which the listed
    stabilizer is exact; parameter defaults satisfy it.
    """

    __slots__ = ()

    def build(self, params=None) -> BinaryForm:
        params = tuple(params) if params is not None else self.default_params
        if len(params) != len(self.default_params):
            raise ZeroParameterError(
                f"case {self.case} takes {len(self.default_params)} (lambda:mu) pairs")
        return klein_generate(self.group, *self.exponents, self.fixed + params)


_PAIR = ((1, 1),)  # the pencil member x^n + y^n of C_n

CATALOG = (
    CatalogCase("quartic.generic", GroupSpec("D", 2), (0, 0, 0), (), ((2, 3),),
                "lambda*mu*(lambda^2 - mu^2) != 0 and (lambda - mu)^2 != -3*(lambda + mu)^2"),
    CatalogCase("quartic.I", GroupSpec("D", 4), (1, 0, 0)),  # x^4 + y^4
    CatalogCase("quartic.II", GroupSpec("T"), (1, 0, 0)),  # x^4 + 2*sqrtm3*x^2*y^2 + y^4
    CatalogCase("quintic.I", GroupSpec("C", 2), (1, 0, 0), _PAIR, ((2, 3),),
                "lambda*mu*(lambda - mu) != 0"),
    CatalogCase("quintic.II", GroupSpec("C", 3), (2, 0, 0), _PAIR),  # x^2*(x^3 + y^3)
    CatalogCase("quintic.III", GroupSpec("C", 4), (1, 0, 0), _PAIR),  # x*(x^4 + y^4)
    CatalogCase("quintic.IV", GroupSpec("D", 3), (1, 0, 1)),  # x*y*(x^3 + y^3)
    CatalogCase("quintic.V", GroupSpec("D", 5), (1, 0, 0)),  # x^5 + y^5
    CatalogCase("sextic.I", GroupSpec("C", 2), (0, 0, 0), _PAIR, ((2, 3), (5, 7)),
                "the three quadratic factors are pairwise distinct in P^1"),
    CatalogCase("sextic.II", GroupSpec("C", 5), (1, 0, 0), _PAIR),  # x*(x^5 + y^5)
    CatalogCase("sextic.III", GroupSpec("D", 2), (0, 0, 1), (), ((2, 3),),
                "lambda*mu*(lambda^2 - mu^2) != 0 and (lambda - mu)^2 != -3*(lambda + mu)^2"),
    CatalogCase("sextic.IV", GroupSpec("D", 3), (0, 0, 0), (), ((2, 3),),
                "lambda*mu*(lambda^2 - mu^2) != 0"),
    CatalogCase("sextic.V", GroupSpec("D", 6), (1, 0, 0)),  # x^6 + y^6
    CatalogCase("sextic.VI", GroupSpec("O"), (1, 0, 0)),  # x*y*(x^4 - y^4)
    CatalogCase("sextic.VII", GroupSpec("C", 3), (2, 1, 0), _PAIR),  # x^2*y*(x^3 + y^3)
    CatalogCase("sextic.VIII", GroupSpec("C", 4), (2, 0, 0), _PAIR),  # x^2*(x^4 + y^4)
)

#: The fifteen numbered normal forms (the generic quartic family is extra).
NUMBERED_CASES = tuple(c for c in CATALOG if c.case != "quartic.generic")
