"""The classical invariant-ring catalog and the transvectant engine.

Families: binary quartics (free ring on degrees 2, 3), binary quintics
(degrees 4, 8, 12, 18 with one relation), binary sextics (2, 4, 6, 10, 15),
plane cubic curves (free, 4 and 6), and cubic surfaces (8, 16, 24, 32, 40,
100).  The quintic relation polynomial is the explicit six-term expression
in the degree-4, 8, 12 generators; the sextic one is twice a symmetric 3x3
determinant, with one entry repaired for homogeneity (see SEXTIC_REPAIR_NOTE).
The cubic-surface relation polynomial is not classically printed, so a
symbolic degree-200 placeholder stands in; the stack decomposition only
needs the weights.

Transvectants use the classical normalization
((d-r)! (e-r)! / (d! e!)) * sum_k (-1)^k C(r, k) f_{x^{r-k} y^k} g_{x^k y^{r-k}}.
No derivative form is built: for f = sum f_i x^(d-i) y^i and g = sum g_j
x^(e-j) y^j, coefficient n of (f, g)_r is sum_{i+j=n+r} W(i, j) f_i g_j
with the integer weights
W(i, j) = sum_k (-1)^k C(r, k) (d-i)_(r-k) i_(k) (e-j)_(k) j_(r-k)
(falling factorials), cached per (d, e, r).  Each coefficient is summed on
integer coordinates in Q(zeta_m), m the lcm of the orders of the nonzero
f_i and g_j that reach it with a nonzero weight, so rational forms have a
rational transvectant and each coefficient's field is the one its own terms
need.

Two plain functions, :func:`_quintic_recipe` and :func:`_sextic_recipe`,
build one invariant per catalog generator from transvectants and a
resultant (:func:`evaluate_recipe` picks one by family).  The calibration
harness checks that pinned per-degree scalars (:data:`QUINTIC_SCALARS`,
:data:`SEXTIC_SCALARS`) match these invariants to the catalog relation,
exactly, at seeded random forms.

No matrix is eliminated.  :func:`resultant` reads the resultant, at the
forms' formal degrees, off :func:`stackygit.polynomials._subresultants`,
the one subresultant pseudo-remainder sequence, which the
root-multiplicity gcds also run; for rational forms it runs on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, lcm, perm

from .cyclotomic import (
    QQ,
    CyclotomicNumber,
    _check_order,
    _raw,
    _reduce,
    _to_int_coords,
    _to_ints,
    as_cyclotomic,
    euler_phi,
    sqrt2,
)
from .errors import (
    NonStableError,
    OrderTooLargeError,
    UnderDeterminedError,
    UnknownFamilyError,
    WrongDegreeError,
)
from .graded import GradedRingPresentation
from .polynomials import BinaryForm, MultiPoly, _exact_quotients, _subresultants
from .symmetry import is_stable

FAMILIES = ("quartic", "quintic", "sextic", "cubic-curve", "cubic-surface")

SEXTIC_REPAIR_NOTE = (
    "entry a33: first term taken as (1/2)*I4*I10 (degree 14); the printed "
    "(1/2)*I6*I10 has degree 16 and would make the determinant inhomogeneous "
    "(32 against 30); this is the unique single-symbol repair restoring "
    "homogeneity of every determinant term"
)

CUBIC_SURFACE_NOTE = (
    "the degree-200 relation polynomial is a symbolic placeholder (I40^5); "
    "only the generator weights enter the decomposition"
)


@dataclass(frozen=True)
class InvariantCatalogEntry:
    family: str
    ring: "GradedRingPresentation"
    F: MultiPoly | None
    source: str
    notes: tuple = ()


@dataclass(frozen=True)
class QuarticInvariants:
    I2: CyclotomicNumber
    I3: CyclotomicNumber


def quintic_F() -> MultiPoly:
    """The quintic relation polynomial F(I4, I8, I12), 324*F having the
    six integer terms; weighted-homogeneous of degree 36 for (4, 8, 12)."""
    v = ("I4", "I8", "I12")
    f324 = MultiPoly(v, {
        (1, 4, 0): -9,
        (0, 3, 1): -24,
        (2, 2, 1): 6,
        (1, 1, 2): 72,
        (0, 0, 3): 144,
        (3, 0, 2): -1,
    })
    return f324 * QQ(1, 324)


def _sextic_matrix():
    v = ("I2", "I4", "I6", "I10")
    i2, i4, i6, i10 = (MultiPoly.variable(v, n) for n in v)
    b = i4 * i4 + i2 * i6                      # I4^2 + I2*I6, degree 8
    a11 = 2 * i6 + QQ(1, 3) * i2 * i4
    a12 = QQ(2, 3) * b
    a13 = i10
    a22 = i10
    a23 = QQ(1, 3) * i4 * b + QQ(1, 3) * i6 * a11
    a33 = QQ(1, 2) * i4 * i10 + QQ(2, 9) * i6 * b   # repaired, see note
    return ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))


def sextic_F() -> MultiPoly:
    """Twice the determinant of the symmetric 3x3 matrix of the sextic
    catalog; weighted-homogeneous of degree 30 for (2, 4, 6, 10) after the
    a33 repair."""
    m = _sextic_matrix()
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return 2 * det


@lru_cache(maxsize=None)
def catalog_ring(family: str) -> InvariantCatalogEntry:
    """The invariant-ring presentation of a catalog family."""
    if family == "quartic":
        ring = GradedRingPresentation(("I2", "I3"), (2, 3))
        return InvariantCatalogEntry(family, ring, None,
                                     "invariants of binary quartics")
    if family == "cubic-curve":
        ring = GradedRingPresentation(("I4", "I6"), (4, 6))
        return InvariantCatalogEntry(family, ring, None,
                                     "invariants of plane cubic curves")
    if family == "quintic":
        F = quintic_F()
        gens = ("I4", "I8", "I12", "I18")
        rel = MultiPoly(gens, {(0, 0, 0, 2): 1}) - F.lifted(gens)
        ring = GradedRingPresentation(gens, (4, 8, 12, 18), rel)
        return InvariantCatalogEntry(family, ring, F,
                                     "invariants of binary quintics")
    if family == "sextic":
        F = sextic_F()
        gens = ("I2", "I4", "I6", "I10", "I15")
        rel = MultiPoly(gens, {(0, 0, 0, 0, 2): 1}) - F.lifted(gens)
        ring = GradedRingPresentation(gens, (2, 4, 6, 10, 15), rel)
        return InvariantCatalogEntry(family, ring, F,
                                     "invariants of binary sextics",
                                     notes=(SEXTIC_REPAIR_NOTE,))
    if family == "cubic-surface":
        gens = ("I8", "I16", "I24", "I32", "I40", "I100")
        F = MultiPoly(gens[:-1], {(0, 0, 0, 0, 5): 1})  # placeholder, degree 200
        rel = MultiPoly(gens, {(0, 0, 0, 0, 0, 2): 1}) - F.lifted(gens)
        ring = GradedRingPresentation(gens, (8, 16, 24, 32, 40, 100), rel)
        return InvariantCatalogEntry(family, ring, F,
                                     "invariants of cubic surfaces",
                                     notes=(CUBIC_SURFACE_NOTE,))
    raise UnknownFamilyError(
        f"unknown family {family!r}; known: {', '.join(FAMILIES)}")


# -- quartic invariants -----------------------------------------------------------


def quartic_invariants(f: BinaryForm) -> QuarticInvariants:
    """The degree-2 and degree-3 invariants of a binary quartic.

    The classical formulas I2 = a0 a4 - 4 a1 a3 + 3 a2^2 and
    I3 = a0 a2 a4 - a0 a3^2 + 2 a1 a2 a3 - a1^2 a4 - a2^3 apply to the
    binomial-weighted coefficients b_i = a_i / C(4, i); under the plain
    reading I2 would not be SL(2)-invariant.
    """
    if f.degree != 4:
        raise WrongDegreeError(f"need a quartic, got degree {f.degree}")
    b = [f.a(i) * QQ(1, comb(4, i)) for i in range(5)]
    i2 = b[0] * b[4] - 4 * b[1] * b[3] + 3 * b[2] * b[2]
    i3 = (b[0] * b[2] * b[4] - b[0] * b[3] * b[3] + 2 * b[1] * b[2] * b[3]
          - b[1] * b[1] * b[4] - b[2] ** 3)
    return QuarticInvariants(i2, i3)


def quartic_point(f: BinaryForm):
    """The value point (I2 : I3) of a stable quartic in P(2, 3).

    The representative is normalized inside the coefficient field: (1:0)
    and (0:1) at the special quartics, and the scaling-canonical form
    (c : c) with c = I2^3/I3^2 when both coordinates are nonzero (a first
    coordinate of exactly 1 would need a square root of I2).
    """
    from .locus import PointW  # locus imports this module at load time

    if not is_stable(f):
        raise NonStableError("the value point is taken on stable quartics")
    inv = quartic_invariants(f)
    weights = (2, 3)
    if not inv.I2 and not inv.I3:
        raise NonStableError("I2 = I3 = 0 cannot happen for a stable quartic")
    if not inv.I3:
        return PointW((1, 0), weights)
    if not inv.I2:
        return PointW((0, 1), weights)
    c = inv.I2 ** 3 / inv.I3 ** 2
    return PointW((c, c), weights)


# -- transvectants -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _transvectant_weights(d: int, e: int, r: int):
    """The integer weights of the r-th transvectant of forms of degrees d
    and e: entry n lists the triples (i, j, W(i, j)) with i + j = n + r and
    W(i, j) != 0, where

        W(i, j) = sum_k (-1)^k C(r, k) (d-i)_(r-k) i_(k) (e-j)_(k) j_(r-k)

    with falling factorials n_(k) = n (n-1) ... (n-k+1); and the
    normalization (d-r)! (e-r)! / (d! e!) as a numerator and denominator in
    lowest terms."""
    signs = [(-1) ** k * comb(r, k) for k in range(r + 1)]
    rows = []
    for n in range(d + e - 2 * r + 1):
        row = []
        for i in range(max(0, n + r - e), min(d, n + r) + 1):
            j = n + r - i
            w = sum(s * perm(d - i, r - k) * perm(i, k) * perm(e - j, k) * perm(j, r - k)
                    for k, s in enumerate(signs))
            if w:
                row.append((i, j, w))
        rows.append(tuple(row))
    scale = QQ(factorial(d - r) * factorial(e - r), factorial(d) * factorial(e))
    return tuple(rows), scale.numerator, scale.denominator


def transvectant(f: BinaryForm, g: BinaryForm, r: int) -> BinaryForm:
    """The r-th transvectant (f, g)_r of two forms, of degree d + e - 2r.

    Coefficient n is sum_{i+j=n+r} W(i, j) f_i g_j times the normalization
    (d-r)! (e-r)! / (d! e!), with the integer weights W of
    :func:`_transvectant_weights`.  It is computed in Q(zeta_m), m the lcm
    of the orders of the nonzero f_i and g_j that reach it with a nonzero
    weight (checked against the order cap): one unreduced integer vector
    sums the products of their coordinates over one common denominator and
    is reduced once.  A pair of rational forms takes one integer sum per
    coefficient."""
    d, e = f.degree, g.degree
    if r > min(d, e):
        raise OrderTooLargeError(
            f"transvectant order {r} exceeds min(deg) = {min(d, e)}")
    rows, num, den = _transvectant_weights(d, e, r)
    fc, gc = f.coeffs, g.coeffs
    if lcm(*(c.order for c in fc), *(c.order for c in gc)) == 1:
        (fd, F), (gd, G) = _to_ints(fc), _to_ints(gc)
        den *= fd * gd
        return BinaryForm([_raw(1, [num * sum(w * F[i] * G[j] for i, j, w in row)], den)
                           for row in rows])
    out = []
    for row in rows:
        row = [(i, j, w) for i, j, w in row if fc[i] and gc[j]]
        m = lcm(*(fc[i].order for i, _, _ in row), *(gc[j].order for _, j, _ in row))
        _check_order(m)
        fd, F = _to_int_coords([fc[i] for i, _, _ in row], m)
        gd, G = _to_int_coords([gc[j] for _, j, _ in row], m)
        acc = [0] * (2 * euler_phi(m) - 1)
        for (_, _, w), a, b in zip(row, F, G):
            for s, x in enumerate(a):
                if x:
                    x *= w
                    for t, y in enumerate(b, s):
                        acc[t] += x * y
        out.append(_raw(m, [num * c for c in _reduce(m, acc)], den * fd * gd))
    return BinaryForm(out)


def resultant(f: BinaryForm, g: BinaryForm) -> CyclotomicNumber:
    """Resultant of two binary forms at their formal degrees: the Sylvester
    determinant, by the subresultant pseudo-remainder sequence (Collins;
    Brown-Traub; H. Cohen, *A Course in Computational Algebraic Number
    Theory*, Algorithm 3.3.7).

    Rational forms run it on ints: with f = F/fd and g = G/gd for integer
    forms F and G of degrees d and e, Res(f, g) = Res(F, G) / (fd^e gd^d),
    and every division of the sequence is exact in Z.  Other forms run it
    on their CyclotomicNumber coefficients."""
    fc, gc = f.coeffs, g.coeffs
    if any(c.order != 1 for c in fc + gc):
        return as_cyclotomic(_resultant(list(fc), list(gc)))
    (fd, a), (gd, b) = _to_ints(fc), _to_ints(gc)
    return _raw(1, [_resultant(a, b)], fd ** g.degree * gd ** f.degree)


def _resultant(a, b):
    """Res_{d,e} of the descending coefficient lists ``a`` (a0 first) and
    ``b``, all ints or all CyclotomicNumbers.  A vanishing leading
    coefficient is expanded along the first Sylvester column first:
    Res_{d,e} is (-1)^e b0 Res_{d-1,e}(a', b) when a0 = 0, a0 Res_{d,e-1}(a,
    b') when b0 = 0, and 0 when both vanish, where ' drops the leading
    coefficient."""
    factor = 1
    while len(a) > 1 and len(b) > 1 and not (a[0] and b[0]):
        if not a[0]:
            if not b[0]:
                return 0
            factor = factor * b[0] * (-1) ** (len(b) - 1)
            a = a[1:]
        else:
            factor = factor * a[0]
            b = b[1:]
    d, e = len(a) - 1, len(b) - 1
    if not d or not e:  # Res_{0,e} = a0^e and Res_{d,0} = b0^d
        return factor * a[0] ** e * b[0] ** d
    # both leading coefficients are nonzero; the sequence runs on ascending
    # lists, longer first, and each step between two odd degrees flips sign
    sign = -1 if d % 2 and e % 2 and d < e else 1
    A, B = (a[::-1], b[::-1]) if d >= e else (b[::-1], a[::-1])
    members, h = _subresultants(A, B)
    if len(members[-1]) > 1:
        return 0
    for A, B in zip(members, members[1:-1]):
        if len(A) % 2 == 0 and len(B) % 2 == 0:
            sign = -sign
    deg = len(members[-2]) - 1
    # Res = lc^deg / h^(deg-1) for the last, constant member lc
    last = _exact_quotients([members[-1][0] ** deg], h ** (deg - 1))[0]
    return factor * sign * last


# -- calibration --------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    family: str
    scalars: dict | None
    residuals: tuple = ()
    detail: str = ""

    @property
    def succeeded(self) -> bool:
        return self.scalars is not None


def _invariant_value(form: BinaryForm) -> CyclotomicNumber:
    if form.degree != 0:
        raise UnderDeterminedError(
            f"recipe output has order {form.degree}, expected an invariant")
    return form.a(0)


DEFAULT_SEED = 7


def _quintic_recipe(f: BinaryForm) -> dict:
    """The classical covariant chain of a quintic: the quadratic covariant
    i = (f,f)^4, the cubic alpha = (f,i)^2 and its square-transvectant
    tau = (alpha,alpha)^2 yield invariants in degrees 4, 8, 12; the
    degree-18 invariant is the resultant of f with alpha (the degree-18
    invariant space is one-dimensional, so any nonzero choice is
    proportional to the catalog generator)."""
    i = transvectant(f, f, 4)
    alpha = transvectant(f, i, 2)
    tau = transvectant(alpha, alpha, 2)
    return {"I4": transvectant(i, i, 2), "I8": transvectant(i, tau, 2),
            "I12": transvectant(tau, tau, 2), "I18": BinaryForm([resultant(f, alpha)])}


#: The per-degree scalars c_k that match the invariants J_k of
#: :func:`_quintic_recipe` to the catalog generators: (c18*J18)^2 =
#: F(c4*J4, c8*J8, c12*J12), with c18 = sqrt(2)/729.  Like the corrections
#: of :func:`_sextic_recipe` they were solved once against the relation,
#: then frozen; :func:`calibrate_invariants` verifies them.
QUINTIC_SCALARS = {"I4": QQ(1), "I8": QQ(1, 2), "I12": QQ(-1, 4), "I18": sqrt2() / 729}


def _sextic_recipe(f: BinaryForm) -> dict:
    """Transvectant chain of a sextic in degrees 2, 4, 6, 10, 15.  The raw
    transvectants J6 and J10 differ from the determinant convention of the
    catalog relation by lower-filtration terms; I6 and I10 apply the exact
    corrections (solved once against the relation, then frozen), after
    which per-degree scalars suffice.  The degree-15 invariant is the sixth
    transvectant of two order-6 covariant products (the degree-15 space is
    one-dimensional)."""
    h = transvectant(f, f, 4)
    ell = transvectant(f, h, 4)
    y = transvectant(f, ell, 2)
    m = transvectant(h, ell, 1)
    i2 = transvectant(f, f, 6)
    i4 = transvectant(h, h, 4)
    j6 = transvectant(ell, ell, 2)
    j10 = transvectant(f, ell ** 3, 6)
    i15 = transvectant(ell * y, ell * m, 6)
    i6 = j6 * QQ(1, 2) + i2 * i4 * QQ(-1, 6)
    i10 = (j10 * QQ(1, 2) + i4 * j6 * QQ(1, 3) + i2 ** 3 * i4 * QQ(1, 54)
           + i2 * i4 ** 2 * QQ(-1, 9) + i2 ** 2 * j6 * QQ(-1, 18))
    return {"I2": i2, "I4": i4, "I6": i6, "I10": i10, "I15": i15}


#: The per-degree scalars of :func:`_sextic_recipe`: (c15*J15)^2 =
#: F(c2*J2, c4*J4, c6*J6, c10*J10); pinned like :data:`QUINTIC_SCALARS`.
SEXTIC_SCALARS = {"I2": QQ(1), "I4": QQ(1), "I6": QQ(1), "I10": QQ(1), "I15": QQ(5)}


#: Per family calibrate_invariants accepts: the degree of its forms, the
#: number of random forms the pinned scalars are verified at, the scalars
#: and the function that builds the invariants.  The counts decide which
#: forms a seed draws, so changing one moves that family's payloads: 25
#: quintics, and 55 sextics (the 47 monomials of weight 30 in I2, I4, I6,
#: I10, plus 8).
_CALIBRATIONS = {"quintic": (5, 25, QUINTIC_SCALARS, _quintic_recipe),
                 "sextic": (6, 55, SEXTIC_SCALARS, _sextic_recipe)}


def evaluate_recipe(family: str, f: BinaryForm) -> dict:
    """The transvectant-built invariants of a quintic or sextic f, one
    degree-0 form per generator of the family's catalog ring, in the ring's
    order.  Families without a calibration raise UnknownFamilyError."""
    if family not in _CALIBRATIONS:
        raise UnknownFamilyError(f"family {family!r} has no calibration recipe")
    return _CALIBRATIONS[family][3](f)


#: The coefficients of :func:`random_form` lie in [-FORM_SPAN, FORM_SPAN].
FORM_SPAN = 9


def random_form(rng, degree: int) -> BinaryForm:
    coeffs = [rng.randint(-FORM_SPAN, FORM_SPAN) for _ in range(degree + 1)]
    if not any(coeffs):
        coeffs[0] = 1
    return BinaryForm(coeffs)


def calibrate_invariants(family: str, seed: int = DEFAULT_SEED) -> CalibrationResult:
    """Verify the pinned per-degree scalars that match the invariants of
    :func:`evaluate_recipe` to the catalog relation, exactly, at random
    forms.

    For the quintic: the scalars (c4, c8, c12, c18) of
    :data:`QUINTIC_SCALARS` must satisfy (c18*J18)^2 = F(c4*J4, c8*J8,
    c12*J12) at 25 random quintics.  The sextic relation is checked the
    same way with the five :data:`SEXTIC_SCALARS` at 55 random sextics.
    A vacuous verification raises UnderDeterminedError: an invariant that
    vanishes at every form, or one that is a covariant of nonzero order.
    Other families raise UnknownFamilyError.  Failure returns a report with
    the nonzero residuals.
    """
    import random

    entry = catalog_ring(family)
    if family not in _CALIBRATIONS:
        raise UnknownFamilyError(f"family {family!r} has no relation to calibrate")
    names = entry.ring.generators
    degree, count, pinned, _ = _CALIBRATIONS[family]
    rng = random.Random(seed)

    def values_at(f):
        env = evaluate_recipe(family, f)
        return [_invariant_value(env[n]) for n in names]

    probe = [random_form(rng, degree) for _ in range(count)]
    probe_values = [values_at(f) for f in probe]
    for j, name in enumerate(names):
        if all(not v[j] for v in probe_values):
            raise UnderDeterminedError(
                f"recipe invariant {name} vanishes identically on the samples")

    scalars = [as_cyclotomic(pinned[n]) for n in names]
    residuals = []
    for f, vals in zip(probe, probe_values):
        scaled = [c * v for c, v in zip(scalars, vals)]
        lhs = scaled[-1] ** 2
        rhs = entry.F.evaluate(scaled[:-1])
        if lhs != rhs:
            residuals.append((str(f), str(lhs - rhs)))
    if residuals:
        return CalibrationResult(family, None, tuple(residuals), (
            f"the pinned scalars leave residuals at {len(residuals)} of "
            f"{len(probe)} random forms (seed {seed})"))
    return CalibrationResult(
        family, dict(zip(names, scalars)),
        detail=f"relation verified exactly at {len(probe)} random forms (seed {seed})")
