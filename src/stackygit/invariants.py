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
(falling powers), cached per (d, e, r).  One kernel,
:func:`_transvectant`, forms these sums on coefficient lists in the ring of
:func:`stackygit.cyclotomic._numerators`: int numerators when every
coefficient is rational, field elements otherwise.  It divides nothing: a
covariant is carried as a ``_numerators`` pair (den, coefficient list)
standing for the form with coefficients c / den, and as the normalization
is 1 / (d_(r) e_(r)), the kernel multiplies d_(r) e_(r) into den.
Division happens once, where a covariant becomes a :class:`BinaryForm`
(:func:`_form`, one :func:`stackygit.cyclotomic._over` per coefficient),
so rational forms have a rational transvectant and each field coefficient
is stored in the field its own arithmetic produces.  The public
:func:`transvectant` is ``_numerators``, the kernel and ``_form``.

Two plain functions, :func:`_quintic_recipe` and :func:`_sextic_recipe`,
build one invariant per catalog generator from transvectants, products and
a resultant (:func:`evaluate_recipe` picks one by family): from a form's
numerator pair, the whole chain runs on the kernel's pairs and returns one
degree-0 pair per invariant, divided nowhere.  The calibration harness
checks that pinned per-degree scalars (:data:`QUINTIC_SCALARS`,
:data:`SEXTIC_SCALARS`) match these invariants to the catalog relation,
exactly, at seeded random forms, as one cross-multiplied identity on
numerators from the seeded draw to the comparison.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, lcm, perm

from .cyclotomic import (
    QQ,
    SQRT2,
    _convolve,
    _numerators,
    _over,
    as_cyclotomic,
)
from .errors import (
    NonStableError,
    OrderTooLargeError,
    UnderDeterminedError,
    UnknownFamilyError,
    WrongDegreeError,
    excerpt,
)
from .graded import GradedRingPresentation, PointW
from .polynomials import BinaryForm, MultiPoly, resultant
from .symmetry import is_stable

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


InvariantCatalogEntry = namedtuple("InvariantCatalogEntry", "family ring F source notes",
                                   defaults=((),))

QuarticInvariants = namedtuple("QuarticInvariants", "I2 I3")


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


def _cubic_surface_F() -> MultiPoly:
    """The placeholder I40^5 of :data:`CUBIC_SURFACE_NOTE`, degree 200."""
    return MultiPoly(("I8", "I16", "I24", "I32", "I40"), {(0, 0, 0, 0, 5): 1})


#: family: (generators, weights, F builder or None, source, notes); a family
#: with an F has the two-sheeted relation t^2 - F in its last generator t.
_CATALOG = {
    "quartic": (("I2", "I3"), (2, 3), None, "invariants of binary quartics", ()),
    "quintic": (("I4", "I8", "I12", "I18"), (4, 8, 12, 18), quintic_F,
                "invariants of binary quintics", ()),
    "sextic": (("I2", "I4", "I6", "I10", "I15"), (2, 4, 6, 10, 15), sextic_F,
               "invariants of binary sextics", (SEXTIC_REPAIR_NOTE,)),
    "cubic-curve": (("I4", "I6"), (4, 6), None, "invariants of plane cubic curves", ()),
    "cubic-surface": (("I8", "I16", "I24", "I32", "I40", "I100"), (8, 16, 24, 32, 40, 100),
                      _cubic_surface_F, "invariants of cubic surfaces", (CUBIC_SURFACE_NOTE,)),
}

FAMILIES = tuple(_CATALOG)


@lru_cache(maxsize=None)
def catalog_ring(family: str) -> InvariantCatalogEntry:
    """The invariant-ring presentation of a catalog family."""
    if family not in _CATALOG:
        raise UnknownFamilyError(
            f"unknown family {excerpt(family)}; known: {', '.join(FAMILIES)}")
    gens, weights, build_F, source, notes = _CATALOG[family]
    F = relation = None
    if build_F:
        F = build_F()
        relation = MultiPoly(gens, {(0,) * (len(gens) - 1) + (2,): 1}) - F.lifted(gens)
    ring = GradedRingPresentation(gens, weights, relation)
    return InvariantCatalogEntry(family, ring, F, source, notes)


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
    b = [c * QQ(1, comb(4, i)) for i, c in enumerate(f.coeffs)]
    i2 = b[0] * b[4] - 4 * b[1] * b[3] + 3 * b[2] * b[2]
    i3 = (b[0] * b[2] * b[4] - b[0] * b[3] * b[3] + 2 * b[1] * b[2] * b[3]
          - b[1] * b[1] * b[4] - b[2] ** 3)
    return QuarticInvariants(i2, i3)


def quartic_point(f: BinaryForm):
    """The value point (I2 : I3) of a stable quartic in P(2, 3).

    The point is the orbit of the invariants under t . (I2, I3) = (t^2 I2,
    t^3 I3), which :class:`PointW` equality decides, so no representative
    is chosen.  A stable quartic is off the nullcone, so I2 and I3 do not
    both vanish.
    """
    if not is_stable(f):
        raise NonStableError("the value point is taken on stable quartics")
    inv = quartic_invariants(f)
    return PointW((inv.I2, inv.I3), (2, 3))


# -- transvectants -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _transvectant_weights(d: int, e: int, r: int):
    """The integer weights of the r-th transvectant of forms of degrees d
    and e: entry n lists the triples (i, j, W(i, j)) with i + j = n + r and
    W(i, j) != 0, where

        W(i, j) = sum_k (-1)^k C(r, k) (d-i)_(r-k) i_(k) (e-j)_(k) j_(r-k)

    with falling powers n_(k) = n (n-1) ... (n-k+1); and the
    denominator d_(r) e_(r) of the normalization (d-r)! (e-r)! / (d! e!),
    whose numerator is 1."""
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
    return tuple(rows), perm(d, r) * perm(e, r)


def _transvectant(a, b, r: int):
    """The r-th transvectant of two covariants, each a pair (den,
    coefficient list) in the order of
    :func:`stackygit.cyclotomic._numerators`, standing for the form with
    coefficients c / den.

    Entry n of the result's list is sum_{i+j=n+r} W(i, j) a_i b_j with the
    integer weights W of :func:`_transvectant_weights`, summed in the ring
    of the lists (ints, or CyclotomicNumbers); the normalization's
    denominator and both denominators go into den, and nothing is
    divided."""
    (ad, A), (bd, B) = a, b
    d, e = len(A) - 1, len(B) - 1
    if r > min(d, e):
        raise OrderTooLargeError(
            f"transvectant order {r} exceeds min(deg) = {min(d, e)}")
    rows, den = _transvectant_weights(d, e, r)
    return den * ad * bd, [sum(w * A[i] * B[j] for i, j, w in row) for row in rows]


def _product(a, b):
    """The product of two covariant pairs, as :func:`_transvectant`
    carries them."""
    (ad, A), (bd, B) = a, b
    return ad * bd, _convolve(A, B)


def _sum(*terms):
    """The sum of q * t over pairs (q, t) of a nonzero rational q and a
    covariant pair t, all of one degree: each list is multiplied by the
    int that brings it over the lcm of the denominators, and the lists are
    added entry by entry, term after term."""
    scales = [(q.numerator, q.denominator * den) for q, (den, _) in terms]
    den = lcm(*(d for _, d in scales))
    factors = [n * (den // d) for n, d in scales]
    return den, [sum(c * k for c, k in zip(column, factors))
                 for column in zip(*(coeffs for _, (_, coeffs) in terms))]


def _form(covariant) -> BinaryForm:
    """The form of a covariant pair: the one division, one
    :func:`stackygit.cyclotomic._over` per coefficient."""
    den, coeffs = covariant
    return BinaryForm._of([_over(c, den) for c in coeffs])


def transvectant(f: BinaryForm, g: BinaryForm, r: int) -> BinaryForm:
    """The r-th transvectant (f, g)_r of two forms, of degree d + e - 2r.

    Coefficient n is sum_{i+j=n+r} W(i, j) f_i g_j times the normalization
    (d-r)! (e-r)! / (d! e!), with the integer weights W of
    :func:`_transvectant_weights`: the two forms' coefficients are read in
    the ring of :func:`stackygit.cyclotomic._numerators`, summed by the
    kernel :func:`_transvectant`, and normalized once per coefficient by
    :func:`_form`.  Rational forms take one integer sum per coefficient
    over one common denominator.  Otherwise each coefficient is stored in
    the field its own arithmetic produces, which divides the lcm of the
    orders of the nonzero f_i and g_j that reach it with a nonzero
    weight."""
    return _form(_transvectant(*_numerators(f.coeffs, g.coeffs), r))


# -- calibration --------------------------------------------------------------------


class CalibrationResult(namedtuple("CalibrationResult", "family scalars residuals detail",
                                   defaults=((), ""))):
    __slots__ = ()

    @property
    def succeeded(self) -> bool:
        return self.scalars is not None


def _invariant_value(covariant):
    """The pair (num, den) of a degree-0 covariant pair (den, [num])."""
    den, coeffs = covariant
    if len(coeffs) != 1:
        raise UnderDeterminedError(
            f"recipe output has order {len(coeffs) - 1}, expected an invariant")
    return coeffs[0], den


DEFAULT_SEED = 7


def _quintic_recipe(fc) -> dict:
    """The classical covariant chain of a quintic: the quadratic covariant
    i = (f,f)^4, the cubic alpha = (f,i)^2 and its square-transvectant
    tau = (alpha,alpha)^2 yield invariants in degrees 4, 8, 12; the
    degree-18 invariant is the resultant of f with alpha (the degree-18
    invariant space is one-dimensional, so any nonzero choice is
    proportional to the catalog generator).

    The chain runs on :func:`_transvectant`'s pairs from f's numerator
    pair fc = (fd, F) and returns one degree-0 pair per invariant, divided
    nowhere: for alpha = A / ad of degree 3, Res(f, alpha) is the pair
    (fd^3 ad^5, [Res(F, A)])."""
    i = _transvectant(fc, fc, 4)
    alpha = _transvectant(fc, i, 2)
    tau = _transvectant(alpha, alpha, 2)
    (fd, F), (ad, A) = fc, alpha
    return {"I4": _transvectant(i, i, 2), "I8": _transvectant(i, tau, 2),
            "I12": _transvectant(tau, tau, 2), "I18": (fd ** 3 * ad ** 5, [resultant(F, A)])}


#: The per-degree scalars c_k that match the invariants J_k of
#: :func:`_quintic_recipe` to the catalog generators: (c18*J18)^2 =
#: F(c4*J4, c8*J8, c12*J12), with c18 = sqrt(2)/729.  Like the corrections
#: of :func:`_sextic_recipe` they were solved once against the relation,
#: then frozen; :func:`calibrate_invariants` verifies them.
QUINTIC_SCALARS = {"I4": QQ(1), "I8": QQ(1, 2), "I12": QQ(-1, 4), "I18": SQRT2 / 729}


def _sextic_recipe(fc) -> dict:
    """Transvectant chain of a sextic in degrees 2, 4, 6, 10, 15.  The raw
    transvectants J6 and J10 differ from the determinant convention of the
    catalog relation by lower-filtration terms; I6 and I10 apply the exact
    corrections (solved once against the relation, then frozen), after
    which per-degree scalars suffice.  The degree-15 invariant is the sixth
    transvectant of two order-6 covariant products (the degree-15 space is
    one-dimensional).

    The covariants, their products (:func:`_product`) and the corrections
    (:func:`_sum`) run on :func:`_transvectant`'s pairs from f's numerator
    pair fc, and each invariant is returned as its degree-0 pair.  The
    products and sums keep the operand order and grouping of the chain
    I10 = J10/2 + (I4 J6)/3 + ((I2 (I2 I2)) I4)/54 - (I2 (I4 I4))/9 -
    ((I2 I2) J6)/18, so :func:`_form` stores each value over a field in the
    field that chain on normalized forms produces."""
    h = _transvectant(fc, fc, 4)
    ell = _transvectant(fc, h, 4)
    y = _transvectant(fc, ell, 2)
    m = _transvectant(h, ell, 1)
    i2 = _transvectant(fc, fc, 6)
    i4 = _transvectant(h, h, 4)
    j6 = _transvectant(ell, ell, 2)
    j10 = _transvectant(fc, _product(ell, _product(ell, ell)), 6)
    i15 = _transvectant(_product(ell, y), _product(ell, m), 6)
    i2_squared = _product(i2, i2)
    i6 = _sum((QQ(1, 2), j6), (QQ(-1, 6), _product(i2, i4)))
    i10 = _sum((QQ(1, 2), j10), (QQ(1, 3), _product(i4, j6)),
               (QQ(1, 54), _product(_product(i2, i2_squared), i4)),
               (QQ(-1, 9), _product(i2, _product(i4, i4))),
               (QQ(-1, 18), _product(i2_squared, j6)))
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


def evaluate_recipe(family: str, fc) -> dict:
    """The transvectant-built invariants of a quintic or sextic f from its
    numerator pair fc = (den, coefficients): one degree-0 covariant pair
    per generator of the family's catalog ring, in the ring's order
    (:func:`_form` makes it a form).  Other families raise
    UnknownFamilyError."""
    if family not in _CALIBRATIONS:
        raise UnknownFamilyError(f"family {family!r} has no calibration recipe")
    return _CALIBRATIONS[family][3](fc)


#: The coefficients of :func:`random_form` lie in [-FORM_SPAN, FORM_SPAN].
FORM_SPAN = 9


def _random_coeffs(rng, degree: int) -> list:
    """The int coefficients of a random nonzero form of the degree."""
    coeffs = [rng.randint(-FORM_SPAN, FORM_SPAN) for _ in range(degree + 1)]
    if not any(coeffs):
        coeffs[0] = 1
    return coeffs


def random_form(rng, degree: int) -> BinaryForm:
    return BinaryForm(_random_coeffs(rng, degree))


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

    Forms are drawn as int lists and their invariants J_k = n_k / d_k are
    :func:`evaluate_recipe`'s pairs.  With c_k = s_k / sd and c_top^2 =
    s_top / sd, F at the pairs (s_k n_k, sd d_k) is N / D, and the relation
    is s_top n_top^2 D = N sd d_top^2, in the ring of ``_numerators``: ints,
    or values when a recipe yields them.  Only a residual's text builds
    forms and values.
    """
    import random

    entry = catalog_ring(family)
    if family not in _CALIBRATIONS:
        raise UnknownFamilyError(f"family {family!r} has no relation to calibrate")
    names = entry.ring.generators
    degree, count, pinned, _ = _CALIBRATIONS[family]
    rng = random.Random(seed)

    probe = [_random_coeffs(rng, degree) for _ in range(count)]
    envs = [evaluate_recipe(family, (1, coeffs)) for coeffs in probe]
    probe_values = [[_invariant_value(env[n]) for n in names] for env in envs]
    for j, name in enumerate(names):
        if all(not v[j][0] for v in probe_values):
            raise UnderDeterminedError(
                f"recipe invariant {name} vanishes identically on the samples")

    scalars = [as_cyclotomic(pinned[n]) for n in names]
    # (c*J)^2 as c^2 * J^2: c^2 is rational for every pinned top scalar
    (sd, s), = _numerators(scalars[:-1] + [scalars[-1] ** 2])
    rhs = entry.F._values_at([[(c * n, sd * d) for c, (n, d) in zip(s, vals[:-1])]
                              for vals in probe_values])
    residuals = []
    for coeffs, (*_, (n, d)), (fn, fd) in zip(probe, probe_values, rhs):
        diff = s[-1] * n * n * fd - fn * sd * d * d
        if diff:
            residuals.append((str(BinaryForm(coeffs)), str(_over(diff, sd * d * d * fd))))
    if residuals:
        return CalibrationResult(family, None, tuple(residuals), (
            f"the pinned scalars leave residuals at {len(residuals)} of "
            f"{len(probe)} random forms (seed {seed})"))
    return CalibrationResult(
        family, dict(zip(names, scalars)),
        detail=f"relation verified exactly at {len(probe)} random forms (seed {seed})")
