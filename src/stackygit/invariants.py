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
need.  The calibration harness matches transvectant-built invariants
against a catalog relation by per-degree scalars.

No matrix is eliminated over the cyclotomic field.  :func:`resultant` reads
the resultant, at the forms' formal degrees, off
:func:`stackygit.polynomials._subresultants`, the one subresultant
pseudo-remainder sequence, which the root-multiplicity gcds also run; for
rational forms it runs on integers.  The
calibration's linear solve :func:`_solve_linear` takes the integer rows of
rational samples and is multi-modular: Gauss-Jordan elimination modulo
62-bit primes, Chinese remaindering and rational reconstruction, with every
answer certified by an exact integer check (a solution that satisfies every
row, a failing row, or a kernel vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, isqrt, lcm, perm

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
)
from .errors import (
    ExactArithmeticError,
    NonStableError,
    OrderTooLargeError,
    UnderDeterminedError,
    UnknownFamilyError,
    WrongDegreeError,
)
from .graded import GradedRingPresentation
from .polynomials import BinaryForm, MultiPoly, _exact_quotients, _monomial_ints, _subresultants

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
    from .locus import PointW
    from .symmetry import is_stable

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
class RecipeStep:
    """One construction step: kind is 'trans', 'mul', 'pow' or 'lin'.

    'trans': transvectant(args[0], args[1], order)
    'mul':   product of the named covariants in args
    'pow':   args[0] raised to the power 'order'
    'lin':   sum of coefficient * named covariant over 'combo'
    'res':   resultant(args[0], args[1]) as a degree-0 form
    """

    name: str
    kind: str
    args: tuple = ()
    order: int = 0
    combo: tuple = ()


@dataclass(frozen=True)
class CalibrationResult:
    family: str
    scalars: dict | None
    residuals: tuple = ()
    detail: str = ""

    @property
    def succeeded(self) -> bool:
        return self.scalars is not None


def evaluate_recipe(recipe, f: BinaryForm) -> dict:
    """Run recipe steps on the source form; returns name -> covariant."""
    env = {"f": f}
    for step in recipe:
        if step.kind == "trans":
            value = transvectant(env[step.args[0]], env[step.args[1]], step.order)
        elif step.kind == "mul":
            value = env[step.args[0]]
            for other in step.args[1:]:
                value = value * env[other]
        elif step.kind == "pow":
            value = env[step.args[0]] ** step.order
        elif step.kind == "lin":
            value = None
            for coeff, name in step.combo:
                term = env[name] * as_cyclotomic(coeff)
                value = term if value is None else value + term
        elif step.kind == "res":
            value = BinaryForm([resultant(env[step.args[0]], env[step.args[1]])])
        else:
            raise ValueError(f"unknown recipe step kind {step.kind!r}")
        env[step.name] = value
    return env


def _invariant_value(form: BinaryForm) -> CyclotomicNumber:
    if form.degree != 0:
        raise UnderDeterminedError(
            f"recipe output has order {form.degree}, expected an invariant")
    return form.a(0)


def _iroot(n: int, k: int) -> int:
    """The integer k-th root floor(n^(1/k)) of n >= 0, by Newton's method."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _rational_root(value, k: int):
    """Exact rational k-th root of a rational CyclotomicNumber, or None."""
    if not value.is_rational():
        return None
    q = value.rational_value()
    if q == 0:
        return None
    sign = 1
    if q < 0:
        if k % 2 == 0:
            return None
        sign, q = -1, -q
    # q is in lowest terms, so it is a k-th power iff both parts are
    num, den = int(q.numerator), int(q.denominator)
    rn, rd = _iroot(num, k), _iroot(den, k)
    if rn ** k == num and rd ** k == den:
        return QQ(sign * rn, rd)
    return None


DEFAULT_SEED = 7

#: Classical covariant chain for the quintic: the quadratic covariant
#: i = (f,f)^4, the cubic alpha = (f,i)^2 and its square-transvectant
#: tau = (alpha,alpha)^2 yield invariants in degrees 4, 8, 12; the
#: degree-18 invariant is the resultant of f with alpha (the degree-18
#: invariant space is one-dimensional, so any nonzero choice is
#: proportional to the catalog generator).
QUINTIC_RECIPE = (
    RecipeStep("i", "trans", ("f", "f"), 4),
    RecipeStep("alpha", "trans", ("f", "i"), 2),
    RecipeStep("tau", "trans", ("alpha", "alpha"), 2),
    RecipeStep("I4", "trans", ("i", "i"), 2),
    RecipeStep("I8", "trans", ("i", "tau"), 2),
    RecipeStep("I12", "trans", ("tau", "tau"), 2),
    RecipeStep("I18", "res", ("f", "alpha")),
)

#: Transvectant chain for the sextic in degrees 2, 4, 6, 10, 15.  The raw
#: transvectants J6 and J10 differ from the determinant convention of the
#: catalog relation by lower-filtration terms; the 'lin' steps apply the
#: exact corrections (solved once against the relation, then frozen), after
#: which per-degree scalars suffice.  The degree-15 invariant is the
#: sixth transvectant of two order-6 covariant products (the degree-15
#: space is one-dimensional).
SEXTIC_RECIPE = (
    RecipeStep("h", "trans", ("f", "f"), 4),
    RecipeStep("ell", "trans", ("f", "h"), 4),
    RecipeStep("y", "trans", ("f", "ell"), 2),
    RecipeStep("m", "trans", ("h", "ell"), 1),
    RecipeStep("I2", "trans", ("f", "f"), 6),
    RecipeStep("I4", "trans", ("h", "h"), 4),
    RecipeStep("J6", "trans", ("ell", "ell"), 2),
    RecipeStep("ell3", "pow", ("ell",), 3),
    RecipeStep("J10", "trans", ("f", "ell3"), 6),
    RecipeStep("elly", "mul", ("ell", "y")),
    RecipeStep("ellm", "mul", ("ell", "m")),
    RecipeStep("I15", "trans", ("elly", "ellm"), 6),
    RecipeStep("p24", "mul", ("I2", "I4")),
    RecipeStep("I6", "lin", combo=((QQ(1, 2), "J6"), (QQ(-1, 6), "p24"))),
    RecipeStep("p46", "mul", ("I4", "J6")),
    RecipeStep("i2sq", "pow", ("I2",), 2),
    RecipeStep("i2cu", "pow", ("I2",), 3),
    RecipeStep("i4sq", "pow", ("I4",), 2),
    RecipeStep("p224", "mul", ("i2cu", "I4")),
    RecipeStep("p144", "mul", ("I2", "i4sq")),
    RecipeStep("p226", "mul", ("i2sq", "J6")),
    RecipeStep("I10", "lin", combo=(
        (QQ(1, 2), "J10"), (QQ(1, 3), "p46"), (QQ(1, 54), "p224"),
        (QQ(-1, 9), "p144"), (QQ(-1, 18), "p226"))),
)


# The families calibrate_invariants accepts, with the degree of their forms.
_FORM_DEGREES = {"quintic": 5, "sextic": 6}

#: The least number of random forms a calibration is verified at.
CALIBRATION_SAMPLES = 25

#: The coefficients of :func:`random_form` lie in [-FORM_SPAN, FORM_SPAN].
FORM_SPAN = 9


def random_form(rng, degree: int) -> BinaryForm:
    coeffs = [rng.randint(-FORM_SPAN, FORM_SPAN) for _ in range(degree + 1)]
    if not any(coeffs):
        coeffs[0] = 1
    return BinaryForm(coeffs)


def calibrate_invariants(family: str, recipe, seed: int = DEFAULT_SEED) -> CalibrationResult:
    """Find per-degree scalars matching recipe invariants to the catalog
    relation, verified exactly at random forms.

    For the quintic: scalars (c4, c8, c12, c18) with (c18*J18)^2 =
    F(c4*J4, c8*J8, c12*J12) at :data:`CALIBRATION_SAMPLES` or more random
    quintics; c18 is normalized to 1.  The sextic relation is handled the
    same way with five scalars.  The recipe must define every generator of
    the family's ring: a missing one raises UnderDeterminedError, naming it,
    before anything is evaluated.  A recipe invariant with a non-rational
    value raises ValueError, naming it: the solve is over Q.  Other families
    raise UnknownFamilyError.  Failure returns a report with the nonzero
    residuals.
    """
    import random

    entry = catalog_ring(family)
    if family not in _FORM_DEGREES:
        raise UnknownFamilyError(f"family {family!r} has no relation to calibrate")
    names = entry.ring.generators
    defined = {step.name for step in recipe}
    missing = [n for n in names if n not in defined]
    if missing:
        raise UnderDeterminedError(
            f"the recipe defines no step for generator(s) {', '.join(missing)}")
    degree = _FORM_DEGREES[family]
    weights = entry.ring.weights
    rng = random.Random(seed)

    def values_at(f):
        env = evaluate_recipe(recipe, f)
        return [_invariant_value(env[n]) for n in names]

    # enough probes to pin every coefficient of the degree-2w(top) space
    mono_count = len(_weighted_monomials(weights[:-1], 2 * weights[-1]))
    probe = [random_form(rng, degree)
             for _ in range(max(CALIBRATION_SAMPLES, mono_count + 8))]
    probe_values = [values_at(f) for f in probe]
    for j, name in enumerate(names):
        if all(not v[j] for v in probe_values):
            raise UnderDeterminedError(
                f"recipe invariant {name} vanishes identically on the samples")
        if any(v[j].order != 1 for v in probe_values):
            raise ValueError(
                f"recipe invariant {name} takes a non-rational value; "
                "the calibration solves over Q")

    scalars = _solve_scalars(entry, names, weights, probe_values)
    if scalars is None:
        return CalibrationResult(family, None, detail=(
            "no per-degree scalars match the relation; the recipe "
            "invariants differ from the catalog generators by more than scale"))

    residuals = []
    for f, vals in zip(probe, probe_values):
        scaled = [c * v for c, v in zip(scalars, vals)]
        lhs = scaled[-1] ** 2
        rhs = entry.F.evaluate(scaled[:-1])
        if lhs != rhs:
            residuals.append((str(f), str(lhs - rhs)))
    if residuals:
        return CalibrationResult(family, None, tuple(residuals),
                                 "scalars fitted on coefficients but residuals remain")
    return CalibrationResult(
        family, dict(zip(names, scalars)),
        detail=f"relation verified exactly at {len(probe)} random forms (seed {seed})")


def _solve_scalars(entry, names, weights, probe_values):
    """Solve for the per-generator scalars from the relation coefficients.

    Writes J_top^2 as an exact linear combination of the monomials in the
    base invariants (a linear solve over the samples), then matches that
    combination against the relation's coefficient pattern.  The scalar
    vector is only determined up to the weighted rescaling freedom; the
    first base scalar is normalized to 1.

    The values are rational: with a sample's monomials at nums / den
    (:func:`_monomial_ints`) and J_top = T / t, its equation times den t^2
    is the integer row nums t^2 = T^2 den.
    """
    base_count = len(names) - 1
    monos = _weighted_monomials(weights[:base_count], 2 * weights[-1])
    rows, rhs = [], []
    for vals in probe_values:
        den, nums = _monomial_ints(vals[:base_count], monos)
        scale = vals[-1].den ** 2
        rows.append([n * scale for n in nums])
        rhs.append(vals[-1].coords[0] ** 2 * den)
    solution = _solve_linear(rows, rhs)
    if solution is None:
        return None
    nums, den = solution
    lam = {m: _raw(1, [x], den) for m, x in zip(monos, nums)}
    rel = {m: entry.F.terms.get(m, None) for m in monos}
    return _match_pattern(lam, rel, base_count)


def _weighted_monomials(weights, degree):
    out = []

    def rec(i, left, current):
        if i == len(weights):
            if left == 0:
                out.append(tuple(current))
            return
        top = left // weights[i]
        for k in range(top + 1):
            rec(i + 1, left - k * weights[i], current + [k])

    rec(0, degree, [])
    return sorted(out)


def _mono_value(vals, mono):
    v = as_cyclotomic(1)
    for x, k in zip(vals, mono):
        if k:
            v = v * x ** k
    return v


def _solve_linear(A, b):
    """Exact solve over Q of the overdetermined integer system ``A x = b``:
    the solution as integer numerators over one positive denominator,
    ``(nums, den)``, or None if the system is inconsistent or its solution
    is not unique.

    Gauss-Jordan elimination modulo a prime p picks independent rows.  At
    full rank they form a square block that is nonsingular over Q because
    it is modulo p; its solution comes from :func:`_solve_block` and is
    checked exactly on every other row, and a failing row proves the system
    inconsistent.  Below full rank the pivot block gives a candidate kernel
    vector the same way: if it is one, exactly, the solution is not unique,
    and otherwise p was unlucky and the next prime is taken.
    """
    ncols = len(A[0])
    bound, unlucky, p = _hadamard(A), 1, _PRIME_START
    while unlucky <= bound:  # unlucky primes divide a nonzero minor
        p = _prev_prime(p)
        reduced, picked, pivots = _gauss_jordan_mod(
            [row + [c] for row, c in zip(A, b)], ncols, p)
        if len(pivots) == ncols:
            x, den = _solve_block([A[i] for i in picked], [b[i] for i in picked],
                                  p, [row[-1] for row in reduced[:ncols]])
            if any(_dot(row, x) != c * den for row, c in zip(A, b)):
                return None
            return x, den
        free = min(set(range(ncols)) - set(pivots))
        y, den = _solve_block([[A[i][j] for j in pivots] for i in picked],
                              [-A[i][free] for i in picked],
                              p, [-row[free] % p for row in reduced[:len(pivots)]])
        v = [0] * ncols
        v[free] = den
        for j, yj in zip(pivots, y):
            v[j] = yj
        if not any(_dot(row, v) for row in A):
            return None
        unlucky *= p
    raise ExactArithmeticError("no lucky prime below the Hadamard bound of the system")


#: The primes used are the primes below 2^62, largest first.
_PRIME_START = 1 << 62

#: Miller-Rabin with these bases is deterministic below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prev_prime(n: int) -> int:
    """The largest prime below n > 3."""
    n -= 1
    while not _is_prime(n):
        n -= 1
    return n


def _dot(row, x):
    return sum(a * v for a, v in zip(row, x) if a)


def _hadamard(rows) -> int:
    """Hadamard's bound: the product of the rows' Euclidean lengths, rounded
    up, bounds |det| of every square submatrix."""
    bound = 1
    for row in rows:
        bound *= isqrt(sum(a * a for a in row)) + 1
    return bound


def _gauss_jordan_mod(rows, ncols, p):
    """Gauss-Jordan elimination of the integer ``rows`` modulo p in columns
    ``0 .. ncols-1``; later columns are carried along.  Returns the reduced
    rows (the pivot rows first, each with 1 at its pivot and 0 at the other
    pivots), the input indices of the pivot rows and the pivot columns."""
    rows = [[a % p for a in row] for row in rows]
    index = list(range(len(rows)))
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        index[r], index[k] = index[k], index[r]
        inv = pow(rows[r][col], -1, p)
        # entries left of col are zero in the rows from r on
        top = rows[r] = rows[r][:col] + [a * inv % p for a in rows[r][col:]]
        tail = top[col:]
        for k, row in enumerate(rows):
            a = row[col]
            if a and k != r:
                row[col:] = [(x - a * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return rows, index[:len(pivots)], pivots


def _solve_block(S, b, p, residues):
    """The solution of ``S x = b`` for a square integer matrix S that is
    nonsingular modulo the prime p, given ``x mod p``, as integer
    numerators over one positive denominator.

    Solutions modulo further primes are combined by the Chinese remainder
    theorem, and after each prime rational reconstruction proposes x
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, 5.10); a proposal
    is accepted only when ``S x == b`` holds exactly, which proves it the
    unique solution.  By Cramer's rule and Hadamard's bound H the
    reconstruction is right once the modulus passes 2 H^2, so the loop ends
    there at the latest."""
    bound = 2 * _hadamard([row + [c] for row, c in zip(S, b)]) ** 2
    n, modulus, q = len(S), p, p
    while True:
        found = _reconstruct(residues, modulus)
        if found and all(_dot(row, found[0]) == c * found[1] for row, c in zip(S, b)):
            return found
        if modulus > bound:
            raise ExactArithmeticError("rational reconstruction failed past the Hadamard bound")
        q = _prev_prime(q)
        reduced, _, pivots = _gauss_jordan_mod([row + [c] for row, c in zip(S, b)], n, q)
        if len(pivots) < n:  # q divides det S
            continue
        inv = pow(modulus, -1, q)
        residues = [x + modulus * ((row[-1] - x) * inv % q)
                    for x, row in zip(residues, reduced)]
        modulus *= q


def _reconstruct(residues, modulus):
    """Rationals with the given residues modulo ``modulus``, as numerators
    over one common denominator, or None.  Each entry is reconstructed
    after multiplying by the denominator so far, so only new factors of the
    denominator are searched for; numerators and denominators found are at
    most sqrt(modulus / 2)."""
    limit = isqrt(modulus // 2)
    nums, den = [], 1
    for x in residues:
        r0, r1, s0, s1 = modulus, x * den % modulus, 0, 1
        while r1 > limit:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if not s1 or abs(s1) > limit:
            return None
        if s1 < 0:
            r1, s1 = -r1, -s1
        if s1 != 1:
            nums = [v * s1 for v in nums]
            den *= s1
        nums.append(r1)
    return nums, den


def _match_pattern(lam, rel, base_count):
    """Solve lambda_m * s_top^2 = c_m * prod s_i^{m_i} for the scalars.

    Multiplicative linear algebra: integer row reduction on the exponent
    vectors (m, -2) with the values prod s_i^{m_i} * s_top^-2 = lam_m/c_m
    carried along multiplicatively, then back-substitution with exact
    roots.  The weighted rescaling freedom appears as a pivotless column
    and is fixed by setting that scalar to 1; a final verification guards
    the root-sign choices.
    """
    for m, c in rel.items():
        if (c is None) != (not lam[m]):
            return None
    nonzero = sorted(m for m, c in rel.items() if c is not None)
    if not nonzero:
        return None
    ncols = base_count + 1
    # Column order: top scalar first, first base scalar last, so that the
    # rescaling freedom lands on the first base generator (normalized to 1).
    perm = [ncols - 1] + list(range(1, base_count)) + [0]
    rows = [[(list(m) + [-2])[p] for p in perm] for m in nonzero]
    vals = [lam[m] / rel[m] for m in nonzero]
    pivots = []
    r = 0
    for col in range(ncols):
        while True:
            live = [k for k in range(r, len(rows)) if rows[k][col]]
            if not live:
                break
            k0 = min(live, key=lambda k: abs(rows[k][col]))
            rows[r], rows[k0] = rows[k0], rows[r]
            vals[r], vals[k0] = vals[k0], vals[r]
            clean = True
            for k in range(r + 1, len(rows)):
                if rows[k][col]:
                    q = rows[k][col] // rows[r][col]
                    if q:
                        rows[k] = [a - q * b for a, b in zip(rows[k], rows[r])]
                        vals[k] = vals[k] / vals[r] ** q
                    if rows[k][col]:
                        clean = False
            if clean:
                break
        if r < len(rows) and rows[r][col]:
            pivots.append((r, col))
            r += 1
        if r == len(rows):
            break
    for k in range(r, len(rows)):
        if not any(rows[k]) and vals[k] != 1:
            return None
    permuted = [None] * ncols
    for ri, col in reversed(pivots):
        value = vals[ri]
        for j in range(col + 1, ncols):
            if rows[ri][j]:
                if permuted[j] is None:
                    permuted[j] = as_cyclotomic(1)
                value = value / permuted[j] ** rows[ri][j]
        root = _kth_root(value, rows[ri][col])
        if root is None:
            return None
        permuted[col] = root
    permuted = [as_cyclotomic(1) if s is None else s for s in permuted]
    scalars = [None] * ncols
    for where, p in enumerate(perm):
        scalars[p] = permuted[where]
    # verification (also guards even-root sign choices)
    top_sq = scalars[-1] ** 2
    for m in nonzero:
        if _mono_value(scalars[:-1], m) != (lam[m] / rel[m]) * top_sq:
            return None
    return scalars


def _kth_root(value, k: int):
    if k < 0:
        value, k = value.inverse(), -k
    if k == 1:
        return value
    if k == 2 and value.is_rational():
        from .cyclotomic import rational_sqrt

        return rational_sqrt(value.rational_value())
    root = _rational_root(value, k)
    return None if root is None else as_cyclotomic(root)
