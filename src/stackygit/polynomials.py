"""Sparse exact polynomials over cyclotomic fields.

:class:`MultiPoly` is a sparse multivariate polynomial (exponent vector ->
coefficient) used for graded-ring relations and divisor equations.
:class:`BinaryForm` is the dense two-variable case ``f = a_0 x^d +
a_1 x^{d-1} y + ... + a_d y^d`` with the substitution action of SL(2) and
root-multiplicity analysis.  Substitution follows two rules (see
:meth:`BinaryForm.substitute`).  A monomial matrix, diagonal or
antidiagonal, acts term by term.  Every other matrix runs one kernel in
one field: it factors the matrix into at most three scalings and two
Taylor shifts by 1 (scale-shift-scale), on integer coordinate vectors over
one common denominator, so each scaling multiplies by a table of integer
power vectors, each shift is a run of prefix sums and costs additions
only, and the result is divided once at the end.

Root multiplicities are computed by iterated gcds of the dehomogenization
with its derivative (so everything stays in exact arithmetic, with no root
extraction).  No matrix is eliminated: each gcd is the last member of
:func:`_subresultants`, the one fraction-free subresultant
pseudo-remainder sequence, which limits coefficient growth, and
:func:`resultant` reads the resultant of two coefficient lists, at their
formal degrees, off the same sequence.  Over Q the sequence runs on
integers, since its divisions are exact in Z.
"""

from __future__ import annotations

from itertools import accumulate, product
from math import gcd, lcm, prod
from operator import add, getitem

from .cyclotomic import (
    ONE,
    CyclotomicNumber,
    _check_order,
    _convolve,
    _mul_vec,
    _numerators,
    _over,
    _power,
    _raw,
    _to_int_coords,
    as_cyclotomic,
)
from .errors import (
    ArityError,
    DegreeTooLargeError,
    ExactArithmeticError,
    VariableMismatchError,
    ZeroFormError,
)

_ZERO = as_cyclotomic(0)

#: Largest degree :meth:`BinaryForm.multiplicity_profile` and
#: :meth:`BinaryForm.distinct_root_count` accept; the gcd chain costs about
#: deg^2 field operations.
MAX_PROFILE_DEGREE = 256


class MultiPoly:
    """Sparse multivariate polynomial with CyclotomicNumber coefficients.

    ``variables`` is an ordered tuple of names; ``terms`` maps exponent
    tuples (one entry per variable) to nonzero coefficients.  Instances are
    treated as immutable.

    ``__init__`` validates the arguments of library callers: it checks
    arity and signs of the exponents, converts coefficients and merges or
    drops zero ones.  The expression parser, and through it the ring
    specs, build with the unchecked :meth:`_of`, as do arithmetic results
    whose terms are clean by construction (the operands were validated,
    zero sums are dropped as they arise).

    ``str`` memoises its text in the slot ``_text``, set on first use; an
    instance printed for several parts of one payload is rendered once.
    """

    __slots__ = ("variables", "terms", "_text")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ArityError(
                    f"exponent vector {exps} does not match {len(variables)} variables")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = as_cyclotomic(c)
            if c:
                prev = clean.get(exps)
                c = prev + c if prev is not None else c
                if c:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, variables, terms):
        """Trusted constructor: ``variables`` a tuple, ``terms`` a dict of
        int exponent tuples of that length to nonzero coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(variables):
        return MultiPoly(variables)

    @staticmethod
    def constant(variables, c):
        variables = tuple(variables)
        return MultiPoly(variables, {(0,) * len(variables): c})

    @staticmethod
    def variable(variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return MultiPoly(variables, {exps: 1})

    # -- predicates -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), _ZERO)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variables {other.variables} != {self.variables}")
            return other
        return MultiPoly.constant(self.variables, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, _ZERO) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return MultiPoly._of(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = as_cyclotomic(other)
            if not c:
                return MultiPoly.zero(self.variables)
            return MultiPoly._of(self.variables,
                                 {e: x * c for e, x in self.terms.items()})
        other = self._coerce(other)
        # products of terms are summed in the ring of _numerators; a
        # one-term factor only scales the other's terms, so both keep
        # their values
        p, q = self.terms.values(), other.terms.values()
        (d1, n1), (d2, n2) = (_numerators(p, q) if len(p) > 1 < len(q)
                              else ((1, p), (1, q)))
        sums = {}
        for e1, a in zip(self.terms, n1):
            for e2, b in zip(other.terms, n2):
                e = tuple(map(add, e1, e2))
                s = sums.get(e)
                sums[e] = a * b if s is None else s + a * b
        return MultiPoly._of(self.variables,
                             {e: _over(n, d1 * d2) for e, n in sums.items() if n})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, MultiPoly.constant(self.variables, 1))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if self.is_constant():
                return self.constant_term() == as_cyclotomic(other)
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    # -- structure ------------------------------------------------------------

    def weighted_degree(self, weights):
        """Common weighted degree of all terms for one weight per variable,
        or None if inhomogeneous.

        The zero polynomial and constants have degree 0.
        """
        if len(weights) != len(self.variables):
            raise VariableMismatchError(
                f"{len(weights)} weights for {len(self.variables)} variables")
        degree = None
        for e in self.terms:
            d = sum(w * k for w, k in zip(weights, e))
            if degree is None:
                degree = d
            elif d != degree:
                return None
        return 0 if degree is None else degree

    def partial(self, i: int) -> "MultiPoly":
        i = range(len(self.variables))[i]
        return MultiPoly._of(self.variables, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]})

    def partials(self):
        """Partial derivatives in variable order."""
        return tuple(self.partial(i) for i in range(len(self.variables)))

    def evaluate(self, point) -> CyclotomicNumber:
        """The value at ``point``: ints, rationals or CyclotomicNumbers, one
        per variable.

        The value is :func:`_over` of :meth:`_values_at`, with each rational
        coordinate read as its int numerator over its denominator and each
        other one as itself over 1, and is stored in the field where the
        term-by-term sum of the products c * x1^k1 * ... would store it."""
        point = [as_cyclotomic(p) for p in point]
        if len(point) != len(self.variables):
            raise ArityError(
                f"{len(point)} coordinates for {len(self.variables)} variables")
        return _over(*self._values_at([[(p.coords[0], p.den) if p.order == 1 else (p, 1)
                                        for p in point]])[0])

    def _values_at(self, points):
        """The value num / den at each point, one pair (num, den) per
        variable, as an unreduced pair (num, den): the coefficients, read
        once in the ring of :func:`_numerators`, dotted with the monomials
        of :func:`_monomial_ints` over the product of their denominators."""
        (den, coeffs), = _numerators(self.terms.values())
        values = []
        for point in points:
            pden, nums = _monomial_ints(point, self.terms)
            values.append((sum(c * n for c, n in zip(coeffs, nums)), den * pden))
        return values

    def lifted(self, new_variables) -> "MultiPoly":
        """Embed into a ring with extra variables (superset, any order)."""
        new_variables = tuple(new_variables)
        pos = {v: new_variables.index(v) for v in self.variables}
        n = len(new_variables)
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * n
            for v, k in zip(self.variables, e):
                e2[pos[v]] = k
            terms[tuple(e2)] = c
        return MultiPoly._of(new_variables, terms)

    def proportional_to(self, other):
        """Scalar c with self == c*other, or None."""
        other = self._coerce(other)
        if not self or not other:
            return None
        if set(self.terms) != set(other.terms):
            return None
        e0 = next(iter(self.terms))
        c = self.terms[e0] / other.terms[e0]
        for e, x in self.terms.items():
            if x != c * other.terms[e]:
                return None
        return c

    # -- display ---------------------------------------------------------------

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            pass
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e) if k)
            if not mono:
                body, neg = _coeff_text(c, force=True)
            else:
                body, neg = _coeff_text(c)
                body = f"{body}*{mono}" if body else mono
            parts.append(("- " if neg else "+ ") + body)
        text = " ".join(parts)
        text = text[2:] if text.startswith("+ ") else "-" + text[2:]
        object.__setattr__(self, "_text", text)
        return text

    def __repr__(self):
        return f"MultiPoly({self.variables}, '{self}')"


def _coeff_text(c: CyclotomicNumber, force=False):
    """Render a nonzero coefficient for use as a factor; returns (text,
    negated).  A coefficient with more than one nonzero coordinate is
    parenthesized whole; otherwise its sign is pulled out, and 1 prints
    as nothing unless ``force``."""
    if c.order == 1:
        num, den = c.coords[0], c.den
        if abs(num) == den == 1 and not force:
            return "", num < 0
        return (str(abs(num)) if den == 1 else f"{abs(num)}/{den}"), num < 0
    if len([x for x in c.coords if x]) > 1:
        return f"({c})", False
    neg = min(c.coords) < 0
    return str(-c if neg else c), neg


class BinaryForm:
    """A binary form ``a_0 x^d + a_1 x^{d-1} y + ... + a_d y^d``.

    The formal degree is explicit: leading coefficients may vanish (the root
    at infinity).  Instances are immutable.

    ``__init__`` converts and checks outside input; kernels whose
    coefficients are canonical values already build with :meth:`_of`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(as_cyclotomic(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a binary form needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _of(cls, coeffs):
        """Trusted constructor: ``coeffs`` a nonempty iterable of
        CyclotomicNumbers."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    def __setattr__(self, *a):
        raise AttributeError("BinaryForm is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def a(self, i: int) -> CyclotomicNumber:
        return self.coeffs[i]

    def __bool__(self):
        return any(self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if self.degree != other.degree:
            raise ArityError("cannot add forms of different degrees")
        return BinaryForm._of([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if self.degree != other.degree:
            raise ArityError("cannot subtract forms of different degrees")
        return BinaryForm._of([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinaryForm._of([-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            c = as_cyclotomic(other)
            return BinaryForm._of([a * c for a in self.coeffs])
        (da, A), (db, B) = _numerators(self.coeffs, other.coeffs)
        return BinaryForm._of([_over(n, da * db) for n in _convolve(A, B)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a form")
        return _power(self, n, BinaryForm([1]))

    def __eq__(self, other):
        return isinstance(other, BinaryForm) and self.coeffs == other.coeffs

    __hash__ = None

    def proportional_to(self, other):
        """Scalar c with self == c*other (same degree), or None."""
        if self.degree != other.degree or not self or not other:
            return None
        c = None
        for a, b in zip(self.coeffs, other.coeffs):
            if bool(a) != bool(b):
                return None
            if a and c is None:
                c = a / b
        for a, b in zip(self.coeffs, other.coeffs):
            if a != c * b:
                return None
        return c

    # -- evaluation and substitution ----------------------------------------------

    def substitute(self, m) -> "BinaryForm":
        """The form f(a x + b y, c x + d y) for the matrix [[a, b], [c, d]].

        The substitution is the right action used throughout: f.substitute(M
        N) == f.substitute(M).substitute(N).

        A monomial matrix acts term by term.  For b = c = 0 image
        coefficient i is (a^(deg-i) d^i) f_i, and for a = d = 0 image
        coefficient j is (c^(deg-j) b^j) f_(deg-j), each formed in
        CyclotomicNumber arithmetic from :func:`_powers` of the entries, so
        it enters only the field its term needs.

        Every other matrix runs :func:`_substitute_terms` once, in
        Q(zeta_k) for k the lcm of the orders of the entries and of the
        nonzero coefficients (checked against the order cap); the image
        coefficients are stored in Q(zeta_k), or in Q when rational.
        """
        deg = self.degree
        if deg == 0:
            return self
        a, b, c, d = entries = (m.a, m.b, m.c, m.d)
        if not (b or c):  # coefficient i is (a^(deg-i) d^i) f_i
            xs, ys, fs = _powers(a, deg), _powers(d, deg), self.coeffs
        elif not (a or d):  # coefficient j is (c^(deg-j) b^j) f_(deg-j)
            xs, ys, fs = _powers(c, deg), _powers(b, deg), self.coeffs[::-1]
        else:
            k = lcm(*(v.order for v in entries), *(f.order for f in self.coeffs if f))
            return BinaryForm._of(_substitute_terms(k, self.coeffs, entries))
        return BinaryForm._of([xs[deg - i] * ys[i] * f if f else _ZERO
                               for i, f in enumerate(fs)])

    # -- roots ----------------------------------------------------------------------

    def _gcd_chain(self, steps):
        """The multiplicity of the root (1:0) and the degrees of p, gcd(p, p'),
        the gcd of that with its derivative, and so on, for the
        dehomogenization p; the chain stops at degree 0 or after ``steps``
        gcds.  It runs in the ring of :func:`_numerators`: over Q on an
        integer multiple of p, keeping the primitive part of each gcd, and
        otherwise on the field elements, making each gcd monic.
        Forms of degree above :data:`MAX_PROFILE_DEGREE` raise
        DegreeTooLargeError."""
        if self.degree > MAX_PROFILE_DEGREE:
            raise DegreeTooLargeError(
                f"degree {self.degree} exceeds the root-profile bound {MAX_PROFILE_DEGREE}")
        if not self:
            raise ZeroFormError("the zero form has no root profile")
        at_infinity = 0
        while not self.coeffs[at_infinity]:
            at_infinity += 1
        # f(t, 1) ascending in t, its leading zeros (the root at infinity) cut
        (_, p), = _numerators(self.coeffs[at_infinity:][::-1])
        unit = _cp_primitive if type(p[0]) is int else _cp_monic
        degrees = [len(p) - 1]
        while len(p) > 1 and len(degrees) <= steps:
            last = _subresultants(p, _cp_deriv(p))[0][-1]
            p = unit(last) if len(last) > 1 else [1]
            degrees.append(len(p) - 1)
        return at_infinity, degrees

    def multiplicity_profile(self):
        """Sorted multiplicities of the roots in P^1 over the closure.

        The root at infinity (1:0) is read off the leading zero
        coefficients; finite roots are counted through the whole gcd chain
        of the dehomogenization with its successive derivatives.
        """
        at_infinity, degrees = self._gcd_chain(self.degree)
        profile = [at_infinity] if at_infinity else []
        degrees.append(0)
        # degrees[k-1] - degrees[k] roots have multiplicity >= k
        for k in range(1, len(degrees) - 1):
            exactly_k = (degrees[k - 1] - degrees[k]) - (degrees[k] - degrees[k + 1])
            profile.extend([k] * exactly_k)
        return tuple(sorted(profile))

    def distinct_root_count(self) -> int:
        """Number of distinct roots in P^1: deg p - deg gcd(p, p') for the
        dehomogenization p, plus one if (1:0) is a root."""
        at_infinity, degrees = self._gcd_chain(1)
        return (at_infinity > 0) + degrees[0] - degrees[-1]

    # -- display ----------------------------------------------------------------------

    def to_multipoly(self, variables=("x", "y")) -> MultiPoly:
        d = self.degree
        return MultiPoly._of(tuple(variables),
                             {(d - i, i): c for i, c in enumerate(self.coeffs) if c})

    def __str__(self):
        return str(self.to_multipoly())

    def __repr__(self):
        return f"BinaryForm('{self}')"


def _powers(x, n):
    """[1, x, x^2, ..., x^n] for an int or a CyclotomicNumber x."""
    out = [x ** 0]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _monomial_ints(point, exps):
    """``(den, nums)``: the monomials with exponent vectors ``exps`` at
    ``point``, as nums[i] / den.  Coordinate j is a pair (v_j, d_j), an int
    or a CyclotomicNumber v_j over a positive int d_j.  den = prod
    d_j^t_j, t_j the largest exponent of variable j, and monomial e has
    numerator prod v_j^e_j d_j^(t_j - e_j), read from power tables; the
    nums are ints when the v_j whose variables occur are ints.  A variable
    with t_j = 0 enters as 1."""
    tops = [max(k) for k in zip(*exps)]
    tables, den = [], 1
    for (v, d), t in zip(point, tops):
        ds = _powers(d, t)[::-1]
        tables.append([x * y for x, y in zip(_powers(v, t), ds)] if t else (1,))
        den *= ds[0]
    return den, [prod(map(getitem, tables, e)) for e in exps]


def _scaled(k, den, vecs, x, seed=ONE):
    """The integer coordinate vectors ``vecs`` (over ``den``) with entry j
    times seed * x^j in Q(zeta_k); the orders of x and seed divide k.  The
    factors form one table of integer vectors over E D^n, for x = X/D and
    seed = S/E: entry j is S X^j D^(n-j).  Returns the new common
    denominator and vectors, which are ``den`` and ``vecs`` themselves for
    a scaling by 1."""
    if x == 1 == seed:
        return den, vecs
    n = len(vecs) - 1
    X, D = x._vec(k), x.den
    table = [seed._vec(k)]
    for _ in range(n):
        table.append(_mul_vec(k, X, table[-1]))
    dn = 1  # D^(n-j) at entry j, D^n after entry 0
    if D != 1:
        for j in range(n - 1, -1, -1):
            dn *= D
            table[j] = [c * dn for c in table[j]]
    return den * seed.den * dn, [_mul_vec(k, t, v) if any(v) else v
                                 for t, v in zip(table, vecs)]


def _shift(vecs):
    """The Taylor shift by 1, sum p_i z^i -> sum p_i (z + 1)^i, of the
    integer coefficient vectors p_i: new vectors q_j = sum_(i >= j) C(i, j)
    p_i.  Pass i < n replaces p_i .. p_n by their suffix sums, which on
    each reversed coordinate column is one prefix sum."""
    n = len(vecs) - 1
    cols = []
    for col in zip(*vecs):
        col = list(col[::-1])
        if any(col):
            for i in range(n):
                col[:n + 1 - i] = accumulate(col[:n + 1 - i])
        cols.append(col[::-1])
    return list(zip(*cols))


def _substitute_terms(k, coeffs, entries):
    """Coefficients of f(a x + b y, c x + d y) for the coefficients f_i of
    f and a matrix that is not monomial, computed in Q(zeta_k) on integer
    coordinate vectors; the orders of the entries and coefficients divide
    k.

    The image comes from scalings and Taylor shifts by 1 (von zur Gathen
    and Gerhard, ISSAC 1997).  For a != 0, with e = det/a, s = b/a and t =
    c/e, the image is f(a u, c u + e v) at u = x + s y, v = y.  Each factor
    is a change of variable: a_i times a^(deg-i) c^i, a shift by 1 (c u + e
    v = c (u + v/t)), coefficient j times t^-j s^(deg-j), a shift by 1 in
    the other variable (x + s y = s (x/s + y)), and coefficient j times
    s^-(deg-j).  Adjacent scalings fuse, since x^(deg-j) y^j = x^deg
    (y/x)^j, and a scaling by a constant commutes with the shifts, which
    are linear: the constants s^deg and s^-deg of the last two scalings
    cancel, and the constant a^deg of the first is carried to the end.  So
    the kernel is three passes:

    1. scale coefficient i by (c/a)^i and shift by 1;
    2. scale coefficient j by (e a/(c b))^j and shift by 1 in the other
       variable;
    3. scale coefficient j by a^deg (b/a)^j.

    For c = 0 the first pass is dropped and step 2 scales by (e/b)^j; for
    b = 0 step 2 is dropped and step 3 scales by a^deg (e/c)^j.  A scaling
    by 1 is skipped (T's and O's generator with no zero entry has c = a).
    For a = 0 the coefficients are reversed and [[c, d], [0, b]] is used.

    Each scaling by the powers of one value x = X/D is one pass with a
    table of integer vectors X^j D^(n-j) over D^n, built with ``_mul_vec``
    from a first entry of 1, or of a^deg in the last pass; each shift
    replaces suffixes of the coefficients by their suffix sums, done as
    prefix sums (``itertools.accumulate``) over the reversed coordinate
    columns.  The vectors carry one common denominator, multiplied by that
    of the table at each scaling, and each image coefficient is made
    canonical once, at the end."""
    _check_order(k)
    a, b, c, d = entries
    deg = len(coeffs) - 1
    den, vecs = _to_int_coords(coeffs, k)
    if not a:  # f(b y, c x + d y) is the reversed form at [[c, d], [0, b]]
        vecs.reverse()
        a, b, c, d = c, d, _ZERO, b
    ia = a.inverse()
    e = d - b * c * ia  # det/a
    # f(a u, c u + e v) with u = x + s y, v = y and s = b/a, in fused passes
    if c:  # c u + e v = c (u + w) with w = v/t and t = c/e
        den, vecs = _scaled(k, den, vecs, c * ia)
        vecs = _shift(vecs)
    if b:  # u = s (z + y) with z = x/s
        den, vecs = _scaled(k, den, vecs, e * a / (c * b) if c else e / b)
        vecs = _shift(vecs[::-1])[::-1]
    den, vecs = _scaled(k, den, vecs, b * ia if b else e / c, a ** deg)
    return [_raw(k, v, den) for v in vecs]


# -- dense univariate polynomials (ascending) ----------------------------------
#
# The coefficients are all ints or all CyclotomicNumbers; zero tests use
# truthiness and the only division is :func:`_exact_quotients`.

def _cp_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _cp_deriv(c):
    return [c[k] * k for k in range(1, len(c))]


def _cp_monic(c):
    inv = c[-1].inverse()
    return [x * inv for x in c]


def _cp_primitive(c):
    """An integer list divided by the gcd of its entries."""
    g = gcd(*c)
    return [x // g for x in c]


def _exact_quotients(xs, s):
    """The quotients x / s for the x in ``xs``, known to be exact in the
    coefficient ring: ``divmod`` for ints, where a remainder raises
    ExactArithmeticError, and multiplication by the inverse in a field."""
    if type(s) is not int:
        inv = s.inverse()
        return [x * inv for x in xs]
    out = []
    for x in xs:
        q, r = divmod(x, s)
        if r:
            raise ExactArithmeticError("an exact division left a remainder")
        out.append(q)
    return out


def _cp_prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    a = list(a)
    lb = b[-1]
    steps = len(a) - len(b) + 1
    while len(a) >= len(b):
        la = a.pop()
        a = [x * lb for x in a]
        if la:
            k = len(a) - len(b) + 1
            for j, y in enumerate(b[:-1]):
                a[k + j] = a[k + j] - la * y
        _cp_trim(a)
        steps -= 1
    if steps > 0:
        f = lb ** steps
        a = [x * f for x in a]
    return a


def _subresultants(a, b):
    """The subresultant pseudo-remainder sequence of the ascending lists
    ``a`` and ``b``, deg a >= deg b, with nonzero leading coefficients
    (Collins; Brown-Traub; H. Cohen, *A Course in Computational Algebraic
    Number Theory*, Algorithm 3.3.1).  The coefficients are all ints or all
    CyclotomicNumbers: every division in the sequence is exact in the ring
    they generate, so over Z it runs on ints alone.

    Returns ``(members, h)``: a, b, ... up to the last nonzero member, a
    gcd of a and b, or up to a constant; and the last step's scale h =
    g^delta / h^(delta-1), g the leading coefficient of the last member but
    one.  Dividing each pseudo-remainder by g h^delta of the step before
    keeps coefficient growth linear in the degree."""
    members = [a, b]
    g = h = a[-1] ** 0  # the ring's one
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _cp_prem(a, b)
        if not r:
            break
        a, b = b, _exact_quotients(r, g * h ** delta)
        g = a[-1]
        if delta:
            h = _exact_quotients([g ** delta], h ** (delta - 1))[0]
        members.append(b)
    return members, h


def resultant(a, b):
    """Res_{d,e} of the descending coefficient lists ``a`` (a0 first) and
    ``b``, all ints or all CyclotomicNumbers: the Sylvester determinant at
    the formal degrees, by the subresultant pseudo-remainder sequence
    (Collins; Brown-Traub; H. Cohen, *A Course in Computational Algebraic
    Number Theory*, Algorithm 3.3.7).  A vanishing leading
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


def principal_lattice(n: int, d: int):
    """The principal lattice {p in Z>=0^n : sum(p) <= d}, C(n + d, d) points:
    a polynomial of total degree <= d in n variables that vanishes at all of
    them is zero (Nicolaides, *SIAM J. Numer. Anal.* 9, 1972)."""
    return [p for p in product(range(d + 1), repeat=n) if sum(p) <= d]
