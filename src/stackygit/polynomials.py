"""Sparse exact polynomials over cyclotomic fields.

:class:`MultiPoly` is a sparse multivariate polynomial (exponent vector ->
coefficient) used for graded-ring relations and divisor equations.
:class:`BinaryForm` is the dense two-variable case ``f = a_0 x^d +
a_1 x^{d-1} y + ... + a_d y^d`` with the substitution action of SL(2) and
root-multiplicity analysis.  Each sum of terms is added by
:meth:`MultiPoly._summed`, both proportionality tests are :func:`_ratio`,
and a polynomial prints through ``cyclotomic._sum_text``.  Substitution
follows two rules (see :meth:`BinaryForm.substitute`).  A monomial matrix,
diagonal or antidiagonal, acts term by term.  Every other matrix runs one
kernel in the field ``cyclotomic._to_int_coords`` picks: it factors the
matrix into at most three scalings and two Taylor shifts by 1
(scale-shift-scale) on integer vectors over one common denominator, so
each scaling multiplies by a table of integer power vectors, each shift
is a run of prefix sums, and the result is divided once at the end.

Every root fact is read off :meth:`BinaryForm.multiplicity_profile`, Yun's
square-free decomposition of the dehomogenization, in exact arithmetic.
No matrix is eliminated: each gcd is the last member of
:func:`_subresultants`, the one fraction-free subresultant
pseudo-remainder sequence, which limits coefficient growth, and
:func:`resultant` reads the resultant of two coefficient lists, at their
formal degrees, off the same sequence.  Over Q the sequence runs on
integers, since its divisions are exact in Z.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import gcd, prod
from operator import add, getitem

from .cyclotomic import (
    ONE,
    CyclotomicNumber,
    _convolve,
    _mul_kernel,
    _numerators,
    _over,
    _power,
    _raw,
    _sum_text,
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

#: Largest degree :meth:`BinaryForm.multiplicity_profile` accepts.  It bounds
#: the degree, not the time: the gcd chain's coefficients grow, so near the
#: bound a form over Q(zeta_5) takes tens of seconds, and one over Q about one.
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
        pairs = []
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ArityError(
                    f"exponent vector {exps} does not match {len(variables)} variables")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            pairs.append((exps, as_cyclotomic(c)))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", MultiPoly._summed(variables, pairs).terms)

    @classmethod
    def _of(cls, variables, terms):
        """Trusted constructor: ``variables`` a tuple, ``terms`` a dict of
        int exponent tuples of that length to nonzero coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def _summed(cls, variables, pairs):
        """The sum of the (exponents, coefficient) ``pairs``, added in order
        into one dict: a zero coefficient is skipped and an entry whose sum
        vanishes is dropped, so the same exponents later start a new entry
        at the end.  Every sum of terms is formed here."""
        terms = {}
        for e, c in pairs:
            if c:
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return cls._of(variables, terms)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(variables, c):
        variables = tuple(variables)
        c = as_cyclotomic(c)
        return MultiPoly._of(variables, {(0,) * len(variables): c} if c else {})

    @staticmethod
    def variable(variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return MultiPoly._of(variables, {exps: ONE})

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
        return MultiPoly._summed(self.variables, chain(self.terms.items(), other.terms.items()))

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
                return MultiPoly._of(self.variables, {})
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
        n = len(new_variables)
        pos = dict(zip(new_variables[::-1], range(n - 1, -1, -1)))  # first occurrence
        if not pos.keys() >= set(self.variables):
            raise ValueError("the new variables do not contain the old ones")
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
        if self.terms.keys() != other.terms.keys():
            return None
        return _ratio((x, other.terms[e]) for e, x in self.terms.items())

    # -- display ---------------------------------------------------------------

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            pass
        text = _sum_text([(*_coeff_text(c), "*".join(
            [f"{v}^{k}" if k > 1 else v for v, k in zip(self.variables, e) if k]))
            for e, c in sorted(self.terms.items(), reverse=True)])
        object.__setattr__(self, "_text", text)
        return text

    def __repr__(self):
        return f"MultiPoly({self.variables}, '{self}')"


def _coeff_text(c: CyclotomicNumber):
    """Render a nonzero coefficient for use as a factor; returns (negated,
    text).  A coefficient with more than one nonzero coordinate is
    parenthesized whole; otherwise its sign is pulled out."""
    if c.order == 1:
        num, den = c.coords[0], c.den
        return num < 0, str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    if len([x for x in c.coords if x]) > 1:
        return False, f"({c})"
    neg = min(c.coords) < 0
    return neg, str(-c if neg else c)


def _ratio(pairs):
    """The scalar c = a/b taken at the first pair (a, b) with a != 0; None
    when a pair has exactly one zero, when no pair has a != 0, or when
    a != c*b for some pair.  Both ``proportional_to`` methods decide here."""
    c = None
    for a, b in pairs:
        if bool(a) != bool(b):
            return None
        if a:
            if c is None:
                c = a / b
            elif a != c * b:
                return None
    return c


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
        if self.degree != other.degree:
            return None
        return _ratio(zip(self.coeffs, other.coeffs))

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
        coefficients (checked against the order cap); the image
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
            return BinaryForm._of(_substitute_terms(self.coeffs, entries))
        return BinaryForm._of([xs[deg - i] * ys[i] * f if f else _ZERO
                               for i, f in enumerate(fs)])

    # -- roots ----------------------------------------------------------------------

    def multiplicity_profile(self):
        """Sorted multiplicities of the roots in P^1 over the closure; its
        length is the number of distinct roots.

        The root at infinity (1:0) is read off the leading zero
        coefficients, the finite roots off Yun's square-free decomposition
        p = a_1 a_2^2 a_3^3 ... of the dehomogenization p (D. Y. Y. Yun,
        SYMSAC 1976): deg a_k roots have multiplicity k.  With g = gcd(p,
        p'), b_1 = p/g and c_1 = p'/g, step k takes d_k = c_k - b_k', a_k =
        gcd(b_k, d_k), b_(k+1) = b_k/a_k and c_(k+1) = d_k/a_k, until b_k is
        constant; d_k = 0 means a_k = b_k, so a square-free p costs one gcd.
        The steps run in the ring of :func:`_numerators`: over Q on an
        integer multiple of p, keeping the primitive part of each gcd, and
        otherwise on the field elements, making each gcd monic; every
        quotient is exact (:func:`_cp_quotient`).  Forms of degree above
        :data:`MAX_PROFILE_DEGREE` raise DegreeTooLargeError."""
        if self.degree > MAX_PROFILE_DEGREE:
            raise DegreeTooLargeError(
                f"degree {self.degree} exceeds the root-profile bound {MAX_PROFILE_DEGREE}")
        if not self:
            raise ZeroFormError("the zero form has no root profile")
        at_infinity = 0
        while not self.coeffs[at_infinity]:
            at_infinity += 1
        profile = [at_infinity] if at_infinity else []
        # f(t, 1) ascending in t, its leading zeros (the root at infinity) cut
        (_, p), = _numerators(self.coeffs[at_infinity:][::-1])
        if len(p) == 1:
            return tuple(profile)
        unit = _cp_primitive if type(p[0]) is int else _cp_monic
        dp = _cp_deriv(p)
        g = unit(_subresultants(p, dp)[0][-1])
        if len(g) == 1:  # square-free
            return tuple(sorted(profile + [1] * (len(p) - 1)))
        b, c, k = _cp_quotient(p, g), _cp_quotient(dp, g), 1
        while len(b) > 1:
            d = _cp_trim([x - y for x, y in zip(c, _cp_deriv(b))])
            if not d:  # a_k = b_k
                profile += [k] * (len(b) - 1)
                break
            a = unit(_subresultants(b, d)[0][-1])
            profile += [k] * (len(a) - 1)
            b, c, k = _cp_quotient(b, a), _cp_quotient(d, a), k + 1
        return tuple(sorted(profile))

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
    a scaling by 1.  Every product runs :func:`cyclotomic._mul_kernel`,
    the straight-line product of Q(zeta_k), taken once per pass."""
    if x == 1 == seed:
        return den, vecs
    n = len(vecs) - 1
    mul = _mul_kernel(k)
    X, D = x._vec(k), x.den
    table = [seed._vec(k)]
    for _ in range(n):
        table.append(mul(X, table[-1]))
    dn = 1  # D^(n-j) at entry j, D^n after entry 0
    if D != 1:
        for j in range(n - 1, -1, -1):
            dn *= D
            table[j] = [c * dn for c in table[j]]
    return den * seed.den * dn, [mul(t, v) if any(v) else v
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


def _substitute_terms(coeffs, entries):
    """Coefficients of f(a x + b y, c x + d y) for the coefficients f_i of
    f and a matrix that is not monomial, computed on integer coordinate
    vectors in Q(zeta_k), the field :func:`_to_int_coords` picks for the
    coefficients and the entries.

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
    table of integer vectors X^j D^(n-j) over D^n, built from a first entry
    of 1, or of a^deg in the last pass; ``cyclotomic._mul_kernel(k)``, the
    straight-line product of Q(zeta_k), builds the table and multiplies it
    into the coefficients.  Each shift replaces suffixes of the
    coefficients by their suffix sums, done as prefix sums
    (``itertools.accumulate``) over the reversed coordinate columns.  The
    vectors carry one common denominator, multiplied by that of the table
    at each scaling, and each image coefficient is made canonical once, at
    the end."""
    a, b, c, d = entries
    deg = len(coeffs) - 1
    k, den, vecs = _to_int_coords(coeffs, *(v.order for v in entries))
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


def _cp_quotient(a, b):
    """The quotient a / b of ascending lists, b dividing a exactly in the
    coefficient ring, by long division: each quotient coefficient is
    :func:`_exact_quotients` of a leading coefficient by lc(b), and a
    nonzero remainder raises ExactArithmeticError."""
    a, n = list(a), len(b) - 1
    q = []
    for i in range(len(a) - 1, n - 1, -1):
        x, = _exact_quotients([a[i]], b[-1])
        q.append(x)
        for j in range(n):
            a[i - n + j] -= x * b[j]
    if any(a[:n]):
        raise ExactArithmeticError("an exact division left a remainder")
    return q[::-1]


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
    them is zero (Nicolaides, *SIAM J. Numer. Anal.* 9, 1972).  Recursion on
    the first coordinate lists the points in lexicographic order."""
    if not n:
        return [()] if d >= 0 else []
    return [(i, *p) for i in range(d + 1) for p in principal_lattice(n - 1, d - i)]
