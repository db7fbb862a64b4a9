"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A :class:`CyclotomicNumber` of order m is ``(c_0 + c_1 zeta_m + ... +
c_{phi-1} zeta_m^{phi-1}) / den``, stored as the integer coordinates
``coords`` and one positive ``den`` with ``gcd(den, *coords) = 1`` (the
layout of FLINT/Antic's ``nf_elem``).  The coordinates are fully reduced
modulo the m-th cyclotomic polynomial Phi_m, which is monic over Z, so
reduction is integer arithmetic that leaves ``den`` alone.  The power basis
is a Z-basis of the integers of Q(zeta_m), so a value has one
representation per field and equality compares coordinates.  ``zeta_m`` is
the abstract primitive m-th root of unity; no floating-point embedding is
ever used.  Rationals enter as ints or ``QQ`` (:class:`fractions.Fraction`)
and nothing else: a float or a string raises TypeError, so no inexact
value reaches a decision, and neither compares equal to a value.
``hash`` and ``str`` of an irrational value build ``QQ`` values only for
their output, and a rational prints from its integers.  No arithmetic
runs on rational polynomials: Phi_m is built from integers, and the
inverse of a is the product of its other Galois conjugates over the
integer norm N(a).

Mixed-order arithmetic embeds both operands into Q(zeta_lcm), except that
values of different coprime orders are unequal at once.  Orders are
capped at 120 (the constant :data:`ORDER_CAP`) to keep phi(m) small.  A
stabilizer search builds zeta_2n only for the C_n and D_n candidates that
pass the support rule (n divides every difference of support indices), so
a form whose support allows an n past half the cap, such as x^62 + y^62,
still needs a field past it.  A value keeps the
order its computation produced, except that values whose non-constant
coordinates vanish are demoted to order 1: rationals are always order 1.
The substitution kernel (``BinaryForm.substitute`` at a matrix that is
not monomial) reads a form's coefficients over one denominator with
:func:`_to_int_coords`, which picks the field and checks it against the
cap, multiplies by the powers of each scalar as integer vectors with
:func:`_mul_kernel`, a straight-line product compiled once per field, and
builds each result once with :func:`_raw`.  Value arithmetic
(``CyclotomicNumber.__mul__`` and ``inverse``) keeps the generic
:func:`_mul_vec`: it meets many fields for a few products each, where
compiling a kernel per field would cost more than it saves, while one
substitution runs at least 2 deg products in one field.  The
inverse of a root of unity times a rational, c zeta_m^j, is
(1/c) zeta_m^(m-j), found from its coordinates without a conjugate
product.  The closure of ``groups.group_elements`` runs on values in one
field: it writes the generators' entries there once with
:func:`_to_int_coords` and :func:`_raw`.  The other bulk kernels
(the products of ``MultiPoly`` and ``BinaryForm``, ``MultiPoly.evaluate``,
the transvectant kernel ``invariants._transvectant``, the list resultant
``polynomials.resultant`` and the square-free decomposition) have one
body over their coefficient ring, which :func:`_numerators` picks: plain int numerators
over one denominator when every coefficient is rational, the values
themselves otherwise; :func:`_over` divides back.  :func:`_convolve` is
the one dense product body, behind :func:`_mul_vec`, ``BinaryForm.__mul__``
and the covariant products of ``invariants``.  Addition has one body for
every order, rationals included: the coordinates over the lcm of the two
denominators, made canonical by :func:`_raw`.  The sugar constants
IMAG_UNIT, SQRT2, SQRT5 and SQRT_MINUS3 are module values beside ZERO and ONE.

>>> zeta(4) ** 2
CyclotomicNumber('-1')
>>> (zeta(8) + zeta(8) ** 7) ** 2
CyclotomicNumber('2')
>>> zeta(4) * zeta(3) == zeta(12) ** 7
True
"""

from __future__ import annotations

from fractions import Fraction as QQ
from functools import lru_cache
from math import gcd, lcm

from .errors import OrderCapExceededError

#: Largest permitted cyclotomic order, a constant: operations that would
#: need a bigger field raise OrderCapExceededError.
ORDER_CAP = 120


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """phi(m), the degree of Phi_m."""
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of Phi_m, ascending: x^m - 1 divided exactly by
    Phi_d for each proper divisor d of m, by monic long division.  Its
    length is phi(m) + 1 (:func:`euler_phi`), and its coefficient of
    x^(phi(m) - 1) is -mu(m), minus the sum of the primitive m-th roots of
    unity.

    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            divisor = cyclotomic_polynomial(d)
            k = len(divisor) - 1
            quotient = [0] * (len(poly) - k)
            for i in reversed(range(len(quotient))):
                q = quotient[i] = poly[i + k]
                if q:
                    for j, c in enumerate(divisor):
                        poly[i + j] -= q * c
            poly = quotient
    return tuple(poly)


def _check_order(m: int):
    if m < 1:
        raise ValueError("order must be positive")
    if m > ORDER_CAP:
        raise OrderCapExceededError(
            f"cyclotomic order {m} exceeds the cap {ORDER_CAP}")


# -- integer coordinate vectors ------------------------------------------------

@lru_cache(maxsize=None)
def _power_rows(m: int):
    """Reduced integer coordinates of zeta_m^k for k = phi(m) .. m - 1, each
    as the ``(index, c)`` pairs of its nonzero entries (Phi_m is monic)."""
    phi = euler_phi(m)
    cur = [0] * (phi - 1) + [1]  # zeta_m^(phi - 1)
    head = [-c for c in cyclotomic_polynomial(m)[:-1]]
    rows = []
    for _ in range(phi, m):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * r for c, r in zip(cur, head)]
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
    return tuple(rows)


@lru_cache(maxsize=None)
def _root_powers(m: int) -> dict:
    """The map from the reduced coordinates of +-zeta_m^j, j = phi(m) ..
    m - 1 (the rows of :func:`_power_rows`), as tuples, to (j, +-1)."""
    return {tuple([s * c for c in _reduce(m, [0] * j + [1])]): (j, s)
            for j in range(euler_phi(m), m) for s in (1, -1)}


@lru_cache(maxsize=None)
def _traces(m: int) -> tuple:
    """The integers Tr(zeta_m^k) = mu(d) phi(m) / phi(d), d = m / gcd(m, k), k < phi(m)."""
    phi = euler_phi(m)
    return tuple(-cyclotomic_polynomial(d)[-2] * (phi // euler_phi(d))
                 for d in (m // gcd(m, k) for k in range(phi)))


def _reduce(m: int, vec):
    """The integer list ``vec`` of any length, reduced in place modulo Phi_m
    to length phi(m): zeta_m^m = 1 folds the powers past m - 1, and
    zeta_m^phi .. zeta_m^(m-1) are replaced by their reductions."""
    phi = euler_phi(m)
    for k in range(m, len(vec)):
        vec[k % m] += vec[k]
    if len(vec) > phi:
        for c, row in zip(vec[phi:m], _power_rows(m)):
            if c:
                for i, r in row:
                    vec[i] += c * r
        del vec[phi:]
    else:
        vec += [0] * (phi - len(vec))
    return vec


def _convolve(a, b):
    """The coefficient list of the product of two polynomials given by the
    coefficient lists ``a`` and ``b``, all ints or all CyclotomicNumbers;
    zero entries are skipped, so a sum that no product reaches stays the
    int 0."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _mul_vec(m: int, a, b):
    """Product of two reduced integer coordinate vectors, reduced again."""
    return _reduce(m, _convolve(a, b))


@lru_cache(maxsize=None)
def _mul_kernel(m: int):
    """``mul(a, b)``: the product of two reduced integer coordinate vectors
    in Q(zeta_m) as one straight-line function, equal to :func:`_mul_vec`.

    Its source unpacks the phi(m) coordinates of each operand, forms the
    2 phi - 1 convolution sums s_t, and returns coordinate i as s_i plus
    the integer-weighted s_t, t >= phi, that the reduction of zeta_m^t
    (``_reduce(m, [0]*t + [1])``) sends there.  It is compiled once per m
    with ``exec`` into a namespace with no builtins, as
    ``collections.namedtuple`` compiles its classes; only integers derived
    from Phi_m enter the source, and m past :data:`ORDER_CAP` raises
    OrderCapExceededError before any is built."""
    _check_order(m)
    phi = euler_phi(m)

    def conv(t):  # the convolution sum s_t
        return " + ".join(f"a{i}*b{t - i}" for i in range(max(0, t - phi + 1), min(t + 1, phi)))

    outs = [[conv(i)] for i in range(phi)]
    lines = ["def mul(a, b):",
             "    " + "".join(f"a{i}, " for i in range(phi)) + "= a",
             "    " + "".join(f"b{i}, " for i in range(phi)) + "= b"]
    for t in range(phi, 2 * phi - 1):
        lines.append(f"    s{t} = {conv(t)}")
        for out, w in zip(outs, _reduce(m, [0] * t + [1])):
            if w:
                weight = "" if abs(w) == 1 else f"{abs(w)}*"
                out.append(f"{'+' if w > 0 else '-'} {weight}s{t}")
    lines.append("    return [" + ", ".join(" ".join(out) for out in outs) + "]")
    namespace = {"__builtins__": {}}
    exec("\n".join(lines), namespace)
    return namespace["mul"]


def _to_int_coords(values, *orders):
    """``(m, den, vecs)``: the values' coordinates in Q(zeta_m), m the lcm
    of their orders and ``orders`` (past :data:`ORDER_CAP`,
    OrderCapExceededError), over one positive common denominator den."""
    m = lcm(*(v.order for v in values), *orders)
    _check_order(m)
    den = lcm(*(v.den for v in values))
    return m, den, [[c * (den // v.den) for c in v._vec(m)] for v in values]


def _numerators(*lists):
    """One ``(den, nums)`` pair per list of values, choosing the ring the
    bulk kernels run in.  When every value in every list is rational, nums
    are int numerators over the list's positive common denominator den;
    otherwise they are the values themselves over 1.  :func:`_over` turns
    a result back into a value."""
    pairs = []
    for vs in lists:
        dens = [v.den for v in vs if v.order == 1]
        if len(dens) < len(vs):
            return [(1, list(ws)) for ws in lists]
        den = lcm(*dens)
        pairs.append((den, [v.coords[0] * (den // v.den) for v in vs]))
    return pairs


def _over(n, den: int) -> "CyclotomicNumber":
    """The canonical value n / den for an int or a CyclotomicNumber n and
    a positive int den."""
    if type(n) is int:
        g = gcd(n, den)
        return _new(1, (n // g,), den // g)
    return n if den == 1 else n._scale(1, den)


def _power(base, n: int, one):
    """``base ** n`` for an int n >= 0 by square-and-multiply, starting from
    the unit ``one``; the one powering loop behind every ``__pow__``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _sum_text(terms) -> str:
    """The signed sum of the (negative, coefficient, monomial) texts of its
    terms: a coefficient 1 is left out before a monomial, the terms are
    joined by ' + ' and ' - ', and a '-' is written only at the start; '0'
    for no terms.  ``str`` of values and of ``MultiPoly`` print through it."""
    text = " ".join([("- " if neg else "+ ")
                     + (coeff if not mono else mono if coeff == "1" else f"{coeff}*{mono}")
                     for neg, coeff, mono in terms])
    return "-" + text[2:] if text[:1] == "-" else text[2:] or "0"


def _new(order: int, coords: tuple, den: int) -> "CyclotomicNumber":
    # coords / den must already be canonical (reduced, demoted, coprime).
    self = _object_new(CyclotomicNumber)
    _set_order(self, order)
    _set_coords(self, coords)
    _set_den(self, den)
    return self


def _raw(order: int, vec, den: int = 1) -> "CyclotomicNumber":
    """The value vec / den for a reduced integer vector of length
    phi(order) and a positive den, made canonical."""
    if order > 1 and not any(vec[1:]):
        order, vec = 1, vec[:1]
    if den != 1:
        g = gcd(den, *vec)
        if g != 1:
            vec = [c // g for c in vec]
            den //= g
    return _new(order, tuple(vec), den)


class CyclotomicNumber:
    """An element of Q(zeta_m): integer coordinates over one denominator.

    Instances are immutable and safe to share between threads.  Arithmetic
    accepts ints and rationals on either side.
    """

    __slots__ = ("order", "coords", "den")

    def __new__(cls, order: int, coeffs):
        """sum coeffs[k] zeta_order^k, for rational coeffs of any length."""
        _check_order(order)
        qs = [_rational(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        return _raw(order, _reduce(order, [q.numerator * (den // q.denominator)
                                           for q in qs]), den)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- predicates and conversions -----------------------------------------

    def __bool__(self):
        return self.order != 1 or self.coords[0] != 0

    def _vec(self, order):
        # Coordinates in Q(zeta_order) over self.den, as a new list; not
        # demoted.  For internal arithmetic only.
        k = order // self.order
        if k == 1:
            return list(self.coords)
        vec = [0] * ((len(self.coords) - 1) * k + 1)
        vec[::k] = self.coords
        return _reduce(order, vec)

    def _pair(self, other):
        if other.order == self.order:
            return self.order, self.coords, other.coords
        m = self.order * other.order // gcd(self.order, other.order)
        _check_order(m)
        return m, self._vec(m), other._vec(m)

    def _scale(self, n: int, d: int):
        # self * n / d for coprime ints n and d > 0, cancelling crosswise
        if not n:
            return ZERO
        coords, den = self.coords, self.den
        g, h = gcd(n, den), gcd(d, *coords)
        if g != 1:
            n, den = n // g, den // g
        if h != 1:
            d, coords = d // h, [c // h for c in coords]
        return _new(self.order, tuple([c * n for c in coords]), den * d)

    # -- arithmetic ----------------------------------------------------------

    def _add(self, other, sign):
        # self + sign * other over the common denominator lcm(den, other.den)
        if not isinstance(other, CyclotomicNumber):
            if not isinstance(other, (int, QQ)):
                return NotImplemented
            other = as_cyclotomic(other)
        da, db = self.den, other.den
        if not other:  # x +- 0 and 0 +- y need no embedding into the lcm field
            return self
        if not self:
            return other if sign == 1 else -other
        m, a, b = self._pair(other)
        if da == db:
            return _raw(m, [x + sign * y for x, y in zip(a, b)], da)
        g = gcd(da, db)
        s, t = db // g, da // g * sign
        return _raw(m, [x * s + y * t for x, y in zip(a, b)], da * s)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __neg__(self):
        return _new(self.order, tuple(-c for c in self.coords), self.den)

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            if not isinstance(other, (int, QQ)):
                return NotImplemented
            other = as_cyclotomic(other)
        if other.order == 1:
            return self._scale(other.coords[0], other.den)
        if self.order == 1:
            return other._scale(self.coords[0], self.den)
        m, a, b = self._pair(other)
        return _raw(m, _mul_vec(m, a, b), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if not self:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.order == 1:
            n = self.coords[0]
            return _new(1, (self.den if n > 0 else -self.den,), abs(n))
        m, coords = self.order, self.coords
        (j, c), *rest = [(j, c) for j, c in enumerate(coords) if c]
        if rest:  # (c / den) zeta_m^j for a j >= phi(m) and c = +-gcd(coords)?
            g = gcd(*coords)
            j, s = _root_powers(m).get(tuple([x // g for x in coords]), (None, 0))
            c = s * g
        if j is not None:  # (c / den) zeta_m^j inverts to (den / c) zeta_m^(m-j)
            vec = [0] * (m - j) + [self.den if c > 0 else -self.den]
            return _raw(m, _reduce(m, vec), abs(c))
        # 1/a is the product of the other Galois conjugates sigma_k(a),
        # k coprime to m, over the norm N(a): an integer for integer coords,
        # and positive because the conjugates pair into |sigma_k(a)|^2
        prod = [1] + [0] * (len(coords) - 1)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = [0] * m
                for j, c in enumerate(coords):
                    conj[j * k % m] = c
                prod = _mul_vec(m, prod, _reduce(m, conj))
        norm = _mul_vec(m, coords, prod)[0]
        return _raw(m, [self.den * c for c in prod], norm)

    def __truediv__(self, other):
        if not isinstance(other, (CyclotomicNumber, int, QQ)):
            return NotImplemented
        return self * as_cyclotomic(other).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, QQ)):
            return NotImplemented
        return as_cyclotomic(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return _power(self.inverse(), -n, ONE)
        if self.order == 1:  # coprime num and den > 0 stay so
            return _new(1, (self.coords[0] ** n,), self.den ** n)
        return _power(self, n, ONE)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        try:
            other = as_cyclotomic(other)
        except TypeError:
            return NotImplemented
        if self.order != other.order and gcd(self.order, other.order) == 1:
            # Q(zeta_m) and Q(zeta_n) meet in Q for coprime m and n, and
            # every rational is stored at order 1
            return False
        try:
            _, a, b = self._pair(other)
        except OrderCapExceededError:
            # The hash is the field-independent normalized trace, so unequal
            # hashes prove the values differ; equal ones decide nothing.
            if hash(self) != hash(other):
                return False
            raise
        return self.den == other.den and a == b

    def __hash__(self):
        # Hash on the normalized trace (1/phi(m)) * Tr(a), a rational that is
        # independent of the field the value is written in, so equal values
        # with different stored orders hash alike and a rational q as q.  It
        # is one integer, sum c_k Tr(zeta_m^k) (:func:`_traces`), over
        # phi(m) * den; mu(d) in Tr(zeta_m^k) is read off as -Phi_d[-2].
        tr = sum([c * t for c, t in zip(self.coords, _traces(self.order))])
        return hash(QQ(tr, euler_phi(self.order) * self.den))

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.order == 1:
            return str(self.coords[0]) if self.den == 1 else f"{self.coords[0]}/{self.den}"
        z = f"zeta({self.order})"
        return _sum_text([(c < 0, str(QQ(abs(c), self.den)),
                           f"{z}^{k}" if k > 1 else z if k else "")
                          for k, c in enumerate(self.coords) if c])

    def __repr__(self):
        return f"CyclotomicNumber('{self}')"


_object_new = object.__new__
_set_order = CyclotomicNumber.order.__set__
_set_coords = CyclotomicNumber.coords.__set__
_set_den = CyclotomicNumber.den.__set__


def _rational(x) -> QQ:
    """An int or a QQ as a QQ; any other type raises TypeError."""
    if isinstance(x, (int, QQ)):
        return QQ(x)
    raise TypeError(f"not an exact number: {x!r}")


def as_cyclotomic(x) -> CyclotomicNumber:
    """Coerce ints and rationals; pass CyclotomicNumber through.  Any other
    type raises TypeError."""
    if isinstance(x, CyclotomicNumber):
        return x
    if type(x) is int:
        return _new(1, (x,), 1)
    q = _rational(x)
    return _new(1, (q.numerator,), q.denominator)


@lru_cache(maxsize=None)
def zeta(m: int) -> CyclotomicNumber:
    """The primitive m-th root of unity zeta_m."""
    return CyclotomicNumber(m, (0, 1))


ZERO = as_cyclotomic(0)
ONE = as_cyclotomic(1)


# Sugar constants.  Each is an exact algebraic identity in its field:
# i = zeta_4, sqrt(-3) = 1 + 2*zeta_3, sqrt(2) = zeta_8 + zeta_8^7,
# sqrt(5) = 1 + 2*zeta_5 + 2*zeta_5^4.
IMAG_UNIT = zeta(4)
SQRT2 = zeta(8) + zeta(8) ** 7
SQRT5 = 1 + 2 * zeta(5) + 2 * zeta(5) ** 4
SQRT_MINUS3 = 1 + 2 * zeta(3)
