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
and leave as ``QQ`` through :meth:`CyclotomicNumber.rational_value`; ``str``
and ``hash`` build ``QQ`` values only for their output.  No arithmetic
runs on rational polynomials: Phi_m is built from integers, and the
inverse of a is the product of its other Galois conjugates over the
integer norm N(a).

Mixed-order arithmetic embeds both operands into Q(zeta_lcm).  Orders are
capped at 120 (the constant :data:`ORDER_CAP`) to keep phi(m) small.  A
stabilizer search builds zeta_2n only for the C_n and D_n candidates that
pass the support rule (n divides every difference of support indices), so
a form whose support allows an n past half the cap, such as x^62 + y^62,
still needs a field past it.  A value keeps the
order its computation produced, except that values whose non-constant
coordinates vanish are demoted to order 1: rationals are always order 1.
Bulk kernels (``BinaryForm.substitute``, ``invariants.transvectant`` and
``MultiPoly.evaluate``) read many values over one denominator with
:func:`_to_int_coords`, multiply with :func:`_mul_vec` and build each result
once with :func:`_raw`.  Over Q they work instead on plain integer
numerators over one denominator (:func:`_to_ints`), as do the
subresultant sequence behind ``invariants.resultant`` and the gcd chain.

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

from .errors import IncompatibleOrderError, OrderCapExceededError

_ZERO = QQ(0)

#: Largest permitted cyclotomic order, a constant: operations that would
#: need a bigger field raise OrderCapExceededError.
ORDER_CAP = 120


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    phi = 1
    n = m
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            phi *= p - 1
            n //= p
            while n % p == 0:
                phi *= p
                n //= p
    if n > 1:
        phi *= n - 1
    return phi


@lru_cache(maxsize=None)
def moebius(m: int) -> int:
    if m == 1:
        return 1
    result, n = 1, m
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of Phi_m, ascending: the product of
    (x^d - 1)^mu(m/d) over the divisors d of m.

    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if m < 1:
        raise ValueError("order must be positive")
    poly = [1]
    for d in range(1, m + 1):  # times x^d - 1: a shift and a subtract
        if m % d == 0 and moebius(m // d) == 1:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in range(1, m + 1):  # divide by x^d - 1, exactly
        if m % d == 0 and moebius(m // d) == -1:
            poly = [-c for c in poly[:-d]]
            for k in range(d, len(poly)):
                poly[k] += poly[k - d]
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


def _mul_vec(m: int, a, b):
    """Product of two reduced integer coordinate vectors, reduced again."""
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce(m, prod)


def _to_int_coords(values, m: int):
    """``(den, vecs)``: the values' coordinates in Q(zeta_m) over one
    positive common denominator; every value's order must divide m."""
    den = lcm(*(v.den for v in values))
    return den, [[c * (den // v.den) for c in v._vec(m)] for v in values]


def _to_ints(values):
    """``(den, nums)``: rational values as integer numerators over one
    positive common denominator."""
    den = lcm(*(v.den for v in values))
    return den, [v.coords[0] * (den // v.den) for v in values]


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

    __slots__ = ("order", "coords", "den", "_hash")

    def __new__(cls, order: int, coeffs):
        """sum coeffs[k] zeta_order^k, for rational coeffs of any length."""
        _check_order(order)
        qs = [QQ(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        return _raw(order, _reduce(order, [q.numerator * (den // q.denominator)
                                           for q in qs]), den)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return self.order == 1 and not self.coords[0]

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self):
        if self.order != 1:
            raise ValueError(f"{self} is not rational")
        return QQ(self.coords[0], self.den)

    def __bool__(self):
        return not self.is_zero()

    # -- field change --------------------------------------------------------

    def embed(self, order: int) -> "CyclotomicNumber":
        """The same number written in Q(zeta_order); requires self.order | order."""
        if order % self.order:
            raise IncompatibleOrderError(
                f"order {self.order} does not divide {order}")
        _check_order(order)
        if order == self.order:
            return self
        return _raw(order, self._vec(order), self.den)

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
        if self.order == 1 == other.order:
            # rationals: one numerator over the lcm denominator and one gcd,
            # which only needs to see gcd(da, db) when the denominators
            # differ (Knuth, TAOCP 4.5.1, as in fractions.Fraction); values
            # in lowest terms with different denominators never cancel to 0
            a, b = self.coords[0], sign * other.coords[0]
            if da == db:
                n = a + b
                g = gcd(n, da)
                return _new(1, (n // g,), da // g)
            g = gcd(da, db)
            if g == 1:
                return _new(1, (a * db + b * da,), da * db)
            s = da // g
            n = a * (db // g) + b * s
            h = gcd(n, g)
            return _new(1, (n // h,), s * (db // h))
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
        return as_cyclotomic(other) - self

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
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.order == 1:
            n = self.coords[0]
            return _new(1, (self.den if n > 0 else -self.den,), abs(n))
        # 1/a is the product of the other Galois conjugates sigma_k(a),
        # k coprime to m, over the norm N(a): an integer for integer coords,
        # and positive because the conjugates pair into |sigma_k(a)|^2
        m, coords = self.order, self.coords
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
        return as_cyclotomic(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return _power(self.inverse(), -n, ONE)
        return _power(self, n, ONE)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        try:
            other = as_cyclotomic(other)
        except (TypeError, ValueError):
            return NotImplemented
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
        # with different stored orders hash alike and a rational q as q.
        try:
            return self._hash
        except AttributeError:
            m, tr = self.order, _ZERO
            for k, c in enumerate(self.coords):
                if c:
                    d = m // gcd(m, k)
                    tr += QQ(c * moebius(d), euler_phi(d))
            _set_hash(self, hash(tr / self.den))
            return self._hash

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.order == 1:
            return str(self.rational_value())
        parts = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            q = QQ(abs(c), self.den)
            mono = "" if k == 0 else f"zeta({self.order})" + (f"^{k}" if k > 1 else "")
            if not mono:
                body = str(q)
            elif q == 1:
                body = mono
            else:
                body = f"{q}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"CyclotomicNumber('{self}')"


_object_new = object.__new__
_set_order = CyclotomicNumber.order.__set__
_set_coords = CyclotomicNumber.coords.__set__
_set_den = CyclotomicNumber.den.__set__
_set_hash = CyclotomicNumber._hash.__set__


def as_cyclotomic(x) -> CyclotomicNumber:
    """Coerce ints and rationals; pass CyclotomicNumber through."""
    if isinstance(x, CyclotomicNumber):
        return x
    if type(x) is int:
        return _new(1, (x,), 1)
    q = QQ(x)
    return _new(1, (q.numerator,), q.denominator)


@lru_cache(maxsize=None)
def zeta(m: int) -> CyclotomicNumber:
    """The primitive m-th root of unity zeta_m."""
    _check_order(m)
    return CyclotomicNumber(m, (0, 1))


ZERO = as_cyclotomic(0)
ONE = as_cyclotomic(1)


# Sugar constants.  Each is an exact algebraic identity in its field:
# i = zeta_4, sqrt(-3) = 1 + 2*zeta_3, sqrt(2) = zeta_8 + zeta_8^7,
# sqrt(5) = 1 + 2*zeta_5 + 2*zeta_5^4.

@lru_cache(maxsize=None)
def imag_unit() -> CyclotomicNumber:
    return zeta(4)


@lru_cache(maxsize=None)
def sqrt2() -> CyclotomicNumber:
    return zeta(8) + zeta(8) ** 7


@lru_cache(maxsize=None)
def sqrt5() -> CyclotomicNumber:
    return 1 + 2 * zeta(5) + 2 * zeta(5) ** 4


@lru_cache(maxsize=None)
def sqrt_minus3() -> CyclotomicNumber:
    return 1 + 2 * zeta(3)
