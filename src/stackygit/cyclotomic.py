"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A :class:`CyclotomicNumber` is stored as its coordinate vector in the power
basis ``{zeta_m^k : 0 <= k < phi(m)}``, fully reduced modulo the m-th
cyclotomic polynomial.  Because the power basis is a Q-basis, the reduced
representation is unique, so zero-testing and equality are coordinate-wise.
``zeta_m`` is the abstract primitive m-th root of unity with minimal
polynomial Phi_m; no floating-point embedding is ever used.

Mixed-order arithmetic embeds both operands into Q(zeta_lcm).  Orders are
capped (default 120, see :data:`ORDER_CAP`) to keep phi(m) small.  The
binary polyhedral groups T, O and I need only Q(zeta_5), Q(i), Q(zeta_8)
and Q(zeta_12), but the C_n and D_n candidates of a stabilizer search use
zeta_2n for every n up to the form's degree, so any order up to the cap
can occur.

Bulk kernels (such as ``BinaryForm.substitute``) work on integer
coordinate vectors over one common denominator: :func:`_to_int_coords`
converts, :func:`_mul_vec` multiplies and reduces modulo Phi_m (which is
monic over Z, so the reduction rows are integers), and
:func:`_from_int_coords` divides once and rebuilds canonical values.

Values whose non-constant coordinates vanish are demoted to order 1 on
construction, so plain rationals always have the canonical order-1 form.

>>> zeta(4) ** 2
CyclotomicNumber('-1')
>>> (zeta(8) + zeta(8) ** 7) ** 2
CyclotomicNumber('2')
>>> zeta(4) * zeta(3) == zeta(12) ** 7
True
"""

from __future__ import annotations

import itertools
from fractions import Fraction as QQ
from functools import lru_cache
from math import gcd, lcm

from .errors import IncompatibleOrderError, OrderCapExceededError

_ZERO = QQ(0)
_ONE = QQ(1)

#: Largest permitted cyclotomic order.  Mutable module setting; operations
#: that would need a bigger field raise OrderCapExceededError.
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


# -- dense rational polynomials (ascending coefficients) --------------------

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _divmod(a, b):
    # b must be nonzero; exact division in QQ[x]
    a = _trim(list(a))
    b = _trim(list(b))
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        if c:
            k = len(a) - len(b)
            q[k] = c
            for j, y in enumerate(b):
                a[k + j] -= c * y
        a.pop()
        _trim(a)
    return _trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, ascending, monic.

    >>> [int(c) for c in cyclotomic_polynomial(12)]
    [1, 0, -1, 0, 1]
    """
    if m < 1:
        raise ValueError("order must be positive")
    poly = [-_ONE] + [_ZERO] * (m - 1) + [_ONE]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _divmod(poly, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(poly)


def _xgcd(a, b):
    # extended gcd in QQ[x]; returns (g, s) with s*a = g modulo b
    r0, r1 = list(a), list(b)
    s0, s1 = [_ONE], []
    while _trim(r1):
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([x - y for x, y in
                            itertools.zip_longest(s0, _mul(q, s1), fillvalue=_ZERO)])
    return r0, s0


def _check_order(m: int):
    if m < 1:
        raise ValueError("order must be positive")
    if m > ORDER_CAP:
        raise OrderCapExceededError(
            f"cyclotomic order {m} exceeds the cap {ORDER_CAP}")


@lru_cache(maxsize=None)
def _power_reductions(m: int):
    """Reduced coordinates of zeta_m^k for k = phi(m) .. 2*phi(m) - 2.

    Phi_m is monic with integer coefficients, so the rows are integers.
    """
    phi = euler_phi(m)
    head = list(cyclotomic_polynomial(m))[:-1]
    rows = [tuple(-int(c) for c in head)]
    cur = list(rows[0])
    for _ in range(phi - 2):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * r for c, r in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return tuple(rows)


def _mul_vec(m: int, a, b):
    """Product of two reduced length-phi(m) vectors, reduced again.

    The coordinates may be QQ or plain ints; the result has their type.
    """
    phi = len(a)
    prod = [0 * a[0]] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    low = prod[:phi]
    if phi > 1:
        rows = _power_reductions(m)
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                row = rows[k - phi]
                for idx, r in enumerate(row):
                    if r:
                        low[idx] += c * r
    return low


def _to_int_coords(values, m: int):
    """``(den, vecs)``: the values as integer vectors in Q(zeta_m) over one
    positive common denominator; every value's order must divide m."""
    vecs = [v._vec(m) for v in values]
    den = lcm(*(int(c.denominator) for vec in vecs for c in vec))
    return den, [[int(c.numerator) * (den // int(c.denominator)) for c in vec]
                 for vec in vecs]


def _from_int_coords(m: int, den: int, vecs):
    """Inverse of :func:`_to_int_coords`: canonical values vec / den."""
    return [CyclotomicNumber._raw(m, [QQ(c, den) for c in vec]) for vec in vecs]


class CyclotomicNumber:
    """An element of Q(zeta_m), reduced modulo Phi_m.

    Instances are immutable and safe to share between threads.  Arithmetic
    accepts ints and rationals on either side.
    """

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs):
        _check_order(order)
        phi = euler_phi(order)
        vec = [QQ(c) for c in coeffs]
        if len(vec) >= phi + 1 or (len(vec) == phi and order == 1):
            _, vec = _divmod(vec, list(cyclotomic_polynomial(order)))
        vec += [_ZERO] * (phi - len(vec))
        if order > 1 and not any(vec[1:]):
            order, vec = 1, vec[:1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, (QQ(q),))

    @staticmethod
    def _raw(order: int, vec) -> "CyclotomicNumber":
        # Internal: vec is a reduced list of QQ of length phi(order).
        self = object.__new__(CyclotomicNumber)
        if order > 1 and not any(vec[1:]):
            order, vec = 1, vec[:1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "_hash", None)
        return self

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self):
        if self.order != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.order == 1 and self.coeffs[0].denominator == 1

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
        k = order // self.order
        vec = [_ZERO] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            vec[i * k] = c
        return CyclotomicNumber(order, vec)

    def _vec(self, order):
        # Raw coordinate vector in Q(zeta_order), padded to full length and
        # not canonicalized; for internal arithmetic only.
        k = order // self.order
        vec = [_ZERO] * euler_phi(order)
        if k == 1:
            vec[: len(self.coeffs)] = self.coeffs
            return vec
        tail = []
        for i, c in enumerate(self.coeffs):
            j = i * k
            if j < len(vec):
                vec[j] = c
            else:
                tail.extend([_ZERO] * (j - len(vec) - len(tail)) + [c])
        if tail:
            _, red = _divmod(vec + tail, list(cyclotomic_polynomial(order)))
            red += [_ZERO] * (len(vec) - len(red))
            return red
        return vec

    def _pair(self, other):
        other = as_cyclotomic(other)
        if other.order == self.order:
            return self.coeffs, other.coeffs, self.order
        m = self.order * other.order // gcd(self.order, other.order)
        _check_order(m)
        return self._vec(m), other._vec(m), m

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (CyclotomicNumber, int, QQ)):
            return NotImplemented
        a, b, m = self._pair(other)
        return CyclotomicNumber._raw(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (CyclotomicNumber, int, QQ)):
            return NotImplemented
        a, b, m = self._pair(other)
        return CyclotomicNumber._raw(m, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return as_cyclotomic(other) - self

    def __neg__(self):
        return CyclotomicNumber._raw(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, (CyclotomicNumber, int, QQ)):
            return NotImplemented
        other = as_cyclotomic(other)
        if other.order == 1:
            q = other.coeffs[0]
            if not q:
                return ZERO
            return CyclotomicNumber._raw(self.order, [c * q for c in self.coeffs])
        if self.order == 1:
            q = self.coeffs[0]
            if not q:
                return ZERO
            return CyclotomicNumber._raw(other.order, [c * q for c in other.coeffs])
        a, b, m = self._pair(other)
        return CyclotomicNumber._raw(m, _mul_vec(m, a, b))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.order == 1:
            return CyclotomicNumber(1, (1 / self.coeffs[0],))
        g, s = _xgcd(list(self.coeffs), list(cyclotomic_polynomial(self.order)))
        # g is a nonzero constant since Phi_m is irreducible over Q
        c = 1 / g[0]
        s = [x * c for x in s]
        s += [_ZERO] * (len(self.coeffs) - len(s))
        return CyclotomicNumber._raw(self.order, s)

    def __truediv__(self, other):
        if not isinstance(other, (CyclotomicNumber, int, QQ)):
            return NotImplemented
        return self * as_cyclotomic(other).inverse()

    def __rtruediv__(self, other):
        return as_cyclotomic(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        try:
            a, b, _ = self._pair(other)
        except (TypeError, ValueError):
            return NotImplemented
        return a == b

    def __hash__(self):
        # Hash on the normalized trace (1/phi(m)) * Tr(a), a rational that is
        # independent of the field the value is written in, so equal values
        # with different stored orders hash alike.
        if self._hash is None:
            m = self.order
            tr = _ZERO
            for k, c in enumerate(self.coeffs):
                if c:
                    d = m // gcd(m, k)
                    tr += c * moebius(d) / euler_phi(d)
            object.__setattr__(self, "_hash", hash(tr))
        return self._hash

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.order == 1:
            return _fmt_q(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "" if k == 0 else f"zeta({self.order})" + (f"^{k}" if k > 1 else "")
            if not mono:
                body = _fmt_q(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{_fmt_q(abs(c))}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"CyclotomicNumber('{self}')"


def _fmt_q(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def as_cyclotomic(x) -> CyclotomicNumber:
    """Coerce ints and rationals; pass CyclotomicNumber through."""
    if isinstance(x, CyclotomicNumber):
        return x
    return CyclotomicNumber.from_rational(QQ(x))


@lru_cache(maxsize=None)
def zeta(m: int) -> CyclotomicNumber:
    """The primitive m-th root of unity zeta_m."""
    _check_order(m)
    if m == 1:
        return CyclotomicNumber.from_rational(1)
    return CyclotomicNumber(m, (0, 1))


ZERO = CyclotomicNumber.from_rational(0)
ONE = CyclotomicNumber.from_rational(1)


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


# -- exact square roots of rationals ------------------------------------------

@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> CyclotomicNumber:
    """An exact square root of the prime p, via the quadratic Gauss sum."""
    if p == 2:
        return sqrt2()
    g = ZERO
    for k in range(1, p):
        chi = 1 if pow(k, (p - 1) // 2, p) == 1 else -1
        g = g + chi * zeta(p) ** k
    # g^2 = p for p = 1 mod 4 and -p for p = 3 mod 4
    return g if p % 4 == 1 else g / imag_unit()


def rational_sqrt(q):
    """An exact CyclotomicNumber square root of the rational q, or None.

    Square roots of rationals always live in some cyclotomic field; None is
    returned only when the needed order exceeds ORDER_CAP or a factor of q
    resists the (bounded) trial division.
    """
    q = QQ(q)
    if q == 0:
        return ZERO
    n = abs(int(q.numerator * q.denominator))
    outside, odd_primes = 1, []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            outside *= p ** (e // 2)
            if e % 2:
                odd_primes.append(p)
        p += 1 if p == 2 else 2
        if p > 1_000_003:
            return None
    if n > 1:
        odd_primes.append(n)
    try:
        root = as_cyclotomic(QQ(outside, abs(int(q.denominator))))
        for prime in odd_primes:
            root = root * _sqrt_prime(prime)
        if q < 0:
            root = root * imag_unit()
        return root
    except OrderCapExceededError:
        return None
