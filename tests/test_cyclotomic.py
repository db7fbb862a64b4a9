import operator
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackygit.cyclotomic import (
    ONE,
    ORDER_CAP,
    QQ,
    ZERO,
    CyclotomicNumber,
    as_cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    imag_unit,
    sqrt2,
    sqrt5,
    sqrt_minus3,
    _numerators,
    _over,
    _power,
    zeta,
)
from stackygit.errors import OrderCapExceededError

ORDERS = [1, 3, 4, 5, 8, 12, 20, 24]


def random_value(rng, order):
    return CyclotomicNumber(
        order,
        [QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(order))],
    )


def _mu(m):
    """Reference Moebius function by trial division."""
    result, p = 1, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return result


def test_phi_and_moebius():
    # phi(m) is the degree of Phi_m and -mu(m) its coefficient of x^(phi - 1)
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 12, 40)] == [1, 1, 2, 2, 4, 4, 16]
    assert [-cyclotomic_polynomial(m)[-2] for m in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]


def test_cyclotomic_polynomials_match_the_moebius_product():
    # Phi_m = prod over d | m of (x^d - 1)^mu(m/d), up to m = 240
    for m in range(1, 241):
        poly = [1]
        for d in range(1, m + 1):
            if m % d == 0 and _mu(m // d) == 1:
                poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
        for d in range(1, m + 1):
            if m % d == 0 and _mu(m // d) == -1:  # divide by x^d - 1
                poly = [-c for c in poly[:-d]]
                for k in range(d, len(poly)):
                    poly[k] += poly[k - d]
        assert cyclotomic_polynomial(m) == tuple(poly), m
        assert -cyclotomic_polynomial(m)[-2] == _mu(m), m
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic_polynomial(105)) == -2 == cyclotomic_polynomial(105)[7]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # x^m - 1 is the product of Phi_d over the divisors d of m
    for m in range(1, ORDER_CAP + 1):
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi_d = cyclotomic_polynomial(d)
                assert all(type(c) is int for c in phi_d)
                assert len(phi_d) == euler_phi(d) + 1 and phi_d[-1] == 1
                out = [0] * (len(product) + len(phi_d) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (m - 1) + [1]


def test_make_reduces_canonically():
    # zeta_4 squared is -1
    assert CyclotomicNumber(4, (0, 1)) ** 2 == -1
    # (1 + 2*zeta_3)^2 = -3, forced by Phi_3 = x^2 + x + 1
    assert CyclotomicNumber(3, (1, 2)) ** 2 == -3
    # (zeta_8 + zeta_8^-1)^2 = 2
    v = CyclotomicNumber(8, (0, 1, 0, 0))
    assert (v + v ** 7) ** 2 == 2


def test_sugar_constants():
    assert imag_unit() ** 2 == -1
    assert sqrt2() ** 2 == 2
    assert sqrt5() ** 2 == 5
    assert sqrt_minus3() ** 2 == -3


def test_mixed_order_product():
    # embed via zeta_4 = zeta_12^3, zeta_3 = zeta_12^4, multiply
    assert zeta(4) * zeta(3) == zeta(12) ** 7


def test_self_division_is_one():
    rng = random.Random(5)
    for _ in range(20):
        a = random_value(rng, rng.choice(ORDERS))
        if a:
            q = a / a
            assert q == 1 and q.order == 1


def test_phi5_relation():
    assert sum((zeta(5) ** k for k in range(5)), as_cyclotomic(0)) == 0


def test_field_axioms_on_random_samples():
    rng = random.Random(7)
    for _ in range(500):
        x = random_value(rng, rng.choice(ORDERS))
        y = random_value(rng, rng.choice(ORDERS))
        z = random_value(rng, rng.choice(ORDERS))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == 1


def test_inverse_in_large_fields():
    for m in range(2, ORDER_CAP + 1):
        assert zeta(m) ** -1 == zeta(m) ** (m - 1)
        # c zeta_m^j for every j < m up to m = 60, past that every monomial
        # of the power basis (j < phi(m)), which inverts in one step
        for j in range(m if m <= 60 else euler_phi(m)):
            c = QQ(-3, 7) if j % 2 else QQ(5 * j + 1, 4)
            x = CyclotomicNumber(m, [0] * j + [c])
            inv = x.inverse()
            assert x * inv == 1, (m, j)
            assert inv == CyclotomicNumber(m, [0] * (m - j) + [1 / c]), (m, j)
    rng = random.Random(53)
    for m in (53, 113):
        # dense elements with 6-bit numerators over a common denominator
        x = CyclotomicNumber(
            m, [QQ(rng.randint(-32, 31), 7) for _ in range(euler_phi(m))])
        inv = x.inverse()
        assert inv.order == m
        assert x * inv == 1


def test_canonical_equality_and_hash():
    # same value stored at different orders compares and hashes equal
    a = zeta(3)
    b = zeta(12) ** 4
    assert b.order == 12
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # rationals demote to the order-1 canonical form
    r = (zeta(5) + 1) - zeta(5)
    assert r.order == 1 and r == 1


def _fraction_trace_hash(value):
    """The hash of the normalized trace (1/phi(m)) Tr(a), summed one
    Fraction per coordinate: Tr(zeta_m^k) / phi(m) = mu(d) / phi(d) for
    d = m / gcd(m, k)."""
    m, tr = value.order, QQ(0)
    for k, c in enumerate(value.coords):
        if c:
            d = m // gcd(m, k)
            tr += QQ(c * _mu(d), euler_phi(d))
    return hash(tr / value.den)


def test_hash_of_every_root_of_unity_is_the_fraction_trace():
    for m in range(1, ORDER_CAP + 1):
        for k in range(m):
            z = CyclotomicNumber(m, [0] * k + [1])
            assert hash(z) == _fraction_trace_hash(z), (m, k)
            assert hash(z / 3) == _fraction_trace_hash(z / 3), (m, k)


def test_zero_is_canonical():
    z = zeta(8) - zeta(8)
    assert z.coords == (0,) and z.order == 1 and not z


@pytest.mark.parametrize("bad", ["1", "1/3", 1.0, 0.1, 2.5, None, 1j])
def test_only_exact_types_are_numbers(bad):
    # ints, rationals and values coerce; anything else is refused, so no
    # float reaches a decision and == agrees with the hash
    with pytest.raises(TypeError, match="not an exact number"):
        as_cyclotomic(bad)
    with pytest.raises(TypeError, match="not an exact number"):
        CyclotomicNumber(4, (1, bad))
    assert not ONE == bad and ONE != bad
    assert not zeta(4) == bad
    assert {ONE: 1}.get(bad) is None


@pytest.mark.parametrize("bad", [None, "", 0.0, []])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_falsy_foreign_operands_are_refused(bad, op):
    # the zero shortcut of + and - runs after coercion, so a falsy operand
    # that is not a number is still refused on either side
    for value in (ONE, ZERO, zeta(5)):
        with pytest.raises(TypeError):
            op(value, bad)
        with pytest.raises(TypeError):
            op(bad, value)


def test_reflected_operators_refuse_foreign_operands():
    # __rsub__ and __rtruediv__ return NotImplemented for a foreign left
    # operand, as the other operators do, so Python raises its own error
    with pytest.raises(TypeError, match="unsupported operand type.*for -"):
        "1" - ONE
    with pytest.raises(TypeError, match="unsupported operand type.*for /"):
        "1" / ONE
    assert 6 - ONE == 5 and 6 / (ONE + ONE) == 3
    assert QQ(1, 2) - ONE == QQ(-1, 2) and QQ(1, 2) / zeta(4) == -zeta(4) / 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zeta(3) / (zeta(5) - zeta(5))


def test_order_cap():
    with pytest.raises(OrderCapExceededError):
        zeta(121)
    with pytest.raises(OrderCapExceededError):
        zeta(16) * zeta(9)  # lcm 144 > 120
    # past the cap, unequal normalized traces still prove inequality
    assert zeta(44) != zeta(24) + 1  # lcm 264
    # equal traces decide nothing: both normalized traces are 0
    assert hash(zeta(44)) == hash(zeta(24))
    with pytest.raises(OrderCapExceededError):
        zeta(44) == zeta(24)
    # coprime orders decide without the lcm field, since Q(zeta_11) and
    # Q(zeta_13) meet in Q: Tr(zeta_13 - 1/60) / 12 = -1/10 as for zeta_11
    other = zeta(13) - QQ(1, 60)
    assert hash(other) == hash(zeta(11))
    assert zeta(11) != other and zeta(11) != zeta(13)  # lcm 143


def test_str_roundtrip_values():
    assert str(as_cyclotomic(QQ(-3, 2))) == "-3/2"
    assert str(zeta(12) ** 7) == "-zeta(12)"
    assert str(1 + 2 * zeta(3)) == "1 + 2*zeta(3)"


# -- differential test against Fraction coordinate polynomials ----------------


def _ref_reduce(poly, m):
    """A Fraction coefficient list (ascending) reduced modulo Phi_m."""
    phi_m = cyclotomic_polynomial(m)
    phi = len(phi_m) - 1
    poly = list(poly) + [QQ(0)] * phi
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for j, p in enumerate(phi_m):
                poly[k - phi + j] -= c * p
    return poly[:phi]


def _ref_embed(vec, m, big):
    spread = [QQ(0)] * ((len(vec) - 1) * (big // m) + 1)
    spread[::big // m] = vec
    return _ref_reduce(spread, big)


def _ref_mul(u, v, m):
    prod = [QQ(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] += x * y
    return _ref_reduce(prod, m)


def _ref_str(m, vec):
    if m == 1:
        return str(vec[0])
    parts = []
    for k, c in enumerate(vec):
        if c:
            mono = "" if k == 0 else f"zeta({m})" + (f"^{k}" if k > 1 else "")
            body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _agrees(value, m, vec):
    """value is vec in Q(zeta_m), demoted to order 1 when rational."""
    if not any(vec[1:]):
        m, vec = 1, vec[:1]
    assert value.order == m
    assert value.den > 0 and gcd(value.den, *value.coords) == 1
    assert [QQ(c, value.den) for c in value.coords] == vec
    assert str(value) == _ref_str(m, vec)


@st.composite
def _elements(draw):
    """(m, Fraction coordinates), with m = 1 for rationals."""
    m = draw(st.sampled_from(ORDERS))
    numerators = st.integers(-3, 3) | st.integers(-10 ** 20, 10 ** 20)
    coeff = st.builds(QQ, numerators, st.integers(1, 12))
    vec = draw(st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m)))
    if draw(st.integers(0, 4)) == 0 or not any(vec[1:]):
        m, vec = 1, vec[:1]
    return m, vec


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(_elements(), _elements(), st.sampled_from([1, 2, 3, 5]))
def test_agrees_with_fraction_reference(x, y, k):
    (m, u), (n, v) = x, y
    a, b = CyclotomicNumber(m, u), CyclotomicNumber(n, v)
    _agrees(a, m, u)
    _agrees(b, n, v)
    big = lcm(m, n)
    ua, vb = _ref_embed(u, m, big), _ref_embed(v, n, big)
    _agrees(a + b, big, [s + t for s, t in zip(ua, vb)])
    _agrees(a - b, big, [s - t for s, t in zip(ua, vb)])
    _agrees(a * b, big, _ref_mul(ua, vb, big))
    assert (a == b) == (ua == vb)
    for value in (a, b, a + b, a * b):
        assert hash(value) == _fraction_trace_hash(value)
    # an irrational value plus or minus zero takes the shortcut of _add;
    # every result keeps the reference's canonical (order, coords, den)
    for zero in (0, QQ(0), zeta(5) - zeta(5)):
        _agrees(a + zero, m, u)
        _agrees(zero + a, m, u)
        _agrees(a - zero, m, u)
        _agrees(zero - a, m, [-c for c in u])
    _agrees(sum([a, b, a]), big, [2 * s + t for s, t in zip(ua, vb)])
    if a:
        inv = a.inverse()
        w = _ref_embed([QQ(c, inv.den) for c in inv.coords], inv.order, m)
        _agrees(inv, m, w)
        assert _ref_mul(u, w, m) == _ref_embed([QQ(1)], 1, m)
    wide = CyclotomicNumber(m * k, _ref_embed(u, m, m * k))
    _agrees(wide, m * k, _ref_embed(u, m, m * k))
    assert wide == a and hash(wide) == hash(a)
    if m == 1:
        assert hash(a) == hash(u[0])


@pytest.mark.parametrize("q", [
    0, 1, -1, 2, QQ(-3, 4), QQ(7, 12), QQ(2 ** 70 + 1, 3 ** 44)])
def test_rational_power_matches_square_and_multiply(q):
    c = as_cyclotomic(q)
    for n in range(21):
        power, reference = c ** n, _power(c, n, ONE)
        assert (power.order, power.coords, power.den) == (
            reference.order, reference.coords, reference.den)
    assert as_cyclotomic(0) ** 0 == 1


def test_negative_rational_power_inverts():
    c = as_cyclotomic(QQ(-3, 4))
    assert c ** -3 == _power(c.inverse(), 3, ONE) == QQ(-64, 27)
    with pytest.raises(ZeroDivisionError):
        as_cyclotomic(0) ** -1


def _layout(c):
    return (c.order, c.coords, c.den)


_BIG = 2 ** 70


@pytest.mark.parametrize("p, q", [
    # equal denominators, with and without a common factor in the sum
    (QQ(1, 6), QQ(5, 6)), (QQ(1, 4), QQ(1, 4)), (QQ(-3, 8), QQ(7, 8)), (2, 5),
    # coprime denominators
    (QQ(1, 3), QQ(1, 5)), (QQ(-2, 7), QQ(3, 4)), (3, QQ(-1, 9)),
    # denominators that share a factor
    (QQ(1, 6), QQ(1, 10)), (QQ(5, 12), QQ(1, 18)), (QQ(1, 6), QQ(1, 3)), (QQ(7, 30), QQ(4, 45)),
    # sums that cancel to 0, and zero operands
    (QQ(3, 7), QQ(-3, 7)), (QQ(-5, 4), QQ(5, 4)), (-2, 2), (0, 0), (QQ(1, 2), 0),
    # numerators near 2**70
    (QQ(_BIG + 1, 3), QQ(_BIG - 1, 6)), (QQ(_BIG - 3, 3 ** 5), QQ(-_BIG - 1, 3 ** 4 * 5)),
    (QQ(-_BIG, 7), QQ(_BIG, 7)), (_BIG + 1, QQ(1, _BIG - 1)),
])
def test_rational_addition_matches_fraction(p, q):
    # rationals run the one addition body of every order; each sum and
    # difference, in both operand orders and with a plain int or Fraction
    # on either side, is stored exactly as the Fraction
    def layout(r):
        return (1, (r.numerator,), r.denominator)

    a, b = as_cyclotomic(p), as_cyclotomic(q)
    p, q = QQ(p), QQ(q)
    for x, y, fx, fy in ((a, b, p, q), (b, a, q, p)):
        for op in (operator.add, operator.sub):
            expected = layout(op(fx, fy))
            for got in (op(x, y), op(x, fy), op(fx, y)):
                assert _layout(got) == expected, (fx, fy, op)


def test_numerators_are_ints_over_q_and_the_values_otherwise():
    a = [as_cyclotomic(QQ(1, 2)), as_cyclotomic(QQ(-2, 3)), as_cyclotomic(5)]
    b = [as_cyclotomic(QQ(3, 4)), as_cyclotomic(0)]
    # each list over the lcm of its own denominators
    assert _numerators(a, b) == [(6, [3, -4, 30]), (4, [3, 0])]
    assert all(type(n) is int for _, nums in _numerators(a, b) for n in nums)
    assert _numerators(a) == [(6, [3, -4, 30])]
    assert _numerators([]) == [(1, [])]
    # one irrational value anywhere puts every list on its values over 1
    c = [as_cyclotomic(QQ(1, 2)), zeta(4) / 3]
    for lists in ((a, c), (c, b), (a, b, c), (c,)):
        pairs = _numerators(*lists)
        assert [den for den, _ in pairs] == [1] * len(lists)
        assert all(len(nums) == len(vs) and all(n is v for n, v in zip(nums, vs))
                   for (_, nums), vs in zip(pairs, lists))


def test_over_is_canonical():
    # n / den against the checking constructor, for ints and for values
    rng = random.Random(71)
    for _ in range(300):
        den = rng.choice([1, 2, 3, 4, 6, 9, 12, 35, 64])
        n = rng.randint(-40, 40)
        q = QQ(n, den)
        assert _layout(_over(n, den)) == (1, (q.numerator,), q.denominator)
        value = random_value(rng, rng.choice(ORDERS)) * rng.randint(-6, 6)
        expected = CyclotomicNumber(value.order, [QQ(c, value.den * den) for c in value.coords])
        got = _over(value, den)
        assert _layout(got) == _layout(expected)
        assert got.den > 0 and gcd(got.den, *got.coords) == 1
    assert _layout(_over(0, 7)) == _layout(_over(as_cyclotomic(0), 7)) == (1, (0,), 1)
    assert _over(zeta(5), 1) is zeta(5)
