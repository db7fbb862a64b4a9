import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackygit.cyclotomic import (
    ORDER_CAP,
    QQ,
    CyclotomicNumber,
    as_cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    imag_unit,
    moebius,
    sqrt2,
    sqrt5,
    sqrt_minus3,
    zeta,
)
from stackygit.errors import IncompatibleOrderError, OrderCapExceededError

ORDERS = [1, 3, 4, 5, 8, 12, 20, 24]


def random_value(rng, order):
    return CyclotomicNumber(
        order,
        [QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(order))],
    )


def test_phi_and_moebius():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 8, 12, 40)] == [1, 1, 2, 2, 4, 4, 16]
    assert [moebius(m) for m in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]


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
            assert q == 1 and q.is_rational()


def test_phi5_relation():
    assert sum((zeta(5) ** k for k in range(5)), as_cyclotomic(0)) == 0


def test_embedding():
    assert zeta(4).embed(8) == zeta(8) ** 2
    assert as_cyclotomic(5).embed(24) == 5
    assert zeta(3).embed(12) == zeta(12) ** 4
    with pytest.raises(IncompatibleOrderError):
        zeta(4).embed(6)


def test_embedding_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.choice([3, 4, 5, 8])
        a, b = random_value(rng, m), random_value(rng, m)
        big = m * rng.choice([2, 3])
        assert (a * b).embed(big) == a.embed(big) * b.embed(big)
        assert (a + b).embed(big) == a.embed(big) + b.embed(big)


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
    b = zeta(3).embed(12)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # rationals demote to the order-1 canonical form
    r = (zeta(5) + 1) - zeta(5)
    assert r.order == 1 and r == 1


def test_zero_is_canonical():
    z = zeta(8) - zeta(8)
    assert z.is_zero() and z.order == 1 and not z


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zeta(3) / (zeta(5) - zeta(5))


def test_order_cap():
    with pytest.raises(OrderCapExceededError):
        zeta(121)
    with pytest.raises(OrderCapExceededError):
        zeta(16) * zeta(9)  # lcm 144 > 120
    # past the cap, unequal normalized traces still prove inequality
    assert zeta(11) != zeta(13)  # lcm 143
    # equal traces decide nothing: Tr(zeta_13 - 1/60) / 12 = -1/10 as for zeta_11
    other = zeta(13) - QQ(1, 60)
    assert hash(other) == hash(zeta(11))
    with pytest.raises(OrderCapExceededError):
        zeta(11) == other


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
    if a:
        inv = a.inverse()
        w = _ref_embed([QQ(c, inv.den) for c in inv.coords], inv.order, m)
        _agrees(inv, m, w)
        assert _ref_mul(u, w, m) == _ref_embed([QQ(1)], 1, m)
    wide = a.embed(m * k)
    _agrees(wide, m * k, _ref_embed(u, m, m * k))
    assert wide == a and hash(wide) == hash(a)
    if m == 1:
        assert hash(a) == hash(u[0])
