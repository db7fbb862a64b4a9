import hashlib
import random
from itertools import product
from math import comb, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackygit.cyclotomic import QQ, CyclotomicNumber, as_cyclotomic, zeta
from stackygit.errors import (
    ArityError,
    DegreeTooLargeError,
    ExactArithmeticError,
    OrderCapExceededError,
    VariableMismatchError,
    ZeroFormError,
)
from stackygit.exprparse import form, parse_poly
from stackygit.groups import GroupSpec, SL2Matrix, group_generators
from stackygit.invariants import quintic_F, sextic_F, transvectant
from stackygit.polynomials import (
    MAX_PROFILE_DEGREE,
    BinaryForm,
    MultiPoly,
    _exact_quotients,
    _powers,
    _shift,
    principal_lattice,
)


def quintic_f324():
    v = ("I4", "I8", "I12")
    return MultiPoly(v, {
        (1, 4, 0): -9, (0, 3, 1): -24, (2, 2, 1): 6,
        (1, 1, 2): 72, (0, 0, 3): 144, (3, 0, 2): -1})


class TestMultiPoly:
    def test_weighted_degree_homogeneous(self):
        w = (4, 8, 12)
        assert quintic_f324().weighted_degree(w) == 36

    def test_weighted_degree_constant(self):
        p = MultiPoly.constant(("a", "b"), 1)
        assert p.weighted_degree((3, 5)) == 0

    def test_weighted_degree_inhomogeneous_marker(self):
        p = MultiPoly(("t1", "t2"), {(2, 0): 1, (0, 1): 1})
        assert p.weighted_degree((1, 3)) is None

    def test_weighted_degree_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            quintic_f324().weighted_degree((1, 2))

    def test_degree_additive_on_products(self):
        rng = random.Random(3)
        w = (1, 2, 3)
        vs = ("a", "b", "c")
        for _ in range(20):
            e1 = (rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))
            e2 = (rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))
            p = MultiPoly(vs, {e1: rng.randint(1, 5)}) \
                + MultiPoly(vs, {_same_degree(e1, (1, 2, 3), rng): 1})
            q = MultiPoly(vs, {e2: rng.randint(1, 5)})
            assert (p * q).weighted_degree(w) == \
                p.weighted_degree(w) + q.weighted_degree(w)

    def test_partials(self):
        p = MultiPoly(("t", "s"), {(2, 0): 1, (0, 1): -1})  # t^2 - s
        dt, ds = p.partials()
        assert dt == MultiPoly(("t", "s"), {(1, 0): 2})
        assert ds == MultiPoly.constant(("t", "s"), -1)

    def test_coefficients_must_be_exact(self):
        with pytest.raises(TypeError, match="not an exact number"):
            MultiPoly(("x",), {(1,): 0.5})
        with pytest.raises(TypeError, match="not an exact number"):
            MultiPoly(("x",), {(1,): "1/2"})
        with pytest.raises(TypeError, match="not an exact number"):
            MultiPoly.constant(("x",), 1) * 2.0

    def test_partials_of_constant(self):
        p = MultiPoly.constant(("x", "y"), 5)
        assert not any(p.partials())

    def test_quintic_partials_vanish_at_special_point(self):
        # hand-checked: all three partials of the six-term polynomial are 0
        for point in ((1, 0, 0), (-3, 3, 3)):
            assert all(not d.evaluate(point) for d in quintic_f324().partials())

    def test_evaluate(self):
        f = quintic_f324()
        assert f.evaluate((0, 0, 1)) == 144
        assert f.evaluate((-3, 3, 3)) == 0
        assert f.evaluate((0, 0, 0)) == 0

    def test_evaluate_at_origin_gives_constant_term(self):
        p = MultiPoly(("x", "y"), {(0, 0): QQ(7, 3), (2, 1): 4})
        assert p.evaluate((0, 0)) == QQ(7, 3)

    def test_evaluate_arity(self):
        with pytest.raises(ArityError):
            quintic_f324().evaluate((1, 2))

    @pytest.mark.parametrize("field", ["Q", "Q(i)", "Q(zeta_3)", "mixed"])
    def test_evaluate_matches_term_by_term_reference(self, field):
        # the value is stored exactly as the term-by-term sum stores it, over
        # one field and over mixed fields alike
        rng = random.Random(f"evaluate:{field}")
        rationals = [0, 1, -2, 5, QQ(1, 2), QQ(-7, 3), QQ(9, 8), QQ(4, 15)]
        units = {"Q": [1], "Q(i)": [1, zeta(4)], "Q(zeta_3)": [1, zeta(3), 1 + zeta(3)],
                 "mixed": [1, zeta(4), zeta(3), zeta(5) ** 2, 2 - zeta(8)]}[field]

        def number():
            return rng.choice(rationals) * rng.choice(units) + rng.choice(rationals)

        cases = [(quintic_F(), 3), (sextic_F(), 4)] if field == "Q" else []
        for _ in range(60):
            n = rng.randint(1, 4)
            terms = {tuple(rng.randint(0, 4) for _ in range(n)): number()
                     for _ in range(rng.randint(0, 6))}
            cases.append((MultiPoly([f"x{j}" for j in range(n)], terms), n))
        for poly, n in cases:
            for _ in range(3):
                point = [number() for _ in range(n)]
                value, expected = poly.evaluate(point), _term_by_term(poly, point)
                assert value == expected, (poly, point)
                assert (value.order, value.coords, value.den) == \
                    (expected.order, expected.coords, expected.den), (poly, point)

    def test_lifted(self):
        p = MultiPoly(("a", "b"), {(2, 1): 3})
        lifted = p.lifted(("c", "a", "b"))
        assert lifted.terms == {(0, 2, 1): zeta(1) * 3}
        # a repeated name is read at its first position, as tuple.index
        # reads it, and a missing one raises ValueError
        assert p.lifted(("b", "a", "b")).terms == {(1, 2, 0): 3}
        with pytest.raises(ValueError):
            p.lifted(("a", "c"))

    def test_proportionality(self):
        p = quintic_f324()
        assert (p * QQ(-2, 3)).proportional_to(p) == QQ(-2, 3)
        assert p.proportional_to(p + MultiPoly.constant(p.variables, 1)) is None


@pytest.mark.parametrize("field", [1, 4, 5])
def test_form_and_multipoly_proportionality_agree(field):
    # seeded pairs: proportional by a rational or by a field scalar, differing
    # in one coefficient, with a zero on one side only, and zero forms
    rng = random.Random(f"proportional:{field}")

    def number():
        return QQ(rng.randint(-5, 5), rng.randint(1, 3)) * zeta(field) ** rng.randrange(field) \
            + rng.randint(-2, 2)

    def nonzero():
        return next(x for x in iter(number, None) if x)

    pairs = [(BinaryForm([0] * 4), BinaryForm([0] * 4))]
    for _ in range(30):
        d = rng.randint(0, 6)
        coeffs = [nonzero() if rng.random() < 0.7 else 0 for _ in range(d + 1)]
        coeffs[rng.randint(0, d)] = nonzero()
        g = BinaryForm(coeffs)
        scalar = QQ(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) \
            if rng.random() < 0.5 else nonzero()
        f, i = g * scalar, rng.randint(0, d)
        changed = list(f.coeffs)
        changed[i] += rng.choice((1, -1)) * zeta(field)
        one_zero = list(f.coeffs)
        one_zero[i] = 0 if one_zero[i] else nonzero()
        pairs += [(f, g), (BinaryForm(changed), g), (BinaryForm(one_zero), g),
                  (g, BinaryForm([0] * (d + 1))), (BinaryForm([0] * (d + 1)), g)]
    found = 0
    for f, g in pairs:
        c, m = f.proportional_to(g), f.to_multipoly().proportional_to(g.to_multipoly())
        assert (c is None) == (m is None), (f, g)
        if c is not None:
            found += 1
            assert (c.order, c.coords, c.den) == (m.order, m.coords, m.den), (f, g)
    assert 30 <= found < len(pairs)


def _same_degree(e, weights, rng):
    # another exponent vector of the same weighted degree (pad with var 0)
    d = sum(w * k for w, k in zip(weights, e))
    return (d, 0, 0)


class TestBinaryForm:
    def test_coefficients_must_be_exact(self):
        for coeffs in (["1/3", 2], [QQ(1, 3), 2.5], [1, None]):
            with pytest.raises(TypeError, match="not an exact number"):
                BinaryForm(coeffs)
        assert str(BinaryForm([QQ(1, 3), QQ(5, 2)])) == "1/3*x + 5/2*y"

    def test_substitute_antidiagonal(self):
        # xy under [[0, i], [i, 0]] is -xy
        f = form("x*y")
        m = SL2Matrix(0, zeta(4), zeta(4), 0)
        assert f.substitute(m) == -f

    def test_substitute_identity(self):
        f = form("3*x^4 - x^2*y^2 + 7*y^4")
        assert f.substitute(SL2Matrix(1, 0, 0, 1)) == f

    def test_substitute_diagonal_eighth_root(self):
        # diag(zeta_8, zeta_8^-1) carries x^4 + y^4 to its negative
        f = form("x^4 + y^4")
        m = SL2Matrix(zeta(8), 0, 0, zeta(8) ** 7)
        assert f.substitute(m) == -f

    def test_substitution_is_right_action(self):
        rng = random.Random(11)
        f = form("x^4 + 3*x^3*y - 2*x*y^3 + y^4")
        for _ in range(100):
            m = _random_sl2(rng)
            n = _random_sl2(rng)
            assert f.substitute(m * n) == f.substitute(m).substitute(n)
        # entries with denominators (I: 1/sqrt5, O: 1/sqrt2, T: 1/2), monomial
        # matrices (C7, D6), and a form over Q(zeta_3) under matrices over
        # Q(i), Q(zeta_5), Q(zeta_8), Q(zeta_12) and Q(zeta_14)
        mixed = form("x^4 + 2*sqrtm3*x^2*y^2 - x*y^3 + sqrtm3*y^4")
        for spec in ("T", "O", "I", "C7", "D6"):
            gens = group_generators(GroupSpec.parse(spec)) + (_random_sl2(rng),)
            for m in gens:
                for n in gens:
                    for g in (f, mixed):
                        assert g.substitute(m * n) == g.substitute(m).substitute(n)

    def test_evaluate_commutes_with_substitution(self):
        rng = random.Random(13)
        f = form("x^5 - 2*x^2*y^3 + y^5")
        for _ in range(25):
            m = _random_sl2(rng)
            u = QQ(rng.randint(-4, 4), rng.randint(1, 3))
            v = QQ(rng.randint(-4, 4), rng.randint(1, 3))
            left = _form_value(f.substitute(m), u, v)
            right = _form_value(f, m.a * u + m.b * v, m.c * u + m.d * v)
            assert left == right
        # group generators (entries with denominators, monomial matrices), a
        # form over Q(zeta_3), and points in cyclotomic fields
        mixed = form("x^5 + sqrtm3*x^2*y^3 - zeta(3)*y^5")
        points = [(QQ(-3, 2), QQ(4, 3)), (zeta(3), 1 - zeta(5)), (QQ(1, 2) * zeta(8), zeta(4))]
        for spec in ("T", "O", "I", "C5", "D6"):
            for m in group_generators(GroupSpec.parse(spec)):
                for g in (f, mixed):
                    for p, q in points:
                        left = _form_value(g.substitute(m), p, q)
                        right = _form_value(g, m.a * p + m.b * q, m.c * p + m.d * q)
                        assert left == right

    def test_substitution_past_order_cap_raises(self):
        # Q(zeta_7) coefficients under a Q(zeta_40) matrix need Q(zeta_280)
        f = form("x^2 + zeta(7)*y^2")
        m = group_generators(GroupSpec("C", 20))[0]
        with pytest.raises(OrderCapExceededError):
            f.substitute(m)

    def test_substitution_enters_only_the_fields_its_terms_need(self):
        # Under C11 each term is scaled on its own: zeta_22^6 zeta_22^-6 = 1
        # leaves the term of i in Q(i), and the term of sqrtm3 meets zeta_22
        # in Q(zeta_66); no term needs lcm(4, 3, 22) = 132 > cap.
        f = form("x^12 + i*x^6*y^6 + sqrtm3*y^12")
        eps = zeta(22)
        m = group_generators(GroupSpec("C", 11))[0]
        g = f.substitute(m)
        assert g == BinaryForm([eps ** 12] + [0] * 5 + [zeta(4)] + [0] * 5
                               + [form("sqrtm3*x").coeffs[0] * eps ** -12])
        assert [c.order for c in g.coeffs if c] == [22, 4, 66]
        # d^14 = 1 under C7, so the y^14 term stays in Q(zeta_9) (lcm(9, 14)
        # = 126 would pass the cap).
        h = form("x^14 + zeta(9)*y^14")
        image = h.substitute(group_generators(GroupSpec("C", 7))[0])
        assert image == h
        assert image.coeffs[-1].order == 9
        # the mirror: a^14 = 1 keeps the x^14 term in Q(zeta_9)
        h = form("zeta(9)*x^14 + y^14")
        image = h.substitute(group_generators(GroupSpec("C", 7))[0])
        assert image == h
        assert image.coeffs[0].order == 9

    def test_profile_monomial(self):
        assert form("x^2*y^3").multiplicity_profile() == (2, 3)

    def test_profile_simple_roots(self):
        assert form("x^5 + y^5").multiplicity_profile() == (1, 1, 1, 1, 1)

    def test_profile_double_quadratics(self):
        f = form("(x^2 + y^2)^2 * (x^2 - y^2)^2")
        assert f.multiplicity_profile() == (2, 2, 2, 2)

    def test_profile_sums_to_degree(self):
        rng = random.Random(17)
        for _ in range(40):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(2, 8))]
            if not any(coeffs):
                coeffs[-1] = 1
            f = BinaryForm(coeffs)
            assert sum(f.multiplicity_profile()) == f.degree

    def test_profile_of_built_multiplicities(self):
        rng = random.Random(19)
        for _ in range(10):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            while a == b:
                b = rng.randint(-3, 3)
            f = (BinaryForm([1, -a]) ** 3) * (BinaryForm([1, -b]) ** 2)
            assert f.multiplicity_profile() == (2, 3)

    def test_profile_of_random_multiplicities(self):
        # up to four distinct roots, among them (1:0), (0:1) and roots in
        # Q(i) and Q(zeta_3), with multiplicities up to 40
        rng = random.Random(23)
        roots = [QQ(-3, 2), 1, 2, zeta(4), zeta(3), 1 - zeta(4)]
        for _ in range(30):
            chosen = rng.sample(range(-2, len(roots)), rng.randint(1, 4))
            mults = [rng.choice((1, 2, 3, 5, 40)) for _ in chosen]
            f = BinaryForm([rng.choice((1, -2, zeta(4)))])
            for k, m in zip(chosen, mults):
                linear = {-2: [0, 1], -1: [1, 0]}.get(k) or [1, -roots[k]]
                f = f * BinaryForm(linear) ** m
            assert f.multiplicity_profile() == tuple(sorted(mults))

    def test_rational_gcd_chain(self):
        # over Q the gcd chain runs on integers, and a form over Q(zeta_3)
        # (the same form times zeta_3) runs it on CyclotomicNumbers; both
        # give the profile read off the multiplicities, and the chain's
        # degrees and the profile determine each other
        rng = random.Random(29)
        factors = [[QQ(2, 3), QQ(-5, 7)], [1, 1], [3, 0], [QQ(1, 4), 2], [0, 1],
                   [1, 0, 2], [QQ(5, 2), -1, QQ(1, 3)], [1, 0, 0, QQ(-2, 9)]]
        for _ in range(25):
            chosen = rng.sample(factors, rng.randint(1, 4))
            mults = [rng.choice((1, 2, 3, 4, 7)) for _ in chosen]
            f = BinaryForm([QQ(rng.choice((1, -3, 5)), rng.choice((1, 2, 9)))])
            finite, at_infinity = [], 0
            for factor, m in zip(chosen, mults):
                f = f * BinaryForm(factor) ** m
                if factor == [0, 1]:
                    at_infinity = m
                else:
                    finite += [m] * (len(factor) - 1)
            profile = tuple(sorted(finite + ([at_infinity] if at_infinity else [])))
            assert f.multiplicity_profile() == profile
            assert (f * zeta(3)).multiplicity_profile() == profile

    def test_exact_quotients(self):
        assert _exact_quotients([12, -8, 0], -4) == [-3, 2, 0]
        assert _exact_quotients([2 ** 200 * 3], 2 ** 199) == [6]
        with pytest.raises(ArithmeticError):
            _exact_quotients([12, 7], 4)
        with pytest.raises(ExactArithmeticError):
            _exact_quotients([-9], 2)
        s = 2 * zeta(4) + 1
        assert _exact_quotients([zeta(3), s * 3], s) == [zeta(3) / s, 3]

    def test_profile_degree_bound(self):
        f = form(f"x^{MAX_PROFILE_DEGREE - 1}*y + y^{MAX_PROFILE_DEGREE}")
        assert f.multiplicity_profile() == (1,) * MAX_PROFILE_DEGREE
        with pytest.raises(DegreeTooLargeError):
            form(f"x^{MAX_PROFILE_DEGREE + 1}").multiplicity_profile()

    def test_zero_form_profile_raises(self):
        with pytest.raises(ZeroFormError):
            BinaryForm([0, 0, 0]).multiplicity_profile()

    def test_profile_root_at_infinity(self):
        # y^2 * (x^3 + y^3): the (1:0) root comes from leading zeros
        f = BinaryForm([0, 0, 1, 0, 0, 1])
        assert f.multiplicity_profile() == (1, 1, 1, 2)


def _term_by_term(poly, point):
    """Reference: the sum of the terms' values c * x1^k1 * ..., each product
    and sum formed in CyclotomicNumber arithmetic."""
    total = as_cyclotomic(0)
    for exps, c in poly.terms.items():
        value = c
        for x, k in zip(point, exps):
            if k:
                value = value * as_cyclotomic(x) ** k
        total = total + value
    return total


def _form_value(f, x, y):
    """Reference for substitute: f(x, y), the sum of the terms
    a_i * x^(d - i) * y^i in CyclotomicNumber arithmetic."""
    x, y = as_cyclotomic(x), as_cyclotomic(y)
    total = as_cyclotomic(0)
    for i, a in enumerate(f.coeffs):
        total = total + a * x ** (f.degree - i) * y ** i
    return total


_RATIONALS = st.builds(QQ, st.integers(-6, 6), st.integers(1, 4))
_NONZERO = _RATIONALS.filter(bool)


def _one_zero_entry(which, p, q):
    """An SL(2) matrix with entry ``which`` zero, the others from p != 0
    and q."""
    if which == "a":
        return SL2Matrix(0, p, -1 / p, q)
    if which == "b":
        return SL2Matrix(p, 0, q, 1 / p)
    if which == "c":
        return SL2Matrix(p, q, 0, 1 / p)
    return SL2Matrix(q, p, -1 / p, 0)


_GENERATORS = [g for spec in ([f"C{n}" for n in range(1, 13)] + [f"D{n}" for n in range(1, 13)]
                              + ["T", "O", "I"])
               for g in group_generators(GroupSpec.parse(spec))]
_MATRICES = st.one_of(
    st.tuples(_NONZERO, _RATIONALS, _RATIONALS).map(
        lambda t: SL2Matrix(t[0], t[1], t[2], (1 + t[1] * t[2]) / t[0])),
    st.builds(_one_zero_entry, st.sampled_from("abcd"), _NONZERO, _RATIONALS),
    st.sampled_from(_GENERATORS),
)


@st.composite
def _forms(draw):
    """Forms of degree 0..9 over Q, Q(i) or Q(zeta_3), often sparse."""
    unit = draw(st.sampled_from((1, zeta(4), zeta(3))))
    pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    coeffs = [p + q * unit for p, q in draw(st.lists(pairs, min_size=1, max_size=10))]
    for i in draw(st.lists(st.integers(0, len(coeffs) - 1), max_size=len(coeffs))):
        coeffs[i] = 0
    return BinaryForm(coeffs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_forms(), _MATRICES, _RATIONALS, _RATIONALS)
def test_substitute_agrees_with_evaluation(f, m, x0, y0):
    # f(M)(x0, y0) == f(a x0 + b y0, c x0 + d y0), exactly
    left = _form_value(f.substitute(m), x0, y0)
    assert left == _form_value(f, m.a * x0 + m.b * y0, m.c * x0 + m.d * y0)


def _random_sl2(rng):
    while True:
        a = QQ(rng.randint(-5, 5), rng.randint(1, 3))
        if a:
            break
    b = QQ(rng.randint(-5, 5), rng.randint(1, 3))
    c = QQ(rng.randint(-5, 5), rng.randint(1, 3))
    return SL2Matrix(a, b, c, (1 + b * c) / a)


_VARS = ("x", "y", "z")


def _random_coefficient(rng, unit):
    c = QQ(rng.randint(-4, 4), rng.randint(1, 3))
    if unit != 1:
        c = c + QQ(rng.randint(-3, 3), rng.randint(1, 2)) * unit
    return c


def _random_multipoly(rng):
    """Sparse, over Q (with denominators), Q(i), Q(zeta_3) or a mix; some
    coefficients are zero, some exponent vectors repeat."""
    units = rng.choice(((1,), (zeta(4),), (zeta(3),), (1, zeta(4), zeta(3))))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, 3) for _ in _VARS)
        terms[e] = _random_coefficient(rng, rng.choice(units))
    return MultiPoly(_VARS, terms)


def _assert_clean(r):
    # what the checking constructor would build, with no zero coefficient
    # and one exponent per variable
    assert MultiPoly(r.variables, r.terms) == r
    for e, c in r.terms.items():
        assert c
        assert len(e) == len(r.variables)
        assert all(type(k) is int and k >= 0 for k in e)


def test_products_agree_with_a_term_by_term_reference():
    # MultiPoly products (integer numerators over Q, CyclotomicNumber terms
    # otherwise) against sums of coefficient products, term by term
    rng = random.Random(21)
    for _ in range(150):
        p, q = _random_multipoly(rng), _random_multipoly(rng)
        expected = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                expected[e] = expected.get(e, 0) + c1 * c2
        assert p * q == MultiPoly(_VARS, expected)


def test_arithmetic_results_are_clean():
    # results built by the unchecked MultiPoly._of against the checking
    # constructor, on random operands and on pairs that cancel
    rng = random.Random(20)
    x, y, z = (MultiPoly.variable(_VARS, v) for v in _VARS)
    scalars = [0, 3, QQ(-2, 5), zeta(3), 1 + zeta(4)]
    fixed = [(x, x), ((x + y), (x - y)), (x + y * QQ(1, 2), -x + z)]
    for k in range(120):
        p, q = (fixed[k] if k < len(fixed)
                else (_random_multipoly(rng), _random_multipoly(rng)))
        if k % 4 == 3:
            # q cancels p except for one monomial
            q = -p + MultiPoly(_VARS, {(1, 0, 2): QQ(3, 7)})
        results = [p + q, p - q, q - p, p - p, -p, p * q, p * (-p), (p + q) * (p - q),
                   p * q - q * p, 2 + p, p - 1, 1 - p, p ** rng.randint(0, 3)]
        results += [p * s for s in scalars] + [s * q for s in scalars]
        results += [p.partial(i) for i in range(3)] + list(q.partials())
        results += [p.lifted(rng.sample(_VARS, 3)), q.lifted(("w",) + _VARS),
                    p.lifted(rng.sample(("u",) + _VARS, 4))]
        for r in results:
            _assert_clean(r)
    assert x - x == MultiPoly(_VARS) and not (x - x).terms
    assert (x + y) * (x - y) == MultiPoly(_VARS, {(2, 0, 0): 1, (0, 2, 0): -1})
    assert (x * 0).terms == {} and (x * zeta(3)).terms == {(1, 0, 0): zeta(3)}


def test_printing_is_memoised_and_matches_a_fresh_instance():
    rng = random.Random(25)
    x, y, z = (MultiPoly.variable(_VARS, v) for v in _VARS)
    polys = [MultiPoly._of(_VARS, {(1, 0, 2): zeta(5), (0, 0, 0): as_cyclotomic(-3)}),
             MultiPoly._of(_VARS, {}), MultiPoly(_VARS, {(2, 1, 0): QQ(-1, 2), (0, 0, 1): 1}),
             MultiPoly(_VARS), x - x, (x + y) * (x - y * zeta(3)), -(x * z) ** 3,
             parse_poly("2*x^2*y - (x - z)^3 + i*sqrt5*z", _VARS), parse_poly("0*x", _VARS)]
    for _ in range(40):
        p, q = _random_multipoly(rng), _random_multipoly(rng)
        polys += [p, p + q, p - q, p * q, p ** 2]
    for p in polys:
        text = str(p)
        assert text == str(MultiPoly(p.variables, p.terms))
        assert str(p) is text and repr(p) == f"MultiPoly({_VARS}, '{text}')"
        for name in ("_text", "terms", "variables", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, "x")
        assert str(p) == text


def _layouts(coeffs):
    return [(c.order, c.coords, c.den) for c in coeffs]


_PRODUCT_FIELDS = {"Q": (1,), "Q(i)": (zeta(4),), "Q(zeta_5)": (zeta(5), zeta(5) ** 3),
                   "mixed": (1, zeta(4), zeta(3), zeta(5))}


def _field_coefficient(rng, units):
    if rng.random() < 0.2:
        return 0
    return _random_coefficient(rng, rng.choice(units))


@pytest.mark.parametrize("field", list(_PRODUCT_FIELDS))
def test_form_products_match_a_schoolbook_product(field):
    # every coefficient stored as the plain sum of coefficient products
    # stores it: same order, integer coordinates and denominator
    rng = random.Random(f"form products:{field}")
    units = _PRODUCT_FIELDS[field]
    for _ in range(80):
        f = BinaryForm([_field_coefficient(rng, units) for _ in range(rng.randint(1, 7))])
        g = BinaryForm([_field_coefficient(rng, units) for _ in range(rng.randint(1, 7))])
        expected = [as_cyclotomic(0)] * (f.degree + g.degree + 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                expected[i + j] = expected[i + j] + a * b
        assert _layouts((f * g).coeffs) == _layouts(expected), (str(f), str(g))


@pytest.mark.parametrize("field", list(_PRODUCT_FIELDS))
def test_multipoly_products_match_a_schoolbook_product(field):
    # one-term and many-term factors alike, with cancelling terms
    rng = random.Random(f"multipoly products:{field}")
    units = _PRODUCT_FIELDS[field]
    for _ in range(80):
        p, q = (MultiPoly(_VARS[:2], {(rng.randint(0, 3), rng.randint(0, 3)):
                                      _field_coefficient(rng, units)
                                      for _ in range(rng.randint(0, 6))})
                for _ in range(2))
        expected = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                expected[e] = expected.get(e, as_cyclotomic(0)) + c1 * c2
        expected = {e: c for e, c in expected.items() if c}
        got = (p * q).terms
        assert got.keys() == expected.keys(), (str(p), str(q))
        assert _layouts(got.values()) == _layouts(expected[e] for e in got), (str(p), str(q))


def test_coefficients_print_from_their_coordinates():
    # a coefficient with one nonzero coordinate prints bare, its sign
    # pulled out; one with more is parenthesized whole
    v = ("x", "y")
    cases = [
        ({(1, 0): zeta(8) ** 3}, "zeta(8)^3*x"),
        ({(1, 0): -3 * zeta(5) ** 2}, "-3*zeta(5)^2*x"),
        ({(1, 0): QQ(3, 4) * zeta(8)}, "3/4*zeta(8)*x"),
        ({(1, 0): 1 + zeta(3)}, "(1 + zeta(3))*x"),
        ({(1, 0): -1 - zeta(3)}, "(-1 - zeta(3))*x"),
        ({(1, 0): -1, (0, 1): zeta(8) - zeta(8) ** 3}, "-x + (zeta(8) - zeta(8)^3)*y"),
        ({(0, 0): zeta(8) ** 3}, "zeta(8)^3"),
        ({(0, 0): QQ(-3, 4) * zeta(12) ** 3, (1, 0): -zeta(7) ** 2},
         "-zeta(7)^2*x - 3/4*zeta(12)^3"),
        ({(0, 0): 1 + zeta(3), (0, 1): QQ(-2, 3)}, "-2/3*y + (1 + zeta(3))"),
        ({(0, 0): -1, (1, 1): 1}, "x*y - 1"),
        ({(2, 1): QQ(-5, 6) * zeta(9) ** 4 + QQ(1, 2), (0, 3): -zeta(4)},
         "(1/2 - 5/6*zeta(9)^4)*x^2*y - zeta(4)*y^3"),
    ]
    for terms, text in cases:
        assert str(MultiPoly(v, terms)) == text


_IMAGE_FIELDS = {"Q": (1,), "Q(i)": (zeta(4),), "Q(zeta_3)": (zeta(3),),
                 "mixed": (1, zeta(4), zeta(3), zeta(5))}
_IMAGE_MATRICES = _GENERATORS + [_one_zero_entry(w, QQ(3, 2), QQ(-5, 7)) for w in "abcd"]

# sha256 of the stored layouts of every image coefficient over Q, recorded
# from the kernel that scaled by powers built as CyclotomicNumbers
_Q_IMAGE_DIGEST = "c778547c473be8425a3c3c9a0d1d9453dbb732b6445cf03c2225f594aadbb009"


@pytest.mark.parametrize("field", list(_IMAGE_FIELDS))
def test_substitution_images_keep_their_stored_fields(field):
    # the printed form of a coefficient depends on the field it is stored
    # in, which == does not see: check (order, coords, den) of every
    # coefficient of f.substitute(m) for the generators of C_n, D_n (n <=
    # 12), T, O and I and rational matrices with a zero in each position,
    # on forms of degree 0, 1, 12, 40 and 120 with both end coefficients
    # nonzero.  A degree-0 form comes back as it is.  A monomial matrix
    # stores each coefficient as the schoolbook image does, checked through
    # degree 40 (the reference takes O(deg^2) products per matrix).  Any
    # other matrix stores each nonzero coefficient in Q(zeta_k), k the lcm
    # of the orders of the entries and of the nonzero coefficients, or in
    # Q when rational.  Over Q every layout is pinned by a digest.
    rng = random.Random(f"substitution images:{field}")
    units = _IMAGE_FIELDS[field]
    forms = []
    for deg in (0, 1, 12, 40, 120):
        coeffs = [_field_coefficient(rng, units) for _ in range(deg + 1)]
        coeffs[0] = coeffs[-1] = _random_coefficient(rng, rng.choice(units)) or 1
        forms.append(BinaryForm(coeffs))
    h = hashlib.sha256()
    for m in _IMAGE_MATRICES:
        entries = (m.a, m.b, m.c, m.d)
        monomial = not (m.b or m.c) or not (m.a or m.d)
        for f in forms:
            image = f.substitute(m)
            layouts = _layouts(image.coeffs)
            h.update(repr(layouts).encode())
            if f.degree == 0:
                assert image is f
            elif monomial:
                if f.degree <= 40:
                    assert layouts == _layouts(_schoolbook_image(f, m).coeffs), (str(f), str(m))
            else:
                k = lcm(*(v.order for v in entries), *(c.order for c in f.coeffs if c))
                assert all(c.order in (1, k) for c in image.coeffs if c), (str(f), str(m))
    if field == "Q":
        assert h.hexdigest() == _Q_IMAGE_DIGEST


_FUSED_FIELDS = {"Q(zeta_8)": (zeta(8), 1 + zeta(8) ** 3, QQ(-2, 3)),
                 "Q(zeta_5)": (zeta(5), 2 - zeta(5) ** 2, QQ(3, 4))}


def _schoolbook_image(f, m):
    """sum f_i X^(deg-i) Y^i for X = a x + b y and Y = c x + d y, from
    BinaryForm products."""
    d = f.degree
    xs, ys = (_powers(BinaryForm(row), d) for row in ([m.a, m.b], [m.c, m.d]))
    total = BinaryForm([0] * (d + 1))
    for i, fi in enumerate(f.coeffs):
        total = total + xs[d - i] * ys[i] * fi
    return total


@pytest.mark.parametrize("matrix_field", list(_FUSED_FIELDS))
@pytest.mark.parametrize("form_field", list(_FUSED_FIELDS))
def test_fused_scalings_match_a_schoolbook_image(form_field, matrix_field):
    # every branch of the substitution kernel (zero entry at b, at c, at b
    # and c, at a with d != 0, or nowhere, with c = a, b = a or neither) with
    # irrational entries, on forms of degree 0, 1, 7 and 30 with both end
    # coefficients nonzero
    rng = random.Random(f"fused scalings:{form_field}:{matrix_field}")
    units = _FUSED_FIELDS[form_field]
    p, q, r = _FUSED_FIELDS[matrix_field]
    matrices = [_one_zero_entry("b", p, q), _one_zero_entry("c", q, r),
                SL2Matrix(q, 0, 0, 1 / q), _one_zero_entry("a", p, q),
                _one_zero_entry("a", r, p), SL2Matrix(p, q, r, (1 + q * r) / p),
                SL2Matrix(q, p, q, (1 + p * q) / q), SL2Matrix(p, p, q, (1 + p * q) / p)]
    for deg in (0, 1, 7, 30):
        coeffs = [_field_coefficient(rng, units) for _ in range(deg + 1)]
        coeffs[0] = coeffs[-1] = _random_coefficient(rng, rng.choice(units)) or 1
        f = BinaryForm(coeffs)
        for m in matrices:
            assert f.substitute(m) == _schoolbook_image(f, m), (str(f), str(m))


@pytest.mark.parametrize("n", [0, 1, 2, 60])
def test_shift_matches_the_binomial_sums(n):
    # the Taylor shift by 1 of integer vectors p_0 .. p_n is q_j = sum_(i >= j)
    # C(i, j) p_i, coordinate by coordinate
    rng = random.Random(f"shift:{n}")
    for length in range(1, 5):
        cases = [[[0] * length for _ in range(n + 1)]]
        cases += [[[rng.randint(-9, 9) for _ in range(length)] for _ in range(n + 1)]
                  for _ in range(5)]
        cases.append([[0] * length] * n + [[rng.randint(-9, -1)] * length])
        for p in cases:
            expected = [[sum(comb(i, j) * p[i][t] for i in range(j, n + 1))
                         for t in range(length)] for j in range(n + 1)]
            assert [list(q) for q in _shift(p)] == expected


def test_form_results_are_clean():
    # forms built by the unchecked BinaryForm._of against the checking
    # constructor: a tuple of canonical CyclotomicNumbers
    rng = random.Random(22)
    units = _PRODUCT_FIELDS["mixed"]
    gens = group_generators(GroupSpec.parse("O")) + (_one_zero_entry("a", QQ(2), QQ(1, 3)),)
    for _ in range(40):
        deg = rng.randint(0, 6)
        f, g = (BinaryForm([_field_coefficient(rng, units) for _ in range(deg + 1)])
                for _ in range(2))
        results = [f + g, f - g, f - f, -f, f * g, f * 3, f * zeta(3), f * 0,
                   transvectant(f, g, min(deg, 2))]
        results += [h.substitute(m) for h in (f, f * 0) for m in gens]
        for r in results:
            assert type(r.coeffs) is tuple and r.coeffs
            assert all(type(c) is CyclotomicNumber for c in r.coeffs)
            assert _layouts(BinaryForm(r.coeffs).coeffs) == _layouts(r.coeffs)


def _rank(rows):
    """Rank of a matrix of rationals, by Gaussian elimination."""
    rows, rank = [[QQ(x) for x in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            q = rows[r][col] / rows[rank][col]
            rows[r] = [a - q * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n, d", [(1, 0), (1, 4), (2, 3), (3, 3), (5, 2), (5, 3)])
def test_principal_lattice_is_unisolvent_and_tight(n, d):
    points = principal_lattice(n, d)
    assert len(points) == len(set(points)) == comb(n + d, d)
    assert all(len(p) == n and min(p) >= 0 and sum(p) <= d for p in points)
    # the monomials of degree <= d are indexed by the same lattice, and
    # their values at its points form an invertible square matrix, so only
    # the zero polynomial of degree <= d vanishes at every point
    assert _rank([[prod(x ** e for x, e in zip(p, m)) for m in points]
                  for p in points]) == len(points)
    # the product of x_1 - j over j <= d has degree d + 1 and vanishes at
    # every point, so the degree bound d is tight
    assert all(prod(p[0] - j for j in range(d + 1)) == 0 for p in points)


def test_principal_lattice_lists_its_points_in_lexicographic_order():
    for n in range(5):
        for d in range(-1, 7):
            assert principal_lattice(n, d) == [
                p for p in product(range(d + 1), repeat=n) if sum(p) <= d], (n, d)
    points = principal_lattice(7, 10)
    assert len(points) == comb(17, 10) == 19448
    assert points == sorted(points)
