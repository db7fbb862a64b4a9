import itertools
import random
from math import comb, factorial, lcm, prod

import pytest

from stackygit import cli
from stackygit.cyclotomic import QQ, _numerators, _over, as_cyclotomic, sqrt_minus3, zeta
from stackygit.errors import (
    NonStableError,
    OrderTooLargeError,
    UnderDeterminedError,
    UnknownFamilyError,
    WrongDegreeError,
)
from stackygit.exprparse import form
from stackygit.groups import SL2Matrix
from stackygit.invariants import (
    _CALIBRATIONS,
    _form,
    _transvectant,
    _transvectant_weights,
    QUINTIC_SCALARS,
    calibrate_invariants,
    catalog_ring,
    evaluate_recipe,
    quartic_invariants,
    quartic_point,
    quintic_F,
    sextic_F,
    transvectant,
)
from stackygit.locus import PointW
from stackygit.polynomials import BinaryForm, MultiPoly, _monomial_ints, resultant
from stackygit.symmetry import is_stable


def _fraction_sylvester(f, g):
    """Reference: the determinant of the Sylvester matrix of the descending
    coefficient lists f and g at their formal degrees, by Fraction
    elimination."""
    d, e = len(f) - 1, len(g) - 1
    m = ([[0] * k + f + [0] * (e - 1 - k) for k in range(e)]
         + [[0] * k + g + [0] * (d - 1 - k) for k in range(d)])
    det = QQ(1)
    for col in range(d + e):
        pivot = next((r for r in range(col, d + e) if m[r][col]), None)
        if pivot is None:
            return QQ(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, d + e):
            q = m[r][col] / m[col][col]
            m[r] = [x - q * y for x, y in zip(m[r], m[col])]
    return det


def _form_resultant(f, g):
    """The resultant of two forms at their formal degrees: the list
    resultant of their numerators over fd^deg g gd^deg f."""
    (fd, a), (gd, b) = _numerators(f.coeffs, g.coeffs)
    return _over(resultant(a, b), fd ** g.degree * gd ** f.degree)


def _random_sl2(rng):
    while True:
        a = QQ(rng.randint(-5, 5), rng.randint(1, 3))
        if a:
            break
    b = QQ(rng.randint(-5, 5), rng.randint(1, 3))
    c = QQ(rng.randint(-5, 5), rng.randint(1, 3))
    return SL2Matrix(a, b, c, (1 + b * c) / a)


def _mixed_partials(f, r):
    """Reference: the mixed partials d^r f / dx^(r-k) dy^k, k = 0..r, by
    repeated differentiation of BinaryForms."""
    def dx(h):
        d = h.degree
        return BinaryForm([h.a(i) * (d - i) for i in range(d)] or [0])

    def dy(h):
        return BinaryForm([h.a(i + 1) * (i + 1) for i in range(h.degree)] or [0])

    row = [f]
    for _ in range(r):
        row = [dx(h) for h in row] + [dy(row[-1])]
    return row


def _reference_transvectant(f, g, r):
    """Reference: the classical definition ((d-r)! (e-r)! / (d! e!)) sum_k
    (-1)^k C(r, k) f_{x^(r-k) y^k} g_{x^k y^(r-k)} on BinaryForm arithmetic."""
    d, e = f.degree, g.degree
    df, dg = _mixed_partials(f, r), _mixed_partials(g, r)
    total = BinaryForm([0] * (d + e - 2 * r + 1))
    for k in range(r + 1):
        total = total + df[k] * dg[r - k] * ((-1) ** k * comb(r, k))
    return total * QQ(factorial(d - r) * factorial(e - r), factorial(d) * factorial(e))


def _gaussian_binomial(n, k):
    """Coefficients of the q-binomial [n choose k]_q: entry t counts the
    partitions of t into at most k parts of size at most n - k."""
    poly = [1]
    for i in range(1, k + 1):
        a = n - k + i  # times (1 - q^a), then divided by (1 - q^i) exactly
        poly = [c - (poly[t - a] if t >= a else 0) for t, c in enumerate(poly + [0] * a)]
        for t in range(i, len(poly)):
            poly[t] += poly[t - i]
        assert not any(poly[len(poly) - i:])
        del poly[len(poly) - i:]
    return poly


def _cayley_sylvester(d, k):
    """Dimension of the degree-k invariants of binary d-ics:
    p(k, d; dk/2) - p(k, d; dk/2 - 1), p(k, d; n) the partitions of n into
    at most k parts of size at most d."""
    if d * k % 2:
        return 0
    p, n = _gaussian_binomial(k + d, k), d * k // 2
    return p[n] - (p[n - 1] if n else 0)


def _hilbert_series(weights, relation_degree, top):
    """Coefficients through t^top of (1 - t^r) / prod (1 - t^w)."""
    series = [1] + [0] * top
    for w in weights:
        for t in range(w, top + 1):
            series[t] += series[t - w]
    if relation_degree is not None:
        for t in range(top, relation_degree - 1, -1):
            series[t] -= series[t - relation_degree]
    return series


class TestCatalogRing:
    def test_quartic_free(self):
        entry = catalog_ring("quartic")
        assert entry.ring.weights == (2, 3) and entry.ring.relation is None

    def test_quintic(self):
        entry = catalog_ring("quintic")
        assert entry.ring.weights == (4, 8, 12, 18)
        assert entry.F.weighted_degree((4, 8, 12)) == 36

    def test_cubic_surface_placeholder(self):
        entry = catalog_ring("cubic-surface")
        assert entry.ring.weights == (8, 16, 24, 32, 40, 100)
        w = (8, 16, 24, 32, 40)
        assert entry.F.weighted_degree(w) == 200
        assert entry.notes  # placeholder is flagged

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            catalog_ring("octic")

    @pytest.mark.parametrize("family, d, weights, relation_degree", [
        ("quartic", 4, (2, 3), None),
        ("quintic", 5, (4, 8, 12, 18), 36),
        ("sextic", 6, (2, 4, 6, 10, 15), 30),
    ])
    def test_hilbert_series_by_cayley_sylvester(self, family, d, weights, relation_degree):
        # the presented ring has as many invariants in each degree as the
        # Cayley-Sylvester formula counts for binary d-ics
        ring = catalog_ring(family).ring
        assert ring.weights == weights
        degree = ring.relation.weighted_degree(weights) if ring.relation else None
        assert degree == relation_degree
        series = _hilbert_series(weights, degree, 60)
        assert series == [_cayley_sylvester(d, k) for k in range(61)]

    def test_cayley_sylvester_small_cases(self):
        # binary cubics: one invariant, the discriminant, in degree 4
        assert [_cayley_sylvester(3, k) for k in range(9)] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert _gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]


class TestQuarticInvariants:
    def test_power_sum_quartic(self):
        inv = quartic_invariants(form("x^4 + y^4"))
        assert inv.I2 == 1 and inv.I3 == 0

    def test_tetrahedral_quartic(self):
        inv = quartic_invariants(form("x^4 + 2*sqrtm3*x^2*y^2 + y^4"))
        # binomial weighting puts sqrt(-3)/3 in the middle; hand value 4/9 sqrt(-3)
        assert inv.I2 == 0
        assert inv.I3 == QQ(4, 9) * sqrt_minus3()

    def test_invariance(self):
        rng = random.Random(29)
        f = form("x^4 - 2*x^3*y + 5*x*y^3 - y^4")
        base = quartic_invariants(f)
        for _ in range(100):
            m = _random_sl2(rng)
            after = quartic_invariants(f.substitute(m))
            assert after.I2 == base.I2 and after.I3 == base.I3

    def test_wrong_degree(self):
        with pytest.raises(WrongDegreeError):
            quartic_invariants(form("x^3 + y^3"))

    def test_points(self):
        w = (2, 3)
        assert quartic_point(form("x^4 + y^4")) == PointW((1, 0), w)
        assert quartic_point(
            form("x^4 + 2*sqrtm3*x^2*y^2 + y^4")) == PointW((0, 1), w)

    def test_generic_point_has_no_zero(self):
        f = 2 * form("(x^2 + y^2)^2") + 3 * form("(x^2 - y^2)^2")
        p = quartic_point(f)
        assert all(p.coordinates)

    def test_point_is_the_orbit_of_the_invariants(self):
        # t.f scales (I2, I3) by (t^2, t^3), the action of t on P(2, 3), and
        # f o m keeps both for m in SL(2): no representative is chosen
        rng = random.Random(67)
        quartics = [form("x^4 - 2*x^3*y + 5*x*y^3 - y^4")]
        while len(quartics) < 4:
            f = BinaryForm([rng.randint(-6, 6) for _ in range(5)])
            if f and is_stable(f):
                quartics.append(f)
        for f in quartics:
            p = quartic_point(f)
            for _ in range(5):
                t = QQ(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                assert quartic_point(t * f) == p, (f, t)
                m = _random_sl2(rng)
                assert quartic_point(f.substitute(m)) == p, (f, m)
        p = quartic_point(quartics[0])
        assert all(p.coordinates)
        assert p != quartic_point(form("x^4 + y^4")) != quartic_point(3 * quartics[0] + form("x^4"))

    def test_point_needs_stability(self):
        with pytest.raises(NonStableError):
            quartic_point(form("x^2*(x^2 + y^2)"))

    def test_discriminant_combination(self):
        rng = random.Random(43)
        for _ in range(20):
            a = rng.randint(-4, 4)
            rest = BinaryForm([rng.randint(-4, 4) for _ in range(3)])
            if not rest:
                continue
            f = BinaryForm([1, -2 * a, a * a]) * rest
            inv = quartic_invariants(f)
            assert inv.I2 ** 3 - 27 * inv.I3 ** 2 == 0


class TestTransvectant:
    def test_zeroth_is_product(self):
        f, g = form("x^3 + y^3"), form("x^2 - 3*y^2")
        assert transvectant(f, g, 0) == f * g

    def test_odd_self_transvectants_vanish(self):
        f = form("x^4 + 2*x*y^3 - y^4")
        assert not transvectant(f, f, 1)
        assert not transvectant(f, f, 3)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLargeError):
            transvectant(form("x^2"), form("x^3"), 3)

    @pytest.mark.parametrize("fields", [(1,), (4,), (3,), (5,), (1, 4, 3, 5)])
    def test_matches_the_derivative_definition(self, fields):
        # every degree pair up to 8 and every order r, against forms over Q
        # with denominators, Q(i), Q(zeta_3), Q(zeta_5) and mixed fields
        rng = random.Random(61 + sum(fields))
        choices = [(1,), (4,), (3,), (5,), (1, 4, 3, 5)]

        def coeff(orders):
            if rng.random() < 0.25:
                return 0
            c = as_cyclotomic(QQ(rng.randint(-6, 6), rng.randint(1, 4)))
            m = rng.choice(orders)
            if m > 1:
                c = c + QQ(rng.randint(-3, 3), rng.randint(1, 3)) * zeta(m) ** rng.randint(1, m)
            return c

        for d, e in itertools.product(range(9), repeat=2):
            f = BinaryForm([coeff(fields) for _ in range(d + 1)])
            g = BinaryForm([coeff(rng.choice(choices)) for _ in range(e + 1)])
            for r in range(min(d, e) + 1):
                got = transvectant(f, g, r)
                assert got == _reference_transvectant(f, g, r), (str(f), str(g), r)
                for n, c in enumerate(got.coeffs):
                    # the field is the one the terms reaching coefficient n need
                    terms = [(f.a(i), g.a(n + r - i)) for i in range(d + 1)
                             if 0 <= n + r - i <= e and f.a(i) and g.a(n + r - i)]
                    assert lcm(*(x.order for pair in terms for x in pair)) % c.order == 0
                if all(c.order == 1 for c in f.coeffs + g.coeffs):
                    assert all(c.order == 1 for c in got.coeffs)

    def test_normalization_is_one_over_the_weights_denominator(self):
        # (d-r)! (e-r)! / (d! e!) = 1 / (d_(r) e_(r)), so a covariant
        # carries a denominator alone
        for d, e in itertools.product(range(13), repeat=2):
            for r in range(min(d, e) + 1):
                _, den = _transvectant_weights(d, e, r)
                assert QQ(1, den) == QQ(factorial(d - r) * factorial(e - r),
                                        factorial(d) * factorial(e)), (d, e, r)

    def test_fields_past_the_cap_in_different_coefficients(self):
        # zeta(11) and zeta(13) meet x in different coefficients, so no
        # coefficient needs Q(zeta_143)
        got = transvectant(form("zeta(11)*x + zeta(13)*y"), form("x"), 0)
        assert got.coeffs == (zeta(11), zeta(13), as_cyclotomic(0))

    def test_fourth_transvectant_calibrates_to_I2(self):
        # two-point calibration: compute the constant at x^4 + y^4, then
        # verify it on ten more quartics
        f0 = form("x^4 + y^4")
        c = transvectant(f0, f0, 4).a(0) / quartic_invariants(f0).I2
        rng = random.Random(47)
        for _ in range(10):
            f = BinaryForm([rng.randint(-5, 5) for _ in range(5)])
            if not f:
                continue
            assert transvectant(f, f, 4).a(0) == c * quartic_invariants(f).I2

    def test_second_chain_calibrates_to_I3(self):
        def j3(f):
            return transvectant(f, transvectant(f, f, 2), 4).a(0)

        f0 = form("x^4 + x^3*y + y^4")
        c = j3(f0) / quartic_invariants(f0).I3
        rng = random.Random(53)
        for _ in range(10):
            f = BinaryForm([rng.randint(-5, 5) for _ in range(5)])
            if not f or not quartic_invariants(f).I3:
                continue
            assert j3(f) == c * quartic_invariants(f).I3

    def test_equivariance(self):
        rng = random.Random(59)
        for _ in range(50):
            d, e = rng.randint(2, 4), rng.randint(2, 4)
            r = rng.randint(0, 2)
            f = BinaryForm([rng.randint(-4, 4) for _ in range(d + 1)])
            g = BinaryForm([rng.randint(-4, 4) for _ in range(e + 1)])
            if not f or not g:
                continue
            m = _random_sl2(rng)
            left = transvectant(f.substitute(m), g.substitute(m), r)
            right = transvectant(f, g, r).substitute(m)
            assert left == right

    def test_resultant_of_common_factor_vanishes(self):
        common = form("x - 2*y")
        f = common * form("x + y")
        g = common * form("x^2 + y^2")
        assert not _form_resultant(f, g)
        assert _form_resultant(form("x"), form("y")) == 1


def _product_of_linear(factors):
    f = BinaryForm([1])
    for a, b in factors:
        f = f * BinaryForm([a, -b])
    return f


class TestElimination:
    @pytest.mark.parametrize("f_factors, g_factors", [
        # roots in Q(i), Q(zeta_3), Q(zeta_5) and leading coefficients 2, zeta_5
        ([(2, zeta(4)), (1, zeta(3)), (1, 1 + zeta(5))],
         [(1, -zeta(4)), (zeta(5), 1), (1, zeta(3) ** 2 + zeta(4))]),
        # y*(x - y) has a0 = 0: the first pivot needs a row swap
        ([(0, -1), (1, 1)], [(1, zeta(4)), (1, zeta(5)), (3, zeta(3))]),
        # both forms vanish at infinity: singular Sylvester matrix
        ([(0, 1), (1, zeta(4))], [(0, 2), (1, 1)]),
    ])
    def test_resultant_is_product_of_root_differences(self, f_factors, g_factors):
        # Res(prod (a_i x - b_i y), prod (c_j x - d_j y)) = prod (b_i c_j - a_i d_j),
        # which is a0^e b0^d prod (r_i - s_j) when every a_i and c_j is nonzero.
        f = _product_of_linear(f_factors)
        g = _product_of_linear(g_factors)
        expected = as_cyclotomic(1)
        for a, b in f_factors:
            for c, d in g_factors:
                expected = expected * (b * c - a * d)
        assert _form_resultant(f, g) == expected
        assert _form_resultant(g, f) == expected * (-1) ** (f.degree * g.degree)

    def test_resultant_matches_sylvester_determinant(self):
        # Leibniz expansion of the Sylvester matrix at the formal degrees,
        # over Q, Q(i) and Q(zeta_3), with leading zeros on either side
        rng = random.Random(3)
        entries = [0, 0, 0, 1, -2, 3, QQ(1, 2), QQ(-5, 3), zeta(4), 1 - 2 * zeta(4),
                   zeta(3), QQ(2, 3) + zeta(3), zeta(4) + zeta(3)]
        leads = [([0], [1]), ([1], [0]), ([0], [0]), ([0, 0], [2]), (None, None)]
        for case in range(300):
            d, e = rng.randint(0, 3), rng.randint(0, 3)
            f = [rng.choice(entries) for _ in range(d + 1)]
            g = [rng.choice(entries) for _ in range(e + 1)]
            lf, lg = leads[case % len(leads)]
            if lf is not None:
                f[:len(lf)] = lf[:d + 1]
                g[:len(lg)] = lg[:e + 1]
            n = d + e
            m = ([[0] * k + f + [0] * (e - 1 - k) for k in range(e)]
                 + [[0] * k + g + [0] * (d - 1 - k) for k in range(d)])
            det = as_cyclotomic(0)
            for perm in itertools.permutations(range(n)):
                inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                term = as_cyclotomic((-1) ** inversions)
                for i in range(n):
                    term = term * m[i][perm[i]]
                det = det + term
            assert _form_resultant(BinaryForm(f), BinaryForm(g)) == det, (f, g)

    def test_rational_resultant_matches_fraction_sylvester_determinant(self):
        # rational forms of degrees 0-8 run the sequence on integers; the
        # reference is the Sylvester determinant by Fraction elimination,
        # and the result must be stored exactly as that rational.  Every
        # other case is sparse, so remainder degrees drop by more than one.
        rng = random.Random(71)
        entries = [0, 0, 1, -1, 2, -7, 12, QQ(1, 2), QQ(-5, 3), QQ(7, 12), QQ(11, 30)]
        for case in range(400):
            d, e = rng.randint(0, 8), rng.randint(0, 8)
            pool = entries + [0] * 12 * (case % 2)
            f = [QQ(rng.choice(pool)) for _ in range(d + 1)]
            g = [QQ(rng.choice(pool)) for _ in range(e + 1)]
            for coeffs in (f, g):
                zeros = rng.choice((0, 0, 0, 1, 2))
                coeffs[:zeros] = [QQ(0)] * min(zeros, len(coeffs))
            expected = _fraction_sylvester(f, g)
            for a, b, sign in ((f, g, 1), (g, f, (-1) ** (d * e))):
                value = _form_resultant(BinaryForm(a), BinaryForm(b))
                assert (value.order, value.coords, value.den) == \
                    (1, (sign * expected.numerator,), expected.denominator), (a, b)


class TestRelationPolynomials:
    def test_quintic_values(self):
        F = quintic_F()
        assert F.weighted_degree((4, 8, 12)) == 36
        assert (F * 324).evaluate((0, 0, 1)) == 144
        assert (F * 324).evaluate((1, 0, 0)) == 0

    def test_sextic_degree_and_entry(self):
        F = sextic_F()
        wd = (2, 4, 6, 10)
        assert F.weighted_degree(wd) == 30
        # every single term is of degree 30
        assert all(
            sum(w * k for w, k in zip(wd, e)) == 30 for e in F.terms)

    def test_sextic_a12_entry(self):
        from stackygit.invariants import _sextic_matrix

        m = _sextic_matrix()
        v = ("I2", "I4", "I6", "I10")
        expected = QQ(2, 3) * (MultiPoly.variable(v, "I4") ** 2
                               + MultiPoly.variable(v, "I2")
                               * MultiPoly.variable(v, "I6"))
        assert m[0][1] == expected
        assert m[0][1].weighted_degree((2, 4, 6, 10)) == 8

    def test_sextic_coordinate_pattern(self):
        F = sextic_F()
        values = [F.evaluate(p) for p in
                  ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
        assert sum(1 for v in values if not v) == 1
        zero_index = next(i for i, v in enumerate(values) if not v)
        point = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)][zero_index]
        assert any(d.evaluate(point) for d in F.partials())


def _reference_recipe(family, f):
    """Reference: the calibration recipes as chains of public transvectants
    and BinaryForm products, every covariant a normalized form."""
    if family == "quintic":
        i = transvectant(f, f, 4)
        alpha = transvectant(f, i, 2)
        tau = transvectant(alpha, alpha, 2)
        return {"I4": transvectant(i, i, 2), "I8": transvectant(i, tau, 2),
                "I12": transvectant(tau, tau, 2), "I18": BinaryForm([_form_resultant(f, alpha)])}
    h = transvectant(f, f, 4)
    ell = transvectant(f, h, 4)
    y = transvectant(f, ell, 2)
    m = transvectant(h, ell, 1)
    i2 = transvectant(f, f, 6)
    i4 = transvectant(h, h, 4)
    j6 = transvectant(ell, ell, 2)
    j10 = transvectant(f, ell ** 3, 6)
    i15 = transvectant(ell * y, ell * m, 6)
    i6 = j6 * QQ(1, 2) + i2 * i4 * QQ(-1, 6)
    i10 = (j10 * QQ(1, 2) + i4 * j6 * QQ(1, 3) + i2 ** 3 * i4 * QQ(1, 54)
           + i2 * i4 ** 2 * QQ(-1, 9) + i2 ** 2 * j6 * QQ(-1, 18))
    return {"I2": i2, "I4": i4, "I6": i6, "I10": i10, "I15": i15}


def _patch_quintic(monkeypatch, **changes):
    """Replace quintic invariants of the calibration table: each keyword
    maps a generator to a function of the form and its built invariants."""
    degree, count, scalars, recipe = _CALIBRATIONS["quintic"]

    def patched(f):
        env = recipe(f)
        return {**env, **{name: change(f, env) for name, change in changes.items()}}

    monkeypatch.setitem(_CALIBRATIONS, "quintic", (degree, count, scalars, patched))


class TestCalibration:
    def test_quintic_succeeds(self):
        result = calibrate_invariants("quintic")
        assert result.succeeded
        assert result.scalars["I4"] == 1
        assert result.scalars["I8"] == QQ(1, 2)
        assert result.scalars["I12"] == QQ(-1, 4)
        # the top scalar squares to 2/3^12
        assert result.scalars["I18"] ** 2 == QQ(2, 531441)

    def test_sextic_succeeds(self):
        result = calibrate_invariants("sextic")
        assert result.succeeded
        assert result.scalars["I15"] ** 2 == 25

    def test_zero_invariant_is_under_determined(self, monkeypatch):
        # (i, i)^1 = 0 for the quadratic covariant i = (f, f)^4, a covariant
        # of order 2
        def zero_covariant(f, env):
            i = transvectant(f, f, 4)
            return transvectant(i, i, 1)

        _patch_quintic(monkeypatch, I18=zero_covariant)
        with pytest.raises(UnderDeterminedError, match="order 2"):
            calibrate_invariants("quintic")
        # an invariant that vanishes at every form
        _patch_quintic(monkeypatch, I18=lambda f, env: BinaryForm([0]))
        with pytest.raises(UnderDeterminedError, match="I18 vanishes identically"):
            calibrate_invariants("quintic")

    def test_wrong_recipe_reports_failure(self, monkeypatch):
        # swap the degree-8 construction for a degenerate square
        def square(f, env):
            i2 = transvectant(f, f, 4) ** 2
            return transvectant(i2, i2, 4)

        _patch_quintic(monkeypatch, I8=square)
        result = calibrate_invariants("quintic")
        assert not result.succeeded
        assert result.residuals
        assert result.detail.startswith("the pinned scalars leave residuals")

    def test_wrong_pinned_scalar_reports_failure(self, monkeypatch):
        # the verification is not vacuous: one wrong pinned scalar fails it
        monkeypatch.setitem(QUINTIC_SCALARS, "I8", QQ(1))
        result = calibrate_invariants("quintic")
        assert not result.succeeded
        assert result.scalars is None
        assert result.residuals
        assert result.detail == (
            f"the pinned scalars leave residuals at {len(result.residuals)} "
            "of 25 random forms (seed 7)")

    def test_non_rational_invariant_is_refused(self, monkeypatch):
        # a zeta(4) multiple of I4 does not match the pinned scalars: the
        # calibration fails with residuals, and the command line exits 1
        _patch_quintic(monkeypatch, I4=lambda f, env: env["I4"] * zeta(4))
        result = calibrate_invariants("quintic")
        assert not result.succeeded
        assert result.residuals
        result = cli.run_command(["calibrate", "quintic"])
        assert result.status == 1
        assert result.payload["succeeded"] is False
        assert result.payload["residuals"]

    def test_quartic_family_has_no_relation(self):
        with pytest.raises(UnknownFamilyError):
            calibrate_invariants("quartic")

    @pytest.mark.parametrize("family", ["cubic-curve", "cubic-surface", "octic"])
    def test_only_quintics_and_sextics_calibrate(self, family):
        # the cubic-surface relation is a placeholder, not one to calibrate
        with pytest.raises(UnknownFamilyError):
            calibrate_invariants(family)
        with pytest.raises(UnknownFamilyError):
            evaluate_recipe(family, form("x^5 + y^5"))

    def test_recipe_evaluation_names(self):
        # one invariant per catalog generator, in the ring's order
        for family, source in (("quintic", "x^5 + x*y^4 + y^5"),
                               ("sextic", "x^6 + 2*x^3*y^3 - x*y^5 + 3*y^6")):
            env = evaluate_recipe(family, form(source))
            assert tuple(env) == catalog_ring(family).ring.generators
            assert all(value.degree == 0 for value in env.values())


class TestRecipes:
    @pytest.mark.parametrize("family, degree", [("quintic", 5), ("sextic", 6)])
    def test_recipes_match_the_chain_of_normalized_forms(self, family, degree):
        # the recipes divide once per invariant; every value and the field
        # it is stored in match the chain that normalizes each covariant:
        # integer forms, forms over denominators, and forms over Q(sqrt(-3))
        # and Q(zeta_5)
        rng = random.Random(83 + degree)
        forms = [BinaryForm([rng.randint(-9, 9) for _ in range(degree + 1)]) for _ in range(4)]
        forms += [BinaryForm([QQ(rng.randint(-9, 9), rng.randint(1, 6))
                              for _ in range(degree + 1)]) for _ in range(4)]
        irrational = [BinaryForm([1, 0, sqrt_minus3()] + [QQ(k - 2, 3) for k in range(degree - 2)]),
                      BinaryForm([2, zeta(5), 0] + [k - 1 for k in range(degree - 2)])]
        assert all(max(c.den for c in f.coeffs) > 1 for f in forms[4:])
        for f in forms + irrational:
            got, expected = evaluate_recipe(family, f), _reference_recipe(family, f)
            assert tuple(got) == tuple(expected)
            for name, value in got.items():
                assert [(c, c.order) for c in value.coeffs] == \
                    [(c, c.order) for c in expected[name].coeffs], (str(f), name)
        for f in irrational:
            assert any(value.a(0).order > 1 for value in evaluate_recipe(family, f).values())


    def test_quintic_resultant_matches_the_resultant_of_forms(self):
        # I18 is the list resultant of the numerators of f and alpha with
        # one division; value and field match the resultant of f with alpha
        # as a form
        rng = random.Random(89)
        forms = [BinaryForm([rng.randint(-9, 9) for _ in range(6)]) for _ in range(4)]
        forms += [BinaryForm([QQ(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(6)])
                  for _ in range(4)]
        forms.append(BinaryForm([1, 0, sqrt_minus3(), QQ(-2, 3), QQ(1, 3), 2]))
        assert all(max(c.den for c in f.coeffs) > 1 for f in forms[4:])
        values = []
        for f in forms:
            (fc,) = _numerators(f.coeffs)
            alpha = _form(_transvectant(fc, _transvectant(fc, fc, 4), 2))
            got, expected = evaluate_recipe("quintic", f)["I18"].a(0), _form_resultant(f, alpha)
            assert (got, got.order) == (expected, expected.order), str(f)
            values.append(got)
        assert all(values) and values[-1].order > 1


class TestMonomialRows:
    def test_power_table_rows_match_monomial_values(self):
        # MultiPoly.evaluate reads monomials of rational values as integer
        # numerators over one denominator, prod d_j^t_j; the reference
        # multiplies Fractions
        def reference(values, monos):
            return [prod((QQ(v) ** k for v, k in zip(values, m) if k), start=QQ(1))
                    for m in monos]

        rng = random.Random(67)
        # the monomials of weight 30 in weights (2, 4, 6, 10)
        monos = [m for m in itertools.product(range(16), range(8), range(6), range(4))
                 if 2 * m[0] + 4 * m[1] + 6 * m[2] + 10 * m[3] == 30]
        assert len(monos) == 47
        tops = [max(k) for k in zip(*monos)]
        values = [0, 1, -1, 7, QQ(-5, 3), QQ(7, 4), QQ(5, -6), QQ(-11, 10)]
        for _ in range(30):
            rationals = [rng.choice(values) for _ in range(4)]
            point = [as_cyclotomic(v) for v in rationals]
            den, nums = _monomial_ints(point, monos)
            assert den == prod(p.den ** t for p, t in zip(point, tops))
            assert [QQ(n, den) for n in nums] == reference(rationals, monos)
        # a variable that occurs in no monomial (t_j = 0) may be irrational
        point = [as_cyclotomic(QQ(2, 3)), zeta(5) + QQ(1, 7), as_cyclotomic(QQ(-1, 2))]
        monos = [(2, 0, 1), (0, 0, 3), (1, 0, 0), (0, 0, 0)]
        den, nums = _monomial_ints(point, monos)
        # den = 3^2 2^3, and monomial e has numerator prod v_j^e_j d_j^(t_j - e_j)
        assert den == 72
        assert nums == [2 ** 2 * -1 * 2 ** 2, 3 ** 2 * (-1) ** 3, 2 * 3 * 2 ** 3, 3 ** 2 * 2 ** 3]
        assert [QQ(n, den) for n in nums] == reference((QQ(2, 3), None, QQ(-1, 2)), monos)
