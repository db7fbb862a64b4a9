import random

import pytest

from stackygit.cli import run_command
from stackygit.errors import (
    ArityError,
    CommonFactorError,
    ConditionViolationError,
    IndivisibleWeightError,
    NotWellFormedError,
    ShapeError,
    UnknownGeneratorError,
)
from stackygit.graded import (
    GradedRingPresentation,
    affine_chart,
    free_ring,
    hcf_degrees,
    is_well_formed,
    presentations_isomorphic,
    regrade_inverse,
    rigidify,
    root_stack,
    stacky_decompose,
    veronese,
    wps_singular_strata,
)
from stackygit.invariants import catalog_ring, quintic_F
from stackygit.polynomials import MultiPoly


def quintic_ring():
    return catalog_ring("quintic").ring


class TestVeronese:
    def test_quintic_halving(self):
        half = veronese(quintic_ring(), 2)
        assert half.weights == (2, 4, 6, 9)
        assert half.relation.weighted_degree(half.weights) == 18

    def test_cubic_curve(self):
        assert veronese(catalog_ring("cubic-curve").ring, 2).weights == (2, 3)

    def test_identity(self):
        r = quintic_ring()
        assert veronese(r, 1) == r

    def test_indivisible(self):
        with pytest.raises(IndivisibleWeightError):
            veronese(quintic_ring(), 3)

    def test_inverse_regrade_roundtrip(self):
        r = free_ring(("a", "b", "c"), (1, 2, 3))
        assert regrade_inverse(r, 4).weights == (4, 8, 12)
        assert veronese(regrade_inverse(r, 4), 4) == r


class TestHcfAndRigidify:
    def test_hcf_values(self):
        assert hcf_degrees(free_ring(("a", "b", "c", "d"), (4, 8, 12, 18))) == 2
        assert hcf_degrees(free_ring("abcde", (2, 4, 6, 10, 15))) == 1
        assert hcf_degrees(free_ring("abcdef", (8, 16, 24, 32, 40, 100))) == 4

    def test_rigidify_cubic_curve(self):
        rigid, gerbe = rigidify(catalog_ring("cubic-curve").ring)
        assert rigid.weights == (2, 3) and gerbe == 2

    def test_sextic_is_its_own_rigidification(self):
        ring = catalog_ring("sextic").ring
        rigid, gerbe = rigidify(ring)
        assert gerbe == 1 and rigid == ring

    def test_cubic_surface(self):
        rigid, gerbe = rigidify(catalog_ring("cubic-surface").ring)
        assert rigid.weights == (2, 4, 6, 8, 10, 25) and gerbe == 4

    def test_rigidify_idempotent(self):
        for family in ("quartic", "quintic", "sextic",
                       "cubic-curve", "cubic-surface"):
            rigid, _ = rigidify(catalog_ring(family).ring)
            assert hcf_degrees(rigid) == 1


class TestRootStack:
    def test_square_root_of_quintic_divisor(self):
        base = free_ring(("I4", "I8", "I12"), (1, 2, 3))
        rooted = root_stack(base, quintic_F(), 2, root_name="I18")
        assert rooted.weights == (2, 4, 6, 9)
        assert presentations_isomorphic(rooted, veronese(quintic_ring(), 2))

    def test_common_factor_rejected(self):
        base = free_ring(("x0", "x1"), (1, 1))
        s = MultiPoly(("x0", "x1"), {(2, 0): 1, (0, 2): 1})
        with pytest.raises(CommonFactorError):
            root_stack(base, s, 2)

    def test_random_common_factors_rejected(self):
        rng = random.Random(41)
        count = 0
        while count < 50:
            r = rng.randint(2, 12)
            n = rng.randint(2, 12)
            g = _gcd(r, n)
            if g == 1:
                continue
            count += 1
            base = free_ring(("a",), (n,))
            s = MultiPoly(("a",), {(1,): 1})
            with pytest.raises(CommonFactorError):
                root_stack(base, s, r)

    def test_first_root_matches_regrade(self):
        base = free_ring(("a", "b", "c"), (1, 2, 3))
        rooted = root_stack(base, quintic_F().renamed(
            {"I4": "a", "I8": "b", "I12": "c"}), 1)
        # t = s eliminates the new generator; the base part is the regrading
        assert rooted.weights[:3] == regrade_inverse(base, 1).weights
        assert rooted.weights[3] == 9
        t_only = [e for e in rooted.relation.terms if e[3] == 1]
        assert len(t_only) == 1  # relation is linear in t, so t is eliminable

    def test_generator_name_collision(self):
        base = free_ring(("t", "u"), (1, 2))
        s = MultiPoly(("t", "u"), {(1, 1): 1})
        rooted = root_stack(base, s, 2)
        assert len(set(rooted.generators)) == 4 - 1

    def test_relation_base_rejected(self):
        with pytest.raises(ShapeError):
            root_stack(quintic_ring(), quintic_F().lifted(
                quintic_ring().generators), 2)


class TestWellFormed:
    def test_examples(self):
        assert is_well_formed((1, 2, 3))
        assert is_well_formed((1, 2, 3, 5))
        assert not is_well_formed((2, 3))
        assert not is_well_formed((2, 4, 3))
        with pytest.raises(ArityError):
            is_well_formed((5,))


class TestRecognizeAndDecompose:
    @pytest.mark.parametrize("family, d, e", [
        ("quintic", 4, (1, 2, 3)),
        ("sextic", 2, (1, 2, 3, 5)),
        ("cubic-surface", 8, (1, 2, 3, 4, 5)),
    ])
    def test_recognize(self, family, d, e):
        report = stacky_decompose(catalog_ring(family).ring)
        assert report.gerbe_index == d // 2 and report.coarse_weights == e
        assert report.root_divisor_degree % 2 == 1

    def test_shape_errors(self, tmp_path):
        with pytest.raises(ShapeError):
            stacky_decompose(free_ring(("a", "b"), (2, 3)))
        bad = GradedRingPresentation(
            ("a", "t"), (2, 3),
            MultiPoly(("a", "t"), {(0, 2): 1, (3, 0): -1, (0, 1): 0}))
        # t^2 - a^3 has gcd d = 2 dividing 2*3 = 6: passes (iii) but d | 3? no;
        # conditions: d = 2, top = 3: 3 % 2 = 1 so (i) holds; e = (1) needs
        # two weights, so well-formedness fails with an arity error
        with pytest.raises(ArityError):
            stacky_decompose(bad)
        # t^2 alone: F = 0, so there is no base part to take a root along
        square_only = GradedRingPresentation(
            ("a", "t"), (2, 3), MultiPoly(("a", "t"), {(0, 2): 1}))
        with pytest.raises(ShapeError):
            stacky_decompose(square_only)
        spec = tmp_path / "square.ring"
        spec.write_text("a : 2\nt : 3\nrelation: t^2\n")
        result = run_command(["decompose", str(spec)])
        assert result.status == 2
        assert result.payload["error"]["code"] == "relation-shape"

    def test_condition_violations(self):
        # (i): top weight divisible by the base hcf
        r1 = GradedRingPresentation(
            ("a", "b", "t"), (2, 4, 6),
            MultiPoly(("a", "b", "t"), {(0, 0, 2): 1, (2, 2, 0): -1}))
        with pytest.raises(ConditionViolationError) as err:
            stacky_decompose(r1)
        assert err.value.condition == "i"
        # (ii): rescaled weights not well formed
        r2 = GradedRingPresentation(
            ("a", "b", "t"), (2, 4, 5),
            MultiPoly(("a", "b", "t"), {(0, 0, 2): 1, (5, 0, 0): -1}))
        with pytest.raises(ConditionViolationError) as err:
            stacky_decompose(r2)
        assert err.value.condition == "ii"

    @pytest.mark.parametrize("family, coarse, degree, gerbe", [
        ("quintic", (1, 2, 3), 9, 2),
        ("sextic", (1, 2, 3, 5), 15, 1),
        ("cubic-surface", (1, 2, 3, 4, 5), 25, 4),
    ])
    def test_decompose(self, family, coarse, degree, gerbe):
        ring = catalog_ring(family).ring
        report = stacky_decompose(ring)
        assert report.coarse_weights == coarse
        assert report.root_divisor_degree == degree
        assert report.gerbe_index == gerbe
        assert is_well_formed(report.coarse_weights)
        assert report.gerbe_index * 2 == _gcd_all(ring.weights[:-1])
        # halving the rigidification's base weights recovers the coarse ones
        assert tuple(w // 2 for w in report.rigidification.weights[:-1]) == coarse
        assert report.rigidification.weights[-1] == degree


class TestStrataAndCharts:
    def test_strata(self):
        assert wps_singular_strata((1, 2, 3)) == [((1,), 2), ((2,), 3)]
        assert wps_singular_strata((1, 2, 3, 5)) == \
            [((1,), 2), ((2,), 3), ((3,), 5)]
        assert wps_singular_strata((1, 1, 1)) == []
        assert wps_singular_strata((1, 2, 3, 4, 5)) == \
            [((1, 3), 2), ((2,), 3), ((4,), 5)]

    def test_strata_requires_well_formed(self):
        with pytest.raises(NotWellFormedError):
            wps_singular_strata((2, 4, 6))

    def test_chart_small(self):
        ring = free_ring(("I2", "I3"), (2, 3))
        chart = affine_chart(ring, "I2")
        assert chart.modulus == 2
        assert chart.residual == (("I3", 1),)
        assert chart.automorphism_group == "mu_2"

    def test_chart_weight_one_is_scheme_like(self):
        ring = free_ring(("a", "b"), (1, 5))
        chart = affine_chart(ring, "a")
        assert chart.modulus == 1 and chart.residual == (("b", 0),)

    def test_chart_quintic(self):
        chart = affine_chart(quintic_ring(), "I12")
        assert chart.residual == (("I4", 4), ("I8", 8), ("I18", 6))

    def test_chart_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            affine_chart(quintic_ring(), "I7")


class TestPresentationEquality:
    def test_name_insensitive(self):
        a = free_ring(("x", "y"), (2, 3))
        b = free_ring(("u", "v"), (3, 2))
        assert presentations_isomorphic(a, b)

    def test_relation_scalar(self):
        gens = ("a", "t")
        rel = MultiPoly(gens, {(0, 2): 1, (3, 0): -1})
        p = GradedRingPresentation(gens, (2, 3), rel)
        q = GradedRingPresentation(("b", "s"), (2, 3),
                                   MultiPoly(("b", "s"), {(0, 2): -7, (3, 0): 7}))
        assert presentations_isomorphic(p, q)

    def test_weight_mismatch(self):
        assert not presentations_isomorphic(
            free_ring("ab", (1, 2)), free_ring("ab", (1, 3)))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _gcd_all(values):
    g = 0
    for v in values:
        g = _gcd(g, v)
    return g
