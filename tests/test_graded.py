import random

import pytest

from stackygit.cli import run_command
from stackygit.errors import (
    ArityError,
    CommonFactorError,
    ConditionViolationError,
    IndivisibleWeightError,
    ShapeError,
    UnknownGeneratorError,
)
from stackygit.graded import (
    GradedRingPresentation,
    affine_chart,
    hcf_degrees,
    inertia_strata,
    is_well_formed,
    presentations_equal,
    rigidify,
    root_stack,
    stacky_decompose,
    veronese,
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


class TestHcfAndRigidify:
    def test_hcf_values(self):
        assert hcf_degrees(GradedRingPresentation(("a", "b", "c", "d"), (4, 8, 12, 18))) == 2
        assert hcf_degrees(GradedRingPresentation("abcde", (2, 4, 6, 10, 15))) == 1
        assert hcf_degrees(GradedRingPresentation("abcdef", (8, 16, 24, 32, 40, 100))) == 4

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
        base = GradedRingPresentation(("I4", "I8", "I12"), (1, 2, 3))
        rooted = root_stack(base, quintic_F(), 2, root_name="I18")
        assert rooted.weights == (2, 4, 6, 9)
        assert presentations_equal(rooted, veronese(quintic_ring(), 2))

    def test_common_factor_rejected(self):
        base = GradedRingPresentation(("x0", "x1"), (1, 1))
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
            base = GradedRingPresentation(("a",), (n,))
            s = MultiPoly(("a",), {(1,): 1})
            with pytest.raises(CommonFactorError):
                root_stack(base, s, r)

    def test_first_root_matches_regrade(self):
        base = GradedRingPresentation(("a", "b", "c"), (1, 2, 3))
        rooted = root_stack(base, MultiPoly(("a", "b", "c"), quintic_F().terms), 1)
        # t = s eliminates the new generator; the base weights are unchanged
        assert rooted.weights[:3] == base.weights
        assert rooted.weights[3] == 9
        t_only = [e for e in rooted.relation.terms if e[3] == 1]
        assert len(t_only) == 1  # relation is linear in t, so t is eliminable

    def test_generator_name_collision(self):
        base = GradedRingPresentation(("t", "u"), (1, 2))
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

    def test_random_weights_match_the_reference(self):
        rng = random.Random(27)
        for _ in range(300):
            weights = tuple(rng.randint(1, 30) for _ in range(rng.randint(2, 5)))
            assert is_well_formed(weights) == _well_formed_reference(weights), weights


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
            stacky_decompose(GradedRingPresentation(("a", "b"), (2, 3)))
        cusp = GradedRingPresentation(
            ("a", "t"), (2, 3),
            MultiPoly(("a", "t"), {(0, 2): 1, (3, 0): -1, (0, 1): 0}))
        # t^2 - a^3 has d = 2 and top weight 3: (i) and (iii) hold, and the
        # one rescaled base weight e = (1,) is the well-formed point P(1)
        report = stacky_decompose(cusp)
        assert report.coarse_weights == (1,) and report.gerbe_index == 1
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
        # the coordinate points carry mu_2 and mu_3, the open stratum nothing
        assert inertia_strata((2, 3)) == [((0,), 2), ((1,), 3), ((0, 1), 1)]
        assert inertia_strata((1, 2, 3)) == [
            ((0,), 1), ((1,), 2), ((2,), 3),
            ((0, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 1, 2), 1)]
        strata = inertia_strata((1, 2, 3, 5))
        assert len(strata) == 15
        assert [(s, g) for s, g in strata if g > 1] == [((1,), 2), ((2,), 3), ((3,), 5)]
        assert [(s, g) for s, g in inertia_strata((1, 2, 3, 4, 5)) if g > 1] == \
            [((1,), 2), ((2,), 3), ((3,), 4), ((4,), 5), ((1, 3), 2)]
        # P(4, 6) and P(2, 4, 6) are not well formed: mu_2 fixes every point,
        # and the coordinate points carry more
        assert inertia_strata((4, 6)) == [((0,), 4), ((1,), 6), ((0, 1), 2)]
        assert inertia_strata((2, 4, 6)) == [
            ((0,), 2), ((1,), 4), ((2,), 6),
            ((0, 1), 2), ((0, 2), 2), ((1, 2), 2), ((0, 1, 2), 2)]

    def test_random_strata_match_the_reference(self):
        rng = random.Random(28)
        for _ in range(100):
            weights = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 5)))
            assert inertia_strata(weights) == _strata_reference(weights), weights

    def test_chart_small(self):
        ring = GradedRingPresentation(("I2", "I3"), (2, 3))
        chart = affine_chart(ring, "I2")
        assert chart.modulus == 2
        assert chart.residual == (("I3", 1),)

    def test_chart_weight_one_is_scheme_like(self):
        ring = GradedRingPresentation(("a", "b"), (1, 5))
        chart = affine_chart(ring, "a")
        assert chart.modulus == 1 and chart.residual == (("b", 0),)

    def test_chart_quintic(self):
        chart = affine_chart(quintic_ring(), "I12")
        assert chart.residual == (("I4", 4), ("I8", 8), ("I18", 6))

    def test_chart_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            affine_chart(quintic_ring(), "I7")


class TestPresentationEquality:
    def test_compares_by_position(self):
        a = GradedRingPresentation(("x", "y"), (2, 3))
        assert presentations_equal(a, GradedRingPresentation(("x", "y"), (2, 3)))
        # a renaming or a reordering of the generators is a different
        # presentation, even where it is an isomorphic ring
        assert not presentations_equal(a, GradedRingPresentation(("u", "v"), (2, 3)))
        assert not presentations_equal(a, GradedRingPresentation(("y", "x"), (3, 2)))
        gens = ("a", "t")
        p = GradedRingPresentation(gens, (2, 3), MultiPoly(gens, {(0, 2): 1, (3, 0): -1}))
        swapped = GradedRingPresentation(
            ("t", "a"), (3, 2), MultiPoly(("t", "a"), {(2, 0): 1, (0, 3): -1}))
        assert not presentations_equal(p, swapped)
        assert not presentations_equal(p, GradedRingPresentation(gens, (2, 3)))

    def test_relation_scalar(self):
        gens = ("a", "t")
        rel = MultiPoly(gens, {(0, 2): 1, (3, 0): -1})
        p = GradedRingPresentation(gens, (2, 3), rel)
        q = GradedRingPresentation(gens, (2, 3), MultiPoly(gens, {(0, 2): -7, (3, 0): 7}))
        assert presentations_equal(p, q)
        r = GradedRingPresentation(gens, (2, 3), MultiPoly(gens, {(0, 2): 1, (3, 0): 1}))
        assert not presentations_equal(p, r)

    def test_weight_mismatch(self):
        assert not presentations_equal(
            GradedRingPresentation("ab", (1, 2)), GradedRingPresentation("ab", (1, 3)))


class TestRelationDegree:
    def test_nonzero_constant_is_refused(self):
        gens = ("a", "b")
        for c in (5, -1):
            with pytest.raises(ShapeError, match="is a nonzero constant"):
                GradedRingPresentation(gens, (2, 3), MultiPoly.constant(gens, c))

    def test_zero_relation_is_no_relation(self):
        gens = ("a", "b")
        ring = GradedRingPresentation(gens, (2, 3), MultiPoly.constant(gens, 0))
        assert ring.relation is None


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _gcd_all(values):
    g = 0
    for v in values:
        g = _gcd(g, v)
    return g


def _well_formed_reference(weights):
    """No n - 1 of the weights share a factor, from pairwise gcds."""
    return all(_gcd_all(weights[:i] + weights[i + 1:]) == 1 for i in range(len(weights)))


def _strata_reference(weights):
    """Every nonempty support, read off the bits of 1 .. 2^n - 1, with the
    gcd of its weights; ordered by size, then lexicographically."""
    n = len(weights)
    supports = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2 ** n)]
    return [(s, _gcd_all([weights[i] for i in s]))
            for s in sorted(supports, key=lambda s: (len(s), s))]
