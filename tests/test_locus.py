import random
from math import gcd

import pytest

from stackygit.cyclotomic import QQ, zeta
from stackygit import graded
from stackygit.cli import run_command
from stackygit.errors import InhomogeneousError
from stackygit.invariants import quintic_F, sextic_F
from stackygit.locus import (
    LocusClaim,
    PointW,
    is_singular_at,
    quintic_locus_report,
    sextic_locus_report,
)
from stackygit.polynomials import MultiPoly

W123 = (1, 2, 3)


class TestPointW:
    def test_defined_in_graded(self):
        # invariants and locus both import the one class from graded
        assert PointW is graded.PointW

    def test_weighted_rescaling_equality(self):
        p = PointW((-3, 3, 3), W123)
        rng = random.Random(61)
        for _ in range(20):
            t = QQ(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            assert p.rescaled(t) == p

    def test_cyclotomic_rescaling(self):
        p = PointW((1, 1, 1), W123)
        assert p.rescaled(zeta(8)) == p

    def test_distinct_points(self):
        assert PointW((0, 1, 0), W123) != PointW((0, 0, 1), W123)
        assert PointW((1, 1, 1), W123) != PointW((1, 1, 2), W123)

    def test_torsion_twist_equality(self):
        # (1, 1) and (1, -1) in P(2, 3) ARE equal: t = -1 fixes the first
        # coordinate and flips the second.  With weights (2, 4) they are
        # not: t^2 = 1 forces t^4 = 1.
        w23 = (2, 3)
        assert PointW((1, 1), w23) == PointW((1, -1), w23)
        w24 = (2, 4)
        assert PointW((1, 1), w24) != PointW((1, -1), w24)

    def test_pairwise_equality_matches_the_extended_gcd_rule(self):
        rng = random.Random(1109)
        answers = []
        for _ in range(2000):
            p, q = _random_point_pair(rng)
            answer = p == q
            assert answer is _xgcd_rule(p, q), (p, q)
            answers.append(answer)
        assert 500 < sum(answers) < 1500

    def test_equal_points_hash_equal_or_not_at_all(self):
        # (1 : 0) and (4 : 0) are one point of P(2, 3), t = 2, but their
        # coordinates differ
        a, b = PointW((1, 0), (2, 3)), PointW((4, 0), (2, 3))
        assert a == b
        try:
            assert hash(a) == hash(b)
        except TypeError:
            pass

    def test_inequality_is_the_negation_of_equality(self):
        rng = random.Random(1117)
        for _ in range(300):
            p, q = _random_point_pair(rng)
            assert (p != q) is not (p == q), (p, q)
        assert not PointW((1, 0), (2, 3)) != PointW((4, 0), (2, 3))

    def test_not_all_zero(self):
        with pytest.raises(ValueError):
            PointW((0, 0, 0), W123)

    @pytest.mark.parametrize("weights", [(1, 0, 3), (1, -2, 3), [0, 2, 3]])
    def test_weights_must_be_positive(self, weights):
        with pytest.raises(ValueError):
            PointW((1, 0, 0), weights)


def _xgcd_rule(p, q):
    """Reference for PointW equality: with g = gcd(e_i) and integers c_i
    with sum c_i e_i/g = 1 (extended Euclid), the candidate u = t^g is
    prod r_i^{c_i}, and the points agree iff every ratio r_i is u^{e_i/g}."""
    if p.weights != q.weights or p.support() != q.support():
        return False
    sup = p.support()
    ratios = [q.coordinates[i] / p.coordinates[i] for i in sup]
    g = gcd(*(p.weights[i] for i in sup))
    exps = [p.weights[i] // g for i in sup]
    combo, d = [1] + [0] * (len(exps) - 1), exps[0]
    for i in range(1, len(exps)):
        old_r, r, old_s, s, old_t, t = d, exps[i], 1, 0, 0, 1
        while r:
            k = old_r // r
            old_r, r = r, old_r - k * r
            old_s, s = s, old_s - k * s
            old_t, t = t, old_t - k * t
        combo = [c * old_s for c in combo]
        combo[i], d = old_t, old_r
    u = 1
    for r, c in zip(ratios, combo):
        u = u * r ** c
    return all(r == u ** e for r, e in zip(ratios, exps))


def _random_point_pair(rng):
    """Two points of one P(w) over Q, Q(i), Q(zeta_3) or Q(zeta_8): a
    rescaling, a rescaling with one coordinate twisted by a root of unity,
    or an unrelated point with the same support."""
    m = rng.choice([1, 4, 3, 8])
    z = zeta(m) if m > 1 else 1

    def value(nonzero=False):
        v = sum(rng.randint(-3, 3) * z ** k for k in range(2))
        return v if v or not nonzero else 1

    weights = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
    coords = [value() if rng.random() < 0.7 else 0 for _ in weights]
    coords[rng.randrange(len(coords))] = value(nonzero=True)
    p = PointW(coords, weights)
    kind = rng.choice(["rescale", "twist", "other"])
    if kind == "other":
        other = [value(nonzero=True) if c else 0 for c in p.coordinates]
        return p, PointW(other, weights)
    q = p.rescaled(value(nonzero=True))
    if kind == "twist":
        twisted = list(q.coordinates)
        i = rng.choice(p.support())
        twisted[i] = twisted[i] * zeta(rng.choice([2, 3, 4, 6, 8])) ** rng.randint(1, 7)
        q = PointW(twisted, weights)
    return p, q


class TestDivisorChecks:
    def test_divisor_membership_is_rescaling_invariant(self):
        F = quintic_F()
        rng = random.Random(67)
        for coords in ((1, 0, 0), (0, 1, 0), (-3, 3, 3), (1, 1, 1)):
            p = PointW(coords, W123)
            base = not F.evaluate(p.coordinates)
            sing = is_singular_at(F, p)
            for _ in range(20):
                t = QQ(rng.randint(1, 7), rng.randint(1, 7))
                q = p.rescaled(t)
                assert (not F.evaluate(q.coordinates)) == base
                assert is_singular_at(F, q) == sing

    def test_singularities(self):
        F = quintic_F()
        assert is_singular_at(F, PointW((1, 0, 0), W123))
        assert is_singular_at(F, PointW((-3, 3, 3), W123))
        # on Z(F) and smooth there, then off Z(F)
        assert not is_singular_at(F, PointW((0, 1, 0), W123))
        assert not is_singular_at(F, PointW((0, 0, 1), W123))

    def test_inhomogeneous_rejected(self):
        bad = MultiPoly(("a", "b", "c"), {(1, 0, 0): 1, (0, 0, 1): 1})
        with pytest.raises(InhomogeneousError):
            is_singular_at(bad, PointW((1, 0, 0), W123))

    def test_weight_mismatch(self):
        # the point's weights are the ones checked: F is not homogeneous
        # for (1, 2, 4)
        with pytest.raises(InhomogeneousError):
            is_singular_at(quintic_F(), PointW((1, 0, 0), (1, 2, 4)))


class TestEulerRelation:
    @pytest.mark.parametrize("F, weights, degree", [
        (quintic_F(), (1, 2, 3), 9),
        (sextic_F(), (2, 4, 6, 10), 30),
    ])
    def test_euler(self, F, weights, degree):
        total = MultiPoly(F.variables)
        for i, d in enumerate(F.partials()):
            total = total + MultiPoly.variable(F.variables, F.variables[i]) \
                * d * weights[i]
        assert total == F * degree


class TestReports:
    def test_quintic_report_all_verified(self):
        assert all(c.sound for c in quintic_locus_report().claims)
        payload = run_command(["--json", "locus", "quintic"]).payload
        assert payload["status"] == 0
        assert payload["counts"] == {"verified": 4, "refuted": 0, "out-of-scope": 0}

    def test_quintic_claim_labels(self):
        labels = [c.label for c in quintic_locus_report().claims]
        assert labels == [
            "divisor-is-extra-involution-locus",
            "ambient-singular-points",
            "divisor-singular-points",
            "divisor-through-one-ambient-singularity",
        ]

    def test_quintic_numbering_note_recorded(self):
        report = quintic_locus_report()
        claim = {c.label: c for c in report.claims}["divisor-singular-points"]
        assert "typo" in claim.note

    def test_sextic_report(self):
        assert all(c.sound for c in sextic_locus_report().claims)
        payload = run_command(["--json", "locus", "sextic"]).payload
        assert payload["status"] == 0
        assert payload["counts"] == {"verified": 3, "refuted": 0, "out-of-scope": 4}

    def test_sextic_claim_labels(self):
        labels = [c.label for c in sextic_locus_report().claims]
        assert labels == [
            "divisor-is-extra-involution-locus",
            "ambient-singular-points",
            "singular-locus-two-curves",
            "curve-III-singular-point",
            "curve-IV-singular-point",
            "curves-intersection",
            "divisor-at-ambient-singularities",
        ]

    def test_divisor_meets_one_ambient_singularity(self):
        # Z(F) passes through the mu_2 point of P(1,2,3) and misses the mu_3
        # point; in P(1,2,3,5) it passes through the mu_2 point alone
        quintic = {c.label: c for c in quintic_locus_report().claims}
        assert quintic["ambient-singular-points"].witnesses == \
            ("(0 : 1 : 0)", "(0 : 0 : 1)", "stabilizers mu_2 and mu_3")
        assert quintic["divisor-through-one-ambient-singularity"].witnesses == \
            ("on divisor: (0 : 1 : 0)", "off divisor: (0 : 0 : 1)")
        sextic = {c.label: c for c in sextic_locus_report().claims}
        assert sextic["divisor-at-ambient-singularities"].witnesses == (
            "(0 : 1 : 0 : 0): F = 0", "(0 : 0 : 1 : 0): F = -16/9",
            "(0 : 0 : 0 : 1): F = -2")

    def test_labels_unique(self):
        for report in (quintic_locus_report(), sextic_locus_report()):
            labels = [c.label for c in report.claims]
            assert len(labels) == len(set(labels))

    def test_json_round_trip(self):
        import json

        again = json.loads(run_command(["--json", "locus", "sextic"]).json_text())
        assert again["family"] == "sextic"
        assert len(again["claims"]) == 7

    def test_payload_claims_carry_exactly_the_record_fields(self):
        # a field added to LocusClaim reaches the payload, so this test must
        # change with it
        for family in ("quintic", "sextic"):
            claims = run_command(["--json", "locus", family]).payload["claims"]
            assert claims and all(set(c) == set(LocusClaim._fields) for c in claims)
