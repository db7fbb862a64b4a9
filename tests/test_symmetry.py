import hashlib
import random
from math import prod

import pytest

from stackygit.acceptance import SECOND_PARAMS
from stackygit.cyclotomic import QQ, as_cyclotomic, zeta
from stackygit.errors import (
    InfiniteStabilizerError,
    NoGroundFormsError,
    OrderCapExceededError,
    ZeroFormError,
    ZeroParameterError,
)
from stackygit.exprparse import form
from stackygit.groups import (
    GroupSpec,
    SL2Matrix,
    group_contains,
    group_elements,
    group_generators,
)
from stackygit.polynomials import BinaryForm
from stackygit.symmetry import (
    CATALOG,
    NUMBERED_CASES,
    POLYHEDRAL_SUBGROUPS,
    catalog_stabilizer,
    ground_forms,
    has_finite_stabilizer,
    is_stable,
    klein_degree,
    klein_generate,
    semi_invariance,
)

BY_CASE = {c.case: c for c in CATALOG}


class TestSemiInvariance:
    def test_quartic_case_one(self):
        assert semi_invariance(form("x^4 + y^4"), GroupSpec("D", 4)) is not None

    def test_quartic_fails_tetrahedral(self):
        assert semi_invariance(form("x^4 + y^4"), GroupSpec("T")) is None

    def test_octahedral_ground_form(self):
        assert semi_invariance(form("x*y*(x^4 - y^4)"), GroupSpec("O")) is not None

    def test_character_is_multiplicative(self):
        rng = random.Random(31)
        for case_id, label in [("quintic.V", "D5"), ("sextic.VI", "O"),
                               ("quartic.II", "T")]:
            f = BY_CASE[case_id].build()
            spec = GroupSpec.parse(label)
            cert = semi_invariance(f, spec)
            gens = group_generators(spec)
            for _ in range(20):
                word = [rng.randrange(len(gens)) for _ in range(rng.randint(1, 5))]
                matrix = gens[word[0]]
                for k in word[1:]:
                    matrix = matrix * gens[k]
                lam = prod(cert.scalars[i] for i in word)
                assert f.substitute(matrix) == lam * f


    def test_cyclic_and_dihedral_are_decided_without_substituting(self, monkeypatch):
        def refuse(self, m):
            raise AssertionError("substituted")

        monkeypatch.setattr(BinaryForm, "substitute", refuse)
        decided = 0
        for case in CATALOG:
            f = case.build()
            for kind in "CD":
                for n in range(1, 13):
                    decided += semi_invariance(f, GroupSpec(kind, n)) is not None
        assert decided >= 2 * len(CATALOG)

    def test_support_rule_rejects_only_what_substitution_refutes(self):
        # Sparse forms whose support is often an arithmetic progression,
        # symmetric about the middle half the time, over Q, Q(i), Q(zeta_3),
        # Q(zeta_5) and Q(zeta_9).  Each certificate's scalars, as stored,
        # are those of substituting the generators, wherever substitution
        # stays within the order cap.
        rng = random.Random(37)
        pool = (-3, -1, 1, 2, 1 + zeta(4), zeta(3), 2 - zeta(5), zeta(9))
        compared = 0
        for _ in range(60):
            degree, step = rng.randint(2, 24), rng.randint(1, 12)
            start = rng.randint(0, degree)
            coeffs = [0] * (degree + 1)
            for i in range(start, degree + 1, step):
                coeffs[i] = rng.choice(pool)
            if rng.random() < 0.5:
                coeffs = [a or b for a, b in zip(coeffs, reversed(coeffs))]
            if rng.random() < 0.3:
                coeffs[rng.randint(0, degree)] = 5
            f = BinaryForm(coeffs)
            for kind in "CD":
                for n in range(1, 13):
                    spec = GroupSpec(kind, n)
                    try:
                        expected = _substituted_scalars(f, spec)
                    except OrderCapExceededError:
                        continue
                    cert = semi_invariance(f, spec)
                    assert _layout(cert.scalars if cert else None) == \
                        _layout(expected), (coeffs, spec)
                    compared += 1
        assert compared >= 1200

    def test_polyhedral_certificates_match_substitution(self):
        # Klein forms of T, O and I with pencil pairs over Q, Q(i), Q(zeta_5)
        # and Q(zeta_9), some times a linear factor over those fields (which
        # breaks the symmetry, or keeps it for the factors x and y under
        # the diagonal generators); each certificate's scalars, as stored,
        # are those of substituting every generator
        rng = random.Random(41)
        fields = ((1, -2, 3), (zeta(4), 1 - zeta(4), 2), (zeta(5), 2 + zeta(5) ** 2, -1),
                  (zeta(9), zeta(9) ** 4 - 1, 3))
        compared = certified = 0
        for _ in range(150):
            spec = GroupSpec(rng.choice("TOI"))
            pool = rng.choice(fields)
            exps = [rng.randint(0, 1) for _ in range(3)]
            params = [(rng.choice(pool), rng.choice(pool))
                      for _ in range(rng.randint(0, 1 if spec.kind == "I" else 2))]
            try:
                f = klein_generate(spec, *exps, params)
                if rng.random() < 0.4:
                    f = f * BinaryForm(rng.choice(([1, rng.choice(pool)], [1, 0], [0, 1])))
            except OrderCapExceededError:
                continue
            if f.degree > 70:
                continue
            for other in (GroupSpec("T"), GroupSpec("O"), GroupSpec("I")):
                try:
                    expected = _substituted_scalars(f, other)
                except OrderCapExceededError:
                    continue
                cert = semi_invariance(f, other)
                assert _layout(cert.scalars if cert else None) == \
                    _layout(expected), (str(f), other)
                compared += 1
                certified += cert is not None
        assert compared >= 300
        assert 50 <= certified <= compared - 50

    def test_only_matrices_with_no_zero_entry_are_substituted(self, monkeypatch):
        substituted = []
        original = BinaryForm.substitute

        def recorded(self, m):
            substituted.append(m)
            return original(self, m)

        monkeypatch.setattr(BinaryForm, "substitute", recorded)
        forms = [case.build() for case in CATALOG]
        for label in "TOI":
            spec = GroupSpec(label)
            forms += [klein_generate(spec, *exps) for exps in
                      ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))]
            forms.append(klein_generate(spec, 0, 0, 0, [(2, 3)]))
        specs = [GroupSpec(kind, n) for kind in "CD" for n in range(1, 13)]
        specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
        for f in forms:
            for spec in specs:
                semi_invariance(f, spec)
        assert len(substituted) >= len(forms)
        assert all(m.a and m.b and m.c and m.d for m in substituted)
        full = {m for spec in specs[-3:] for m in group_generators(spec)
                if m.a and m.b and m.c and m.d}
        assert set(substituted) == full and len(full) == 2

    @pytest.mark.parametrize("text, labels", [
        ("zeta(45)*x^3*y + x*y^3", "T"),
        ("x^5*y + zeta(35)*x*y^5", "TO"),
    ])
    def test_rules_refute_where_substitution_passes_the_cap(self, text, labels):
        # diag(i, -i) acts term by term, so substituting it stays in the
        # coefficients' field where the lcm with i, 180 or 140, would pass
        # the cap; its scalar is the support rule's (C2 has this generator),
        # and the reversal rule refutes
        f = form(text)
        m = group_generators(GroupSpec("T"))[0]
        assert group_generators(GroupSpec("C", 2)) == (m,)
        scalar = semi_invariance(f, GroupSpec("C", 2)).scalars[0]
        assert f.substitute(m) == scalar * f
        for label in labels:
            assert semi_invariance(f, GroupSpec(label)) is None


    @pytest.mark.parametrize("text", [
        "x^4*y^2 + x^2*y^4", "x^6*y^2 + x^4*y^4 + x^2*y^6"])
    def test_octahedral_rules_refute_before_substituting(self, text, monkeypatch):
        # both pass D2's rules, so T's generator with no zero entry could be
        # substituted, but D4's support rule refutes them first
        def refuse(self, m):
            raise AssertionError("substituted")

        monkeypatch.setattr(BinaryForm, "substitute", refuse)
        f = form(text)
        assert semi_invariance(f, GroupSpec("D", 2)) is not None
        assert semi_invariance(f, GroupSpec("O")) is None

    def test_monomial_generators_are_diagonal_or_symmetric_antidiagonal(self):
        # _monomial_scalar reads diag(u, u^-1) and [[0, w], [w, 0]] only
        specs = [GroupSpec(kind, n) for kind in "CD" for n in range(1, 13)]
        specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
        monomial = [m for spec in specs for m in group_generators(spec)
                    if not (m.a and m.b and m.c and m.d)]
        assert len(monomial) == 12 + 24 + 2 + 3 + 1
        for m in monomial:
            assert (m.b, m.c) == (0, 0) or (m.a, m.d) == (0, 0) and m.b == m.c, str(m)


class TestGroundForms:
    @pytest.mark.parametrize("label, nu", [
        ("D3", (2, 2, 3)), ("D5", (2, 2, 5)),
        ("T", (3, 3, 2)), ("O", (4, 3, 2)), ("I", (5, 3, 2)),
    ])
    def test_nu_values(self, label, nu):
        spec = GroupSpec.parse(label)
        gf = ground_forms(spec)
        assert gf.nu == nu
        # integrality: |G| divisible by 2 deg F_i
        for g in gf.forms:
            assert spec.order % (2 * g.degree) == 0

    @pytest.mark.parametrize("label", ["D2", "D4", "D6", "T", "O", "I"])
    def test_ground_forms_semi_invariant(self, label):
        spec = GroupSpec.parse(label)
        for g in ground_forms(spec).forms:
            assert semi_invariance(g, spec) is not None

    def test_cyclic_groups_have_none(self):
        with pytest.raises(NoGroundFormsError):
            ground_forms(GroupSpec("C", 4))


class TestKlein:
    def test_cyclic_shape(self):
        f = klein_generate(GroupSpec("C", 2), 1, 0, 0, [(1, 1), (2, 3)])
        # x (x^2 + y^2)(2 x^2 + 3 y^2), expanded
        assert f == form("x*(x^2 + y^2)*(2*x^2 + 3*y^2)")

    def test_dihedral_sextic_shape(self):
        f = klein_generate(GroupSpec("D", 3), 0, 0, 0, [(2, 3)])
        assert f == form("2*(x^3 + y^3)^2 + 3*(x^3 - y^3)^2")

    def test_empty_product_is_one(self):
        f = klein_generate(GroupSpec("T"), 0, 0, 0, [])
        assert f.degree == 0 and f.coeffs[0] == 1

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroParameterError):
            klein_generate(GroupSpec("D", 3), 0, 0, 0, [(0, 0)])

    @pytest.mark.parametrize("label", ["C2", "C5", "D3", "D6", "T", "O", "I"])
    def test_outputs_semi_invariant(self, label):
        # seeded draws through the code; criterion 6 proves the description
        # for every exponent and parameter from the ground-form characters
        spec = GroupSpec.parse(label)
        rng = random.Random(37)
        for _ in range(10):
            cap = 1 if spec.kind in ("O", "I") else 2
            alpha, beta = rng.randint(0, cap), rng.randint(0, cap)
            gamma = rng.randint(0, cap)
            params = [(rng.randint(1, 4), rng.randint(1, 4))
                      for _ in range(rng.randint(0, 1))]
            if not (alpha or beta or gamma or params):
                alpha = 1
            f = klein_generate(spec, alpha, beta, gamma, params)
            assert semi_invariance(f, spec) is not None
            if spec.kind == "C":
                expected = alpha + beta + len(params) * spec.n
            else:
                degs = [g.degree for g in ground_forms(spec).forms]
                expected = (alpha * degs[0] + beta * degs[1] + gamma * degs[2]
                            + len(params) * spec.order // 2)
            assert f.degree == expected


    def test_cyclic_outputs_match_a_dense_expansion(self):
        # x^alpha y^beta prod (lambda x^n + mu y^n), expanded coefficient by
        # coefficient (index i multiplies x^(d-i) y^i); gamma is ignored
        def draw(rng, m):  # a + b*zeta_m over Q(zeta_m), m in (1, 4, 3)
            a, b = (QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            return as_cyclotomic(a) + b * zeta(m) if m > 1 else as_cyclotomic(a)

        rng = random.Random(2801)
        for n in range(1, 9):
            for _ in range(12):
                alpha, beta, gamma = (rng.randint(0, 3) for _ in range(3))
                m = rng.choice((1, 4, 3))
                params, count = [], rng.randint(0, 2)
                while len(params) < count:
                    lam, mu = draw(rng, m), draw(rng, m)
                    if lam or mu:
                        params.append((lam, mu))
                expected = [as_cyclotomic(0)] * (alpha + beta + 1)
                expected[beta] = as_cyclotomic(1)
                for lam, mu in params:
                    out = [as_cyclotomic(0)] * (len(expected) + n)
                    for i, a in enumerate(expected):
                        out[i] = out[i] + a * lam
                        out[i + n] = out[i + n] + a * mu
                    expected = out
                f = klein_generate(GroupSpec("C", n), alpha, beta, gamma, params)
                assert f == BinaryForm(expected), (n, alpha, beta, params)
                assert [(c.order, c.coords, c.den) for c in f.coeffs] == \
                    [(c.order, c.coords, c.den) for c in expected], (n, alpha, beta, params)

    @pytest.mark.parametrize("label", ["C1", "C4", "D2", "D5", "T", "O", "I"])
    def test_klein_degree_is_the_built_degree(self, label):
        spec = GroupSpec.parse(label)
        rng = random.Random(2802)
        for _ in range(8):
            cap = 1 if spec.kind in ("O", "I") else 3
            exponents = [rng.randint(0, cap) for _ in range(3)]
            params = [(rng.randint(1, 4), rng.randint(-4, 4)) for _ in range(rng.randint(0, 1))]
            f = klein_generate(spec, *exponents, params)
            assert klein_degree(spec, *exponents, len(params)) == f.degree


class TestStability:
    def test_triple_root_quintic_not_stable(self):
        assert not is_stable(form("x^3*(x^2 + y^2)"))

    def test_six_simple_roots_stable(self):
        assert is_stable(form("x^6 + y^6"))

    def test_triple_root_sextic_not_stable(self):
        assert not is_stable(form("x^3*y^3"))

    def test_double_root_quintic_stable(self):
        assert is_stable(form("x^2*(x^3 + y^3)"))

    def test_finite_stabilizer_dichotomy(self):
        assert not has_finite_stabilizer(form("x^3*y^2"))
        assert has_finite_stabilizer(form("x^5 + y^5"))
        assert has_finite_stabilizer(form("x^2*y^2*(x + y)"))
        # the zero form is refused by the root count both read
        for check in (has_finite_stabilizer, catalog_stabilizer):
            with pytest.raises(ZeroFormError, match="no root profile"):
                check(form("0*x^3"))


class TestCatalog:
    @pytest.mark.parametrize("case", [c.case for c in CATALOG])
    def test_stabilizers_match(self, case):
        entry = BY_CASE[case]
        f = entry.build()
        assert [c.group.label for c in catalog_stabilizer(f)] == [entry.group.label]

    def test_quintic_examples(self):
        assert [c.group.label for c in catalog_stabilizer(form("x^5 + y^5"))] == ["D5"]
        assert [c.group.label for c in catalog_stabilizer(form("x^6 + y^6"))] == ["D6"]
        assert [c.group.label for c in
                catalog_stabilizer(form("x^2*(x^3 + y^3)"))] == ["C3"]

    def test_fifteen_numbered_cases(self):
        assert len(NUMBERED_CASES) == 15

    def test_infinite_stabilizer_rejected(self):
        with pytest.raises(InfiniteStabilizerError):
            catalog_stabilizer(form("x^3*y^4"))

    def test_stabilizer_matches_a_loop_over_every_n(self):
        # the divisors of the support gcd give what every n <= n_max gives
        rng = random.Random(1117)
        for _ in range(40):
            degree, step = rng.randint(3, 16), rng.randint(1, 8)
            coeffs = [0] * (degree + 1)
            for i in range(rng.randint(0, 2), degree + 1, step):
                coeffs[i] = rng.choice((-3, -1, 1, 2, 1 + zeta(4)))
            if rng.random() < 0.5:
                coeffs = [a or b for a, b in zip(coeffs, reversed(coeffs))]
            f = BinaryForm(coeffs)
            if f.distinct_root_count() <= 2:
                continue
            n_max = rng.randint(1, 2 * degree)
            specs = [GroupSpec(kind, n) for kind in "CD" for n in range(1, n_max + 1)]
            specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
            passing = [s for s in specs if semi_invariance(f, s) is not None]
            maximal = [s for s in passing
                       if not any(t != s and group_contains(t, s) for t in passing)]
            assert [c.group for c in catalog_stabilizer(f, n_max)] == \
                sorted(maximal, key=lambda s: (s.order, s.label)), (coeffs, n_max)

    def test_coefficient_rules_refute_only_what_substitution_refutes(self):
        # forms that pass D_n, T, O or I, and the same forms one coefficient
        # or one palindrome away from passing
        bases = [ground_forms(GroupSpec("D", n)).forms[0] for n in range(3, 7)]
        for label in "TOI":
            bases += ground_forms(GroupSpec(label)).forms
        bases += [
            klein_generate(GroupSpec("D", 3), 1, 0, 1, [(2, 3)]),
            klein_generate(GroupSpec("D", 4), 0, 1, 0, [(1, 5)]),
            klein_generate(GroupSpec("T"), 1, 0, 1, [(2, 3)]),
            klein_generate(GroupSpec("O"), 0, 1, 0, [(1, 2)]),
            klein_generate(GroupSpec("I"), 1, 0, 0, []),
            klein_generate(GroupSpec("I"), 0, 0, 1, []),
        ]
        bases += [case.build() for case in CATALOG]
        checked = 0
        for base in bases:
            coeffs = list(base.coeffs)
            changed = coeffs[:]
            changed[len(coeffs) // 2] += 1
            broken = coeffs[:]
            last = max(i for i, c in enumerate(coeffs) if c)
            broken[last] *= 2
            for f in (base, BinaryForm(changed), BinaryForm(broken)):
                if f.distinct_root_count() <= 2:
                    continue
                expected = [semi_invariance(f, s) for s in _every_candidate_maximal(f)]
                assert catalog_stabilizer(f) == expected, f.coeffs
                checked += 1
        assert checked >= 3 * len(CATALOG)

    def test_polyhedral_subgroups_are_contained(self):
        assert {big.label: (sub.n, sub.kind) for big, sub in POLYHEDRAL_SUBGROUPS.items()} \
            == {"T": (2, "D"), "O": (4, "D"), "I": (5, "C")}
        for big, sub in POLYHEDRAL_SUBGROUPS.items():
            assert group_contains(big, sub)
        assert not group_contains(GroupSpec("I"), GroupSpec("D", 1))

    @pytest.mark.parametrize("label", "TOI")
    def test_polyhedral_subgroups_are_generated_by_the_monomial_generators(self, label):
        # with -1, which scales every form by (-1)^d, the monomial
        # generators of T, O and I generate exactly their subgroup, so the
        # subgroup's coefficient rules are theirs
        spec = GroupSpec(label)
        gens = [m for m in group_generators(spec) if not (m.a and m.b and m.c and m.d)]
        gens.append(SL2Matrix(-1, 0, 0, -1))
        closure = {SL2Matrix(1, 0, 0, 1)}
        frontier = list(closure)
        while frontier:
            frontier = [p for p in {m * g for m in frontier for g in gens} if p not in closure]
            closure.update(frontier)
        assert closure == set(group_elements(POLYHEDRAL_SUBGROUPS[spec]))

    def test_asymmetric_full_support_form_substitutes_nothing(self, monkeypatch):
        # g = 1 leaves C1 and D1, both decided from the coefficients; the
        # reversal rule refutes D1, and with it T, O and I
        f = form("x^4 + 2*x^3*y + 3*x^2*y^2 + 4*x*y^3 + 5*y^4")
        substituted = []
        original = BinaryForm.substitute

        def counted(self, m):
            substituted.append(m)
            return original(self, m)

        monkeypatch.setattr(BinaryForm, "substitute", counted)
        assert [c.group.label for c in catalog_stabilizer(f)] == ["C1"]
        assert substituted == []

    def test_catalog_layouts(self):
        # sha256 of (order, coords, den) of every coefficient of the 21
        # catalog builds (the defaults and criterion 5's second parameter
        # sets), recorded from the hand-written builders the Klein data
        # replaced
        h = hashlib.sha256()
        builds = 0
        for case in CATALOG:
            param_sets = [None] + ([SECOND_PARAMS[case.case]] if case.default_params else [])
            for params in param_sets:
                f = case.build(params)
                h.update(repr([(c.order, c.coords, c.den) for c in f.coeffs]).encode())
                builds += 1
        assert builds == 21
        assert h.hexdigest() == (
            "38520fd697f0837731a686394c8b812bf352b6c95c24157943a229637f0993da")

    def test_build_checks_the_parameter_count(self):
        with pytest.raises(ZeroParameterError, match="case quartic.I takes 0"):
            BY_CASE["quartic.I"].build(((1, 2),))
        with pytest.raises(ZeroParameterError, match="case sextic.I takes 2"):
            BY_CASE["sextic.I"].build(((1, 2),))
        with pytest.raises(ZeroParameterError, match=r"\(0, 0\) is not a point"):
            BY_CASE["sextic.IV"].build(((0, 0),))

    def test_parameterized_cases_at_second_values(self):
        f = BY_CASE["quintic.I"].build(((5, 7),))
        assert [c.group.label for c in catalog_stabilizer(f)] == ["C2"]
        g = BY_CASE["sextic.IV"].build(((1, 6),))
        assert [c.group.label for c in catalog_stabilizer(g)] == ["D3"]


def _substituted_scalars(f, spec):
    """The scalars of substituting each generator of spec, or None."""
    scalars = [f.substitute(g).proportional_to(f) for g in group_generators(spec)]
    return None if any(s is None for s in scalars) else scalars


def _layout(scalars):
    return scalars and [(s.order, s.coords, s.den) for s in scalars]


def _every_candidate_maximal(f):
    """The maximal groups among every C_n, D_n (n <= deg f), T, O and I
    under which f is semi-invariant."""
    specs = [GroupSpec(kind, n) for kind in "CD" for n in range(1, f.degree + 1)]
    specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
    passing = [s for s in specs if semi_invariance(f, s) is not None]
    maximal = [s for s in passing if not any(t != s and group_contains(t, s) for t in passing)]
    return sorted(maximal, key=lambda s: (s.order, s.label))
