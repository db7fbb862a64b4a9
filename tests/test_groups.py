from fractions import Fraction
from math import lcm

import pytest

from stackygit.cyclotomic import _raw, _to_int_coords, as_cyclotomic, zeta
from stackygit.errors import (
    ClosureBoundExceededError,
    ExactArithmeticError,
    OrderCapExceededError,
)
from stackygit.groups import (
    GroupSpec,
    SL2Matrix,
    group_contains,
    group_elements,
    group_generators,
)


def test_c1_generator_is_minus_identity():
    (g,) = group_generators(GroupSpec("C", 1))
    assert g == SL2Matrix(-1, 0, 0, -1)


def test_octahedral_fourth_generator():
    gens = group_generators(GroupSpec("O"))
    assert len(gens) == 4
    # (1/sqrt2) diag(1+i, 1-i) reduces to diag(zeta_8, zeta_8^-1)
    assert gens[3] == SL2Matrix(zeta(8), 0, 0, zeta(8) ** 7)


def test_icosahedral_generators_over_fifth_roots():
    gens = group_generators(GroupSpec("I"))
    assert len(gens) == 2
    assert gens[0] == SL2Matrix(zeta(5) ** 3, 0, 0, zeta(5) ** 2)
    assert all(g.det() == 1 for g in gens)


@pytest.mark.parametrize("label, order", [
    ("C1", 2), ("C3", 6), ("C6", 12),
    ("D1", 4), ("D3", 12), ("D5", 20), ("D6", 24),
    ("T", 24), ("O", 48), ("I", 120),
])
def test_group_orders(label, order):
    spec = GroupSpec.parse(label)
    elements = group_elements(spec)
    assert len(elements) == order == spec.order
    assert all(m.det() == 1 for m in elements)


@pytest.mark.parametrize(
    "spec", [GroupSpec(kind, n) for kind in "CD" for n in range(1, 25)]
    + [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")], ids=str)
def test_closure_is_the_group_and_closed_under_negation(spec):
    # the closure adds each product with its negative, which is exact
    # because every group here has even order and so contains -1
    elements = group_elements(spec)
    assert len(set(elements)) == len(elements) == spec.order
    assert SL2Matrix(-1, 0, 0, -1) in elements
    assert {SL2Matrix(-g.a, -g.b, -g.c, -g.d) for g in elements} == set(elements)


def reference_closure(spec):
    """The closure on SL2Matrix products: {1, -1}, then breadth first over
    the generators, adding each new product p with -p."""
    gens = group_generators(spec)
    identity = SL2Matrix(1, 0, 0, 1)
    ordered = [identity, SL2Matrix(-1, 0, 0, -1)]
    seen = set(ordered)
    frontier = [identity]
    while frontier:
        next_frontier = []
        for m in frontier:
            for g in gens:
                p = m * g
                if p not in seen:
                    ordered += (p, SL2Matrix(-p.a, -p.b, -p.c, -p.d))
                    seen.update(ordered[-2:])
                    next_frontier.append(p)
        frontier = next_frontier
    return ordered


@pytest.mark.parametrize(
    "spec", [GroupSpec(kind, n) for kind in "CD" for n in range(1, 25)]
    + [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")], ids=str)
def test_closure_matches_the_matrix_product_reference(spec):
    # element by element, in enumeration order, entries compared by value
    assert list(group_elements(spec)) == reference_closure(spec)
    # and by stored layout: every entry is written in Q(zeta_m), m the lcm
    # of the generators' entry orders, as the closure's set of layouts needs
    m = lcm(*(x.order for g in group_generators(spec) for x in g))

    def written_in_field(x):
        _, den, (vec,) = _to_int_coords([x], m)
        y = _raw(m, vec, den)
        return y.order, y.coords, y.den

    assert ([[(x.order, x.coords, x.den) for x in g] for g in group_elements(spec)]
            == [[written_in_field(x) for x in g] for g in reference_closure(spec)])


def test_closure_past_the_order_cap_is_refused():
    # D_31 mixes zeta_62 with i, which needs zeta_124
    with pytest.raises(OrderCapExceededError):
        group_elements(GroupSpec("D", 31))


@pytest.mark.parametrize("generator, error", [
    # diag(2, 1/2) squared has the entry 1/4, past the denominator 2
    (SL2Matrix(2, 0, 0, Fraction(1, 2)), ExactArithmeticError),
    # a swap of determinant -1, built past SL2Matrix's own check
    (SL2Matrix._make(map(as_cyclotomic, (0, 1, 1, 0))), ValueError),
], ids=["denominator", "determinant"])
def test_closure_checks_every_product_exactly(monkeypatch, generator, error):
    import stackygit.groups as groups
    monkeypatch.setattr(groups, "group_generators", lambda spec: (generator,))
    group_elements.cache_clear()
    with pytest.raises(error, match="closure"):
        group_elements(GroupSpec("C", 2))
    group_elements.cache_clear()


def test_closure_is_deterministic():
    a = group_elements(GroupSpec("T"))
    b = group_elements(GroupSpec("T"))
    assert list(a) == list(b)


def test_standard_containments():
    assert group_contains(GroupSpec("O"), GroupSpec("T"))
    assert group_contains(GroupSpec("T"), GroupSpec("D", 2))
    assert group_contains(GroupSpec("O"), GroupSpec("D", 4))
    assert group_contains(GroupSpec("I"), GroupSpec("C", 5))
    assert group_contains(GroupSpec("D", 6), GroupSpec("D", 3))
    assert group_contains(GroupSpec("C", 12), GroupSpec("C", 4))
    assert not group_contains(GroupSpec("T"), GroupSpec("C", 3))
    assert not group_contains(GroupSpec("I"), GroupSpec("D", 5))
    assert not group_contains(GroupSpec("D", 5), GroupSpec("D", 3))


def test_closure_bound(monkeypatch):
    import stackygit.groups as groups
    monkeypatch.setattr(groups, "CLOSURE_BOUND", 10)
    group_elements.cache_clear()
    with pytest.raises(ClosureBoundExceededError):
        group_elements(GroupSpec("T"))
    group_elements.cache_clear()


def test_spec_parse_errors():
    with pytest.raises(ValueError):
        GroupSpec.parse("Q8")
    with pytest.raises(ValueError):
        GroupSpec("C", 0)
    with pytest.raises(ValueError):
        GroupSpec("T", 3)


_CATALOG_GROUPS = ([GroupSpec(kind, n) for kind in "CD" for n in range(1, 13)]
                   + [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")])
_LARGE_N_GROUPS = [GroupSpec(kind, n) for kind in "CD" for n in range(13, 61)]


def test_containment_matches_generator_membership():
    # the label rule agrees with membership of the generators among the
    # larger group's elements, for every C_n and D_n that can lie in T, O
    # or I (n <= 60) and every catalog group
    checked = 0
    for big in _CATALOG_GROUPS:
        elements = set(group_elements(big))
        for small in _CATALOG_GROUPS + _LARGE_N_GROUPS:
            if big.order % small.order:
                continue
            expected = all(g in elements for g in group_generators(small))
            assert group_contains(big, small) == expected, (big, small)
            checked += big.kind in "TOI"
    assert checked == 49


def test_cyclic_and_dihedral_containment_enumerates_nothing(monkeypatch):
    # every pair, T, O and I included, is decided from the labels
    import stackygit.groups as groups

    def refuse(spec):
        raise AssertionError(f"enumerated {spec}")

    monkeypatch.setattr(groups, "group_elements", refuse)
    for big in _CATALOG_GROUPS:
        for small in _CATALOG_GROUPS + _LARGE_N_GROUPS:
            group_contains(big, small)
