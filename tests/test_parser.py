import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackygit import ringspec
from stackygit.cyclotomic import zeta
from stackygit.errors import (
    NestingTooDeepError,
    ParseError,
    RingSpecError,
    UnknownIdentifierError,
)
from stackygit.exprparse import (
    MAX_NESTING,
    Add,
    Const,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    Zeta,
    collect_variables,
    form,
    lower_to_multipoly,
    parse_poly,
    print_expr,
)
from stackygit.graded import presentations_isomorphic
from stackygit.invariants import catalog_ring


def test_tetrahedral_quartic():
    f = form("x^4 + 2*sqrtm3*x^2*y^2 + y^4")
    assert f.degree == 4
    assert f.a(2) == 2 * (1 + 2 * zeta(3))
    assert f.a(1) == 0 and f.a(0) == 1


def test_octahedral_sextic():
    f = form("x*y*(x^4 - y^4)")
    assert f.degree == 6
    assert f.a(1) == 1 and f.a(5) == -1 and f.a(3) == 0


def test_empty_is_syntax_error():
    with pytest.raises(ParseError):
        parse_poly("")


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + * y")
    assert err.value.position == 4


def test_unknown_identifier_at_lowering():
    node = parse_poly("x + q")
    with pytest.raises(UnknownIdentifierError):
        lower_to_multipoly(node, ("x", "y"))


def test_nesting_bound():
    half = MAX_NESTING // 2
    assert form("-(" * half + "x^2 - y^2" + ")" * half) == form("x^2 - y^2")
    with pytest.raises(NestingTooDeepError):
        parse_poly("(" * MAX_NESTING + "-x" + ")" * MAX_NESTING)


@pytest.mark.parametrize("op, expected", [
    ("+", "3000*x"), ("-", "-2998*x"), ("*", "x^3000")])
def test_long_chains(op, expected):
    text = op.join(["x"] * 3000)
    tree = parse_poly(text)
    assert collect_variables(tree) == ("x",)
    assert parse_poly(print_expr(tree)) == tree
    f = form(text)
    assert str(f) == expected
    assert f.degree == (3000 if op == "*" else 1)


def test_long_relation_chain():
    ring = ringspec.loads("a : 1\nb : 1\nrelation: " + "+".join(["a*b"] * 3000) + "\n")
    assert str(ring.relation) == "3000*a*b"


def test_zeta_and_sugar():
    node = parse_poly("zeta(8)^2 + i")
    value = lower_to_multipoly(node, ()).constant_term()
    assert value == 2 * zeta(4)


def test_collect_variables_order():
    node = parse_poly("b*a + c^2*b")
    assert collect_variables(node) == ("b", "a", "c")


def _random_ast(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return rng.choice([
            Num(rng.randint(0, 12)),
            Var(rng.choice(["x", "y", "I4"])),
            Zeta(rng.choice([3, 4, 8])),
            Const(rng.choice(["i", "sqrt2", "sqrt5", "sqrtm3"])),
        ])
    if r < 0.42:
        return Add(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if r < 0.58:
        return Sub(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if r < 0.78:
        return Mul(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if r < 0.9:
        return Neg(_random_ast(rng, depth - 1))
    return Pow(_random_ast(rng, depth - 1), rng.randint(0, 6))


def test_print_parse_roundtrip_200():
    rng = random.Random(23)
    for _ in range(200):
        tree = _random_ast(rng, 4)
        assert parse_poly(print_expr(tree)) == tree


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_print_parse_roundtrip_hypothesis(seed):
    tree = _random_ast(random.Random(seed), 3)
    assert parse_poly(print_expr(tree)) == tree


class TestRingSpec:
    def test_roundtrip_catalog(self):
        for family in ("quartic", "quintic", "sextic",
                       "cubic-curve", "cubic-surface"):
            ring = catalog_ring(family).ring
            again = ringspec.loads(ringspec.dumps(ring))
            assert presentations_isomorphic(ring, again)

    def test_comments_and_blanks(self):
        ring = ringspec.loads(
            "# a weighted line\nI2 : 2\n\nI3 : 3  # cubic generator\n")
        assert ring.generators == ("I2", "I3")
        assert ring.weights == (2, 3)

    def test_field_line(self):
        ring = ringspec.loads("a : 1\nfield: zeta(8)\n")
        assert ring.field_order == 8

    def test_bad_line(self):
        with pytest.raises(RingSpecError):
            ringspec.loads("I2 = 2\n")

    def test_no_generators(self):
        with pytest.raises(RingSpecError):
            ringspec.loads("# nothing here\n")

    def test_duplicate_relation(self):
        text = "t : 1\nrelation: t\nrelation: t\n"
        with pytest.raises(RingSpecError):
            ringspec.loads(text)
