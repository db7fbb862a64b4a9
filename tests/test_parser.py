import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackygit import ringspec
from stackygit.cli import run_command
from stackygit.cyclotomic import ORDER_CAP, CyclotomicNumber, zeta
from stackygit.errors import (
    CoefficientTooLargeError,
    NestingTooDeepError,
    OrderCapExceededError,
    ParseError,
    ProductTooLargeError,
    RingSpecError,
    UnknownIdentifierError,
)
from stackygit.exprparse import (
    MAX_NESTING,
    MAX_NUMERAL_DIGITS,
    MAX_TERM_PRODUCTS,
    RESERVED,
    _monomial_sum,
    _parse,
    _parse_tokens,
    form,
    parse_poly,
)
from stackygit.graded import presentations_equal
from stackygit.invariants import FAMILIES, catalog_ring
from stackygit.polynomials import BinaryForm, MultiPoly

DEMO_RINGS = Path(__file__).resolve().parent.parent / "demos" / "rings"


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
        parse_poly("", ("x",))


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + * y", ("x", "y"))
    assert err.value.position == 4


@pytest.mark.parametrize("text, message, position", [
    ("x + $", "unexpected character '$'", 4),
    ("x$", "unexpected character '$'", 1),
    ("x +  # ", "unexpected character '#'", 5),
    ("x^2 + é*y", "unexpected character 'é'", 6),
    ("x y", "trailing input 'y'", 2),
    ("x^", "expected 'num', found None", 2)])
def test_parse_error_names_the_first_unreadable_position(text, message, position):
    # the character reported is the first the token pattern cannot read,
    # past any whitespace before it
    with pytest.raises(ParseError) as err:
        parse_poly(text, ("x", "y"))
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


def test_whitespace_before_an_unreadable_character_is_read_once():
    # the tokenizer stops at the first position its pattern cannot match; a
    # search from every later position would take quadratic time here
    text = "x" + " " * 100_000 + "!"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_poly(text, ("x",))
    assert time.perf_counter() - start < 1
    assert (str(err.value), err.value.position) == (
        "unexpected character '!' (at position 100001)", 100001)
    result = run_command(["stabilizer", text])
    assert result.status == 2
    assert result.payload["error"]["code"] == "syntax-error"


def test_trailing_whitespace_is_ignored():
    assert str(parse_poly("x+y ", ("x", "y"))) == "x + y"


def test_unknown_identifier_at_lowering():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_poly("x + q", ("x", "y"))
    assert str(err.value) == "unknown identifier 'q' (variables: x, y)"
    # reported only once the whole input has parsed
    with pytest.raises(ParseError):
        parse_poly("q + * x", ("x", "y"))


def test_form_names_identifiers_in_first_occurrence_order():
    with pytest.raises(UnknownIdentifierError) as err:
        form("b*a + c^2*b + x")
    assert str(err.value) == "a binary form uses only x and y, found ('b', 'a', 'c', 'x')"


def test_arithmetic_error_comes_before_a_later_syntax_error():
    # the parser evaluates as it reads, so zeta(1000) fails before '*'
    result = run_command(["stabilizer", "zeta(1000) + * x"])
    assert result.status == 3
    assert result.payload["error"]["code"] == "order-cap-exceeded"


def test_form_reads_the_degree_off_homogeneous_terms():
    # the zero form is the degree-0 form 0, whatever its text
    for text in ("0", "x - x", "0*x^3*y", "(x + y)^2 - x^2 - 2*x*y - y^2"):
        f = form(text)
        assert (f.coeffs, str(f)) == (BinaryForm([0]).coeffs, "0"), text
    assert form("5").coeffs == BinaryForm([5]).coeffs
    assert form("x^3 + 0*y^2").coeffs == BinaryForm([1, 0, 0, 0]).coeffs
    assert form("2*y^3 - i*x*y^2").coeffs == BinaryForm([0, 0, -zeta(4), 2]).coeffs
    for text in ("x^2 + y", "x^2*y + 1", "x - x + x*y + y"):
        with pytest.raises(ValueError) as err:
            form(text)
        assert str(err.value) == f"{text!r} is not homogeneous"
    # the parser's coefficients are canonical, so the form is built from them
    # unchecked; the checking constructor gives the same form
    rng = random.Random(27)
    for _ in range(60):
        degree = rng.randint(0, 6)
        coeffs = [rng.choice((0, 0, 1, -2, 3)) for _ in range(degree + 1)]
        coeffs[0] = coeffs[0] or 1
        f = form(str(BinaryForm(coeffs)))
        assert f.coeffs == BinaryForm(coeffs).coeffs
        assert all(isinstance(c, CyclotomicNumber) for c in f.coeffs)


def test_nesting_bound():
    half = MAX_NESTING // 2
    assert form("-(" * half + "x^2 - y^2" + ")" * half) == form("x^2 - y^2")
    with pytest.raises(NestingTooDeepError):
        parse_poly("(" * MAX_NESTING + "-x" + ")" * MAX_NESTING, ("x",))


@pytest.mark.parametrize("op, expected", [
    ("+", "3000*x"), ("-", "-2998*x"), ("*", "x^3000")])
def test_long_chains(op, expected):
    text = op.join(["x"] * 3000)
    assert str(parse_poly(text, ("x",))) == expected
    f = form(text)
    assert str(f) == expected
    assert f.degree == (3000 if op == "*" else 1)


def test_long_relation_chain():
    ring = ringspec.loads("a : 1\nb : 1\nrelation: " + "+".join(["a*b"] * 3000) + "\n")
    assert str(ring.relation) == "3000*a*b"


def test_product_bound_counts_pairs_of_terms():
    # two full forms of degree 256 meet the bound; 276 terms by 257 are
    # refused before they are multiplied, naming both term counts
    assert 257 * 257 == MAX_TERM_PRODUCTS
    assert len(parse_poly("(x+y)^256*(x+y)^256", ("x", "y")).terms) == 513
    with pytest.raises(ProductTooLargeError, match="product of 276 by 257 terms"):
        parse_poly("(x+y+z)^22*(x+y)^256", ("x", "y", "z"))
    assert form("4*(x+y)^250").a(1) == 1000


def test_power_bound_counts_the_terms_of_the_half_power():
    # (a+b+c+d)^20 is refused as (a+b+c+d)^10*(a+b+c+d)^10 is: 286 by 286
    # terms; binary forms are bounded by their monomials (131 of degree 130)
    with pytest.raises(ProductTooLargeError,
                       match="power 20 of 4 terms has a half power of up to 286 terms"):
        parse_poly("(a+b+c+d)^20", ("a", "b", "c", "d"))
    base = "+".join(f"x^{10 - i}*y^{i}" for i in range(11))
    assert len(parse_poly(f"({base})^25", ("x", "y")).terms) == 251


def test_zeta_and_sugar():
    value = parse_poly("zeta(8)^2 + i", ()).constant_term()
    assert value == 2 * zeta(4)


# -- Python's own parser as the reference --------------------------------------

VARIABLES = ("x", "y", "I4")
CONSTANTS = {
    "i": zeta(4),
    "sqrt2": zeta(8) + zeta(8) ** 7,
    "sqrt5": 1 + 2 * zeta(5) + 2 * zeta(5) ** 4,
    "sqrtm3": 1 + 2 * zeta(3),
}
NAMESPACE = {v: MultiPoly.variable(VARIABLES, v) for v in VARIABLES}
NAMESPACE.update({c: MultiPoly.constant(VARIABLES, v) for c, v in CONSTANTS.items()})
NAMESPACE["zeta"] = lambda m: MultiPoly.constant(VARIABLES, zeta(m))

_ATOMS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(VARIABLES + tuple(CONSTANTS)),
    st.sampled_from((3, 4, 5, 8)).map(lambda m: f"zeta({m})"),
)


def _sums(inner):
    """Expressions whose factors are atoms or parenthesized ``inner``
    expressions, with at most one '^' per factor and unary minus only at
    the start of a term."""
    factor = st.tuples(
        st.one_of(_ATOMS, inner.map(lambda e: f"({e})")),
        st.sampled_from(("", "^0", "^1", "^2", "^3", "^5", "^7", "^12")),
    ).map("".join)
    term = st.tuples(
        st.sampled_from(("", "-", "- -")),
        st.lists(factor, min_size=1, max_size=3).map("*".join),
    ).map("".join)
    rest = st.lists(st.tuples(st.sampled_from((" + ", " - ")), term), max_size=3)
    return st.tuples(term, rest).map(lambda t: t[0] + "".join(op + u for op, u in t[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.recursive(_ATOMS, _sums, max_leaves=10))
def test_parse_agrees_with_python_eval(text):
    expected = MultiPoly.constant(VARIABLES, 0) + eval(text.replace("^", "**"), dict(NAMESPACE))
    value = parse_poly(text, VARIABLES)
    assert value == expected
    assert str(value) == str(expected)


# -- MultiPoly arithmetic on the same pieces as the reference --------------------

def _layout(p):
    """Each stored term with its coefficient's field, coordinates and
    denominator, in the order the dict holds them."""
    return [(e, c.order, c.coords, c.den) for e, c in p.terms.items()]


def _random_factor(rng, depth):
    r = rng.random()
    if r < 0.25:
        n = rng.choice((0, 1, 2, 3, 7, 12, 2**70))
        text, value = str(n), MultiPoly.constant(VARIABLES, n)
    elif r < 0.3:
        text, value = "0", MultiPoly.constant(VARIABLES, 0)
    elif r < 0.6 or depth == 0:
        name = rng.choice(VARIABLES)
        text, value = name, NAMESPACE[name]
    elif r < 0.7:
        m = rng.choice((3, 4, 5, 8, 12))
        text, value = f"zeta({m})", MultiPoly.constant(VARIABLES, zeta(m))
    elif r < 0.8:
        name = rng.choice(tuple(CONSTANTS))
        text, value = name, NAMESPACE[name]
    else:
        text, value = _random_expr(rng, depth - 1)
        text = f"({text})"
    if rng.random() < 0.3:
        k = rng.choice((0, 1, 2) if text.endswith(")") else (0, 1, 2, 3, 5))
        text, value = f"{text}^{k}", value ** k
    return text, value


def _random_term(rng, depth):
    if depth and rng.random() < 0.15:
        text, value = _random_term(rng, depth - 1)
        return "-" + text, -value
    if rng.random() < 0.1:
        text, value = _random_factor(rng, depth)
        return f"0*{text}", MultiPoly.constant(VARIABLES, 0) * value
    text, value = _random_factor(rng, depth)
    for _ in range(rng.randrange(3)):
        right_text, right = _random_factor(rng, depth)
        text, value = f"{text}*{right_text}", value * right
    return text, value


def _random_expr(rng, depth):
    """A random expression and the MultiPoly that MultiPoly arithmetic
    builds from its pieces, read left to right as the grammar reads them."""
    text, value = _random_term(rng, depth)
    for _ in range(rng.randrange(3)):
        op = rng.choice("+-")
        right_text, right = _random_term(rng, depth)
        text = f"{text} {op} {right_text}"
        value = value + right if op == "+" else value - right
    return text, value


def test_parse_matches_multipoly_arithmetic():
    # the monomial fast path stores what the arithmetic stores: the same
    # terms in the same order, each coefficient in the same field
    rng = random.Random(2009)
    for _ in range(1000):
        text, expected = _random_expr(rng, 2)
        value = parse_poly(text, VARIABLES)
        assert _layout(value) == _layout(expected), text
        assert str(value) == str(expected), text


def test_reserved_identifiers_are_never_variables():
    # even when the caller names them among its variables
    assert RESERVED == ("zeta", "i", "sqrt2", "sqrt5", "sqrtm3")
    assert str(parse_poly("i^2 - u", ("i", "u"))) == "-u - 1"
    assert str(parse_poly("sqrt2^2*u", ("sqrt2", "u"))) == "2*u"
    with pytest.raises(ParseError, match="expected '\\(', found '\\^'"):
        parse_poly("zeta^2 - u", ("zeta", "u"))


_BOUND_ERRORS = [
    ("7" * 3500 + "*x", "coefficient-too-large",
     "product with a coefficient of about 11627 bits exceeds the bound 10000 (at position 3500)"),
    ("x*" + "7" * 3500, "coefficient-too-large",
     "product with a coefficient of about 11627 bits exceeds the bound 10000 (at position 1)"),
    ("7" * 3500 + "*(x+y)*x*y", "coefficient-too-large",
     "product with a coefficient of about 11627 bits exceeds the bound 10000 (at position 3500)"),
    ("2^5000*x*y*2^5001", "coefficient-too-large",
     "product with a coefficient of about 10001 bits exceeds the bound 10000 (at position 10)"),
    ("3^5000*3^5000*x*y*(x+y)", "coefficient-too-large",
     "product with a coefficient of about 15850 bits exceeds the bound 10000 (at position 6)"),
    ("(3^5000*x)*(3^5000*y)", "coefficient-too-large",
     "product with a coefficient of about 15850 bits exceeds the bound 10000 (at position 10)"),
    ("7" * MAX_NUMERAL_DIGITS + "*x", "coefficient-too-large",
     "product with a coefficient of about 14284 bits exceeds the bound 10000 (at position 4300)"),
    ("0*" + "7" * 3500 + "*x*y*(x+y)", "zero-form", "the zero form has no root profile"),
    ("x^300*y", "degree-too-large", "power of degree 300 exceeds the bound 256 (at position 2)"),
    ("7" * 5000 + "*x*y*(x+y)", "coefficient-too-large",
     "numeral of 5000 digits has more than 10000 bits (at position 0)"),
    ("x*y*(x+zeta(" + "9" * 4400 + "))", "coefficient-too-large",
     "numeral of 4400 digits has more than 10000 bits (at position 12)"),
]


@pytest.mark.parametrize("text, code, message", _BOUND_ERRORS,
                         ids=[f"{text[:12]}..{len(text)}" for text, _, _ in _BOUND_ERRORS])
def test_bound_errors_keep_their_payloads(text, code, message):
    # the checks, their order and their positions are those of a parser
    # that multiplies every factor as a MultiPoly; only the last two
    # numerals, past MAX_NUMERAL_DIGITS, are refused as they are read
    result = run_command(["stabilizer", text])
    assert result.payload["error"] == {"code": code, "message": message}
    assert result.status == (2 if code == "zero-form" else 3)


@pytest.mark.parametrize("text, variables, message", [
    (str(2 ** 10000 + 1) + "*a*b", ("a", "b"),
     "product with a coefficient of about 10001 bits exceeds the bound 10000 (at position 3011)"),
    ("(" + str(2 ** 5000 + 1) + ")^2", ("a",),
     "power of about 10001 bits exceeds the bound 10000 (at position 1509)"),
], ids=["product", "power"])
def test_bounds_are_decided_on_integers(text, variables, message):
    # 2^10000 + 1 and (2^5000 + 1)^2 are past 2^10000, though a float log2
    # of either rounds to 10000 bits, at the bound
    with pytest.raises(CoefficientTooLargeError) as info:
        parse_poly(text, variables)
    assert str(info.value) == message


def test_numerals_count_their_significant_digits():
    # leading zeros neither count nor reach int()
    padded = "0" * 5000 + "7"
    assert parse_poly(f"{padded}*x", ("x",)) == parse_poly("7*x", ("x",))
    assert len(str(parse_poly("7" * MAX_NUMERAL_DIGITS, ()))) == MAX_NUMERAL_DIGITS


# -- the one-pass reader of monomial sums against the general parser ------------

def _outcome(read, text, variables):
    """What ``read`` makes of ``text``: the variables, the stored terms in
    their order and the names, or the error's class, message and position."""
    try:
        value, names = read(text, variables)
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return type(err), str(err), getattr(err, "position", None)
    return value.variables, _layout(value), names


def _assert_same_as_the_parser(text, variables=("x", "y")):
    assert _outcome(_parse, text, variables) == _outcome(_parse_tokens, text, variables), text


_LONG = "7" * MAX_NUMERAL_DIGITS
_READER_CASES = [
    "x + -y", "x - -y", "x + - y", "- -x", "-x - y", "-2*x^2 + 3", "--x", "-(x)",
    "0*x", "x - x", "x - x + y + x", "x*x^2", "2*x*3*y - 6*y*x", "0*q + x", "x^0*y^0 - 1",
    "x^256", "x^257", "2^256*x", "x^0256", "1^257", "0^0", "x^2^3", "x^-1",
    _LONG, _LONG + "7", "0" + _LONG, "0" * 5000 + "7*x", _LONG + "*x", "x*" + _LONG,
    _LONG + " - " + _LONG, "x^" + _LONG,
    str(2 ** 10000 + 1) + "*x", str(2 ** 10000) + "*x", "2^5000*x*2^5001", "2^9999*x*2",
    "3^256*3^256*3^256*x", "0*" + "9" * 3500 + "*x",
    "i", "i*x", "sqrt2 - x", "zeta(5)*y", "zeta", "x*zeta", "q", "x + q*r - q",
    "٣*x", "x^٢", "x٣", "", " ", "x + ", "x +", "x y", "x !", "x)", "(x", "x*", "2x",
    "x\t-\ny ", " \u2003x", "+x", "x++y", "x**2", "a_1*b2 - b2*a_1",
]


@pytest.mark.parametrize("text", _READER_CASES,
                         ids=[f"{i}:{t[:12]!r}..{len(t)}" for i, t in enumerate(_READER_CASES)])
def test_reader_agrees_with_the_parser(text):
    # over repeated variables and a reserved name among them too
    for variables in (("x", "y"), ("y", "x", "y"), ("i", "x"), ()):
        _assert_same_as_the_parser(text, variables)


_READER_PIECES = st.sampled_from((
    "x", "y", "q", "I2", "i", "sqrt2", "zeta", "zeta(5)", "0", "1", "2", "3", "12", "007",
    "256", "257", "9" * 40, "+", "-", "*", "^", " ", "(", ")", "!", "٣", "\t"))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(_READER_PIECES, max_size=12).map("".join),
                 st.recursive(_ATOMS, _sums, max_leaves=8)))
def test_reader_agrees_with_the_parser_on_drawn_texts(text):
    # the same terms in the same order, variables and names, or the same
    # error, message and position
    _assert_same_as_the_parser(text)
    _assert_same_as_the_parser(text, ("y", "q", "y"))


def test_reader_reads_what_the_writers_write():
    # relations that ringspec.dumps writes and forms that str() prints never
    # reach the general parser; the values are those it reads
    rings = [ringspec.load(path) for path in sorted(DEMO_RINGS.glob("*.ring"))]
    rings += [catalog_ring(family).ring for family in FAMILIES]
    texts = []
    for ring in rings:
        spec = ringspec.dumps(ring)
        if ring.relation is not None:
            texts.append((spec.split("relation: ", 1)[1].rstrip("\n"), ring.generators))
    assert len(texts) >= 3
    rng = random.Random(38)
    for _ in range(200):
        coeffs = [rng.choice((0, 0, 1, -1, 2, -7, 10**30)) for _ in range(rng.randint(1, 13))]
        coeffs[0] = coeffs[0] or 3
        texts.append((str(BinaryForm(coeffs)), ("x", "y")))
    for text, variables in texts:
        assert _monomial_sum(text, variables) is not None, text
        _assert_same_as_the_parser(text, variables)


@pytest.mark.parametrize("text, message", [
    ("x" + " * x" * 25_000 + " !", "unexpected character '!' (at position 100002)"),
    ("x" + " - -x" * 20_000 + "(", "trailing input '(' (at position 100001)"),
    (" " * 100_000 + "x^2 !", "unexpected character '!' (at position 100004)"),
    ("x" * 100_000 + " !", "unexpected character '!' (at position 100001)"),
], ids=["product", "signs", "spaces", "identifier"])
def test_reader_gives_up_in_linear_time(text, message):
    # texts of about 100k characters that are monomial sums up to their last
    # characters: a pattern that backtracks super-linearly makes this slow
    assert _monomial_sum(text, ("x",)) is None
    with pytest.raises(ParseError) as err:
        parse_poly(text, ("x",))
    assert str(err.value) == message


class TestRingSpec:
    def test_roundtrip_catalog(self):
        for family in ("quartic", "quintic", "sextic",
                       "cubic-curve", "cubic-surface"):
            ring = catalog_ring(family).ring
            again = ringspec.loads(ringspec.dumps(ring))
            assert presentations_equal(ring, again)

    def test_comments_and_blanks(self):
        ring = ringspec.loads(
            "# a weighted line\nI2 : 2\n\nI3 : 3  # cubic generator\n")
        assert ring.generators == ("I2", "I3")
        assert ring.weights == (2, 3)

    def test_field_line(self):
        ring = ringspec.loads("a : 1\nfield: zeta(8)\n")
        assert ring.field_order == 8

    def test_field_order_zero_is_refused(self):
        # dumps would drop the line, so zeta(0) must not load
        with pytest.raises(RingSpecError, match="line 2: field order must be positive"):
            ringspec.loads("a : 1\nfield: zeta(0)\n")

    def test_field_order_past_the_cap_is_refused_at_load(self):
        ring = ringspec.loads(f"a : 1\nfield: zeta({ORDER_CAP})\n")
        assert ring.field_order == ORDER_CAP
        with pytest.raises(OrderCapExceededError):
            ringspec.loads(f"a : 1\nfield: zeta({ORDER_CAP + 1})\n")
        with pytest.raises(OrderCapExceededError):
            ringspec.loads("a : 1\nfield: zeta(100000)\n")

    @pytest.mark.parametrize("order, status, code", [
        (0, 2, "ringspec-error"), (100000, 3, "order-cap-exceeded")])
    def test_bad_field_order_exit_status(self, tmp_path, order, status, code):
        path = tmp_path / "bad.ring"
        path.write_text(f"a : 1\nb : 2\nfield: zeta({order})\n", encoding="utf-8")
        for argv in (["rigidify", str(path)], ["chart", str(path), "a"]):
            result = run_command(argv)
            assert (result.status, result.payload["error"]["code"]) == (status, code)

    @pytest.mark.parametrize("text, line", [
        ("a : 1\nb : 1\nfield: zeta(4)\nrelation: a^2 + zeta(3)*b^2\n", 4),
        ("a : 1\nrelation: a^2 + i*b^2\nb : 1\nfield: zeta(6)\n", 2),
        ("a : 1\nb : 1\nrelation: a^2 + i*b^2\n", 3),
        ("a : 1\nb : 1\nrelation: a^2 + sqrt2*a*b\nfield: zeta(4)\n", 3)])
    def test_relation_outside_the_field_is_refused(self, tmp_path, text, line):
        with pytest.raises(RingSpecError, match=f"^line {line}: coefficient .* does not divide"):
            ringspec.loads(text)
        path = tmp_path / "outside.ring"
        path.write_text(text, encoding="utf-8")
        result = run_command(["rigidify", str(path)])
        assert (result.status, result.payload["error"]["code"]) == (2, "ringspec-error")

    @pytest.mark.parametrize("text", [
        "a : 1\nb : 1\nfield: zeta(12)\nrelation: a^2 + zeta(4)*a*b + zeta(3)*b^2\n",
        "a : 1\nb : 1\nfield: zeta(4)\nrelation: a^2 + zeta(4)*b^2\n",
        "a : 1\nb : 1\nfield: zeta(8)\nrelation: a^2 + zeta(4)*b^2\n",
        "a : 1\nb : 2\nfield: zeta(5)\nrelation: 3*a^2 - 2*b\n",
        "a : 1\nb : 2\nrelation: 3*a^2 - 2*b\n"])
    def test_relation_inside_the_field_round_trips(self, text):
        assert ringspec.dumps(ringspec.loads(text)) == text

    def test_bad_line(self):
        with pytest.raises(RingSpecError):
            ringspec.loads("I2 = 2\n")

    def test_no_generators(self):
        with pytest.raises(RingSpecError):
            ringspec.loads("# nothing here\n")

    def test_generator_named_like_the_relation_keyword(self, tmp_path):
        # only a line reading "relation :" is the relation line
        text = "a : 1\nrelation2 : 4\n"
        ring = ringspec.loads(text)
        assert (ring.generators, ring.weights, ring.relation) == (("a", "relation2"), (1, 4), None)
        path = tmp_path / "keyword.ring"
        path.write_text(text, encoding="utf-8")
        result = run_command(["rigidify", str(path)])
        assert result.status == 0
        names = [g["name"] for g in result.payload["ring"]["generators"]]
        assert names == ["a", "relation2"]

    def test_duplicate_relation(self):
        text = "t : 1\nrelation: t\nrelation: t\n"
        with pytest.raises(RingSpecError):
            ringspec.loads(text)
