"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := ('-')* factor ('*' factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := identifier | integer | 'zeta' '(' integer ')' | '(' expr ')'

The identifiers ``zeta``, ``i``, ``sqrt2``, ``sqrt5`` and ``sqrtm3`` are
reserved (:data:`RESERVED`): ``zeta(m)`` is zeta_m, and the others are the
constants zeta_4, zeta_8 + zeta_8^7, 1 + 2 zeta_5 + 2 zeta_5^4 and
1 + 2 zeta_3.  They are never read as variables, even when a caller names
them among its variables; every other identifier is a variable.  The
parser evaluates as it goes, straight into a :class:`MultiPoly` over the
caller's variables; an identifier outside them is reported once the whole
input has parsed.

A term is read as one coefficient and one exponent vector (a *monomial*)
until a factor with more than one term arrives: a constant factor
multiplies the coefficient, and a variable factor adds to the exponents.
From the first factor with more terms on, the term is a MultiPoly and each
further factor multiplies it as a polynomial.  A power of a one-term base
is formed in closed form (its exponents times k, its coefficient to the
k-th power) after the same checks as any other power.  The sum adds every
term into one dict of terms.

A sum of integer monomials is read in one pass by :func:`_monomial_sum`:
'+' and '-' between terms, at most one '-' of each term's own, factors
joined by '*', and each factor an ASCII numeral or a non-reserved
identifier with an optional '^' and numeral.  ``MultiPoly.__str__``
writes this for integer coefficients, and so does
:func:`stackygit.ringspec.dumps` for a relation over Q.  One pattern checks
the text and one ``findall`` splits it into factors; the terms are summed
in the order and with the cancellation of the parser below, so the value,
its variables and the names are the same.  The reader gives up, and leaves
the text to the tokenizer and :class:`_Parser`, wherever a bound below
could fire; so every error, with its message and position, comes from the
tokenizer or :class:`_Parser`.

Parentheses and unary minus signs may nest at most :data:`MAX_NESTING`
deep; deeper input raises NestingTooDeepError before the parser recurses
further.  Sums and products of any length are parsed iteratively, so they
need no such bound.  A power whose degree would exceed
:data:`~stackygit.polynomials.MAX_PROFILE_DEGREE` raises DegreeTooLargeError
before it is expanded, and a power whose estimated coefficient size (the
exponent times log2 of the base's coefficient 1-norm) exceeds
:data:`MAX_COEFFICIENT_BITS` raises CoefficientTooLargeError before it is
computed; a root of unity is exempt.  A product is refused before it is
formed when its factors have more than :data:`MAX_TERM_PRODUCTS` pairs of
terms (ProductTooLargeError), and so is a power b^k when the bound
:func:`_power_terms` on the terms of b^ceil(k/2), squared, exceeds it.
A product is checked once it is formed: one with a
coefficient past the same bound raises CoefficientTooLargeError, so no
chain of bounded factors builds an unbounded coefficient.  A monomial's
check reruns only where its coefficient may have grown: at the first '*',
whose left factor's coefficient was never checked, and at every factor
whose coefficient is not the 1 of a variable.  A numeral of more than
:data:`MAX_NUMERAL_DIGITS` significant digits is refused with
CoefficientTooLargeError as it is read, before it is converted.
"""

from __future__ import annotations

import math
import re
from operator import add

from . import cyclotomic
from .cyclotomic import ONE, ZERO, as_cyclotomic, zeta
from .errors import (
    CoefficientTooLargeError,
    DegreeTooLargeError,
    NestingTooDeepError,
    ParseError,
    ProductTooLargeError,
    UnknownIdentifierError,
)
from .polynomials import MAX_PROFILE_DEGREE, BinaryForm, MultiPoly

SUGAR = {
    "i": cyclotomic.imag_unit,
    "sqrt2": cyclotomic.sqrt2,
    "sqrt5": cyclotomic.sqrt5,
    "sqrtm3": cyclotomic.sqrt_minus3,
}

#: Identifiers that never name a variable.
RESERVED = ("zeta", *SUGAR)

#: Deepest accepted nesting of parentheses and unary minus signs.  Each
#: level costs a few Python stack frames in the parser.
MAX_NESTING = 100

#: Largest estimated bit size of the coefficients of a power whose base is
#: not a root of unity (the exponent times log2 of the base's 1-norm, see
#: :func:`_bits_past_bound`) and of each coefficient of a product (log2 of the
#: larger of its denominator and the sum of its absolute coordinates).  A
#: coefficient at the bound prints in about 3,000 decimal digits.
MAX_COEFFICIENT_BITS = 10_000

#: Most pairs of terms one product may multiply: as many as two binary
#: forms of the largest degree the root profile accepts have.
MAX_TERM_PRODUCTS = (MAX_PROFILE_DEGREE + 1) ** 2

#: Most significant digits a numeral may have (CPython's default limit on
#: converting a string to an int).  A longer numeral has more than
#: :data:`MAX_COEFFICIENT_BITS` bits.
MAX_NUMERAL_DIGITS = 4300

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^]))")

#: A factor of a monomial sum: an identifier or an ASCII numeral of at most
#: :data:`MAX_NUMERAL_DIGITS` digits, with an optional ASCII exponent.
_SUM_FACTOR = (rf"(?:[A-Za-z_][A-Za-z_0-9]*|[0-9]{{1,{MAX_NUMERAL_DIGITS}}})"
               r"(?:\s*\^\s*[0-9]+)?")

#: The exponent that each exponent text of a monomial sum names, '' for
#: none; a text not here (above MAX_PROFILE_DEGREE, or with a leading zero)
#: is left to the parser.
_SUM_EXPONENTS = {"": 1, **{str(k): k for k in range(MAX_PROFILE_DEGREE + 1)}}

#: A sum of monomials: factors joined by '*' into terms, and terms joined by
#: '+' and '-', each term with at most one '-' of its own.  Each operator
#: stands between two factors, so a text that fails is given up in linear
#: time.
_MONOMIAL_SUM = re.compile(
    rf"\s*(?:-\s*)?{_SUM_FACTOR}(?:\s*(?:\*|[-+](?:\s*-)?)\s*{_SUM_FACTOR})*\s*")

#: One factor of a matched monomial sum, with the operator before it ('' for
#: the first) and the term's own '-' after a '+' or '-': (operator, minus,
#: identifier, numeral, exponent).
_SUM_ITEM = re.compile(
    r"\s*([-+*]?)(?:\s*(-))?\s*(?:([A-Za-z_][A-Za-z_0-9]*)|([0-9]+))(?:\s*\^\s*([0-9]+))?")


def numeral(digits: str):
    """The int that the decimal ``digits`` name, or None when they have
    more than :data:`MAX_NUMERAL_DIGITS` significant digits."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= MAX_NUMERAL_DIGITS else None


def _tokenize(text: str):
    pos = 0
    tokens = []
    while m := _TOKEN.match(text, pos):
        number, ident, op = m.groups()
        if number is not None:
            value = numeral(number)
            if value is None:
                raise CoefficientTooLargeError(
                    f"numeral of {len(number.lstrip('0'))} digits has more than"
                    f" {MAX_COEFFICIENT_BITS} bits (at position {m.start(1)})")
            tokens.append(("num", value, m.start(1)))
        elif ident is not None:
            tokens.append(("ident", ident, m.start(2)))
        else:
            tokens.append((op, op, m.start(3)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        pos = len(text) - len(rest)
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Evaluates the tokens as it reads them.  ``term``, ``factor`` and
    ``atom`` return a monomial, the pair (coefficient, exponent tuple),
    when their value has at most one term, and a MultiPoly otherwise."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.variables = variables
        self.k = 0
        self.depth = 0
        self.zero = (0,) * len(variables)
        self.units = {}  # each name's unit exponent vector, at its first occurrence
        for i, v in enumerate(variables):
            self.units.setdefault(v, tuple(int(j == i) for j in range(len(variables))))

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nested(self, parse, pos):
        """Run ``parse`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise NestingTooDeepError(
                f"expression nests deeper than {MAX_NESTING} levels (at position {pos})")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def poly(self, value):
        """``value`` as a MultiPoly."""
        if isinstance(value, MultiPoly):
            return value
        c, e = value
        return MultiPoly._of(self.variables, {e: c} if c else {})

    def monomial(self, p):
        """``p`` as a monomial pair when it has at most one term."""
        if len(p.terms) > 1:
            return p
        [(e, c)] = p.terms.items() or [(self.zero, ZERO)]
        return c, e

    def expr(self):
        terms, negate = {}, False
        while True:
            value = self.term()
            for e, c in (value.terms.items() if isinstance(value, MultiPoly)
                         else [(value[1], value[0])]):
                if not c:
                    continue
                if negate:
                    c = -c
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            if self.peek()[0] not in ("+", "-"):
                return MultiPoly._of(self.variables, terms)
            negate = self.advance()[0] == "-"

    def term(self):
        if self.peek()[0] == "-":
            pos = self.advance()[2]
            value = self.nested(self.term, pos)
            return -value if isinstance(value, MultiPoly) else (-value[0], value[1])
        value, checked = self.factor(), False
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            right = self.factor()
            if isinstance(value, tuple) and isinstance(right, tuple):
                (c, e), (d, f) = value, right
                if d is not ONE:
                    c, checked = c * d, False
                if not checked:
                    _check_product_bits((c,), pos)
                    checked = True
                value = c, tuple(map(add, e, f))
                continue
            value, right = self.poly(value), self.poly(right)
            if len(value.terms) * len(right.terms) > MAX_TERM_PRODUCTS:
                raise ProductTooLargeError(
                    f"product of {len(value.terms)} by {len(right.terms)} terms exceeds"
                    f" the bound of {MAX_TERM_PRODUCTS} term products (at position {pos})")
            value = value * right
            _check_product_bits(value.terms.values(), pos)
        return value

    def factor(self):
        value = self.atom()
        if self.peek()[0] != "^":
            return value
        self.advance()
        exponent, pos = self.expect("num")[1:]
        if isinstance(value, MultiPoly):
            degree = max(sum(e) for e in value.terms) * exponent
            bits = _bits_past_bound(value.terms.values(), exponent)
            constant = None  # a sum of two or more terms
        else:
            c, e = value
            degree = sum(e) * exponent
            bits = 0 if c is ONE else _bits_past_bound((c,), exponent)
            constant = None if any(e) else c
        if degree > MAX_PROFILE_DEGREE:
            raise DegreeTooLargeError(
                f"power of degree {degree} exceeds the bound {MAX_PROFILE_DEGREE}"
                f" (at position {pos})")
        if bits and not (constant is not None and _is_root_of_unity(constant)):
            raise CoefficientTooLargeError(
                f"power of about {bits} bits exceeds the bound"
                f" {MAX_COEFFICIENT_BITS} (at position {pos})")
        if not isinstance(value, MultiPoly):
            return (c if c is ONE else c ** exponent), tuple(x * exponent for x in e)
        half = _power_terms(value, (exponent + 1) // 2)
        if half * half > MAX_TERM_PRODUCTS:
            raise ProductTooLargeError(
                f"power {exponent} of {len(value.terms)} terms has a half power of up to"
                f" {half} terms, and {half} by {half} exceeds the bound of"
                f" {MAX_TERM_PRODUCTS} term products (at position {pos})")
        return self.monomial(value ** exponent)

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return as_cyclotomic(value), self.zero
        if kind == "ident":
            if value == "zeta":
                self.expect("(")
                m = self.expect("num")[1]
                self.expect(")")
                return zeta(m), self.zero
            if value in SUGAR:
                return SUGAR[value](), self.zero
            return ONE, self.units[value]
        if kind == "(":
            inner = self.nested(self.expr, pos)
            self.expect(")")
            return self.monomial(inner)
        raise ParseError(f"unexpected token {value!r}", pos)


def _check_product_bits(coeffs, pos):
    """Refuse a product, read at ``pos``, that has one of the coefficients
    ``coeffs`` past :data:`MAX_COEFFICIENT_BITS`."""
    bits = max((_bits_past_bound((c,)) for c in coeffs), default=0)
    if bits:
        raise CoefficientTooLargeError(
            f"product with a coefficient of about {bits} bits exceeds"
            f" the bound {MAX_COEFFICIENT_BITS} (at position {pos})")


def _bits_past_bound(coeffs, k: int = 1) -> int:
    """About log2(x^k) if x^k > 2^B, else 0, for B =
    :data:`MAX_COEFFICIENT_BITS` and x the growth norm of ``coeffs``: the
    larger of their common denominator D and the 1-norm, the sum of the
    absolute coordinates of D times each coefficient.  D^k times a
    coefficient of the k-th power of a polynomial with these coefficients
    has absolute value at most x^k in every complex embedding.  As
    2^(k(b-1)) <= x^k < 2^(kb) for b the bit length of x, x^k is formed
    only when B lies between."""
    den = math.lcm(*(c.den for c in coeffs))
    x = max(sum(abs(v) * (den // c.den) for c in coeffs for v in c.coords), den)
    b = x.bit_length()
    if k * (b - 1) > MAX_COEFFICIENT_BITS:
        return k * (x - 1).bit_length()
    bits = (x ** k - 1).bit_length() if k * b > MAX_COEFFICIENT_BITS else 0
    return bits if bits > MAX_COEFFICIENT_BITS else 0


def _power_terms(p: MultiPoly, j: int) -> int:
    """A bound on the number of terms of p^j: the smaller of the number of
    multisets of j of p's t terms, C(t + j - 1, j), and the number of
    monomials, in the n variables p uses, whose degree lies between j times
    the least and j times the largest degree of p's terms."""
    if len(p.terms) < 2:
        return len(p.terms)
    degrees = [sum(e) for e in p.terms]
    n = sum(1 for column in zip(*p.terms) if any(column))
    low, high = j * min(degrees), j * max(degrees)
    monomials = math.comb(high + n, n) - (math.comb(low - 1 + n, n) if low else 0)
    return min(math.comb(len(p.terms) + j - 1, j), monomials)


def _is_root_of_unity(c) -> bool:
    """Whether c is one of the roots of unity +-zeta_m^k of its field
    Q(zeta_m), whose powers stay among them."""
    step, z = zeta(c.order), cyclotomic.ONE
    for _ in range(c.order):
        if c == z or c == -z:
            return True
        z = z * step
    return False


def _monomial_sum(text: str, variables):
    """What :func:`_parse` returns for ``text``, when it is a sum of integer
    monomials that no bound of the parser could refuse; None otherwise.

    The terms are summed into the dict in the order and with the
    cancellation of :meth:`_Parser.expr`.  None is returned for a reserved
    name, an exponent outside :data:`_SUM_EXPONENTS` and a term whose
    numerals have more than MAX_COEFFICIENT_BITS bits together (counting a
    power n^k as k times the bits of n), so no bound of the parser can fire
    here; the pattern already leaves out long numerals."""
    if not _MONOMIAL_SUM.fullmatch(text):
        return None
    items = _SUM_ITEM.findall(text.rstrip())
    names = tuple(dict.fromkeys(name for _, _, name, _, _ in items if name))
    if any(name in RESERVED for name in names):
        return None
    variables += tuple(n for n in names if n not in variables)
    index = {}
    for i, v in enumerate(variables):
        index.setdefault(v, i)
    monomials = []  # [coefficient, exponent list] of each term, as ints
    for op, minus, name, digits, power in items:
        if op != "*":
            term, bits = [-1 if (op == "-") != bool(minus) else 1, [0] * len(variables)], 0
            monomials.append(term)
        k = _SUM_EXPONENTS.get(power)
        if k is None:
            return None
        if name:
            term[1][index[name]] += k
            continue
        n = int(digits)
        bits += n.bit_length() * k
        if bits > MAX_COEFFICIENT_BITS:
            return None
        term[0] *= n ** k
    terms = {}
    for c, e in monomials:
        if not c:
            continue
        e = tuple(e)
        s = terms.get(e)
        s = c if s is None else s + c
        if s:
            terms[e] = s
        else:
            del terms[e]
    return MultiPoly._of(variables, {e: as_cyclotomic(c) for e, c in terms.items()}), names


def _parse(text: str, variables):
    """Evaluate ``text`` over ``variables`` and every other variable name it
    uses; returns the value and the names in first-occurrence order.  A sum
    of integer monomials is read by :func:`_monomial_sum`; any other text,
    and every error, goes to :func:`_parse_tokens`."""
    read = _monomial_sum(text, variables)
    return _parse_tokens(text, variables) if read is None else read


def _parse_tokens(text: str, variables):
    """:func:`_parse` through the tokenizer and :class:`_Parser`, which
    read the whole grammar and raise every error."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text)
    names = tuple(dict.fromkeys(
        value for kind, value, _ in tokens if kind == "ident" and value not in RESERVED))
    parser = _Parser(tokens, variables + tuple(n for n in names if n not in variables))
    value = parser.expr()
    end = parser.peek()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return value, names


def parse_poly(text: str, variables) -> MultiPoly:
    """Evaluate an expression in the polynomial ring on ``variables``.

    Syntax errors raise ParseError with a position; a variable outside
    ``variables`` raises UnknownIdentifierError after the whole input has
    parsed.
    """
    variables = tuple(variables)
    value, names = _parse(text, variables)
    unknown = [n for n in names if n not in variables]
    if unknown:
        raise UnknownIdentifierError(
            f"unknown identifier {unknown[0]!r} (variables: {', '.join(variables) or 'none'})")
    return value


def form(text: str) -> BinaryForm:
    """Parse a binary form in the variables x, y.

    The result is homogeneous with the formal degree read off the terms;
    inhomogeneous input raises UnknownIdentifierError or ValueError.
    """
    poly, names = _parse(text, ("x", "y"))
    if not set(names) <= {"x", "y"}:
        raise UnknownIdentifierError(
            f"a binary form uses only x and y, found {names}")
    degree = poly.weighted_degree((1, 1))  # 0 for the zero form
    if degree is None:
        raise ValueError(f"{text!r} is not homogeneous")
    coeffs = [ZERO] * (degree + 1)
    for (_, ey), c in poly.terms.items():
        coeffs[ey] = c
    return BinaryForm._of(coeffs)
