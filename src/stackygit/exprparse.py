"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := ('-')* factor ('*' factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := identifier | integer | 'zeta' '(' integer ')' | '(' expr ')'

The identifiers ``i``, ``sqrt2``, ``sqrt5`` and ``sqrtm3`` are reserved
constants (zeta_4, zeta_8 + zeta_8^7, 1 + 2 zeta_5 + 2 zeta_5^4,
1 + 2 zeta_3); every other identifier is a variable, resolved at lowering
time against a caller-supplied variable list.

Parentheses and unary minus signs may nest at most :data:`MAX_NESTING`
deep; deeper input raises NestingTooDeepError before the parser recurses
further.  Sums and products of any length are parsed and lowered
iteratively, so they need no such bound.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from . import cyclotomic
from .cyclotomic import as_cyclotomic, zeta
from .errors import NestingTooDeepError, ParseError, UnknownIdentifierError
from .polynomials import BinaryForm, MultiPoly


class Node:
    """A parse-tree node.  Equality and hashing are structural and walk the
    tree with an explicit stack, so chains of any length compare."""

    __slots__ = ()

    def _key(self):
        # pre-order (type, non-node fields) of the tree; each node type has
        # a fixed number of children, so the sequence determines the tree
        out, stack = [], [self]
        while stack:
            n = stack.pop()
            values = [getattr(n, f) for f in n.__dataclass_fields__]
            out.append((type(n), *(v for v in values if not isinstance(v, Node))))
            stack += reversed([v for v in values if isinstance(v, Node)])
        return out

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(tuple(self._key()))


_node = dataclass(frozen=True, eq=False)


@_node
class Num(Node):
    value: int


@_node
class Zeta(Node):
    order: int


@_node
class Const(Node):
    name: str  # one of the sugar constants


@_node
class Var(Node):
    name: str


@_node
class Add(Node):
    left: Node
    right: Node


@_node
class Sub(Node):
    left: Node
    right: Node


@_node
class Mul(Node):
    left: Node
    right: Node


@_node
class Neg(Node):
    arg: Node


@_node
class Pow(Node):
    base: Node
    exponent: int


SUGAR = {
    "i": cyclotomic.imag_unit,
    "sqrt2": cyclotomic.sqrt2,
    "sqrt5": cyclotomic.sqrt5,
    "sqrtm3": cyclotomic.sqrt_minus3,
}

#: Deepest accepted nesting of parentheses and unary minus signs.  Each
#: level costs a few Python stack frames in the parser and the tree walks.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        number, ident, op = m.groups()
        if number is not None:
            tokens.append(("num", int(number), m.start(1)))
        elif ident is not None:
            tokens.append(("ident", ident, m.start(2)))
        else:
            tokens.append((op, op, m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0
        self.depth = 0

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
        node = parse()
        self.depth -= 1
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self):
        if self.peek()[0] == "-":
            pos = self.advance()[2]
            return Neg(self.nested(self.term, pos))
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            node = Pow(node, tok[1])
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "ident":
            if value == "zeta":
                self.expect("(")
                m = self.expect("num")[1]
                self.expect(")")
                return Zeta(m)
            if value in SUGAR:
                return Const(value)
            return Var(value)
        if kind == "(":
            node = self.nested(self.expr, pos)
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str) -> Node:
    """Parse an expression into an AST; raises ParseError with a position."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    end = parser.peek()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return node


# -- printing -----------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Neg: 2, Mul: 3, Pow: 4}
_BINARY_TEXT = {Add: " + ", Sub: " - ", Mul: "*"}


def _prec(node):
    return _PREC.get(type(node), 5)


def print_expr(node: Node) -> str:
    """Render an AST so that parse_poly(print_expr(t)) == t."""
    if type(node) in _BINARY_TEXT:
        # walk the left spine of a chain like x + x + ... iteratively; '+'
        # and '-' never parenthesize their left operand
        spine = []
        while type(node) in _BINARY_TEXT:
            spine.append(node)
            node = node.left
        text = print_expr(node)
        for op in reversed(spine):
            mul = isinstance(op, Mul)
            if mul and _prec(op.left) < 3:
                text = f"({text})"
            right = print_expr(op.right)
            if _prec(op.right) <= (3 if mul else 1):
                right = f"({right})"
            text = f"{text}{_BINARY_TEXT[type(op)]}{right}"
        return text
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Zeta):
        return f"zeta({node.order})"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        arg = print_expr(node.arg)
        # '-' binds looser than '*': parenthesize products and sums
        if _prec(node.arg) <= 3 and not isinstance(node.arg, Neg):
            return f"-({arg})" if _prec(node.arg) <= 1 else f"-{arg}"
        if isinstance(node.arg, Neg):
            return f"-({arg})"
        return f"-{arg}"
    if isinstance(node, Pow):
        base = print_expr(node.base)
        if _prec(node.base) < 5:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    raise TypeError(f"not an AST node: {node!r}")


# -- lowering -----------------------------------------------------------------

def collect_variables(node: Node):
    """Variable names appearing in the AST, in first-occurrence order."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            if n.name not in out:
                out.append(n.name)
        elif isinstance(n, (Add, Sub, Mul)):
            stack += (n.right, n.left)
        elif isinstance(n, Neg):
            stack.append(n.arg)
        elif isinstance(n, Pow):
            stack.append(n.base)
    return tuple(out)


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def lower_to_multipoly(node: Node, variables) -> MultiPoly:
    """Evaluate the AST in the polynomial ring on ``variables``.

    Unknown identifiers (variables outside the list) raise
    UnknownIdentifierError.
    """
    variables = tuple(variables)

    def walk(n):
        if isinstance(n, Num):
            return MultiPoly.constant(variables, n.value)
        if isinstance(n, Zeta):
            return MultiPoly.constant(variables, zeta(n.order))
        if isinstance(n, Const):
            return MultiPoly.constant(variables, SUGAR[n.name]())
        if isinstance(n, Var):
            if n.name not in variables:
                raise UnknownIdentifierError(
                    f"unknown identifier {n.name!r} (variables: {', '.join(variables) or 'none'})")
            return MultiPoly.variable(variables, n.name)
        if type(n) in _BINARY:
            # walk the left spine of a chain like x + x + ... iteratively
            spine = []
            while type(n) in _BINARY:
                spine.append(n)
                n = n.left
            value = walk(n)
            for op in reversed(spine):
                value = _BINARY[type(op)](value, walk(op.right))
            return value
        if isinstance(n, Neg):
            return -walk(n.arg)
        if isinstance(n, Pow):
            return walk(n.base) ** n.exponent
        raise TypeError(f"not an AST node: {n!r}")

    return walk(node)


def form(text: str) -> BinaryForm:
    """Parse a binary form in the variables x, y.

    The result is homogeneous with the formal degree read off the terms;
    inhomogeneous input raises UnknownIdentifierError or ValueError.
    """
    node = parse_poly(text)
    names = collect_variables(node)
    if not set(names) <= {"x", "y"}:
        raise UnknownIdentifierError(
            f"a binary form uses only x and y, found {names}")
    poly = lower_to_multipoly(node, ("x", "y"))
    if poly.is_zero():
        return BinaryForm([0])
    degree = None
    for (ex, ey) in poly.terms:
        d = ex + ey
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(f"{text!r} is not homogeneous")
    coeffs = [0] * (degree + 1)
    for (ex, ey), c in poly.terms.items():
        coeffs[ey] = c
    return BinaryForm(coeffs)
