"""The ring-spec text format.

One generator per line as ``name : weight``, where the name is an
identifier other than the reserved ``zeta``, ``i``, ``sqrt2``, ``sqrt5``
and ``sqrtm3`` of the expression grammar; an optional ``relation:``
line with a polynomial expression over the generators; an optional
``field: zeta(m)`` line choosing the coefficient field, 1 <= m <=
``ORDER_CAP`` (Q when absent).  A weight or field order of more than
``MAX_NUMERAL_DIGITS`` significant digits is refused, naming its line.
Every relation coefficient must lie in that field: its order divides m.
Blank lines and ``#`` comments are ignored.  The writer clears
denominators in the relation (a relation is only meaningful up to a
nonzero scalar), so emitted files stay inside the expression grammar.
Over Q the relation it writes is a sum of integer monomials, which
:func:`stackygit.exprparse.parse_poly` reads in one pass; any other
relation text goes through the general parser, which raises every error.
A relation that is a nonzero constant is refused with ShapeError, since
its ring is zero.
"""

from __future__ import annotations

import re
from math import lcm

from .cyclotomic import _check_order
from .errors import RingSpecError, excerpt
from .exprparse import MAX_NUMERAL_DIGITS, RESERVED, numeral, parse_poly
from .graded import GradedRingPresentation
from .polynomials import MultiPoly

_GEN_LINE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*:\s*([0-9]+)$")
_FIELD_LINE = re.compile(r"^field\s*:\s*zeta\(([0-9]+)\)$")
_RELATION_LINE = re.compile(r"^relation\s*:(.*)$")


def loads(text: str) -> GradedRingPresentation:
    generators, weights = [], []
    relation_text = None
    field_order = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _RELATION_LINE.match(line)
        if m:
            if relation_text is not None:
                raise RingSpecError(f"line {lineno}: second relation line")
            relation_text, relation_line = m.group(1).strip(), lineno
            if not relation_text:
                raise RingSpecError(f"line {lineno}: empty relation")
            continue
        m = _FIELD_LINE.match(line)
        if m:
            field_order = _line_numeral(m.group(1), "field order", lineno)
            if field_order < 1:
                raise RingSpecError(f"line {lineno}: field order must be positive")
            _check_order(field_order)
            continue
        m = _GEN_LINE.match(line)
        if m:
            if m.group(1) in RESERVED:
                raise RingSpecError(
                    f"line {lineno}: {m.group(1)!r} is reserved and cannot name a generator")
            generators.append(m.group(1))
            weights.append(_line_numeral(m.group(2), "weight", lineno))
            continue
        raise RingSpecError(f"line {lineno}: cannot parse {excerpt(raw.strip())}")
    if not generators:
        raise RingSpecError("no generators")
    relation = None
    if relation_text is not None:
        relation = parse_poly(relation_text, generators)
        for c in relation.terms.values():
            if field_order % c.order:
                raise RingSpecError(
                    f"line {relation_line}: coefficient {c} has order {c.order}, "
                    f"which does not divide the field order {field_order}")
    return GradedRingPresentation(
        tuple(generators), tuple(weights), relation, field_order)


def _line_numeral(digits: str, what: str, lineno: int) -> int:
    value = numeral(digits)
    if value is None:
        raise RingSpecError(
            f"line {lineno}: {what} has more than {MAX_NUMERAL_DIGITS} digits")
    return value


def load(path) -> GradedRingPresentation:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(ring: GradedRingPresentation) -> str:
    lines = [f"{g} : {w}" for g, w in zip(ring.generators, ring.weights)]
    if ring.field_order > 1:
        lines.append(f"field: zeta({ring.field_order})")
    if ring.relation is not None:
        lines.append(f"relation: {_integral(ring.relation)}")
    return "\n".join(lines) + "\n"


def _integral(poly: MultiPoly) -> MultiPoly:
    """Scale a relation so every coefficient coordinate is an integer."""
    den = lcm(*(c.den for c in poly.terms.values()))
    return poly * den if den > 1 else poly
