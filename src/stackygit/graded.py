"""Graded-ring presentations and their stack-level operations.

A presentation is a list of positively weighted generators with at most one
weighted-homogeneous relation (the two-sheeted hypersurface shape covers
every ring in the catalog).  On top of it: Veronese subrings,
rigidification (pass to the subring of degrees divisible by the
hcf of the weights, killing the generic mu_n of automorphisms), root
adjunction t^r = s for gcd(r, deg s) = 1, recognition of the two-sheeted
shape t^2 = F with its weight conditions, and the resulting decomposition
into coarse space, canonical stack, square-root divisor and gerbe index.
Points of weighted projective space (:class:`PointW`) carry exact
weighted-projective equality: two coordinate vectors are equal when one is
the weighted rescaling of the other, decided by comparing powers of the
coordinate ratios pairwise.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd

from .cyclotomic import as_cyclotomic
from .errors import (
    ArityError,
    CommonFactorError,
    ConditionViolationError,
    EmptyPresentationError,
    IndivisibleWeightError,
    InhomogeneousError,
    ShapeError,
    UnknownGeneratorError,
    excerpt,
)
from .polynomials import MultiPoly

#: The printed evenness condition on 2*w(t)/d conflicts with every worked
#: example; divisibility d | 2*w(t) is what the square-root construction
#: needs, and together with d not dividing w(t) it forces 2*w(t)/d odd.
CONDITION_NOTE = (
    "condition (iii) read as divisibility: d | 2*deg(t); the quotient "
    "2*deg(t)/d is then automatically odd, which is exactly what the "
    "coprimality hypothesis of the square-root construction requires"
)


class GradedRingPresentation(namedtuple("GradedRingPresentation",
                                        "generators weights relation field_order")):
    """Weighted generators with at most one homogeneous relation."""

    __slots__ = ()

    def __new__(cls, generators, weights, relation: MultiPoly | None = None,
                field_order: int = 1):
        generators = tuple(generators)
        weights = tuple(int(w) for w in weights)
        if len(generators) != len(weights):
            raise ArityError("one weight per generator")
        if len(set(generators)) != len(generators):
            raise ArityError("generator names must be distinct")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        if relation is not None:
            if relation.variables != generators:
                raise ArityError("relation must be written in the generators")
            degree = relation.weighted_degree(weights)
            if not relation:
                relation = None
            elif degree is None:
                raise InhomogeneousError(f"relation {relation} is not weighted-homogeneous")
            elif degree == 0:
                # weights are positive, so only a nonzero constant has degree 0
                raise ShapeError(
                    f"relation {relation} is a nonzero constant, so the ring is zero")
        return super().__new__(cls, generators, weights, relation, field_order)

    def weight_of(self, name: str) -> int:
        try:
            return self.weights[self.generators.index(name)]
        except ValueError:
            raise UnknownGeneratorError(f"no generator named {excerpt(name)}") from None

    def describe(self) -> str:
        gens = ", ".join(f"{g}:{w}" for g, w in zip(self.generators, self.weights))
        rel = f" / ({self.relation})" if self.relation is not None else ""
        return f"k[{gens}]{rel}"


class DecompositionReport(namedtuple(
        "DecompositionReport", "coarse_weights rigidification gerbe_index root_order"
        " root_divisor root_divisor_degree notes", defaults=((),))):
    """Coarse space, canonical stack, rigidification and square-root datum.

    ``coarse_weights`` are also the canonical stack's weights;
    ``root_divisor`` is F over the canonical-stack generators and
    ``root_divisor_degree`` its degree on the canonical stack."""

    __slots__ = ()


class ChartPresentation(namedtuple("ChartPresentation", "chart_generator modulus residual")):
    """The affine chart f = 1 with its residual Z/r grading: ``residual``
    holds (name, weight mod r) for the other generators."""

    __slots__ = ()


# -- elementary regradings ------------------------------------------------------


def hcf_degrees(ring: GradedRingPresentation) -> int:
    """gcd of the generator weights (= hcf of occupied degrees)."""
    if not ring.generators:
        raise EmptyPresentationError("presentation has no generators")
    return gcd(*ring.weights)


def veronese(ring: GradedRingPresentation, n: int) -> GradedRingPresentation:
    """The subring of degrees divisible by n, regraded by dividing by n.

    Requires n to divide every generator weight (true for every use here);
    re-presenting a general Veronese subring would need new generators.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if any(w % n for w in ring.weights):
        raise IndivisibleWeightError(
            f"{n} does not divide the weights {ring.weights}")
    return GradedRingPresentation(
        ring.generators, tuple(w // n for w in ring.weights),
        ring.relation, ring.field_order)


def rigidify(ring: GradedRingPresentation):
    """Kill the generic mu_n of automorphisms; returns (ring, gerbe index).

    n is the hcf of the occupied degrees; the quotient presentation is the
    n-th Veronese and the original is an essentially trivial mu_n-gerbe
    over it.
    """
    n = hcf_degrees(ring)
    return veronese(ring, n), n


# -- root adjunction --------------------------------------------------------------


def root_stack(ring: GradedRingPresentation, s, r: int,
               root_name: str = "t") -> GradedRingPresentation:
    """Adjoin an r-th root of the homogeneous element s.

    The base is regraded by the factor r and a new generator of degree
    n = deg(s) is added with the relation t^r = s; this presents the r-th
    root stack precisely when gcd(r, n) = 1, and the common-factor case is
    rejected (the quotient construction genuinely fails there, not just the
    presentation).

    Only relation-free bases are supported: adjoining a root to a ring that
    already has a relation would need a second relation.
    """
    if r < 1:
        raise ValueError("root order must be positive")
    if ring.relation is not None:
        raise ShapeError("root adjunction is implemented over free base rings")
    if s.variables != ring.generators:
        raise ArityError("the section must be written in the base generators")
    n = s.weighted_degree(ring.weights)
    if n is None:
        raise InhomogeneousError(f"section {s} is not homogeneous")
    if n < 1:
        raise ValueError("the section must have positive degree")
    if gcd(r, n) != 1:
        raise CommonFactorError(
            f"root order {r} and section degree {n} share a factor; "
            "the root construction fails in this case")
    while root_name in ring.generators:
        root_name += "_"
    gens = ring.generators + (root_name,)
    weights = tuple(w * r for w in ring.weights) + (n,)
    t = MultiPoly.variable(gens, root_name)
    relation = t ** r - s.lifted(gens)
    return GradedRingPresentation(gens, weights, relation, ring.field_order)


# -- the two-sheeted shape ----------------------------------------------------------


def is_well_formed(weights) -> bool:
    """No n-1 of the n weights share a common factor: each leave-one-out gcd
    is that of a prefix gcd and a suffix gcd."""
    weights = tuple(int(w) for w in weights)
    if len(weights) < 2:
        raise ArityError("well-formedness needs at least two weights")
    before = itertools.accumulate(weights, gcd, initial=0)
    after = list(itertools.accumulate(reversed(weights), gcd, initial=0))
    return all(gcd(b, a) == 1 for b, a in zip(before, after[-2::-1]))


def stacky_decompose(ring: GradedRingPresentation) -> DecompositionReport:
    """Decompose a two-sheeted ring t^2 = F(rest) into its stack-theoretic
    layers.

    The shape is matched first, then the weight conditions: (i) d = hcf of
    the base weights does not divide the top weight; (ii) the rescaled base
    weights e_i = d_i/d are well formed; (iii) d divides 2*(top weight) --
    see CONDITION_NOTE for why divisibility, not evenness of the quotient,
    is the faithful reading.  The coarse space is the weighted projective
    space on e_1..e_n, the canonical stack is the corresponding weighted
    projective stack, the rigidification is the (d/2)-th Veronese, reached
    from the canonical stack by a square root along F, and the ring itself
    is an essentially trivial mu_{d/2}-gerbe over the rigidification.
    """
    if ring.relation is None:
        raise ShapeError("the presentation has no relation")
    if len(ring.generators) < 2:
        raise ShapeError("need a base generator besides the square root")
    top = len(ring.generators) - 1
    square = tuple(2 if i == top else 0 for i in range(len(ring.generators)))
    lead = ring.relation.terms.get(square)
    if lead is None:
        raise ShapeError(
            f"relation has no {ring.generators[top]}^2 term")
    rest = {}
    for exps, c in ring.relation.terms.items():
        if exps == square:
            continue
        if exps[top]:
            raise ShapeError(
                f"relation is not of the shape {ring.generators[top]}^2 - F")
        rest[exps[:-1]] = -c / lead
    base_names = ring.generators[:-1]
    divisor = MultiPoly._of(base_names, rest)
    if not divisor:
        raise ShapeError(
            f"relation {ring.generators[top]}^2 has no base part F")
    d_top = ring.weights[top]
    assert divisor.weighted_degree(ring.weights[:-1]) == 2 * d_top  # homogeneity
    d = gcd(*ring.weights[:-1])
    if d_top % d == 0:
        raise ConditionViolationError(
            "i", f"hcf {d} of the base weights divides the top weight {d_top}")
    e = tuple(w // d for w in ring.weights[:-1])
    if len(e) > 1 and not is_well_formed(e):  # one weight is P(1), well formed
        raise ConditionViolationError(
            "ii", f"rescaled base weights {e} are not well formed")
    if (2 * d_top) % d:
        raise ConditionViolationError(
            "iii", f"hcf {d} of the base weights does not divide 2*{d_top}")
    q = 2 * d_top // d  # degree of F in the weights e_i
    assert q % 2 == 1  # forced by (i) together with (iii)
    rigidification, gerbe = rigidify(ring)  # hcf of all weights = gcd(d, d_top) = d/2
    canonical_ring = GradedRingPresentation(base_names, e, field_order=ring.field_order)
    # Reconstruction cross-check: a square root of F over the canonical stack
    # must rebuild the rigidification by position, generators base_names +
    # (top,) with weights 2*w_i/d = w_i/(d/2), relation up to a scalar.
    rebuilt = root_stack(canonical_ring, divisor, 2,
                         root_name=ring.generators[-1])
    if not presentations_equal(rebuilt, rigidification):
        raise AssertionError(
            "square root of F over the canonical stack does not match the "
            "rigidification; the presentation is inconsistent")
    return DecompositionReport(
        coarse_weights=e,
        rigidification=rigidification,
        gerbe_index=gerbe,
        root_order=2,
        root_divisor=divisor,
        root_divisor_degree=q,
        notes=(CONDITION_NOTE,),
    )


# -- weighted projective geometry ----------------------------------------------------


class PointW(namedtuple("PointW", "coordinates weights")):
    """A point of a weighted projective space, coordinates not all zero.

    Equal points need not have equal coordinates, so points are not
    hashable."""

    __slots__ = ()

    def __new__(cls, coordinates, weights):
        coordinates = tuple(as_cyclotomic(c) for c in coordinates)
        weights = tuple(int(w) for w in weights)
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        if len(coordinates) != len(weights):
            raise ArityError("one weight per coordinate")
        if not any(coordinates):
            raise ValueError("a projective point needs a nonzero coordinate")
        return super().__new__(cls, coordinates, weights)

    def support(self):
        return tuple(i for i, c in enumerate(self.coordinates) if c)

    def rescaled(self, t) -> "PointW":
        """The point t . x, coordinate i times t^(weight i); the tests'
        reference for weighted-projective equality."""
        t = as_cyclotomic(t)
        if not t:
            raise ValueError("rescaling needs t != 0")
        return PointW(
            tuple(c * t ** w for c, w in zip(self.coordinates, self.weights)),
            self.weights)

    def __eq__(self, other):
        if not isinstance(other, PointW):
            return NotImplemented
        if self.weights != other.weights:
            return False
        sup = self.support()
        if sup != other.support():
            return False
        ratios = [other.coordinates[i] / self.coordinates[i] for i in sup]
        # r_i = t^{e_i} is solvable over the algebraic closure iff
        # r_i^{e_j/g} = r_j^{e_i/g} for every pair, g = gcd(e_i): if so, and
        # sum c_i e_i/g = 1, then u = prod r_i^{c_i} has u^{e_j/g} = r_j, and
        # t is any g-th root of u
        g = gcd(*(self.weights[i] for i in sup))
        exps = [self.weights[i] // g for i in sup]
        return all(ratios[i] ** exps[j] == ratios[j] ** exps[i]
                   for i, j in itertools.combinations(range(len(sup)), 2))

    def __ne__(self, other):
        # tuple.__ne__ would compare the coordinates themselves
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coordinates) + ")"


def inertia_strata(weights):
    """Every stratum of P(weights) with its inertia, as (S, g) pairs.

    S runs over the nonempty supports (the coordinates that do not vanish)
    in :func:`itertools.combinations` order, and the points with support S
    have inertia mu_g, g = gcd(w_S), in the stack [A^n - 0 / G_m].  The
    weights need not be well formed.
    """
    weights = tuple(int(w) for w in weights)
    return [(s, gcd(*(weights[i] for i in s)))
            for size in range(1, len(weights) + 1)
            for s in itertools.combinations(range(len(weights)), size)]


def affine_chart(ring: GradedRingPresentation, name: str) -> ChartPresentation:
    """The open chart f = 1, a cyclic quotient by mu_{weight(f)}.

    The remaining generators keep their weights modulo r as a Z/r grading.
    """
    r = ring.weight_of(name)
    residual = tuple(
        (g, w % r) for g, w in zip(ring.generators, ring.weights) if g != name)
    return ChartPresentation(name, r, residual)


# -- presentation comparison ------------------------------------------------------------


def presentations_equal(p: GradedRingPresentation,
                        q: GradedRingPresentation) -> bool:
    """Equality by position: the same generators and weights in the same
    order, relations equal up to a nonzero scalar.  This is how a rebuilt
    presentation is checked against the one it must reproduce."""
    if (p.generators, p.weights) != (q.generators, q.weights):
        return False
    if p.relation is None or q.relation is None:
        return p.relation is q.relation
    return p.relation.proportional_to(q.relation) is not None
