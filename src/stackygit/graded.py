"""Graded-ring presentations and their stack-level operations.

A presentation is a list of positively weighted generators with at most one
weighted-homogeneous relation (the two-sheeted hypersurface shape covers
every ring in the catalog).  On top of it: Veronese subrings and inverse
regrading, rigidification (pass to the subring of degrees divisible by the
hcf of the weights, killing the generic mu_n of automorphisms), root
adjunction t^r = s for gcd(r, deg s) = 1, recognition of the two-sheeted
shape t^2 = F with its weight conditions, and the resulting decomposition
into coarse space, canonical stack, square-root divisor and gerbe index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import (
    ArityError,
    CommonFactorError,
    ConditionViolationError,
    EmptyPresentationError,
    IndivisibleWeightError,
    InhomogeneousError,
    NotWellFormedError,
    ShapeError,
    UnknownGeneratorError,
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


@dataclass(frozen=True)
class GradedRingPresentation:
    """Weighted generators with at most one homogeneous relation."""

    generators: tuple
    weights: tuple
    relation: MultiPoly | None = None
    field_order: int = 1

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.generators) != len(self.weights):
            raise ArityError("one weight per generator")
        if len(set(self.generators)) != len(self.generators):
            raise ArityError("generator names must be distinct")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if self.relation is not None:
            if self.relation.variables != self.generators:
                raise ArityError("relation must be written in the generators")
            if self.relation.is_zero():
                object.__setattr__(self, "relation", None)
            elif self.relation.weighted_degree(self.weights) is None:
                raise InhomogeneousError(
                    f"relation {self.relation} is not weighted-homogeneous")

    def weight_of(self, name: str) -> int:
        try:
            return self.weights[self.generators.index(name)]
        except ValueError:
            raise UnknownGeneratorError(f"no generator named {name!r}") from None

    def describe(self) -> str:
        gens = ", ".join(f"{g}:{w}" for g, w in zip(self.generators, self.weights))
        rel = f" / ({self.relation})" if self.relation is not None else ""
        return f"k[{gens}]{rel}"

    def __str__(self):
        return self.describe()


def free_ring(names, weights, field_order=1) -> GradedRingPresentation:
    return GradedRingPresentation(tuple(names), tuple(weights), None, field_order)


@dataclass(frozen=True)
class DecompositionReport:
    """Coarse space, canonical stack, rigidification and square-root datum."""

    ring: GradedRingPresentation
    coarse_weights: tuple            # also the canonical stack's weights
    rigidification: GradedRingPresentation
    gerbe_index: int
    root_order: int
    root_divisor: MultiPoly          # F over the canonical-stack generators
    root_divisor_degree: int         # degree of F on the canonical stack
    notes: tuple = ()


@dataclass(frozen=True)
class ChartPresentation:
    """The affine chart f = 1 with its residual Z/r grading."""

    base: GradedRingPresentation
    chart_generator: str
    modulus: int
    residual: tuple  # ((name, weight mod r), ...) over the other generators

    @property
    def automorphism_group(self) -> str:
        return f"mu_{self.modulus}"


# -- elementary regradings ------------------------------------------------------


def hcf_degrees(ring: GradedRingPresentation) -> int:
    """gcd of the generator weights (= hcf of occupied degrees)."""
    if not ring.generators:
        raise EmptyPresentationError("presentation has no generators")
    g = 0
    for w in ring.weights:
        g = gcd(g, w)
    return g


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


def regrade_inverse(ring: GradedRingPresentation, n: int) -> GradedRingPresentation:
    """The same ring with all degrees multiplied by n."""
    if n < 1:
        raise ValueError("n must be positive")
    return GradedRingPresentation(
        ring.generators, tuple(w * n for w in ring.weights),
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
    if isinstance(s, str):
        s = MultiPoly.variable(ring.generators, s)
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
    """No n-1 of the n weights share a common factor."""
    weights = tuple(int(w) for w in weights)
    if len(weights) < 2:
        raise ArityError("well-formedness needs at least two weights")
    for skip in range(len(weights)):
        g = 0
        for i, w in enumerate(weights):
            if i != skip:
                g = gcd(g, w)
        if g > 1:
            return False
    return True


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
    divisor = MultiPoly(base_names, rest)
    if divisor.is_zero():
        raise ShapeError(
            f"relation {ring.generators[top]}^2 has no base part F")
    d_top = ring.weights[top]
    assert divisor.weighted_degree(ring.weights[:-1]) == 2 * d_top  # homogeneity
    d = 0
    for w in ring.weights[:-1]:
        d = gcd(d, w)
    if d_top % d == 0:
        raise ConditionViolationError(
            "i", f"hcf {d} of the base weights divides the top weight {d_top}")
    e = tuple(w // d for w in ring.weights[:-1])
    if not is_well_formed(e):
        raise ConditionViolationError(
            "ii", f"rescaled base weights {e} are not well formed")
    if (2 * d_top) % d:
        raise ConditionViolationError(
            "iii", f"hcf {d} of the base weights does not divide 2*{d_top}")
    q = 2 * d_top // d  # degree of F in the weights e_i
    assert q % 2 == 1  # forced by (i) together with (iii)
    gerbe = d // 2
    rigidification = veronese(ring, gerbe)
    canonical_ring = free_ring(base_names, e, ring.field_order)
    # Reconstruction cross-check: adjoining a square root of F to the
    # canonical stack must reproduce the rigidification.
    rebuilt = root_stack(canonical_ring, divisor, 2,
                         root_name=ring.generators[-1])
    if not presentations_isomorphic(rebuilt, rigidification):
        raise AssertionError(
            "square root of F over the canonical stack does not match the "
            "rigidification; the presentation is inconsistent")
    return DecompositionReport(
        ring=ring,
        coarse_weights=e,
        rigidification=rigidification,
        gerbe_index=gerbe,
        root_order=2,
        root_divisor=divisor,
        root_divisor_degree=q,
        notes=(CONDITION_NOTE,),
    )


# -- weighted projective geometry ----------------------------------------------------


def wps_singular_strata(weights):
    """Maximal coordinate strata of a well-formed weighted projective space
    whose weights share a factor; each is a cyclic quotient locus.

    Returns (index tuple, gcd) pairs, maximal under inclusion.
    """
    weights = tuple(int(w) for w in weights)
    if not is_well_formed(weights):
        raise NotWellFormedError(f"weights {weights} are not well formed")
    found = []
    indices = range(len(weights))
    for size in range(1, len(weights) + 1):
        for subset in itertools.combinations(indices, size):
            g = 0
            for i in subset:
                g = gcd(g, weights[i])
            if g > 1:
                found.append((subset, g))
    maximal = [
        (s, g) for (s, g) in found
        if not any(set(s) < set(t) for (t, _) in found)
    ]
    return sorted(maximal)


def affine_chart(ring: GradedRingPresentation, name: str) -> ChartPresentation:
    """The open chart f = 1, a cyclic quotient by mu_{weight(f)}.

    The remaining generators keep their weights modulo r as a Z/r grading.
    """
    r = ring.weight_of(name)
    residual = tuple(
        (g, w % r) for g, w in zip(ring.generators, ring.weights) if g != name)
    return ChartPresentation(ring, name, r, residual)


# -- presentation comparison ------------------------------------------------------------


def presentations_isomorphic(p: GradedRingPresentation,
                             q: GradedRingPresentation) -> bool:
    """Equality up to a weight-preserving renaming of generators, with
    relations matched up to a nonzero scalar."""
    if len(p.generators) != len(q.generators):
        return False
    if sorted(p.weights) != sorted(q.weights):
        return False
    if (p.relation is None) != (q.relation is None):
        return False
    by_weight = {}
    for g, w in zip(q.generators, q.weights):
        by_weight.setdefault(w, []).append(g)
    # all weight-preserving bijections p-generators -> q-generators
    groups = {}
    for g, w in zip(p.generators, p.weights):
        groups.setdefault(w, []).append(g)
    weight_keys = list(groups)
    choices = [itertools.permutations(by_weight[w]) for w in weight_keys]
    for assignment in itertools.product(*choices):
        mapping = {}
        for w, perm in zip(weight_keys, assignment):
            mapping.update(zip(groups[w], perm))
        if p.relation is None:
            return True
        renamed = p.relation.renamed(mapping).permuted(q.generators)
        if renamed.proportional_to(q.relation) is not None:
            return True
    return False
