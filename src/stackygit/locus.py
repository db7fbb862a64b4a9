"""Exact divisor membership and singularity checks on weighted projective
spaces, and the assembled locus reports for the quintic and sextic moduli.

Points carry weighted-projective equality: two coordinate vectors are equal
when one is the weighted rescaling of the other, decided exactly by
comparing powers of the coordinate ratios pairwise (no root extraction).
Singularity of a divisor at a point is tested on the affine cone: the value
and every partial derivative must vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .cyclotomic import as_cyclotomic
from .errors import ArityError, InhomogeneousError, WeightMismatchError
from .graded import wps_singular_strata
from .invariants import SEXTIC_REPAIR_NOTE, catalog_ring
from .polynomials import MultiPoly


@dataclass(frozen=True)
class PointW:
    """A point of a weighted projective space, coordinates not all zero."""

    coordinates: tuple
    weights: tuple

    def __post_init__(self):
        coords = tuple(as_cyclotomic(c) for c in self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if len(coords) != len(self.weights):
            raise ArityError("one weight per coordinate")
        if not any(coords):
            raise ValueError("a projective point needs a nonzero coordinate")

    def support(self):
        return tuple(i for i, c in enumerate(self.coordinates) if c)

    def rescaled(self, t) -> "PointW":
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
                   for i, j in combinations(range(len(sup)), 2))

    __hash__ = None

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coordinates) + ")"


def _check_divisor_point(F: MultiPoly, w: tuple, p: PointW):
    if F.weighted_degree(w) is None:
        raise InhomogeneousError(f"{F} is not homogeneous for {tuple(w)}")
    if p.weights != tuple(w):
        raise WeightMismatchError(
            f"point weights {p.weights} differ from {tuple(w)}")


def on_divisor(F: MultiPoly, w: tuple, p: PointW) -> bool:
    """Whether F vanishes at p (well defined by homogeneity)."""
    _check_divisor_point(F, w, p)
    return not F.evaluate(p.coordinates)


def is_singular_at(F: MultiPoly, w: tuple, p: PointW) -> bool:
    """Affine-cone Jacobian criterion: F and all partials vanish at p.

    At points inside singular strata of the ambient space this is
    cone-singularity, the exact well-defined statement.
    """
    _check_divisor_point(F, w, p)
    if F.evaluate(p.coordinates):
        return False
    return all(not d.evaluate(p.coordinates) for d in F.partials())


# -- assembled reports -------------------------------------------------------------


@dataclass(frozen=True)
class LocusClaim:
    label: str
    text: str
    verdict: str          # verified | refuted | out-of-scope
    witnesses: tuple = ()
    note: str = ""

    def as_dict(self):
        return {
            "label": self.label,
            "claim": self.text,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "note": self.note,
        }


@dataclass(frozen=True)
class LocusReport:
    family: str
    claims: tuple

    def verdict_counts(self):
        counts = {"verified": 0, "refuted": 0, "out-of-scope": 0}
        for c in self.claims:
            counts[c.verdict] += 1
        return counts

    def all_sound(self) -> bool:
        return self.verdict_counts()["refuted"] == 0

    def as_dict(self):
        return {
            "family": self.family,
            "claims": [c.as_dict() for c in self.claims],
            "counts": self.verdict_counts(),
        }


def _coordinate_points(weights):
    n = len(weights)
    pts = []
    for i in range(n):
        coords = tuple(1 if j == i else 0 for j in range(n))
        pts.append(PointW(coords, weights))
    return pts


def quintic_locus_report() -> LocusReport:
    """Exact verdicts for the quintic moduli claims.

    The coarse space is P(1,2,3) with coordinates the degree-4, 8, 12
    invariants; the divisor is the square-rooted polynomial F of the
    decomposition.
    """
    w = (1, 2, 3)
    F = catalog_ring("quintic").F
    claims = []

    deg = F.weighted_degree(w)
    claims.append(LocusClaim(
        "divisor-is-extra-involution-locus",
        "the square-root divisor Z(F) is a weighted-homogeneous curve of "
        "degree 9 in P(1,2,3); it is the closure of the values of quintics "
        "with an extra involution (case I)",
        "verified" if deg == 9 else "refuted",
        witnesses=(f"weighted degree {deg}",),
        note="the identification with the case-(I) family is classical; "
             "checked here: homogeneity and the degree",
    ))

    strata = wps_singular_strata((1, 2, 3))
    expected = [((1,), 2), ((2,), 3)]
    pts = _coordinate_points((1, 2, 3))
    claims.append(LocusClaim(
        "ambient-singular-points",
        "P(1,2,3) has exactly two cyclic quotient singularities, at the "
        "second and third coordinate points (values of cases II and III)",
        "verified" if strata == expected else "refuted",
        witnesses=(str(pts[1]), str(pts[2]),
                   "stabilizers mu_2 and mu_3"),
    ))

    sing_points = [PointW((1, 0, 0), w), PointW((-3, 3, 3), w)]
    all_singular = all(is_singular_at(F, w, p) for p in sing_points)
    claims.append(LocusClaim(
        "divisor-singular-points",
        "Z(F) is singular at (1:0:0) and (-3:3:3) (the values of the "
        "dihedral cases IV and V)",
        "verified" if all_singular else "refuted",
        witnesses=tuple(str(p) for p in sing_points),
        note="the catalog numbers the quintic cases (I)-(V); a reference to "
             "a case (VI) in this context is a typo for (V).  That these "
             "are the only singular points is not checked (no primary "
             "decomposition here)",
    ))

    on = [p for p in (pts[1], pts[2]) if on_divisor(F, w, p)]
    off = [p for p in (pts[1], pts[2]) if not on_divisor(F, w, p)]
    smooth_there = bool(on) and all(not is_singular_at(F, w, p) for p in on)
    claims.append(LocusClaim(
        "divisor-through-one-ambient-singularity",
        "Z(F) passes through exactly one of the two singular points of "
        "P(1,2,3) and avoids the other (permutation-invariant form: which "
        "coordinate point is which catalog case is not pinned)",
        "verified" if len(on) == 1 and len(off) == 1 and smooth_there else "refuted",
        witnesses=(f"on divisor: {on[0]}" if on else "none",
                   f"off divisor: {off[0]}" if off else "none"),
    ))

    return LocusReport("quintic", tuple(claims))


def sextic_locus_report() -> LocusReport:
    """Exact verdicts for the sextic moduli claims.

    The coarse space is P(1,2,3,5); curve-level claims that need explicit
    equations for the two singular-locus components are out of scope.
    """
    w = (1, 2, 3, 5)
    wd = (2, 4, 6, 10)
    F = catalog_ring("sextic").F
    claims = []

    term_degrees = {sum(wi * k for wi, k in zip(wd, e)) for e in F.terms}
    claims.append(LocusClaim(
        "divisor-is-extra-involution-locus",
        "the square-root divisor Z(F) is a weighted-homogeneous surface, "
        "of degree 30 in the generator degrees (2,4,6,10), equivalently "
        "degree 15 in P(1,2,3,5); it is the closure of the values of "
        "sextics with an extra involution (case I)",
        "verified" if term_degrees == {30} else "refuted",
        witnesses=(f"term degrees {sorted(term_degrees)}",
                   f"degree {F.weighted_degree(w)} on P(1,2,3,5)"),
        note=SEXTIC_REPAIR_NOTE,
    ))

    strata = wps_singular_strata((1, 2, 3, 5))
    expected = [((1,), 2), ((2,), 3), ((3,), 5)]
    pts = _coordinate_points((1, 2, 3, 5))
    claims.append(LocusClaim(
        "ambient-singular-points",
        "P(1,2,3,5) has exactly three cyclic quotient singularities, at "
        "the last three coordinate points (values of cases II, VII, VIII)",
        "verified" if strata == expected else "refuted",
        witnesses=tuple(str(p) for p in pts[1:]),
    ))

    claims.append(LocusClaim(
        "singular-locus-two-curves",
        "Z(F) is singular along a curve with two components (the closures "
        "of the dihedral cases III and IV)",
        "out-of-scope",
        note="needs the explicit equations of the two curves, which are "
             "not part of this catalog",
    ))

    claims.append(LocusClaim(
        "curve-III-singular-point",
        "case V is the singular point of the case-III curve",
        "out-of-scope",
        note="needs the explicit case-III curve equation",
    ))

    claims.append(LocusClaim(
        "curve-IV-singular-point",
        "case VI is the singular point of the case-IV curve",
        "out-of-scope",
        note="needs the explicit case-IV curve equation",
    ))

    claims.append(LocusClaim(
        "curves-intersection",
        "the two singular-locus curves meet in the points of cases V and "
        "VI and in one further point, the image of the strictly semistable "
        "sextics (triple root)",
        "out-of-scope",
        note="needs both curve equations",
    ))

    values = [F.evaluate(p.coordinates) for p in pts[1:]]
    zero_at = [i for i, v in enumerate(values) if not v]
    pattern_ok = len(zero_at) == 1
    smooth = False
    if pattern_ok:
        p = pts[1:][zero_at[0]]
        smooth = not is_singular_at(F, w, p)
    claims.append(LocusClaim(
        "divisor-at-ambient-singularities",
        "Z(F) contains exactly one of the three singular points of "
        "P(1,2,3,5) and is smooth there, avoiding the other two "
        "(permutation-invariant form of: contains the case-VIII point, "
        "not those of II and VII)",
        "verified" if pattern_ok and smooth else "refuted",
        witnesses=tuple(
            f"{p}: F = {v}" for p, v in zip(pts[1:], values)),
        note="smoothness is non-vanishing of some cone partial at the point",
    ))

    return LocusReport("sextic", tuple(claims))
