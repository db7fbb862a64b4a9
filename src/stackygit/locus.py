"""Exact singularity checks of divisors on weighted projective spaces, and
the assembled locus reports for the quintic and sextic moduli.

Points are :class:`~stackygit.graded.PointW`, whose equality is weighted
rescaling decided exactly (no root extraction).  Singularity of a divisor
at a point is tested on the affine cone: the value and every partial
derivative must vanish, F homogeneous for the weights the point carries.

Both reports read the ambient singular points off
:func:`~stackygit.graded.inertia_strata`: one point for each stratum whose
inertia mu_g has g > 1, with coordinate 1 on the stratum's support and 0
elsewhere.  F is evaluated once at each of them to decide whether Z(F)
meets exactly one and is smooth there.

Reports are plain records: :mod:`stackygit.cli` alone writes the ``locus``
payload, its verdict counts and, from each claim's ``sound``, its status.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InhomogeneousError
from .graded import PointW, inertia_strata
from .invariants import SEXTIC_REPAIR_NOTE, catalog_ring
from .polynomials import MultiPoly


def is_singular_at(F: MultiPoly, p: PointW) -> bool:
    """Affine-cone Jacobian criterion: F and all partials vanish at p.

    At points inside singular strata of the ambient space this is
    cone-singularity, the exact well-defined statement.
    """
    if F.weighted_degree(p.weights) is None:
        raise InhomogeneousError(f"{F} is not homogeneous for {p.weights}")
    if F.evaluate(p.coordinates):
        return False
    return all(not d.evaluate(p.coordinates) for d in F.partials())


# -- assembled reports -------------------------------------------------------------


class LocusClaim(namedtuple("LocusClaim", "label claim verdict witnesses note",
                            defaults=((), ""))):
    """One claim and its verdict: verified, refuted or out-of-scope."""

    __slots__ = ()

    @property
    def sound(self) -> bool:
        """Whether the claim stands: its verdict is not refuted."""
        return self.verdict != "refuted"


LocusReport = namedtuple("LocusReport", "family claims")


def _ambient_singularities(weights):
    """(point, g) for each stratum of P(weights) whose inertia mu_g has
    g > 1; the point has coordinate 1 on the stratum's support, 0 elsewhere."""
    return [(PointW([int(i in s) for i in range(len(weights))], weights), g)
            for s, g in inertia_strata(weights) if g > 1]


def _meets_one_smoothly(F: MultiPoly, points):
    """F's values at the points, and whether exactly one of them is zero
    with Z(F) smooth there."""
    values = [F.evaluate(p.coordinates) for p in points]
    on = [p for p, v in zip(points, values) if not v]
    return values, len(on) == 1 and not is_singular_at(F, on[0])


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

    singular = _ambient_singularities(w)
    pts = [p for p, _ in singular]
    claims.append(LocusClaim(
        "ambient-singular-points",
        "P(1,2,3) has exactly two cyclic quotient singularities, at the "
        "second and third coordinate points (values of cases II and III)",
        "verified" if [p.support() for p in pts] == [(1,), (2,)] else "refuted",
        witnesses=(*map(str, pts),
                   "stabilizers " + " and ".join(f"mu_{g}" for _, g in singular)),
    ))

    sing_points = [PointW((1, 0, 0), w), PointW((-3, 3, 3), w)]
    all_singular = all(is_singular_at(F, p) for p in sing_points)
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

    values, meets_one = _meets_one_smoothly(F, pts)
    on = [p for p, v in zip(pts, values) if not v]
    off = [p for p, v in zip(pts, values) if v]
    claims.append(LocusClaim(
        "divisor-through-one-ambient-singularity",
        "Z(F) passes through exactly one of the two singular points of "
        "P(1,2,3) and avoids the other (permutation-invariant form: which "
        "coordinate point is which catalog case is not pinned)",
        "verified" if meets_one else "refuted",
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
    entry = catalog_ring("sextic")
    wd, F = entry.ring.weights[:-1], entry.F
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

    singular = _ambient_singularities(w)
    pts = [p for p, _ in singular]
    claims.append(LocusClaim(
        "ambient-singular-points",
        "P(1,2,3,5) has exactly three cyclic quotient singularities, at "
        "the last three coordinate points (values of cases II, VII, VIII)",
        "verified" if [p.support() for p in pts] == [(1,), (2,), (3,)] else "refuted",
        witnesses=tuple(map(str, pts)),
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

    values, meets_one = _meets_one_smoothly(F, pts)
    claims.append(LocusClaim(
        "divisor-at-ambient-singularities",
        "Z(F) contains exactly one of the three singular points of "
        "P(1,2,3,5) and is smooth there, avoiding the other two "
        "(permutation-invariant form of: contains the case-VIII point, "
        "not those of II and VII)",
        "verified" if meets_one else "refuted",
        witnesses=tuple(f"{p}: F = {v}" for p, v in zip(pts, values)),
        note="smoothness is non-vanishing of some cone partial at the point",
    ))

    return LocusReport("sextic", tuple(claims))
