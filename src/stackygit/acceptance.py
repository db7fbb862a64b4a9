"""The acceptance suite: every desk-checkable catalog claim as one check.

Each criterion is a generator of ``(passed, detail)`` rows, which
:func:`_criterion` makes the public ``check_*`` function returning its
:class:`CheckResult`: the verdict is the conjunction of the rows and the
details are their texts, so a verdict cannot disagree with its own rows.
A ``CheckResult`` is a plain record: :mod:`stackygit.cli` alone writes it
into the ``verify-all`` payload and markdown.
`run_all` executes the checks in order.  Everything is exact (zero
tolerance).  Only criterion 10 is seeded: it samples random forms from an
explicit seed, deterministically for a fixed seed.  Criterion 6 proves
Klein's generative description for every exponent and parameter, and
criterion 7 its identities on principal lattices.  The calibration check is
a stretch goal and is marked non-blocking: its failure produces a
diagnostic, not a suite failure.

A claim the library already decides is read from the function that decides
it, not derived again here: criterion 5 reads
:func:`~stackygit.symmetry.catalog_stabilizer`, and criteria 8 and 9 read
the verdicts of :func:`~stackygit.locus.quintic_locus_report` and
:func:`~stackygit.locus.sextic_locus_report`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps

from .errors import CommonFactorError
from .exprparse import form
from .graded import (
    GradedRingPresentation,
    PointW,
    hcf_degrees,
    presentations_equal,
    rigidify,
    root_stack,
    stacky_decompose,
    veronese,
)
from .groups import GroupSpec, SL2Matrix, group_elements
from .invariants import (
    DEFAULT_SEED,
    calibrate_invariants,
    catalog_ring,
    quartic_invariants,
    quartic_point,
)
from .locus import quintic_locus_report, sextic_locus_report
from .polynomials import BinaryForm, principal_lattice, resultant
from .symmetry import (
    NUMBERED_CASES,
    catalog_stabilizer,
    klein_degree,
    klein_factors,
    semi_invariance,
)


CheckResult = namedtuple("CheckResult", "criterion name passed blocking details",
                         defaults=(True, ()))


def _criterion(number: int, name: str, blocking: bool = True):
    """Make a generator of ``(passed, detail)`` rows the check of criterion
    ``number``: the check passes iff every row does, and its details are
    the rows' texts in order."""
    def decorate(rows):
        @wraps(rows)
        def check(*args, **kwargs):
            table = list(rows(*args, **kwargs))
            return CheckResult(number, name, all(passed for passed, _ in table), blocking,
                               tuple(detail for _, detail in table))
        return check
    return decorate


@_criterion(1, "root-stack law and its failure case")
def check_root_stack_law():
    """Square root of the quintic divisor over P(1,2,3) rebuilds the
    rigidification; equal root and section degrees are rejected."""
    base = GradedRingPresentation(("I4", "I8", "I12"), (1, 2, 3))
    quintic = catalog_ring("quintic")
    rebuilt = root_stack(base, quintic.F, 2, root_name="I18")
    equal = presentations_equal(rebuilt, veronese(quintic.ring, 2))
    yield equal, (f"root stack on (1,2,3) along the degree-9 divisor: "
                  f"{rebuilt.describe()} == rigidification: {equal}")
    square = GradedRingPresentation(("x0", "x1", "x2"), (1, 1, 1))
    quadric = (form("x^2 + y^2").to_multipoly(("x0", "x1"))
               .lifted(("x0", "x1", "x2")))
    try:
        root_stack(square, quadric, 2)
    except CommonFactorError as err:
        yield True, f"gcd(2, 2) rejected: {err}"
    else:
        yield False, "gcd(2, 2) = 2 was not rejected"


@_criterion(2, "rigidification gerbe indices")
def check_gerbe_indices():
    """Generic automorphism groups across the whole catalog."""
    expected = {
        "quartic": 1,
        "quintic": 2,
        "sextic": 1,
        "cubic-curve": 2,
        "cubic-surface": 4,
    }
    for family, gerbe in expected.items():
        rigid, index = rigidify(catalog_ring(family).ring)
        hcf = hcf_degrees(rigid)
        yield (index == gerbe and hcf == 1,
               f"{family}: gerbe index {index} (expected {gerbe}); rigidified hcf {hcf}")


@_criterion(3, "stacky decompositions of the catalog rings")
def check_decompositions():
    """Coarse weights and square-root divisor degrees for the two-sheeted
    rings, with the internal reconstruction cross-check."""
    expected = {
        "quintic": ((1, 2, 3), 9, 2),
        "sextic": ((1, 2, 3, 5), 15, 1),
        "cubic-surface": ((1, 2, 3, 4, 5), 25, 4),
    }
    for family, (coarse, divisor_degree, gerbe) in expected.items():
        report = stacky_decompose(catalog_ring(family).ring)
        yield (report.coarse_weights == coarse
               and report.root_divisor_degree == divisor_degree
               and report.gerbe_index == gerbe
               and report.root_order == 2,
               f"{family}: coarse {report.coarse_weights}, divisor degree "
               f"{report.root_divisor_degree}, gerbe {report.gerbe_index}")


@_criterion(4, "group orders by closure enumeration")
def check_group_orders():
    """Closure enumeration sizes and exact determinants."""
    specs = [GroupSpec("C", n) for n in range(1, 7)]
    specs += [GroupSpec("D", n) for n in range(1, 7)]
    specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
    for spec in specs:
        elements = group_elements(spec)
        dets = all(m.det() == 1 for m in elements)
        yield (len(elements) == spec.order and dets,
               f"{spec.label}: {len(elements)} elements "
               f"(expected {spec.order}), determinants exact: {dets}")


SECOND_PARAMS = {
    "quartic.generic": ((5, 7),),
    "quintic.I": ((5, 7),),
    "sextic.I": ((3, 4), (1, 6)),
    "sextic.III": ((5, 7),),
    "sextic.IV": ((5, 7),),
}


@_criterion(5, "symmetry catalog of the fifteen normal forms")
def check_symmetry_catalog():
    """All fifteen numbered normal forms: the stated group is the only
    maximal catalog group (C_n and D_n up to n = deg f, T, O, I)."""
    for case in NUMBERED_CASES:
        param_sets = [None]
        if case.default_params:
            param_sets = [case.default_params, SECOND_PARAMS[case.case]]
        for params in param_sets:
            groups = [c.group for c in catalog_stabilizer(case.build(params))]
            good = groups == [case.group]
            tag = "" if params is None else f" at params {params}"
            yield good, (f"{case.case}{tag}: maximal catalog groups "
                         f"{', '.join(g.label for g in groups)} "
                         f"(expected {case.group.label}): {good}")


KLEIN_SUITE_GROUPS = (
    GroupSpec("C", 3), GroupSpec("D", 4),
    GroupSpec("T"), GroupSpec("O"), GroupSpec("I"),
)
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # (alpha, beta, gamma) of one factor


@_criterion(6, "generative semi-invariance suite")
def check_klein_suite():
    """Klein's generative description, proved for every exponent and
    parameter, with C_n read like every other group: the factors of
    :func:`~stackygit.symmetry.klein_factors` (x and y for C_n) are
    semi-invariant; the pencil members F1^nu1 and F2^nu2 share a
    character, so every lambda*F1^nu1 + mu*F2^nu2 is semi-invariant; and
    :func:`~stackygit.symmetry.klein_degree` gives each factor's degree and
    the pencil degree nu1*d1 = nu2*d2.  A product of semi-invariants is
    semi-invariant, so every output of
    :func:`~stackygit.symmetry.klein_generate` is, with the degree that
    ``klein_degree`` states."""
    for spec in KLEIN_SUITE_GROUPS:
        gf = klein_factors(spec)
        factors, (nu1, nu2) = gf.forms, gf.nu[:2]
        certs = [semi_invariance(f, spec) for f in factors]
        semi = all(certs)
        shared = all(certs[:2]) and all(
            a ** nu1 == b ** nu2 for a, b in zip(certs[0].scalars, certs[1].scalars))
        degrees = [f.degree for f in factors]
        d1, d2 = degrees[:2]
        pencil = klein_degree(spec, 0, 0, 0, 1)
        additive = nu1 * d1 == nu2 * d2 == pencil and all(
            klein_degree(spec, *unit, 0) == d for unit, d in zip(_UNITS, degrees))
        yield semi and shared and additive, (
            f"{spec.label}: factors of degrees {', '.join(map(str, degrees))} "
            f"semi-invariant: {semi}; chi1^{nu1} == chi2^{nu2} on every generator: "
            f"{shared}; klein_degree additive, pencil degree {nu1}*{d1} == "
            f"{nu2}*{d2} == {pencil}: {additive}")


#: u and w; the powers u^t = [[1, t], [0, 1]] and w generate SL(2).
_U, _W = SL2Matrix(1, 1, 0, 1), SL2Matrix(0, 1, -1, 0)


@_criterion(7, "quartic invariants")
def check_quartic_invariants():
    """SL(2)-invariance, the two special value points, and the
    discriminant combination separating double roots from square-free, the
    identities proved on the principal lattices of their degrees.

    I(f.u) - I(f) and I(f.w) - I(f) have the degree of I, 2 or 3; then
    I(f.u^t) - I(f), a polynomial in t zero at every integer t, is zero.
    4096*(I2^3 - 27*I3^2) and Res(f_x, f_y) have degree 6, and the
    resultant vanishes iff f has a repeated root in P^1, as 4f = x*f_x +
    y*f_y."""
    for name, degree in (("I2", 2), ("I3", 3)):
        forms = [BinaryForm(p) for p in principal_lattice(5, degree)]
        held = 0
        for f in forms:
            value = getattr(quartic_invariants(f), name)
            held += sum(getattr(quartic_invariants(f.substitute(m)), name) == value
                        for m in (_U, _W))
        yield held == 2 * len(forms), (
            f"{name} invariant under u = [[1, 1], [0, 1]] and w = [[0, 1], [-1, 0]]:"
            f" {held} of {2 * len(forms)} checks at the {len(forms)} points of"
            f" the degree-{degree} lattice")

    w = (2, 3)
    p1 = quartic_point(form("x^4 + y^4")) == PointW((1, 0), w)
    p2 = quartic_point(form("x^4 + 2*sqrtm3*x^2*y^2 + y^4")) == PointW((0, 1), w)
    yield p1 and p2, f"case (I) lands on (1:0): {p1}; case (II) on (0:1): {p2}"

    points = principal_lattice(5, 6)
    held = 0
    for a in points:
        inv = quartic_invariants(BinaryForm(a))
        f_x, f_y = [(4 - i) * a[i] for i in range(4)], [i * a[i] for i in range(1, 5)]
        held += 4096 * (inv.I2 ** 3 - 27 * inv.I3 ** 2) == resultant(f_x, f_y)
    yield held == len(points), (f"4096*(I2^3 - 27*I3^2) == Res(f_x, f_y) at {held} of the"
                                f" {len(points)} points of the degree-6 lattice")


def _locus_rows(report):
    """One row per claim of the locus report, with its label, verdict and
    witnesses; it passes iff the claim is sound."""
    for c in report.claims:
        yield c.sound, f"{c.label} [{c.verdict}]" + (
            ": " + "; ".join(c.witnesses) if c.witnesses else "")


@_criterion(8, "quintic divisor locus")
def check_quintic_locus():
    """The divisor's degree and its singular and smooth points, as the
    quintic locus report decides them."""
    return _locus_rows(quintic_locus_report())


@_criterion(9, "sextic divisor from the repaired determinant")
def check_sextic_divisor():
    """Homogeneity term by term and the pattern of the divisor at the three
    ambient singular points, as the sextic locus report decides them."""
    return _locus_rows(sextic_locus_report())


@_criterion(10, "transvectant calibration (stretch, non-blocking)", blocking=False)
def check_calibration(seed: int = DEFAULT_SEED):
    """Stretch: transvectant-built invariants reproduce both catalog
    relations."""
    for family in ("quintic", "sextic"):
        result = calibrate_invariants(family, seed=seed)
        if result.succeeded:
            scal = ", ".join(f"{k} -> {v}" for k, v in result.scalars.items())
            yield True, f"{family}: {result.detail}; scalars: {scal}"
        else:
            yield False, f"{family}: FAILED: {result.detail}"
            for witness, residual in result.residuals[:3]:
                yield False, f"  residual at {witness}: {residual}"


ALL_CHECKS = (
    check_root_stack_law,
    check_gerbe_indices,
    check_decompositions,
    check_group_orders,
    check_symmetry_catalog,
    check_klein_suite,
    check_quartic_invariants,
    check_quintic_locus,
    check_sextic_divisor,
    check_calibration,
)


def run_all(seed: int = DEFAULT_SEED):
    """All criteria in order; the seed goes to criterion 10, the only
    randomized one."""
    return [check(seed=seed) if check is check_calibration else check()
            for check in ALL_CHECKS]


def blocking_failures(results) -> int:
    return sum(1 for r in results if r.blocking and not r.passed)
