"""The acceptance suite: every desk-checkable catalog claim as one check.

Each criterion is a function returning a :class:`CheckResult`; `run_all`
executes them in order.  Everything is exact (zero tolerance); randomized
checks take an explicit seed and are deterministic for a fixed seed.  The
calibration check is a stretch goal and is marked non-blocking: its failure
produces a diagnostic, not a suite failure.

A claim the library already decides is read from the function that decides
it, not derived again here: criterion 5 reads
:func:`~stackygit.symmetry.catalog_stabilizer`, and criteria 8 and 9 read
the verdicts of :func:`~stackygit.locus.quintic_locus_report` and
:func:`~stackygit.locus.sextic_locus_report`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cyclotomic import QQ
from .errors import CommonFactorError
from .exprparse import form
from .graded import (
    free_ring,
    hcf_degrees,
    presentations_isomorphic,
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
from .locus import PointW, quintic_locus_report, sextic_locus_report
from .polynomials import BinaryForm
from .symmetry import (
    NUMBERED_CASES,
    catalog_stabilizer,
    is_stable,
    klein_degree,
    klein_generate,
    semi_invariance,
)


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    blocking: bool = True
    details: tuple = ()

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"

    def as_dict(self):
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "blocking": self.blocking,
            "details": list(self.details),
        }


def check_root_stack_law() -> CheckResult:
    """Square root of the quintic divisor over P(1,2,3) rebuilds the
    rigidification; equal root and section degrees are rejected."""
    details = []
    base = free_ring(("I4", "I8", "I12"), (1, 2, 3))
    quintic = catalog_ring("quintic")
    rebuilt = root_stack(base, quintic.F, 2, root_name="I18")
    target = veronese(quintic.ring, 2)
    ok1 = presentations_isomorphic(rebuilt, target)
    details.append(f"root stack on (1,2,3) along the degree-9 divisor: "
                   f"{rebuilt.describe()} == rigidification: {ok1}")
    square = free_ring(("x0", "x1", "x2"), (1, 1, 1))
    quadric = (form("x^2 + y^2").to_multipoly(("x0", "x1"))
               .lifted(("x0", "x1", "x2")))
    try:
        root_stack(square, quadric, 2)
        ok2 = False
        details.append("gcd(2, 2) = 2 was not rejected")
    except CommonFactorError as err:
        ok2 = True
        details.append(f"gcd(2, 2) rejected: {err}")
    return CheckResult(1, "root-stack law and its failure case", ok1 and ok2,
                       details=tuple(details))


def check_gerbe_indices() -> CheckResult:
    """Generic automorphism groups across the whole catalog."""
    expected = {
        "quartic": 1,
        "quintic": 2,
        "sextic": 1,
        "cubic-curve": 2,
        "cubic-surface": 4,
    }
    details = []
    ok = True
    for family, gerbe in expected.items():
        ring = catalog_ring(family).ring
        rigid, index = rigidify(ring)
        good = index == gerbe and hcf_degrees(rigid) == 1
        ok &= good
        details.append(f"{family}: gerbe index {index} (expected {gerbe}); "
                       f"rigidified hcf {hcf_degrees(rigid)}")
    return CheckResult(2, "rigidification gerbe indices", ok,
                       details=tuple(details))


def check_decompositions() -> CheckResult:
    """Coarse weights and square-root divisor degrees for the two-sheeted
    rings, with the internal reconstruction cross-check."""
    expected = {
        "quintic": ((1, 2, 3), 9, 2),
        "sextic": ((1, 2, 3, 5), 15, 1),
        "cubic-surface": ((1, 2, 3, 4, 5), 25, 4),
    }
    details = []
    ok = True
    for family, (coarse, divisor_degree, gerbe) in expected.items():
        report = stacky_decompose(catalog_ring(family).ring)
        good = (report.coarse_weights == coarse
                and report.root_divisor_degree == divisor_degree
                and report.gerbe_index == gerbe
                and report.root_order == 2)
        ok &= good
        details.append(
            f"{family}: coarse {report.coarse_weights}, divisor degree "
            f"{report.root_divisor_degree}, gerbe {report.gerbe_index}")
    return CheckResult(3, "stacky decompositions of the catalog rings", ok,
                       details=tuple(details))


def check_group_orders() -> CheckResult:
    """Closure enumeration sizes and exact determinants."""
    details = []
    ok = True
    specs = [GroupSpec("C", n) for n in range(1, 7)]
    specs += [GroupSpec("D", n) for n in range(1, 7)]
    specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
    for spec in specs:
        elements = group_elements(spec)
        dets = all(m.det() == 1 for m in elements)
        good = len(elements) == spec.order and dets
        ok &= good
        details.append(f"{spec.label}: {len(elements)} elements "
                       f"(expected {spec.order}), determinants exact: {dets}")
    return CheckResult(4, "group orders by closure enumeration", ok,
                       details=tuple(details))


SECOND_PARAMS = {
    "quartic.generic": ((5, 7),),
    "quintic.I": ((5, 7),),
    "sextic.I": ((3, 4), (1, 6)),
    "sextic.III": ((5, 7),),
    "sextic.IV": ((5, 7),),
}


def check_symmetry_catalog() -> CheckResult:
    """All fifteen numbered normal forms: the stated group is the only
    maximal catalog group (C_n and D_n up to n = 12, T, O, I)."""
    details = []
    ok = True
    for case in NUMBERED_CASES:
        param_sets = [None]
        if case.param_count:
            param_sets = [case.default_params, SECOND_PARAMS[case.case]]
        for params in param_sets:
            groups = [c.group for c in catalog_stabilizer(case.build(params), n_max=12)]
            good = groups == [case.group]
            ok &= good
            tag = "" if params is None else f" at params {params}"
            details.append(
                f"{case.case}{tag}: maximal catalog groups "
                f"{', '.join(g.label for g in groups)} "
                f"(expected {case.group.label}): {good}")
    return CheckResult(5, "symmetry catalog of the fifteen normal forms", ok,
                       details=tuple(details))


KLEIN_SUITE_GROUPS = (
    GroupSpec("C", 3), GroupSpec("D", 4),
    GroupSpec("T"), GroupSpec("O"), GroupSpec("I"),
)


def _klein_draw(rng, spec):
    heavy = spec.kind in ("O", "I")
    cap = 1 if heavy else (2 if spec.kind == "T" else 3)
    while True:
        alpha = rng.choice([0, 0, 1]) if heavy else rng.randint(0, cap)
        beta = rng.choice([0, 0, 1]) if heavy else rng.randint(0, cap)
        gamma = rng.choice([0, 0, 1]) if heavy else rng.randint(0, cap)
        count = rng.choice([0, 0, 1]) if heavy else rng.randint(0, 2)
        params = []
        for _ in range(count):
            lam, mu = rng.randint(-5, 5), rng.randint(-5, 5)
            if not lam and not mu:
                mu = 1
            params.append((lam, mu))
        if alpha or beta or gamma or params:
            return alpha, beta, gamma, params


def check_klein_suite(seed: int = DEFAULT_SEED, draws: int = 100) -> CheckResult:
    """Randomized generative outputs are semi-invariant with the right degree."""
    rng = random.Random(seed)
    details = []
    ok = True
    for spec in KLEIN_SUITE_GROUPS:
        failures = []
        for _ in range(draws):
            alpha, beta, gamma, params = draw = _klein_draw(rng, spec)
            f = klein_generate(spec, alpha, beta, gamma, params)
            expected = klein_degree(spec, alpha, beta, gamma, len(params))
            if f.degree != expected or semi_invariance(f, spec) is None:
                failures.append(draw)
        ok &= not failures
        line = f"{spec.label}: {draws} draws, {len(failures)} failures"
        if failures:
            line += "; first failing (alpha, beta, gamma, params): " + ", ".join(
                str(d) for d in failures[:3])
        details.append(line)
    return CheckResult(6, "generative semi-invariance suite", ok,
                       details=tuple(details))


def _random_sl2(rng) -> SL2Matrix:
    while True:
        a = QQ(rng.randint(-6, 6), rng.randint(1, 4))
        if a:
            break
    b = QQ(rng.randint(-6, 6), rng.randint(1, 4))
    c = QQ(rng.randint(-6, 6), rng.randint(1, 4))
    return SL2Matrix(a, b, c, (1 + b * c) / a)


def _random_quartic(rng, squarefree: bool) -> BinaryForm:
    while True:
        if squarefree:
            f = BinaryForm([rng.randint(-6, 6) for _ in range(5)])
            if f and is_stable(f):
                return f
        else:
            a = rng.randint(-4, 4)
            double = BinaryForm([1, -2 * a, a * a])  # (x - a y)^2
            rest = BinaryForm([rng.randint(-4, 4) for _ in range(3)])
            if rest:
                return double * rest


def check_quartic_invariants(seed: int = DEFAULT_SEED) -> CheckResult:
    """Exact SL(2)-invariance, the two special value points, and the
    discriminant combination separating double roots from square-free."""
    rng = random.Random(seed)
    details = []
    f = BinaryForm([1, 3, -2, 1, 2])
    ok = True
    for _ in range(100):
        m = _random_sl2(rng)
        before = quartic_invariants(f)
        after = quartic_invariants(f.substitute(m))
        if before.I2 != after.I2 or before.I3 != after.I3:
            ok = False
    details.append(f"invariance under 100 rational determinant-1 matrices: {ok}")

    w = (2, 3)
    p1 = quartic_point(form("x^4 + y^4")) == PointW((1, 0), w)
    p2 = quartic_point(form("x^4 + 2*sqrtm3*x^2*y^2 + y^4")) == PointW((0, 1), w)
    details.append(f"case (I) lands on (1:0): {p1}; case (II) on (0:1): {p2}")
    ok &= p1 and p2

    separated = True
    for _ in range(20):
        g = _random_quartic(rng, squarefree=False)
        inv = quartic_invariants(g)
        if inv.I2 ** 3 - 27 * inv.I3 ** 2:
            separated = False
    for _ in range(20):
        g = _random_quartic(rng, squarefree=True)
        inv = quartic_invariants(g)
        if not inv.I2 ** 3 - 27 * inv.I3 ** 2:
            separated = False
    details.append(f"I2^3 - 27*I3^2 separates 20 double-root from "
                   f"20 square-free samples: {separated}")
    ok &= separated
    return CheckResult(7, "quartic invariants", ok, details=tuple(details))


def _locus_check(criterion: int, name: str, report) -> CheckResult:
    """Passes iff no claim of the locus report is refuted; one detail line
    per claim with its label, verdict and witnesses."""
    details = tuple(
        f"{c.label} [{c.verdict}]" + (": " + "; ".join(c.witnesses) if c.witnesses else "")
        for c in report.claims)
    return CheckResult(criterion, name, report.all_sound(), details=details)


def check_quintic_locus() -> CheckResult:
    """The divisor's degree and its singular and smooth points, as the
    quintic locus report decides them."""
    return _locus_check(8, "quintic divisor locus", quintic_locus_report())


def check_sextic_divisor() -> CheckResult:
    """Homogeneity term by term and the pattern of the divisor at the three
    ambient singular points, as the sextic locus report decides them."""
    return _locus_check(9, "sextic divisor from the repaired determinant",
                        sextic_locus_report())


def check_calibration(seed: int = DEFAULT_SEED) -> CheckResult:
    """Stretch: transvectant-built invariants reproduce both catalog
    relations."""
    details = []
    ok = True
    for family in ("quintic", "sextic"):
        result = calibrate_invariants(family, seed=seed)
        ok &= result.succeeded
        if result.succeeded:
            scal = ", ".join(f"{k} -> {v}" for k, v in result.scalars.items())
            details.append(f"{family}: {result.detail}; scalars: {scal}")
        else:
            details.append(f"{family}: FAILED: {result.detail}")
            for witness, residual in result.residuals[:3]:
                details.append(f"  residual at {witness}: {residual}")
    return CheckResult(10, "transvectant calibration (stretch, non-blocking)",
                       ok, blocking=False, details=tuple(details))


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
    """All criteria in order; randomized ones consume the given seed."""
    results = []
    for check in ALL_CHECKS:
        if check in (check_klein_suite, check_quartic_invariants,
                     check_calibration):
            results.append(check(seed=seed))
        else:
            results.append(check())
    return results


def blocking_failures(results) -> int:
    return sum(1 for r in results if r.blocking and not r.passed)
