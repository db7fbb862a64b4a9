"""Acceptance suite: one test per criterion, one printed line each.

Everything asserts exactly (zero tolerance).  Criterion 10 is a stretch
goal: its outcome is printed and reported but a failure there is recorded
as an expected-failure rather than a suite failure.
"""

import hashlib
import json

import pytest

from stackygit import acceptance
from stackygit.acceptance import (
    CheckResult,
    check_calibration,
    check_decompositions,
    check_gerbe_indices,
    check_group_orders,
    check_klein_suite,
    check_quartic_invariants,
    check_quintic_locus,
    check_root_stack_law,
    check_sextic_divisor,
    check_symmetry_catalog,
)
from stackygit.exprparse import form
from stackygit.groups import GroupSpec
from stackygit.invariants import QuarticInvariants, catalog_ring
from stackygit.locus import LocusClaim, LocusReport

SEED = 7


def _report(result):
    print(f"criterion {result.criterion:2d} [{'pass' if result.passed else 'FAIL'}]"
          f" {result.name}")
    for line in result.details:
        print(f"    {line}")


def test_criterion_01_root_stack_law():
    result = check_root_stack_law()
    _report(result)
    assert result.passed


def test_criterion_02_gerbe_indices():
    result = check_gerbe_indices()
    _report(result)
    assert result.passed


def test_criterion_03_stacky_decompositions():
    result = check_decompositions()
    _report(result)
    assert result.passed


def test_criterion_04_group_orders():
    result = check_group_orders()
    _report(result)
    assert result.passed


def test_criterion_05_symmetry_catalog():
    result = check_symmetry_catalog()
    _report(result)
    assert result.passed


def test_criterion_06_klein_property_suite():
    result = check_klein_suite()
    _report(result)
    assert result.passed
    assert result.details == tuple(
        f"{label}: factors of degrees {degrees} semi-invariant: True; "
        f"chi1^{nu1} == chi2^{nu2} on every generator: True; klein_degree additive, "
        f"pencil degree {pencil}: True"
        for label, degrees, nu1, nu2, pencil in [
            ("C3", "1, 1", 3, 3, "3*1 == 3*1 == 3"),
            ("D4", "4, 4, 2", 2, 2, "2*4 == 2*4 == 8"),
            ("T", "4, 4, 6", 3, 3, "3*4 == 3*4 == 12"),
            ("O", "6, 8, 12", 4, 3, "4*6 == 3*8 == 24"),
            ("I", "12, 20, 30", 5, 3, "5*12 == 3*20 == 60"),
        ])


def test_klein_suite_fails_on_a_refuted_factor(monkeypatch):
    # refuting T's third ground form fails criterion 6 on the T line only;
    # the same form under O is still certified
    original = acceptance.semi_invariance
    t = GroupSpec("T")
    third = acceptance.klein_factors(t).forms[2]

    def refute(f, spec):
        return None if spec == t and f == third else original(f, spec)

    monkeypatch.setattr(acceptance, "semi_invariance", refute)
    result = check_klein_suite()
    assert not result.passed
    failing = [line for line in result.details if "False" in line]
    assert failing == [
        "T: factors of degrees 4, 4, 6 semi-invariant: False; chi1^3 == chi2^3 on every "
        "generator: True; klein_degree additive, pencil degree 3*4 == 3*4 == 12: True"]


def test_klein_suite_fails_on_a_wrong_nu(monkeypatch):
    # with nu1 = 2 for T, chi1^2 is a primitive cube root of unity on the
    # third generator while chi2^3 = 1, and 2*4 is not the pencil degree
    original = acceptance.klein_factors
    t = GroupSpec("T")

    def wrong_nu(spec):
        gf = original(spec)
        return gf._replace(nu=(2,) + gf.nu[1:]) if spec == t else gf

    monkeypatch.setattr(acceptance, "klein_factors", wrong_nu)
    result = check_klein_suite()
    assert not result.passed
    failing = [line for line in result.details if "False" in line]
    assert failing == [
        "T: factors of degrees 4, 4, 6 semi-invariant: True; chi1^2 == chi2^3 on every "
        "generator: False; klein_degree additive, pencil degree 2*4 == 3*4 == 12: False"]



def test_klein_suite_reads_c_n_from_the_table(monkeypatch):
    # C3 comes from the same klein_factors table as every other group: a
    # wrong nu there fails the C3 line only, since chi1^2 != chi2^3 on the
    # generator and 2*1 is not the pencil degree 3
    original = acceptance.klein_factors
    c3 = GroupSpec("C", 3)

    def wrong_nu(spec):
        gf = original(spec)
        return gf._replace(nu=(2,) + gf.nu[1:]) if spec == c3 else gf

    monkeypatch.setattr(acceptance, "klein_factors", wrong_nu)
    result = check_klein_suite()
    assert not result.passed
    failing = [line for line in result.details if "False" in line]
    assert failing == [
        "C3: factors of degrees 1, 1 semi-invariant: True; chi1^2 == chi2^3 on every "
        "generator: False; klein_degree additive, pencil degree 2*1 == 3*1 == 3: False"]

def test_symmetry_criterion_reads_catalog_stabilizer(monkeypatch):
    # an extra maximal group for one case fails criterion 5 for that case only
    original = acceptance.catalog_stabilizer
    extra = acceptance.semi_invariance(form("x^4 + y^4"), GroupSpec("C", 1))

    def with_extra(f):
        certs = original(f)
        return certs + [extra] if f == form("x^5 + y^5") else certs

    monkeypatch.setattr(acceptance, "catalog_stabilizer", with_extra)
    result = check_symmetry_catalog()
    assert not result.passed
    failing = [line for line in result.details if not line.endswith(": True")]
    assert failing == ["quintic.V: maximal catalog groups D5, C1 (expected D5): False"]
    assert len(result.details) == 19


@pytest.mark.parametrize("name, check", [
    ("quintic_locus_report", check_quintic_locus),
    ("sextic_locus_report", check_sextic_divisor),
])
def test_locus_criteria_read_the_reports(monkeypatch, name, check):
    report = getattr(acceptance, name)()
    assert check().passed
    refuted = LocusClaim("planted-claim", "a claim the report refutes", "refuted",
                         witnesses=("F = 1",))
    monkeypatch.setattr(acceptance, name,
                        lambda: LocusReport(report.family, report.claims + (refuted,)))
    result = check()
    assert not result.passed
    assert result.details[-1] == "planted-claim [refuted]: F = 1"
    assert len(result.details) == len(report.claims) + 1


@pytest.mark.parametrize("name, check, wrong_for, wrong, line", [
    ("rigidify", check_gerbe_indices, "quintic", lambda r: (r[0], r[1] + 1),
     "quintic: gerbe index 3 (expected 2); rigidified hcf 1"),
    ("stacky_decompose", check_decompositions, "sextic",
     lambda r: r._replace(gerbe_index=r.gerbe_index + 1),
     "sextic: coarse (1, 2, 3, 5), divisor degree 15, gerbe 2"),
    ("group_elements", check_group_orders, "T", lambda elements: elements[:-1],
     "T: 23 elements (expected 24), determinants exact: True"),
], ids=["criterion-2", "criterion-3", "criterion-4"])
def test_a_verdict_is_the_conjunction_of_its_rows(monkeypatch, name, check, wrong_for,
                                                  wrong, line):
    # one wrong answer for one family or group fails the criterion and
    # changes that row alone
    before = check()
    real = getattr(acceptance, name)
    argument = GroupSpec(wrong_for) if wrong_for == "T" else catalog_ring(wrong_for).ring
    monkeypatch.setattr(acceptance, name,
                        lambda x: wrong(real(x)) if x == argument else real(x))
    after = check()
    assert before.passed and not after.passed
    assert after.details == tuple(line if old.startswith(f"{wrong_for}:") else old
                                  for old in before.details)
    assert line not in before.details


def test_criterion_07_quartic_invariants():
    result = check_quartic_invariants()
    _report(result)
    assert result.passed
    generators = "u = [[1, 1], [0, 1]] and w = [[0, 1], [-1, 0]]"
    assert result.details == (
        f"I2 invariant under {generators}: 42 of 42 checks at the 21 points of the"
        " degree-2 lattice",
        f"I3 invariant under {generators}: 112 of 112 checks at the 56 points of the"
        " degree-3 lattice",
        "case (I) lands on (1:0): True; case (II) on (0:1): True",
        "4096*(I2^3 - 27*I3^2) == Res(f_x, f_y) at 462 of the 462 points of the"
        " degree-6 lattice",
    )


def _plain_quartic_invariants(f):
    """The classical formulas read on the coefficients themselves, not on
    a_i / C(4, i): neither is SL(2)-invariant."""
    a = f.coeffs
    return QuarticInvariants(
        a[0] * a[4] - 4 * a[1] * a[3] + 3 * a[2] ** 2,
        a[0] * a[2] * a[4] - a[0] * a[3] ** 2 + 2 * a[1] * a[2] * a[3]
        - a[1] ** 2 * a[4] - a[2] ** 3)


def test_criterion_07_refutes_the_unweighted_invariants(monkeypatch):
    monkeypatch.setattr(acceptance, "quartic_invariants", _plain_quartic_invariants)
    result = check_quartic_invariants()
    assert not result.passed
    # 46 of the 154 invariance checks and 286 of the 462 discriminant
    # points fail; the value points come from invariants.quartic_point,
    # which the patch leaves alone
    assert "31 of 42 checks" in result.details[0]
    assert "77 of 112 checks" in result.details[1]
    assert result.details[2].endswith("(1:0): True; case (II) on (0:1): True")
    assert "at 176 of the 462 points" in result.details[3]


def test_criterion_08_quintic_locus():
    result = check_quintic_locus()
    _report(result)
    assert result.passed


def test_criterion_09_sextic_divisor():
    result = check_sextic_divisor()
    _report(result)
    assert result.passed


def test_criterion_10_calibration_stretch():
    result = check_calibration(seed=SEED)
    _report(result)
    assert not result.blocking
    if not result.passed:
        pytest.xfail("stretch goal: calibration reported a diagnostic")


def test_verify_all_is_deterministic():
    from stackygit.cli import run_command

    first = run_command(["verify-all", "--seed", str(SEED)])
    second = run_command(["verify-all", "--seed", str(SEED)])
    assert first.status == 0
    assert first.json_text() == second.json_text()
    # the seed-7 payload, pinned byte for byte
    assert hashlib.sha256(first.json_text().encode()).hexdigest() == (
        "431b2cfb6888f09140464a0f1c1e7aede435192f62e6900f58f5ae3a87f057f5")
    payload = json.loads(first.json_text())
    assert payload["blocking_failures"] == 0
    assert len(payload["checks"]) == 10
    # a field added to CheckResult reaches the payload, so this test must
    # change with it
    assert all(set(check) == set(CheckResult._fields) for check in payload["checks"])
