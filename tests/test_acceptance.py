"""Acceptance suite: one test per criterion, one printed line each.

Everything asserts exactly (zero tolerance).  Criterion 10 is a stretch
goal: its outcome is printed and reported but a failure there is recorded
as an expected-failure rather than a suite failure.
"""

import hashlib
import json
import random

import pytest

from stackygit import acceptance
from stackygit.acceptance import (
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
from stackygit.locus import LocusClaim, LocusReport

SEED = 7


def _report(result):
    print(f"criterion {result.criterion:2d} [{result.status}] {result.name}")
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
    result = check_klein_suite(seed=SEED)
    _report(result)
    assert result.passed


def test_klein_suite_records_failing_draws(monkeypatch):
    # refute the 2nd to 5th C3 draws: the first three of them are named
    calls = []

    def refute(f, spec):
        calls.append(spec)
        return None if 2 <= len(calls) <= 5 else True

    monkeypatch.setattr(acceptance, "semi_invariance", refute)
    result = check_klein_suite(seed=SEED, draws=5)
    rng = random.Random(SEED)
    c3 = [acceptance._klein_draw(rng, acceptance.KLEIN_SUITE_GROUPS[0]) for _ in range(5)]
    assert not result.passed
    assert result.details[0] == (
        "C3: 5 draws, 4 failures; first failing (alpha, beta, gamma, params): "
        + ", ".join(str(d) for d in c3[1:4]))
    assert result.details[1:] == ("D4: 5 draws, 0 failures", "T: 5 draws, 0 failures",
                                  "O: 5 draws, 0 failures", "I: 5 draws, 0 failures")


def test_symmetry_criterion_reads_catalog_stabilizer(monkeypatch):
    # an extra maximal group for one case fails criterion 5 for that case only
    original = acceptance.catalog_stabilizer
    extra = acceptance.semi_invariance(form("x^4 + y^4"), GroupSpec("C", 1))

    def with_extra(f, n_max=None):
        certs = original(f, n_max)
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


def test_criterion_07_quartic_invariants():
    result = check_quartic_invariants(seed=SEED)
    _report(result)
    assert result.passed


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
        "136d5fb1346b03781c3a46816dafbf1bfbed63b369e4d295bb7e8fb8536ec89d")
    payload = json.loads(first.json_text())
    assert payload["blocking_failures"] == 0
    assert len(payload["checks"]) == 10
