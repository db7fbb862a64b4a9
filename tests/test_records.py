"""The package's records are namedtuples: the four that validate do so in
``__new__``, with the errors and normal forms they always had; every record
is immutable; group specs and matrices hash by their fields, as cache keys
and set members; and importing the command line loads neither
``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stackygit
from stackygit.acceptance import CheckResult
from stackygit.cli import CommandResult
from stackygit.cyclotomic import QQ, CyclotomicNumber
from stackygit.errors import ArityError, InhomogeneousError
from stackygit.graded import GradedRingPresentation, PointW, affine_chart, stacky_decompose
from stackygit.groups import GroupSpec, SL2Matrix, group_elements, group_generators
from stackygit.invariants import CalibrationResult, catalog_ring, quartic_invariants
from stackygit.locus import quintic_locus_report
from stackygit.polynomials import BinaryForm, MultiPoly
from stackygit.symmetry import CATALOG, ground_forms, semi_invariance

XY = ("x", "y")
X, Y = (MultiPoly.variable(XY, v) for v in XY)


@pytest.mark.parametrize("make, error, message", [
    (lambda: GroupSpec("X"), ValueError, "unknown group kind 'X'"),
    (lambda: GroupSpec("C", 0), ValueError, "C_n needs n >= 1"),
    (lambda: GroupSpec("D", -2), ValueError, "D_n needs n >= 1"),
    (lambda: GroupSpec("T", 2), ValueError, "T takes no parameter"),
    (lambda: SL2Matrix(1, 1, 0, 2), ValueError, "determinant of [[1, 1], [0, 2]] is not 1"),
    (lambda: SL2Matrix(0, 0, 0, 0), ValueError, "determinant of [[0, 0], [0, 0]] is not 1"),
    (lambda: GradedRingPresentation(XY, (1,)), ArityError, "one weight per generator"),
    (lambda: GradedRingPresentation(("x", "x"), (1, 2)), ArityError,
     "generator names must be distinct"),
    (lambda: GradedRingPresentation(XY, (1, 0)), ValueError, "weights must be positive"),
    (lambda: GradedRingPresentation(("y", "x"), (1, 2), X), ArityError,
     "relation must be written in the generators"),
    (lambda: GradedRingPresentation(XY, (1, 2), X + Y), InhomogeneousError,
     "relation x + y is not weighted-homogeneous"),
    (lambda: PointW((1, 0), (1, 0)), ValueError, "weights must be positive"),
    (lambda: PointW((1, 0, 0), (1, 2)), ArityError, "one weight per coordinate"),
    (lambda: PointW((0, 0), (1, 2)), ValueError, "a projective point needs a nonzero coordinate"),
])
def test_validating_records_refuse_bad_input(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_validating_records_normalize_their_fields():
    ring = GradedRingPresentation(["x", "y"], ["1", 2], X - X)
    assert (ring.generators, ring.weights, ring.relation) == (XY, (1, 2), None)
    assert ring.field_order == 1
    assert type(ring.generators) is tuple and all(type(w) is int for w in ring.weights)
    point = PointW([1, QQ(1, 2)], [1, 2.0])
    assert all(type(c) is CyclotomicNumber for c in point.coordinates)
    assert point.weights == (1, 2) and all(type(w) is int for w in point.weights)
    m = SL2Matrix(1, 0, 0, 1)
    assert all(type(entry) is CyclotomicNumber for entry in (m.a, m.b, m.c, m.d))
    assert GroupSpec("T").n == 0
    assert GroupSpec(kind="D", n=4) == GroupSpec("D", 4)


def test_reprs_name_the_fields():
    assert repr(GroupSpec("C", 3)) == "GroupSpec(kind='C', n=3)"
    assert repr(GradedRingPresentation(XY, (1, 2))) == (
        "GradedRingPresentation(generators=('x', 'y'), weights=(1, 2), relation=None,"
        " field_order=1)")
    assert str(GroupSpec("D", 4)) == "D4"
    assert str(SL2Matrix.identity()) == "[[1, 0], [0, 1]]"


def test_group_specs_and_matrices_hash_by_their_fields():
    spec = GroupSpec.parse("C3")
    assert spec == GroupSpec("C", 3) and hash(spec) == hash(("C", 3))
    assert group_generators(spec) is group_generators(GroupSpec("C", 3))
    assert len({GroupSpec("T"), GroupSpec.parse("T"), GroupSpec("O")}) == 2
    quarter = SL2Matrix(0, 1, -1, 0)
    identity = quarter * quarter * quarter * quarter
    assert identity == SL2Matrix.identity()
    fields = (identity.a, identity.b, identity.c, identity.d)
    assert hash(identity) == hash(SL2Matrix.identity()) == hash(fields)
    elements = group_elements(GroupSpec("D", 2))
    assert len(set(elements)) == len(elements) == 8
    assert {g * h for g in elements for h in elements} == set(elements)


def _records():
    cert = semi_invariance(BinaryForm([1, 0, 0, 0, 1]), GroupSpec("C", 4))
    return [
        (GroupSpec("C", 3), "n"),
        (SL2Matrix.identity(), "a"),
        (PointW((1, 0), (1, 2)), "weights"),
        (GradedRingPresentation(XY, (1, 2)), "relation"),
        (stacky_decompose(catalog_ring("quintic").ring), "gerbe_index"),
        (affine_chart(catalog_ring("quintic").ring, "I12"), "modulus"),
        (catalog_ring("quintic"), "ring"),
        (quartic_invariants(BinaryForm([1, 0, 0, 0, 1])), "I2"),
        (CalibrationResult("quintic", None), "scalars"),
        (cert, "scalars"),
        (ground_forms(GroupSpec("T")), "nu"),
        (CATALOG[0], "group"),
        (quintic_locus_report(), "claims"),
        (quintic_locus_report().claims[0], "verdict"),
        (CommandResult(0, {}, ""), "status"),
        (CheckResult(1, "name", True), "passed"),
    ]


def test_records_are_immutable():
    for record, field in _records():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, stackygit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(stackygit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
