import json
from pathlib import Path

import pytest

from stackygit import ringspec
from stackygit.cli import run_command
from stackygit.invariants import catalog_ring


@pytest.fixture(scope="module")
def quintic_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rings") / "quintic.ring"
    ringspec.dump(catalog_ring("quintic").ring, path)
    return str(path)


def test_decompose(quintic_file):
    result = run_command(["decompose", quintic_file])
    assert result.status == 0
    assert result.payload["coarse_weights"] == [1, 2, 3]
    assert result.payload["gerbe_index"] == 2
    assert result.payload["root"]["degree_on_canonical_stack"] == 9
    assert "P(1, 2, 3)" in result.markdown


def test_rigidify(quintic_file):
    result = run_command(["rigidify", quintic_file])
    assert result.status == 0
    assert result.payload["gerbe_index"] == 2
    weights = [g["weight"] for g in result.payload["rigidification"]["generators"]]
    assert weights == [2, 4, 6, 9]


def test_chart(quintic_file):
    result = run_command(["chart", quintic_file, "I12"])
    assert result.status == 0
    assert result.payload["automorphism_group"] == "mu_12"
    assert result.payload["residual_grading"] == [
        {"name": "I4", "degree": 4},
        {"name": "I8", "degree": 8},
        {"name": "I18", "degree": 6},
    ]


def test_stabilizer():
    result = run_command(["stabilizer", "x^5 + y^5"])
    assert result.status == 0
    assert result.payload["maximal_groups"] == ["D5"]
    assert result.payload["certificates"][0]["scalars"]


def test_stabilizer_nmax_flag():
    result = run_command(["stabilizer", "x^2*(x^3 + y^3)", "--nmax", "8"])
    assert result.status == 0
    assert result.payload["maximal_groups"] == ["C3"]


@pytest.mark.parametrize("argv, groups, scalars", [
    # the C3 scalar is -zeta_6 written in Q(zeta_6), not in Q(zeta_12)
    (["x^4 + i*x*y^3"], ["C3"], {"C3": ["-zeta(6)"]}),
    # i and sqrtm3 meet zeta_22 in different terms: no order-132 field
    (["x^12 + i*x^6*y^6 + sqrtm3*y^12"], ["C6"], {"C6": ["1"]}),
    # zeta_14^14 = 1 keeps the y^14 term in Q(zeta_9), not Q(zeta_126)
    (["x^14 + zeta(9)*y^14", "--nmax", "7"], ["C2", "C7"], {}),
])
def test_stabilizer_mixed_fields(argv, groups, scalars):
    result = run_command(["stabilizer", *argv])
    assert result.status == 0
    assert result.payload["maximal_groups"] == groups
    certificates = {c["group"]: c["scalars"] for c in result.payload["certificates"]}
    for group, expected in scalars.items():
        assert certificates[group] == expected


def test_ground_forms():
    result = run_command(["ground-forms", "I"])
    assert result.status == 0
    assert [f["nu"] for f in result.payload["forms"]] == [5, 3, 2]


def test_klein():
    result = run_command(["klein", "D3", "0", "0", "0", "2:3"])
    assert result.status == 0
    assert result.payload["semi_invariant"] is True
    assert result.payload["degree"] == 6


def test_locus_commands():
    for family in ("quintic", "sextic"):
        result = run_command(["locus", family])
        assert result.status == 0
        assert result.payload["counts"]["refuted"] == 0


def test_catalog():
    result = run_command(["catalog", "sextic"])
    assert result.status == 0
    weights = [g["weight"] for g in result.payload["ring"]["generators"]]
    assert weights == [2, 4, 6, 10, 15]


def test_error_paths_have_distinct_codes():
    codes = {}
    cases = {
        "missing-file": ["decompose", "/nonexistent/thing.ring"],
        "bad-form": ["stabilizer", "x + * y"],
        "bad-family": ["catalog", "octic"],
        "bad-group": ["ground-forms", "Q8"],
        "infinite-stab": ["stabilizer", "x^3*y^3"],
    }
    for name, argv in cases.items():
        result = run_command(argv)
        assert result.status == 2, name
        codes[name] = result.payload["error"]["code"]
    assert len(set(codes.values())) == len(codes)


@pytest.mark.parametrize("text", [
    "(" * 3000 + "x*y" + ")" * 3000,
    "x^2 + " + "-" * 3000 + "y^2",
])
def test_deep_nesting_is_a_bound_error(text):
    result = run_command(["stabilizer", text])
    assert result.status == 3
    assert result.payload["error"]["code"] == "nesting-too-deep"


@pytest.mark.parametrize("op", ["+", "-"])
def test_long_sum_is_a_degree_one_form(op):
    result = run_command(["stabilizer", op.join(["x"] * 3000)])
    assert result.status == 2
    assert result.payload["error"]["code"] == "infinite-stabilizer"


DEMO_RINGS = Path(__file__).resolve().parent.parent / "demos" / "rings"


@pytest.mark.parametrize("name, decomposition, gerbe", [
    ("quartic", None, 1),
    ("quintic", ([1, 2, 3], 9, 2), 2),
    ("sextic", ([1, 2, 3, 5], 15, 1), 1),
    ("cubic_curve", None, 2),
    ("cubic_surface", ([1, 2, 3, 4, 5], 25, 4), 4),
])
def test_demo_rings(name, decomposition, gerbe):
    path = str(DEMO_RINGS / f"{name}.ring")
    result = run_command(["decompose", path])
    if decomposition is None:
        # free rings have no two-sheeted relation to decompose along
        assert result.status == 2
        assert result.payload["error"]["code"] == "relation-shape"
    else:
        coarse, degree, index = decomposition
        assert result.status == 0
        assert result.payload["coarse_weights"] == coarse
        assert result.payload["canonical_weights"] == coarse
        assert result.payload["root"]["degree_on_canonical_stack"] == degree
        assert result.payload["gerbe_index"] == index
    result = run_command(["rigidify", path])
    assert result.status == 0
    assert result.payload["gerbe_index"] == gerbe


def test_unknown_generator_error(quintic_file):
    result = run_command(["chart", quintic_file, "I9"])
    assert result.status == 2
    assert result.payload["error"]["code"] == "unknown-generator"


def test_json_is_deterministic():
    a = run_command(["locus", "quintic"]).json_text()
    b = run_command(["locus", "quintic"]).json_text()
    assert a == b
    json.loads(a)


def test_calibrate_quintic():
    result = run_command(["calibrate", "quintic", "--seed", "11"])
    assert result.status == 0
    assert result.payload["succeeded"] is True
