import errno
import functools
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stackygit
from stackygit import acceptance, cli, invariants, ringspec, symmetry
from stackygit.cli import build_parser, main, run_command
from stackygit.errors import ExactArithmeticError, NestingTooDeepError
from stackygit.groups import GroupSpec
from stackygit.invariants import catalog_ring


@pytest.fixture(scope="module")
def quintic_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rings") / "quintic.ring"
    path.write_text(ringspec.dumps(catalog_ring("quintic").ring), encoding="utf-8")
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


def test_stabilizer_certifies_each_candidate_once(monkeypatch):
    # the payload's scalars come from catalog_stabilizer's certificates; no
    # maximal group is substituted a second time
    calls = []
    original = symmetry.semi_invariance

    def counted(f, spec):
        calls.append(spec.label)
        return original(f, spec)

    monkeypatch.setattr(symmetry, "semi_invariance", counted)
    monkeypatch.setattr(cli, "semi_invariance", counted)
    result = run_command(["stabilizer", "x^5 + y^5"])
    assert result.status == 0
    assert calls == ["C5", "D5", "I"]


@pytest.mark.parametrize("argv, groups, scalars", [
    # the C3 scalar is -zeta_6 written in Q(zeta_6), not in Q(zeta_12)
    (["x^4 + i*x*y^3"], ["C3"], {"C3": ["-zeta(6)"]}),
    # i and sqrtm3 meet zeta_22 in different terms: no order-132 field
    (["x^12 + i*x^6*y^6 + sqrtm3*y^12"], ["C6"], {"C6": ["1"]}),
    # the C14 scalar zeta_28^14 = -1 is read at the x^14 term, so zeta_28
    # never meets Q(zeta_9): they share no field under the order cap
    (["x^14 + zeta(9)*y^14"], ["C14"], {"C14": ["-1"]}),
    # and the mirror's scalar zeta(9) * (-1) / zeta(9) stays in Q(zeta_9)
    (["zeta(9)*x^14 + y^14"], ["C14"], {"C14": ["-1"]}),
    # the closed form needs zeta_14 and Q(zeta_9) apart, where substitution
    # carried the interior term into Q(zeta_126) and exceeded the order cap
    (["x^14 + zeta(9)*x^7*y^7 + y^14"], ["D7"], {"D7": ["1", "-1"]}),
])
def test_stabilizer_mixed_fields(argv, groups, scalars):
    result = run_command(["stabilizer", *argv])
    assert result.status == 0
    assert result.payload["maximal_groups"] == groups
    certificates = {c["group"]: c["scalars"] for c in result.payload["certificates"]}
    for group, expected in scalars.items():
        assert certificates[group] == expected


@pytest.mark.parametrize("text, group, scalars", [
    # n = 30 and n = 11 divide every support-index difference; every larger
    # C_n/D_n is refuted from the support before zeta_2n is built
    ("x^61*y + x*y^61 + x^31*y^31", "D30", ["1", "-1"]),
    ("4*x^32*y^29 - 4*x^21*y^40 - 2*x^10*y^51", "C11", ["zeta(22)^3"]),
])
def test_stabilizer_past_half_the_order_cap(text, group, scalars):
    result = run_command(["stabilizer", text])
    assert result.status == 0
    assert result.payload["maximal_groups"] == [group]
    assert [(c["group"], c["scalars"]) for c in result.payload["certificates"]] \
        == [(group, scalars)]


def test_stabilizer_of_a_high_degree_generic_form_is_fast():
    start = time.perf_counter()
    result = run_command(["stabilizer", "(x+2*y)^200*x*y"])
    assert time.perf_counter() - start < 1
    assert result.status == 0
    assert result.payload["maximal_groups"] == ["C1"]


def test_stabilizer_needing_a_field_past_the_cap_fails_fast():
    # D62 passes the support rule and needs zeta_124
    start = time.perf_counter()
    result = run_command(["stabilizer", "x^62 + y^62"])
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"]["code"] == "order-cap-exceeded"


def test_ground_forms():
    result = run_command(["ground-forms", "I"])
    assert result.status == 0
    assert [f["nu"] for f in result.payload["forms"]] == [5, 3, 2]


def test_ground_forms_of_a_cyclic_group_are_refused():
    result = run_command(["ground-forms", "C4"])
    assert result.status == 2
    assert result.payload["error"]["code"] == "no-ground-forms"
    assert result.payload["error"]["message"] == "cyclic groups have no ground-form triple"


def test_dihedral_ground_forms_past_the_degree_bound_are_refused_fast():
    # x^n + y^n is refused before it is expanded
    for argv in (["ground-forms", "D99999999999"], ["klein", "D99999999999", "0", "0", "0"]):
        start = time.perf_counter()
        result = run_command(argv)
        assert time.perf_counter() - start < 0.5
        assert result.status == 3
        assert result.payload["error"]["code"] == "degree-too-large"
    assert run_command(["ground-forms", "D256"]).status == 0


def test_klein():
    result = run_command(["klein", "D3", "0", "0", "0", "2:3"])
    assert result.status == 0
    assert result.payload["semi_invariant"] is True
    assert result.payload["degree"] == 6


@pytest.mark.parametrize("pair", ["1:", ":1", "1:2:3", "1/2:3", "x"])
def test_klein_malformed_pair(pair):
    result = run_command(["klein", "I", "1", "1", "2", pair])
    assert result.status == 2
    assert result.payload["error"]["code"] == "bad-value"
    assert f"'{pair}'" in result.payload["error"]["message"]
    assert "lambda:mu" in result.payload["error"]["message"]


@pytest.mark.parametrize("group", ["C3", "D4", "T"])
def test_klein_negative_exponent(group):
    for exponents in (["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]):
        result = run_command(["klein", group, *exponents])
        assert result.status == 2
        assert result.payload["error"]["code"] == "bad-value"


def test_klein_parameters_past_the_coefficient_bound_are_refused_fast():
    # each pair (10^3000, 1) has a growth norm of 9966 bits; two are past
    # the bound, and forty on C2 are refused before any product
    big = str(10 ** 3000)
    for argv in (["klein", "C3", "1", "0", "0", f"{big}:1", f"{big}:1"],
                 ["klein", "C2", "1", "0", "0", *[f"{big}:1"] * 40]):
        start = time.perf_counter()
        result = run_command(argv)
        assert time.perf_counter() - start < 0.1
        assert result.status == 3
        assert result.payload["error"] == {
            "code": "coefficient-too-large",
            "message": f"parameter pairs of {9966 * (len(argv) - 5)} bits exceed the bound 10000"}


@pytest.mark.parametrize("lam, status", [(2 ** 9999, 0), (2 ** 10000 - 1, 3)],
                         ids=["inside", "outside"])
def test_klein_parameter_at_the_coefficient_bound(lam, status):
    # the growth norm lam + 1 has 10000 bits inside the bound, 10001 outside
    result = run_command(["klein", "C3", "1", "0", "0", f"{lam}:1"])
    assert result.status == status
    if status == 0:
        assert result.payload["form"] == f"{lam}*x^4 + x*y^3"
        assert result.payload["semi_invariant"] is True


@pytest.mark.parametrize("label, message", [
    ("C\u00b2", "not a group label: 'C\u00b2'"),
    ("C" + "7" * 5000, "not a group label: 'C7777777777777777777'... (5001 characters)"),
    ("C3", None),
], ids=["superscript", "5000-digits", "C3"])
def test_group_labels_take_decimal_numerals(label, message):
    result = run_command(["klein", label, "1", "0", "0"])
    if message is None:
        assert result.status == 0
        assert result.payload["group"] == label
    else:
        assert result.status == 2
        assert result.payload["error"] == {"code": "bad-value", "message": message}


@pytest.mark.parametrize("argv, code, message", [
    (["klein", "D\u0663", "1", "0", "0"], "bad-value", "not a group label: 'D\u0663'"),
    (["klein", "C3", "\u0663", "0", "0"], "usage",
     "stackygit klein: error: argument alpha: invalid int value: '\u0663'"),
    (["stabilizer", "x^\u0663*y+x*y^\u0663"], "syntax-error",
     "unexpected character '\u0663' (at position 2)"),
    (["decompose", "weight.ring"], "ringspec-error", "line 1: cannot parse 'a : \u0663'"),
    (["decompose", "field.ring"], "ringspec-error",
     "line 3: cannot parse 'field: zeta(\u0664)'"),
], ids=["group-label", "alpha", "exponent", "weight", "field"])
def test_only_ascii_digits_are_numerals(tmp_path, argv, code, message):
    # an Arabic-Indic digit is refused by every reader, each with its own error
    (tmp_path / "weight.ring").write_text("a : \u0663\nb : 2\n", encoding="utf-8")
    (tmp_path / "field.ring").write_text("a : 3\nb : 2\nfield: zeta(\u0664)\n",
                                         encoding="utf-8")
    result = run_command([str(tmp_path / a) if a.endswith(".ring") else a for a in argv])
    assert result.status == 2
    assert result.payload["error"] == {"code": code, "message": message}


_SEVENS = "7" * 5000
_CUT_SEVENS = "'77777777777777777777'... (5000 characters)"


@pytest.mark.parametrize("argv, status, code, message", [
    (["klein", "C3", "1", "0", "0", f"{_SEVENS}:1"], 3, "coefficient-too-large",
     f"numeral {_CUT_SEVENS} has more than 4300 digits"),
    (["klein", "C3", "1", "0", "0", f"{'x' * 5000}:1"], 2, "bad-value",
     "parameter pair 'xxxxxxxxxxxxxxxxxxxx'... (5002 characters): expected integers lambda:mu"),
    (["klein", "C3", _SEVENS, "0", "0"], 2, "usage",
     f"stackygit klein: error: argument alpha: numeral {_CUT_SEVENS} has more than 4300 digits"),
    (["calibrate", "quintic", "--seed", "x" * 5000], 2, "usage",
     "stackygit calibrate: error: argument --seed: invalid int value:"
     " 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
], ids=["pair-digits", "pair-text", "alpha", "seed"])
def test_integer_arguments_do_not_echo_long_values(argv, status, code, message):
    result = run_command(argv)
    assert result.status == status
    assert result.payload["error"] == {"code": code, "message": message}


def test_klein_reads_a_4000_digit_parameter():
    # the reader takes it; the pairs' coefficient bound then refuses it
    result = run_command(["klein", "C3", "1", "0", "0", f"{'7' * 4000}:1"])
    assert result.status == 3
    assert result.payload["error"] == {
        "code": "coefficient-too-large",
        "message": "parameter pairs of 13288 bits exceed the bound 10000"}


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


def test_profile_degree_bound():
    # the 3,000-factor product is refused before its root profile is computed
    start = time.perf_counter()
    result = run_command(["stabilizer", "*".join(["x"] * 3000)])
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"]["code"] == "degree-too-large"


@pytest.mark.parametrize("argv", [
    ["stabilizer", "(x+y)^2000"],
    ["stabilizer", "x^1000000*y + x*y^1000000"],
    ["stabilizer", "x^100000000*y + x*y^100000000"],
    ["klein", "C3", "3000", "0", "0", "1:1"],
])
def test_degree_bound_before_expansion(argv):
    start = time.perf_counter()
    result = run_command(argv)
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"]["code"] == "degree-too-large"


def test_product_bound_before_expansion():
    # the second product would multiply 501 by 251 terms
    start = time.perf_counter()
    result = run_command(["stabilizer", "*".join(["(x+y)^250"] * 8)])
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"] == {"code": "product-too-large", "message": (
        "product of 501 by 251 terms exceeds the bound of 66049 term products"
        " (at position 19)")}


def _sum_of(name, n):
    return "+".join(f"{name}{i}" for i in range(n))


@pytest.mark.parametrize("argv, code", [
    (["stabilizer", _sum_of("a", 3000)], "expression-too-large"),
    (["stabilizer", _sum_of("a", 6000)], "expression-too-large"),
    (["stabilizer", f"({_sum_of('a', 257)})*({_sum_of('b', 257)})"], "product-too-large"),
    (["decompose", "wide.ring"], "expression-too-large"),
], ids=["3000-terms", "6000-terms", "257-by-257-terms", "ring-relation"])
def test_exponent_entry_bound_before_reading(tmp_path, argv, code):
    # each term holds one exponent per variable, so a text naming many
    # variables is refused before its terms are built
    generators = "".join(f"a{i} : 2\n" for i in range(3000))
    (tmp_path / "wide.ring").write_text(
        f"{generators}t : 3\nrelation: t^2 - ({_sum_of('a', 3000)})^3\n")
    argv = [str(tmp_path / a) if a.endswith(".ring") else a for a in argv]
    start = time.perf_counter()
    result = run_command(argv)
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"]["code"] == code


def test_exponent_entry_bound_messages():
    assert run_command(["stabilizer", _sum_of("a", 3000)]).payload["error"]["message"] == (
        "5999 tokens in 3002 variables exceed the bound of 1048576 exponent entries")
    product = f"({_sum_of('a', 257)})*({_sum_of('b', 257)})"
    assert run_command(["stabilizer", product]).payload["error"]["message"] == (
        "product of 257 by 257 terms in 516 variables exceeds the bound of 1048576"
        " exponent entries (at position 1176)")
    assert run_command(["stabilizer", f"({_sum_of('a', 200)})^2"]).payload["error"] == {
        "code": "product-too-large", "message": (
            "power 2 of 200 terms: 200 by 200 terms in 202 variables exceed the bound"
            " of 1048576 exponent entries (at position 892)")}


@pytest.mark.parametrize("text", ["3^200000*x*y*(x+y)", "3^20000000*x*y*(x+y)"])
def test_coefficient_bound_before_expansion(text):
    start = time.perf_counter()
    result = run_command(["stabilizer", text])
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"]["code"] == "coefficient-too-large"


@pytest.mark.parametrize("text", [
    "2^5001*x*y*(x+y)",                # about 5,000 bits
    "(2^5000)^2*x*y*(x+y)",            # 10,000 bits, at the bound
    "(zeta(3)^2)^10001*x*y*(x+y)",     # roots of unity written with several
    "(zeta(5)^4)^10001*x*y*(x+y)",     # coordinates stay roots of unity
])
def test_powers_under_the_coefficient_bound(text):
    result = run_command(["stabilizer", text])
    assert result.status == 0
    assert result.payload["maximal_groups"] == ["D1"]


@pytest.mark.parametrize("text", [
    "3^5000*3^5000*x*y*(x+y)",         # each power is under the bound
    "(3^5000*x)*(3^5000*y)",
    "2^5000*2^5001*x*y*(x+y)",         # 10,001 bits
    "(2^9000*x+y)^2*x*y + x^4",        # the product after a power of a sum
])
def test_products_past_the_coefficient_bound(text):
    result = run_command(["stabilizer", text])
    assert result.status == 3
    assert result.payload["error"]["code"] == "coefficient-too-large"


@pytest.mark.parametrize("text", [
    "2^5000*2^5000*x*y*(x+y)",         # 10,000 bits, at the bound
    "zeta(7)^5000*zeta(7)^5000*x*y*(x+y)",
])
def test_products_under_the_coefficient_bound(text):
    result = run_command(["stabilizer", text])
    assert result.status == 0
    assert result.payload["maximal_groups"] == ["D1"]


@pytest.mark.parametrize("argv", [
    ["stabilizer", "(a+b+c+d)^30"],
    ["stabilizer", "(a+b+c+d)^40"],
    ["decompose", "power.ring"],
])
def test_power_term_bound_before_expansion(tmp_path, argv):
    # a relation of degree 200 in four variables, under the degree bound
    (tmp_path / "power.ring").write_text(
        "a : 1\nb : 1\nc : 1\nd : 1\nrelation: (a+b+c+d)^200\n")
    argv = [str(tmp_path / a) if a.endswith(".ring") else a for a in argv]
    start = time.perf_counter()
    result = run_command(argv)
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"]["code"] == "product-too-large"


@pytest.mark.parametrize("text", [
    "(2^9000*x+3*y)^4 + x^3*y",                  # about 36,000 bits, before expanding
    "(2^3000*x+y)^3*(2^3000*x+y)^3*x*y + x^8",   # each power is under the bound
])
def test_powers_of_sums_past_the_coefficient_bound(text):
    start = time.perf_counter()
    result = run_command(["stabilizer", text])
    assert time.perf_counter() - start < 1
    assert result.status == 3
    assert result.payload["error"]["code"] == "coefficient-too-large"


def test_power_of_a_sum_under_the_coefficient_bound():
    result = run_command(["stabilizer", "(2^2000*x+3*y)^4 + x^3*y"])  # about 8,000 bits
    assert result.status == 0
    assert result.payload["maximal_groups"] == ["C1"]


@pytest.mark.parametrize("name", ["zeta", "i", "sqrt2", "sqrt5", "sqrtm3"])
def test_reserved_generator_names_are_refused(tmp_path, name):
    # the relation would read the name as a constant, not as the generator
    path = tmp_path / "reserved.ring"
    path.write_text(f"u : 4\n{name} : 2\nrelation: {name}^2 - u\n", encoding="utf-8")
    for argv in (["decompose", str(path)], ["rigidify", str(path)], ["chart", str(path), "u"]):
        result = run_command(argv)
        assert result.status == 2
        assert result.payload["error"] == {"code": "ringspec-error", "message": (
            f"line 2: '{name}' is reserved and cannot name a generator")}


def test_overlong_numeral_in_an_expression():
    result = run_command(["stabilizer", "x*y*(x+y)*" + "7" * 5000])
    assert result.status == 3
    assert result.payload["error"] == {"code": "coefficient-too-large", "message": (
        "numeral of 5000 digits has more than 10000 bits (at position 10)")}
    # one digit fewer than the bound keeps the product check's payload
    result = run_command(["stabilizer", "x*y*(x+y)*" + "7" * 4300])
    assert result.status == 3
    assert result.payload["error"] == {"code": "coefficient-too-large", "message": (
        "product with a coefficient of about 14284 bits exceeds the bound 10000"
        " (at position 9)")}


@pytest.mark.parametrize("line, what", [("u : {}", "weight"), ("field: zeta({})", "field order")])
def test_overlong_numeral_in_a_ring_spec(tmp_path, line, what):
    path = tmp_path / "long.ring"
    path.write_text("a : 1\n" + line.format("7" * 5000) + "\n", encoding="utf-8")
    result = run_command(["rigidify", str(path)])
    assert result.status == 2
    assert result.payload["error"] == {"code": "ringspec-error", "message": (
        f"line 2: {what} has more than 4300 digits")}


def test_weight_of_4300_digits_is_read(tmp_path):
    path = tmp_path / "long.ring"
    path.write_text("a : 1\nu : " + "7" * 4300 + "\n", encoding="utf-8")
    result = run_command(["rigidify", str(path)])
    assert result.status == 0
    assert [g["weight"] for g in result.payload["ring"]["generators"]] == [1, int("7" * 4300)]


@pytest.mark.parametrize("argv", [["decompose"], ["rigidify"], ["chart", "x"]])
def test_unreadable_ring_spec(tmp_path, argv):
    result = run_command([argv[0], str(tmp_path), *argv[1:]])
    assert result.status == 2
    assert result.payload["error"]["code"] == "file-unreadable"
    result = run_command([argv[0], str(tmp_path / "missing.ring"), *argv[1:]])
    assert result.status == 2
    assert result.payload["error"]["code"] == "file-not-found"


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


@pytest.mark.parametrize("weights, gerbe", [((2, 3), 1), ((6, 9), 3)],
                         ids=["a2-t3", "a6-t9"])
def test_one_base_generator_decomposes(tmp_path, weights, gerbe):
    # the rescaled base weights are (1,), the point P(1), which is well formed
    path = tmp_path / "cusp.ring"
    path.write_text("a : {}\nt : {}\nrelation: t^2 - a^3\n".format(*weights), encoding="utf-8")
    result = run_command(["decompose", str(path)])
    assert result.status == 0, result.payload
    assert result.payload["coarse_weights"] == [1]
    assert result.payload["gerbe_index"] == gerbe
    assert result.payload["root"] == {"order": 2, "divisor": "a^3",
                                      "degree_on_canonical_stack": 3}


@pytest.mark.parametrize("argv", [["rigidify"], ["chart", "b"], ["decompose"]],
                         ids=["rigidify", "chart", "decompose"])
def test_constant_relation_is_refused(tmp_path, argv):
    # the relation 5 = 0 leaves the zero ring, whose stack is empty
    path = tmp_path / "constant.ring"
    path.write_text("a : 2\nb : 3\nrelation: 5\n", encoding="utf-8")
    result = run_command([argv[0], str(path), *argv[1:]])
    assert result.status == 2
    assert result.payload["error"] == {
        "code": "relation-shape",
        "message": "relation 5 is a nonzero constant, so the ring is zero"}


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


@pytest.mark.parametrize("error", [
    ExactArithmeticError("no lucky prime below the Hadamard bound of the system"),
    ArithmeticError("no lucky prime below the Hadamard bound of the system"),
    ZeroDivisionError("no lucky prime below the Hadamard bound of the system")])
def test_arithmetic_errors_are_structured(monkeypatch, capsys, error):
    # calibrate quintic takes I18 as a resultant
    def failing_resultant(f, g):
        raise error

    monkeypatch.setattr(invariants, "resultant", failing_resultant)
    result = run_command(["calibrate", "quintic", "--seed", "3"])
    assert result.status == 3
    assert result.payload["error"] == {
        "code": "arithmetic-error",
        "message": "no lucky prime below the Hadamard bound of the system"}
    assert result.payload["status"] == 3
    assert main(["calibrate", "quintic", "--seed", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == result.markdown and "Traceback" not in out + err


def test_recursion_error_is_structured(monkeypatch):
    def deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "form", deep)
    result = run_command(["stabilizer", "x^2 - y^2"])
    assert result.status == NestingTooDeepError.exit_status == 3
    assert result.payload["error"]["code"] == NestingTooDeepError.code == "nesting-too-deep"
    assert result.payload["command"] == "stabilizer"


@pytest.mark.parametrize("argv, digest", [
    (["stabilizer", "x^4 + i*x*y^3"],
     "d7d550d905612967ad549acc8c014e13e77e733e83c29337db2574b78c91a2da"),
    (["stabilizer", "x^12 + i*x^6*y^6 + sqrtm3*y^12"],
     "66eb36b0f96cc6c732fa51df5ad6e31a269091a05e3fac1201bb268b5883f3bd"),
    (["stabilizer", "x^14 + zeta(9)*y^14"],
     "b2b4df107e7c7cdaf029c2ac745cbe631c0a0e19d2d5f3a89a07945e068345be"),
    (["klein", "T", "1", "1", "0", "1:2"],
     "ca4f68dadbde25a2db65ccb84b44330686b9cfa24b8a978e1d8737fb4f2a84f1"),
    (["klein", "O", "0", "1", "0"],
     "066ffd80dea30c72f6590ac83d058896642eb145d8163953b9833451d139e32e"),
    (["klein", "I", "1", "0", "0", "1:2"],
     "ef89c68ec8abe187db2bb22bc263948c7a04d2afc65d27f077f0d1dd351623bd"),
    (["ground-forms", "T"],
     "f388ed9f986585baaf6c5dca330c2718790cdfccd36451ccada03adf07222d28"),
    (["ground-forms", "O"],
     "ccee7381e2e2af8ec5c98ca744a340752301f35e139218c12f1c68748eed92a8"),
    (["ground-forms", "I"],
     "a82460a29013973a29b4537404cedfa261e2b5afdef3706145685044c7745504"),
    (["calibrate", "quintic", "--seed", "3"],
     "f92b895d13f15320dff245ea9e84308c1ee0ca777408c76eef258f49560e037d"),
    (["calibrate", "quintic", "--seed", "11"],
     "2389daff0504fcab19673373f71084dd1042b1f319b81479f01e6f2a869df7f5"),
    (["locus", "quintic"],
     "939c375d1db4852cd212174df1ece4db5f69ad32935469738ce3acad55adabed"),
    (["locus", "sextic"],
     "692d4648303b86eff97ba99d388ff44a47c86bd99e14f5076cd4d5fe0983cbcc"),
    (["catalog", "quartic"],
     "7513ef50a3e61ae017660d8a346663f280fb06763694dd145f152d61b7227ad2"),
    (["catalog", "quintic"],
     "cb62c480358b793e90887d488a5d9eb783fc05088c7ca93aaa0c493e8038ea58"),
    (["catalog", "sextic"],
     "2d8353e73daa27dcc55757c85ffd63d14e4b7de1eaa26e16bedba41f23f241f4"),
    (["catalog", "cubic-curve"],
     "b976304fb39fb2350e82ca2474e859793619f68bb36cbc51abd041f73756d347"),
    (["catalog", "cubic-surface"],
     "9e2741dbd0e980ad3a3da2ab1d66d2b12b72e28a730894859de6f7b4737b6b14"),
    (["decompose", str(DEMO_RINGS / "quintic.ring")],
     "8525be5e6aa355e0400769b9c854f6ac7cad33d0845d8fbfcf3c48a842d425f2"),
    (["decompose", str(DEMO_RINGS / "sextic.ring")],
     "c2774cc00aa4f577e08c45c9617a797b049c31f84593cc3a6e590fbf52c90318"),
    (["decompose", str(DEMO_RINGS / "cubic_surface.ring")],
     "4685df41eed9b5587730156a751a8374387e7cc7963b7de8fd620847cefd9216"),
    (["calibrate", "sextic", "--seed", "7"],
     "2231c77e9a999205b3ab7b42f6cc2ec6e61852905c35ac0235c5dbbfeb4e96da"),
    (["calibrate", "sextic", "--seed", "11"],
     "84c958f5ba61376f72c88e585d6326acf05ba4938c3563f5593e09481c8115a8"),
])
def test_payload_digests(argv, digest):
    # JSON payloads pinned byte for byte (sha256 of CommandResult.json_text)
    result = run_command(argv)
    assert result.status == 0
    assert hashlib.sha256(result.json_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("family, name, wrong, count, digest", [
    ("quintic", "I8", 1, 25, "602ece92c12f45132a3eb28c39542cb93b2ee80a720b3ab0265a3ec8e23e612c"),
    ("sextic", "I10", 4, 55, "ea59fb313430ebd5e49c8bc8da6b4791542bf6576976e925284d30d63f93eece"),
])
def test_failure_payload_digests(monkeypatch, family, name, wrong, count, digest):
    # one wrong pinned scalar leaves a residual at every form; the failure
    # payload, residual texts included, is pinned byte for byte
    monkeypatch.setitem(getattr(invariants, f"{family.upper()}_SCALARS"), name, wrong)
    result = run_command(["calibrate", family, "--seed", "7"])
    assert result.status == 1
    assert len(result.payload["residuals"]) == count
    assert hashlib.sha256(result.json_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["decompose", str(DEMO_RINGS / "quintic.ring")],
    ["rigidify", str(DEMO_RINGS / "quartic.ring")],  # a free ring: relation null
    ["chart", str(DEMO_RINGS / "quintic.ring"), "I12"],
    ["stabilizer", "x^5 + y^5"],
    ["ground-forms", "I"],
    ["klein", "T", "1", "1", "0", "1:2"],
    ["locus", "sextic"],
    ["catalog", "cubic-surface"],
    ["calibrate", "quintic", "--seed", "3"],
    ["verify-all", "--seed", "7"],
    ["--help"],
    ["verify-all", "--seed", "x"],  # a usage error
    ["stabilizer", "x+\u00e9"],  # a parse error that echoes the non-ASCII character
], ids=lambda argv: " ".join(Path(arg).name for arg in argv))
def test_json_text_is_json_dumps(argv):
    # json_text writes the payload itself; json.dumps is the reference
    result = run_command(argv)
    assert result.json_text() == json.dumps(result.payload, sort_keys=True, indent=2)


def test_json_text_of_every_kind_of_value_is_json_dumps():
    payload = {
        "empty": {"dict": {}, "list": [], "nested": [{}, [], [[]], {"a": {}}]},
        "tuple": (1, ("two", None), ()),
        "constants": [True, False, None],
        "ints": [0, -1, -(10 ** 299), 10 ** 299 + 7],
        "strings": ['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f",
                    "caf\u00e9 \u03b6", "\U0001d54a", ""],
        "\u00e9 key": "value",
        "": 0,
    }
    text = cli.CommandResult(0, payload, "").json_text()
    assert text == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [{"x": 0.5}, {"x": [1, 2.0]}, {1: "x"}, {"x": {2: 3}}])
def test_json_text_refuses_floats_and_keys_that_are_not_str(payload):
    with pytest.raises(TypeError):
        cli.CommandResult(0, payload, "").json_text()


def test_json_text_refuses_records():
    # a record is a namedtuple, but it has no place in a payload
    with pytest.raises(TypeError):
        cli.CommandResult(0, {"group": GroupSpec("C", 3)}, "").json_text()
    with pytest.raises(TypeError):
        cli.CommandResult(0, {"groups": [GroupSpec("T")]}, "").json_text()


def test_main_prints_json_or_markdown_and_returns_the_status(capsys):
    argv = ["stabilizer", "x^5 + y^5"]
    assert main(["--json", *argv]) == 0
    assert capsys.readouterr().out == run_command(["--json", *argv]).json_text() + "\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == run_command(argv).markdown
    assert main(["stabilizer", "x^3*y^3"]) == 2  # infinite stabilizer
    capsys.readouterr()
    assert main(["verify-all", "--seed", "x"]) == 2  # usage error
    assert capsys.readouterr().out == run_command(["verify-all", "--seed", "x"]).markdown


def test_main_reads_the_json_flag_where_the_parser_does(capsys):
    # after "--" the token is a parameter of klein, which refuses it as a
    # value; only the options before the subcommand select JSON output
    argv = ["klein", "T", "1", "0", "0", "--", "--json"]
    result = run_command(argv)
    assert (result.status, result.payload["error"]["code"]) == (2, "bad-value")
    assert main(argv) == 2
    assert capsys.readouterr().out == result.markdown
    assert main(["--json", "klein", "T", "1", "0", "0", "--", "--json"]) == 2
    assert capsys.readouterr().out == result.json_text() + "\n"


def test_the_json_flag_takes_no_abbreviation(capsys):
    # main looks for the literal --json, so the top-level parser refuses
    # its prefixes; the subcommands' options keep their abbreviations
    result = run_command(["--js", "catalog", "quartic"])
    assert (result.status, result.payload["error"]["code"]) == (2, "usage")
    assert result.payload["error"]["message"] == \
        "stackygit: error: unrecognized arguments: --js"
    assert main(["--js", "catalog", "quartic"]) == 2
    assert capsys.readouterr().out == result.markdown
    assert run_command(["calibrate", "quintic", "--se", "3"]).json_text() \
        == run_command(["calibrate", "quintic", "--seed", "3"]).json_text()


def test_usage_errors_stay_off_the_streams(capsys):
    result = run_command(["verify-all", "--seed", "x"])
    assert capsys.readouterr() == ("", "")
    assert result.status == 2
    assert result.payload["status"] == 2
    assert result.payload["error"] == {
        "code": "usage",
        "message": "stackygit verify-all: error: argument --seed: invalid int value: 'x'"}
    assert result.markdown == f"error (usage): {result.payload['error']['message']}\n"


@pytest.mark.parametrize("argv", [["--help"], ["stabilizer", "--help"]])
def test_help_is_a_payload(capsys, argv):
    result = run_command(argv)
    assert capsys.readouterr() == ("", "")
    assert result.status == 0
    assert set(result.payload) == {"schema", "command", "status", "help"}
    assert result.payload["help"] == result.markdown
    assert result.markdown.startswith("usage: stackygit")
    assert main(argv) == 0
    assert capsys.readouterr() == (result.markdown, "")


def test_help_does_not_depend_on_the_terminal_width(monkeypatch):
    payloads = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        payloads.append(run_command(["stabilizer", "--help"]).json_text())
    assert payloads[0] == payloads[1]


def _fresh_process_json(argv) -> str:
    """The JSON text the CLI prints for ``argv`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(stackygit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "stackygit.cli", "--json", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return done.stdout


def test_shared_parser_carries_no_state(quintic_file):
    # the parser is built once per process; each call must answer as the
    # first call of a fresh process would
    assert build_parser() is build_parser()
    calibrate_argv = ["calibrate", "quintic"]
    for argv in (calibrate_argv + ["--seed", "3"], calibrate_argv):
        result = run_command(argv)
        assert result.status == 0
        assert result.json_text() + "\n" == _fresh_process_json(argv)
    usage = run_command(["verify-all", "--seed", "x"])
    assert (usage.status, usage.payload["error"]["code"]) == (2, "usage")
    chart_argv = ["chart", quintic_file, "I12"]
    result = run_command(chart_argv)
    assert result.status == 0
    assert result.json_text() + "\n" == _fresh_process_json(chart_argv)


_QUINTIC_RING = str(DEMO_RINGS / "quintic.ring")
_KNOWN = "known: quartic, quintic, sextic, cubic-curve, cubic-surface"
_CUT = "... (5000 characters)"


@pytest.mark.parametrize("argv, code, message", [
    (["decompose", "long-line.ring"], "ringspec-error",
     f"line 2: cannot parse 'zzzzzzzzzzzzzzzzzzzz'{_CUT}"),
    (["decompose", "short-line.ring"], "ringspec-error", "line 2: cannot parse 'zzz'"),
    (["chart", _QUINTIC_RING, "I" * 5000], "unknown-generator",
     f"no generator named 'IIIIIIIIIIIIIIIIIIII'{_CUT}"),
    (["chart", _QUINTIC_RING, "I9"], "unknown-generator", "no generator named 'I9'"),
    (["catalog", "x" * 5000], "unknown-family",
     f"unknown family 'xxxxxxxxxxxxxxxxxxxx'{_CUT}; {_KNOWN}"),
    (["catalog", "octic"], "unknown-family", f"unknown family 'octic'; {_KNOWN}"),
    (["decompose", "/" + "a" * 4999], "file-unreadable",
     f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}:"
     f" '/aaaaaaaaaaaaaaaaaaa'{_CUT}"),
    (["decompose", "/nonexistent/thing.ring"], "file-not-found",
     "[Errno 2] No such file or directory: '/nonexistent/thing.ring'"),
    (["stabilizer", "x^10" + " + x" * 1248 + " + y"], "bad-value",
     f"'x^10 + x + x + x + x'{_CUT} is not homogeneous"),
    (["stabilizer", "x^2 + y"], "bad-value", "'x^2 + y' is not homogeneous"),
    (["stabilizer", "x y" + "a" * 4999], "syntax-error",
     f"trailing input 'yaaaaaaaaaaaaaaaaaaa'{_CUT} (at position 2)"),
    (["stabilizer", "x y"], "syntax-error", "trailing input 'y' (at position 2)"),
    (["stabilizer", "x " + "9" * 4000], "syntax-error",
     "trailing input '99999999999999999999'... (4000 characters) (at position 2)"),
    (["stabilizer", "x " + "9" * 40], "syntax-error", f"trailing input {'9' * 40} (at position 2)"),
    (["stabilizer", "(x+y " + "b" * 5000], "syntax-error",
     f"expected ')', found 'bbbbbbbbbbbbbbbbbbbb'{_CUT} (at position 5)"),
    (["stabilizer", "(x+y b"], "syntax-error", "expected ')', found 'b' (at position 5)"),
    (["stabilizer", "(x+y " + "9" * 4000], "syntax-error",
     "expected ')', found '99999999999999999999'... (4000 characters) (at position 5)"),
    (["stabilizer", "(x+y 9"], "syntax-error", "expected ')', found 9 (at position 5)"),
], ids=["ring-line", "short-ring-line", "generator", "short-generator", "family",
        "short-family", "path", "short-path", "form", "short-form", "trailing-name",
        "short-trailing-name", "trailing-numeral", "short-trailing-numeral", "expected-name",
        "short-expected-name", "expected-numeral", "short-expected-numeral"])
def test_messages_do_not_echo_long_inputs(tmp_path, argv, code, message):
    # an input or token of 5,000 characters is cut by errors.excerpt; one of
    # at most 40 keeps its whole repr, and a numeral token stays unquoted
    (tmp_path / "long-line.ring").write_text("a : 1\n" + "z" * 5000 + "\n", encoding="utf-8")
    (tmp_path / "short-line.ring").write_text("a : 1\nzzz\n", encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith("line.ring") else a for a in argv]
    result = run_command(argv)
    assert result.status == 2
    assert result.payload["error"] == {"code": code, "message": message}


# -- the plain reader -----------------------------------------------------------

_TRICKY = ("--", "--json", "--seed", "--seed=3", "-h", "-5", "", "-h x", "--seed=3 x", "- x",
           "-x^2 + y^2", "3:-1")
_WORDS = (
    *cli._COMMANDS, *_TRICKY, "--help", "-5:1", "0", "1", "3", "-1", "+3", "\u0663", "x",
    "7" * 5000, "x" * 5000, "quintic", "sextic", "octic", "C3", "T", "I", "Q8", "I12", "1:2",
    "x^5 + y^5", "-", "--js", "--se", _QUINTIC_RING,
)
_GOOD = {"ringspec": [_QUINTIC_RING], "generator": ["I4", "I12"],
         "form": ["x^5 + y^5", "-x^2*y + y^3", "x*y"], "group": ["C3", "D4", "T", "I"],
         "alpha": ["0", "1"], "beta": ["0", "1"], "gamma": ["0", "1"],
         "params": ["1:2", "-5:1", "3:-1"], "family": ["quintic", "sextic"],
         "seed": ["1", "3"]}


def _drawn_argv(rng):
    """A command line built from the grammar, with "--json" zero to two
    times, "--" zero to two times among klein's pairs and the other words
    drawn mostly from ``_GOOD``, then changed at up to two places by words
    of ``_WORDS``."""
    def word(name):
        r = rng.random()
        return rng.choice(_GOOD[name] if r < 0.6 else _TRICKY if r < 0.8 else _WORDS)

    name = rng.choice(list(cli._COMMANDS))
    command = cli._COMMANDS[name]
    argv = ["--json"] * rng.choice((0, 1, 1, 2)) + [name]
    for positional in command.positionals:
        if positional.nargs == "*":
            pairs = [word("params") for _ in range(rng.randint(0, 3))]
            for _ in range(rng.choice((0, 1, 1, 2))):
                pairs.insert(rng.randint(0, len(pairs)), "--")
            argv += pairs
        else:
            argv.append(word(positional.name))
    if command.seed and rng.random() < 0.5:
        at = rng.randint(argv.index(name) + 1, len(argv))
        argv[at:at] = ["--seed", word("seed")]
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randint(0, len(argv))
        kind = rng.choice(("insert", "replace", "delete"))
        if kind != "insert" and at < len(argv):
            del argv[at]
        if kind != "delete":
            argv.insert(at, rng.choice(_WORDS))
    return argv


def _parsed(argv):
    try:
        return vars(build_parser().parse_args(argv))
    except (cli._UsageError, cli._HelpRequested):
        return None


def test_plain_reader_reads_what_argparse_reads(monkeypatch):
    # the reader answers None or argparse's namespace, and run_command's
    # JSON text does not depend on which of the two read the command line
    # (argparse's "--" rules are those of Python 3.11)
    monkeypatch.setattr(acceptance, "run_all", functools.cache(acceptance.run_all))
    rng = random.Random(4601)
    plain = []
    for _ in range(1000):
        argv = _drawn_argv(rng)
        args = cli._plain_args(argv)
        if args is not None:
            assert vars(args) == _parsed(argv), argv
            plain.append(argv)
    assert 250 < len(plain) < 600
    texts = [run_command(argv).json_text() for argv in plain]
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert [run_command(argv).json_text() for argv in plain] == texts


@pytest.mark.parametrize("argv", [
    ["--json", "--json", "catalog", "quintic"], ["catalog", "--", "quintic"],
    ["klein", "T", "1", "0", "0", "--", "1:2", "--", "3:4"], ["klein", "T", "-1", "0", "0"],
    ["klein", "T", "1", "0", "--", "0"], ["klein", "T", "1", "0", "0", "1:2", "--", "3:4"],
    ["calibrate", "quintic", "--seed=5"], ["calibrate", "quintic", "--se", "5"],
    ["calibrate", "quintic", "--seed", "1", "--seed", "2"], ["locus", "octic"],
    ["klein", "T", "x", "0", "0"], ["stabilizer", "-h x"], ["stabilizer", "-x"],
    ["chart", _QUINTIC_RING], ["decompose", "a", "b"], ["-h"], ["stabilizer", "--help"],
])
def test_plain_reader_leaves_the_rest_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_benchmark_traffic_is_plain():
    # every command line of the benchmark's operations is read without argparse
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", DEMO_RINGS.parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in ("klein", "stabilizer", "calibrate", "rings"):
        for op in workloads.build_ops(workload, 501, 15):
            args = cli._plain_args(op["argv"])
            assert args is not None and vars(args) == _parsed(op["argv"]), op["argv"]
