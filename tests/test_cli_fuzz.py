"""A derandomised fuzz guard for the CLI: grammar-built ``stabilizer`` and
``klein`` inputs and mutated ring specs never raise, exit with status 0 to
3, and carry a structured ``error.code`` whenever the status is 2 or 3."""

from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stackygit.cli import run_command

DEMO_RINGS = sorted((Path(__file__).resolve().parent.parent / "demos" / "rings").glob("*.ring"))

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_structured(result):
    assert result.status in (0, 1, 2, 3)
    if result.status in (2, 3):
        code = result.payload["error"]["code"]
        assert isinstance(code, str) and code


_SCALARS = st.sampled_from(("1", "2", "-3", "1/2", "i", "sqrtm3", "zeta(5)", "zeta(9)",
                            "zeta(12)", "0", "zeta(0)", "zeta(400)"))
_LINEAR = st.builds(lambda a, b: f"({a}*x + {b}*y)", _SCALARS, _SCALARS)
_FACTOR = st.one_of(
    st.sampled_from(("x", "y")),
    st.builds(lambda base, e: f"{base}^{e}",
              st.one_of(st.sampled_from(("x", "y")), _LINEAR), st.integers(0, 14)),
    st.builds(lambda n, s: f"(x^{n} + {s}*y^{n})", st.integers(1, 12), _SCALARS),
)
_TERM = st.builds(lambda c, fs: "*".join([c] + fs), _SCALARS,
                  st.lists(_FACTOR, min_size=1, max_size=3))
_FORM = st.builds(lambda first, rest: first + "".join(rest), _TERM,
                  st.lists(st.builds(lambda op, t: op + t, st.sampled_from((" + ", " - ")), _TERM),
                           max_size=2))


@FUZZ
@given(_FORM, st.sampled_from(("",) * 6 + ("$", ")", "^")))
def test_stabilizer_inputs_fail_structurally(text, junk):
    _assert_structured(run_command(["--json", "stabilizer", text + junk]))


_GROUP = st.sampled_from(("C3", "C12", "D4", "D1", "T", "O", "I", "C0", "X", "c5"))
_EXPONENT = st.sampled_from(("0", "1", "2", "-1", "a"))
_PAIR = st.one_of(
    st.builds(lambda lam, mu: f"{lam}:{mu}", st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from(("1:", ":1", "1/2:3", "i:1", "1:2:3", "x")),
)


@FUZZ
@given(_GROUP, st.lists(_EXPONENT, min_size=3, max_size=3), st.lists(_PAIR, max_size=2))
def test_klein_inputs_fail_structurally(group, exponents, pairs):
    _assert_structured(run_command(["--json", "klein", group, *exponents, *pairs]))


_INSERTS = st.sampled_from((":", "^", "*", "0", "9", "#", "\n", "(", " ", "x", "\n\n",
                            "relation: ", "field: zeta(8)\n", "I2 : 0\n", "J : 7\n"))
_MUTATION = st.tuples(st.sampled_from(("insert", "delete", "duplicate")),
                      st.floats(0, 1), _INSERTS)


def _mutated(text, mutations):
    for kind, where, insert in mutations:
        at = int(where * len(text))
        if kind == "insert":
            text = text[:at] + insert + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 3:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            line = lines[int(where * (len(lines) - 1))]
            text += line if line.endswith("\n") else "\n" + line
    return text


@FUZZ
@given(st.sampled_from(DEMO_RINGS), st.lists(_MUTATION, max_size=3),
       st.sampled_from(("decompose", "rigidify", "chart")))
def test_mutated_ring_specs_fail_structurally(tmp_path, ring, mutations, command):
    path = tmp_path / "mutated.ring"
    path.write_text(_mutated(ring.read_text(), mutations))
    extra = ["I4"] if command == "chart" else []
    _assert_structured(run_command(["--json", command, str(path), *extra]))
