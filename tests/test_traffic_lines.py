"""scripts/traffic_lines.py lists the statements an operation list never runs."""

import ast
import importlib.util
import inspect
import textwrap
from pathlib import Path

from stackygit import cli
from stackygit.polynomials import MultiPoly

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "traffic_lines", ROOT / "scripts" / "traffic_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _first_statement(function):
    # (line, text) of the first statement of a function after its docstring
    lines, start = inspect.getsourcelines(function)
    node = ast.parse(textwrap.dedent("".join(lines))).body[0]
    first = node.body[ast.get_docstring(node) is not None]
    return start + first.lineno - 1, lines[first.lineno - 1].strip()


def test_one_rings_block_misses_the_immutability_guard(monkeypatch):
    traffic = _load()
    monkeypatch.chdir(ROOT)
    # one block of the rings workload: a few dozen millisecond operations
    report = traffic.never_ran(traffic.workload_argvs("rings", 1, seconds=1))
    guard = _first_statement(MultiPoly.__setattr__)
    assert guard[1] == 'raise AttributeError("MultiPoly is immutable")'
    assert guard in report["polynomials.py"]
    first = _first_statement(cli.run_command)
    assert first[1] == "args = _plain_args(argv)"
    assert first not in report["cli.py"]
    # every operation's payload is rendered, as the benchmark renders it
    writer = _first_statement(cli._json)
    assert writer[1] == "if isinstance(value, str):"
    assert writer not in report["cli.py"]
