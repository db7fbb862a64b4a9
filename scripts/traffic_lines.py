"""Statements of ``src/stackygit`` that the benchmark's operations never run.

Usage, from any directory::

    python3 scripts/traffic_lines.py [--seeds 501]

For each benchmark workload and seed it runs every operation of
``perfbench/workloads.build_ops(workload, seed, 15)`` through
``stackygit.cli.run_command`` and renders each result's JSON text, writing
the operations' input files under ``perfbench/.work/`` first as
``perfbench/run.py`` does, then runs ``--json verify-all --seed 7``, all
under one :func:`sys.settrace` line tracer.  It prints, per module of
``src/stackygit``, the statements inside functions that never ran.
Docstrings, ``def``, ``class`` and imports are not counted, nor are module
and class bodies, which run at import.  A
statement ran when a line event fired on its header: the lines before its
first body statement for a compound statement (``if``, ``for``, ``try``,
...), all of its lines otherwise.  ``coverage`` is not needed.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import os
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "scripts"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from payload_digests import workload_argvs  # noqa: E402
from record_bench import WORKLOADS, parse_seeds  # noqa: E402

import stackygit  # noqa: E402
from stackygit.cli import run_command  # noqa: E402

VERIFY_ALL = ["--json", "verify-all", "--seed", "7"]


def _children(node):
    # the statements directly inside a statement, through except and case
    # clauses
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _children(child)
        elif isinstance(child, ast.stmt):
            yield child


def _statements(body):
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # its own function bodies are walked separately
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        yield from _statements(list(_children(stmt)))


def function_statements(source: str):
    """``(statement, header lines)`` for every statement inside a function
    of the module ``source``, docstrings excepted."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body
        if ast.get_docstring(fn, clean=False) is not None:
            body = body[1:]
        for stmt in _statements(body):
            inner = getattr(stmt, "body", None)
            end = max(stmt.lineno + 1, inner[0].lineno) if inner else stmt.end_lineno + 1
            out.append((stmt, range(stmt.lineno, end)))
    return out


def package_modules():
    """{file name: module} for every module of the stackygit package."""
    modules = {}
    for info in pkgutil.iter_modules(stackygit.__path__):
        module = importlib.import_module(f"stackygit.{info.name}")
        modules[Path(module.__file__).name] = module
    return {"__init__.py": stackygit, **modules}


def traced_lines(argvs, modules):
    """{file name: set of line numbers} on which a line event fired while
    ``run_command`` ran each argument list in turn and its result rendered
    its JSON text, as the benchmark and the payload digests do."""
    by_path = {module.__file__: set() for module in modules.values()}

    def on_call(frame, event, arg):
        lines = by_path.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for argv in argvs:
            run_command(argv).json_text()
    finally:
        sys.settrace(previous)
    return {name: by_path[module.__file__] for name, module in modules.items()}


def never_ran(argvs):
    """{file name: [(line, first line of text)]}: the function statements of
    every stackygit module on whose header no line event fired."""
    modules = package_modules()
    seen = traced_lines(argvs, modules)
    report = {}
    for name, module in sorted(modules.items()):
        source = Path(module.__file__).read_text(encoding="utf-8")
        text = source.splitlines()
        report[name] = sorted((stmt.lineno, text[stmt.lineno - 1].strip())
                              for stmt, header in function_statements(source)
                              if seen[name].isdisjoint(header))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="501", help="e.g. 501 or 501-502")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    argvs = [a for workload in WORKLOADS for seed in parse_seeds(args.seeds)
             for a in workload_argvs(workload, seed)]
    for name, missed in never_ran(argvs + [VERIFY_ALL]).items():
        print(f"{name}: {len(missed)} statements never ran")
        for line, text in missed:
            print(f"    {line:5d}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
