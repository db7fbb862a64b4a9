"""Every name a module of the package imports is used in that module, and
every private module-level function and constant is used somewhere in the
package."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "stackygit"


def unused_imports(tree):
    """Names bound by import statements that the module never reads and
    does not list in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(lcm(2, 3))\n")
    assert unused_imports(tree) == [(1, "os"), (2, "gcd")]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def unreferenced_helpers(trees):
    """The module-level functions and constants (``_NAME = ...``) named
    ``_private`` (not dunder) in the modules ``trees`` (name -> ast) that no
    name or attribute in the modules reads outside their own definition."""
    def reads(node):
        counts = {}
        for n in ast.walk(node):
            name = n.id if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store) else \
                n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def defined(node):
        if isinstance(node, ast.FunctionDef):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]

    total = {}
    for tree in trees.values():
        for name, count in reads(tree).items():
            total[name] = total.get(name, 0) + count
    return sorted(
        (module, name) for module, tree in trees.items() for node in tree.body
        for name in defined(node)
        if name.startswith("_") and not name.startswith("__")
        and total.get(name, 0) == reads(node).get(name, 0))


def test_unreferenced_helpers_are_found():
    trees = {"a.py": ast.parse("def _used(): pass\ndef _self(): _self()\n"
                               "_READ = 1\n_DEAD = 2\n_TYPED: int = 3\n"
                               "_A, _B = _READ, 4\nprint(_B)\n"),
             "b.py": ast.parse("import a\na._used()\nprint(a._TYPED)\n")}
    assert unreferenced_helpers(trees) == [("a.py", "_A"), ("a.py", "_DEAD"), ("a.py", "_self")]


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    assert unreferenced_helpers(trees) == []
