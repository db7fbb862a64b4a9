"""Every name a module of the package imports is used in that module, no
module imports a private name of ``polynomials``, no module-level
function, class or constant is defined in two modules, every private
module-level function, class and constant is used somewhere in the
package, and every public module-level function and class is used by the
package, the benchmark or the scripts."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "stackygit"


def reads(node):
    """How often each name is read under ``node``, as a name or an
    attribute."""
    counts = {}
    for n in ast.walk(node):
        name = n.id if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store) else \
            n.attr if isinstance(n, ast.Attribute) else None
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    return counts


def total_reads(trees):
    total = {}
    for tree in trees.values():
        for name, count in reads(tree).items():
            total[name] = total.get(name, 0) + count
    return total


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


def private_imports(tree, module):
    """The ``_private`` names that ``tree`` imports from the package module
    ``module``, relatively or by its full name."""
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module, node.level) in ((module, 1), (f"stackygit.{module}", 0))
                  for alias in node.names if alias.name.startswith("_"))


def test_private_imports_are_found():
    tree = ast.parse("from .polynomials import BinaryForm, _subresultants\n"
                     "from stackygit.polynomials import _shift\n"
                     "from .cyclotomic import _over\n")
    assert private_imports(tree, "polynomials") == ["_shift", "_subresultants"]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_polynomials(path):
    # the subresultant layer and its helpers stay inside polynomials.py
    assert private_imports(ast.parse(path.read_text(encoding="utf-8")), "polynomials") == []


def defined(node):
    """The names a module-level statement defines: a function's or class's
    name, or the names its assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def defined_twice(trees):
    """``(name, modules)`` for each name, dunders aside, that a
    module-level function, class or assignment defines in more than one
    of the modules ``trees`` (name -> ast)."""
    where = {}
    for module, tree in trees.items():
        for node in tree.body:
            for name in defined(node):
                if not name.startswith("__"):
                    where.setdefault(name, set()).add(module)
    return sorted((name, sorted(modules)) for name, modules in where.items()
                  if len(modules) > 1)


def test_names_defined_twice_are_found():
    trees = {"a.py": ast.parse("def f(): pass\nclass C: pass\n_K = 1\n__all__ = []\n"
                               "from b import g\n"),
             "b.py": ast.parse("def g(): pass\nC = 2\n__all__ = []\n"
                               "def h():\n    f = 1\n"),
             "c.py": ast.parse("_K: int = 3\ndef f(): pass\n")}
    assert defined_twice(trees) == [("C", ["a.py", "b.py"]), ("_K", ["a.py", "c.py"]),
                                    ("f", ["a.py", "c.py"])]


def test_no_name_is_defined_in_two_modules():
    # one body per function, class and constant: a second module imports it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    assert defined_twice(trees) == []


def unreferenced_helpers(trees):
    """The module-level functions, classes and constants (``_NAME = ...``)
    named ``_private`` (not dunder) in the modules ``trees`` (name -> ast)
    that no name or attribute in the modules reads outside their own
    definition."""
    total = total_reads(trees)
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


def unread_public_names(trees, users):
    """The public module-level functions and classes of the modules
    ``trees`` (name -> ast) that no name or attribute in ``trees`` or in
    ``users`` reads outside their own definition.

    Methods are not checked: several classes share method names such as
    ``evaluate``, ``inverse`` and ``monomial``, so a read of an attribute
    cannot tell which class's method it is."""
    total = total_reads({**trees, **users})
    return sorted(
        (module, node.name) for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and total.get(node.name, 0) == reads(node).get(node.name, 0))


def test_unread_public_names_are_found():
    trees = {"a.py": ast.parse("def used(): pass\ndef dead(): dead()\n"
                               "class Used: pass\nclass Dead: pass\n"
                               "def _private(): pass\nprint(Used)\n")}
    users = {"b.py": ast.parse("import a\na.used()\n")}
    assert unread_public_names(trees, users) == [("a.py", "Dead"), ("a.py", "dead")]


def test_every_public_name_is_used():
    # reads from the tests do not count: a name only the tests read is dead
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    users = {f"{d.name}/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
             for d in (ROOT / "perfbench", ROOT / "scripts") for path in sorted(d.glob("*.py"))}
    assert unread_public_names(trees, users) == []


def unread_methods(trees, users, exempt=()):
    """The methods of the classes in ``trees`` (name -> ast), dunders
    aside, whose name no other class of ``trees`` defines and that no name
    or attribute in ``trees`` or ``users`` reads outside their own
    definition; ``exempt`` holds ``(class, method)`` pairs that are called
    from outside the package or kept on purpose."""
    total = total_reads({**trees, **users})
    methods = [(module, cls.name, node) for module, tree in trees.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    classes_by_name = {}
    for _, cls, node in methods:
        classes_by_name.setdefault(node.name, set()).add(cls)
    return sorted(
        (module, f"{cls}.{node.name}") for module, cls, node in methods
        if len(classes_by_name[node.name]) == 1 and (cls, node.name) not in exempt
        and total.get(node.name, 0) == reads(node).get(node.name, 0))


def test_unread_methods_are_found():
    trees = {"a.py": ast.parse(
        "class A:\n    def used(self): pass\n    def dead(self): self.dead()\n"
        "    def shared(self): pass\n    def kept(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "class B:\n    def shared(self): pass\n")}
    users = {"b.py": ast.parse("import a\na.A().used()\n")}
    assert unread_methods(trees, users, exempt={("A", "kept")}) == [("a.py", "A.dead")]


#: argparse calls the parser's overrides; ``PointW.rescaled`` is the tests'
#: reference for weighted-projective equality, as its docstring says.
_EXEMPT_METHODS = {("_ArgumentParser", "_get_formatter"), ("_ArgumentParser", "error"),
                   ("_ArgumentParser", "print_help"), ("PointW", "rescaled")}


def test_every_method_is_used():
    # as for public names, reads from the tests do not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    users = {f"{d.name}/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
             for d in (ROOT / "perfbench", ROOT / "scripts") for path in sorted(d.glob("*.py"))}
    assert unread_methods(trees, users, _EXEMPT_METHODS) == []
