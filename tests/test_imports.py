"""Every name a module under src/ imports is used in that module, every
import sits at module level, every private function, class or method is
referred to somewhere in the package, and every name in a module's __all__ is
read by the package, re-exported by it or wrapped by the benchmark's tracer.

There is no linter in the toolchain, and a deletion can leave an import or a
private helper behind that nothing reads any more; this stdlib ``ast`` pass
shows it.  An import inside a function usually hides an import cycle between
modules.
"""

import ast
import pathlib
from collections import Counter

import pytest

from test_api_surface import TRACED

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "loewner"
# a package's __init__ imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_level_imports(source: str) -> list:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, functions) for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_the_pass_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import inf, pi\nprint(pi)\n") == [
        (1, "os"), (2, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_pass_sees_a_function_level_import():
    source = ("import os\n"
              "def f():\n"
              "    from math import pi\n"
              "    def g():\n"
              "        import sys\n"
              "    return os, pi\n")
    assert function_level_imports(source) == [3, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_at_module_level(path):
    assert function_level_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree) -> list:
    """Module-level private functions and classes, and private methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and _private(node.name):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [m for m in node.body if isinstance(m, functions) and _private(m.name)]
    return out


def references(tree) -> Counter:
    """How often each name is read as a name, an attribute or an import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def orphaned_private_code(sources: dict) -> list:
    """(module, line, name) of each private definition that nothing outside
    its own body refers to, over a {module: source} package."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((references(tree) for tree in trees.values()), Counter())
    return sorted((name, d.lineno, d.name) for name, tree in trees.items()
                  for d in private_definitions(tree)
                  if used[d.name] == references(d)[d.name])


def test_the_pass_sees_orphaned_private_code():
    sources = {"a.py": ("def _used():\n    return 1\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "class _Orphan:\n    pass\n"
                        "class Public:\n"
                        "    def _method(self):\n        return _used()\n"
                        "    def __init__(self):\n        pass\n"),
               "b.py": "from .a import Public\nPublic()._method()\n"}
    assert orphaned_private_code(sources) == [("a.py", 3, "_recursive"), ("a.py", 5, "_Orphan")]


def test_package_has_no_orphaned_private_code():
    assert orphaned_private_code({p.name: p.read_text() for p in SOURCES}) == []


def exported(tree) -> dict:
    """{name: the module-level statement that defines it} for each name in the
    module's __all__."""
    defs, names = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        for target in getattr(node, "targets", ()):
            if isinstance(target, ast.Name) and target.id == "__all__":
                names = [c.value for c in node.value.elts]
            elif isinstance(target, ast.Name):
                defs[target.id] = node
    return {name: defs[name] for name in names}


def unread_public_names(sources: dict, kept=frozenset()) -> list:
    """(module, line, name) of each name in a module's __all__ that nothing in
    the package reads besides its own definition, the package's re-exports
    included, and that is not in ``kept``, a set of (module, name)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((references(tree) for tree in trees.values()), Counter())
    return sorted((module, d.lineno, name) for module, tree in trees.items()
                  for name, d in exported(tree).items()
                  if used[name] == references(d)[name] and (module, name) not in kept)


def test_the_pass_sees_an_unread_public_name():
    sources = {"a.py": ('__all__ = ["LIMIT", "read", "exported", "traced", "unread", "again"]\n'
                        "LIMIT = 3\n"
                        "def read():\n    return LIMIT\n"
                        "def exported():\n    pass\n"
                        "def traced():\n    pass\n"
                        "def unread():\n    pass\n"
                        "def again(n):\n    return again(n - 1)\n"),
               "b.py": "from .a import read\nread()\n",
               "__init__.py": "from .a import exported\n"}
    assert unread_public_names(sources, {("a.py", "traced")}) == [
        ("a.py", 9, "unread"), ("a.py", 11, "again")]


def test_every_public_name_is_read_exported_or_traced():
    # the names the benchmark's tracer wraps need not be read by the package
    traced = {(module.__name__.rsplit(".", 1)[-1] + ".py", name)
              for module, names in TRACED.items() for name in names}
    assert unread_public_names({p.name: p.read_text() for p in SOURCES}, traced) == []
