"""Every public name, and every public method or property of a public
class, has a caller outside the tests.

A name in a submodule's ``__all__`` stays only if the package itself, a demo
or a benchmark workload refers to it somewhere other than its own definition
and the ``__all__`` list; a public method or property of such a class stays
only if its class is reached and its name is read somewhere else.  The
re-exports of ``shocklab/__init__.py`` are not callers, and neither is the
body of a public name that has no caller itself.  Names are matched as
names: an attribute read counts for every method of that name.  A name that
only tests use belongs in the tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "shocklab"
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "demos").glob("*.py"))
SOURCES += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]

MODULES = [importlib.import_module(f"shocklab.{p.stem}") for p in SOURCES if p.parent == PACKAGE]
PUBLIC = {m.__name__.split(".")[1]: m.__all__ for m in MODULES if hasattr(m, "__all__")}
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}

#: public names (and "Class.method") that only tests call, each kept as the
#: tests' reference; an entry for a class covers its methods
ALLOWED = {}


def _names(node):
    """The names and attributes read anywhere in node."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _public_methods(node):
    """The public methods and properties defined in a class body."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [sub for sub in node.body
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]


def _public_keys(module):
    """The public names of a module and "Class.method" for each public
    method or property of its public classes."""
    keys = list(PUBLIC[module])
    for node in TREES[module].body:
        if getattr(node, "name", None) in PUBLIC[module]:
            keys += [f"{node.name}.{sub.name}" for sub in _public_methods(node)]
    return keys


@pytest.fixture(scope="module")
def called():
    """The public names and "Class.method" keys that code outside the tests
    reaches: every module-level statement and every definition that is not
    public is read, and, until nothing changes, so is the body of each
    public name already reached (of a class, all but its public methods)
    and of each public method whose class is reached and whose name is read."""
    public = {name for names in PUBLIC.values() for name in names}
    live, pending = set(), {}
    for path in SOURCES:
        for node in TREES[path.stem].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE and node.name in public:
                    methods = _public_methods(node)
                    pending[node.name] = set().union(
                        *(_names(sub) for sub in ast.iter_child_nodes(node)
                          if sub not in methods)) - {node.name}
                    for sub in methods:
                        pending[f"{node.name}.{sub.name}"] = _names(sub)
                else:
                    live |= _names(node) - {node.name}
            elif not _is_all(node):
                live |= _names(node)
    reached = set()

    def reachable(key):
        cls, _, name = key.rpartition(".")
        return name in live and (not cls or cls in reached)

    while new := [key for key in pending if reachable(key)]:
        for key in new:
            reached.add(key)
            live |= pending.pop(key)
    return reached


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_name_has_a_caller_outside_the_tests(module, called):
    orphans = [key for key in _public_keys(module) if key not in called
               and f"{module}.{key}" not in ALLOWED
               and f"{module}.{key.partition('.')[0]}" not in ALLOWED]
    assert not orphans, f"shocklab.{module}: only tests call {orphans}"


def test_every_allowed_name_is_public_and_has_no_other_caller(called):
    for key in ALLOWED:
        module, name = key.split(".", 1)
        assert name in _public_keys(module), key
        assert name not in called, f"{key} has a caller now; drop it from ALLOWED"
