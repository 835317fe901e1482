"""Every public name has a caller outside the tests.

A name in a submodule's ``__all__`` stays only if the package itself, a demo
or a benchmark workload refers to it somewhere other than its own definition
and the ``__all__`` list.  The re-exports of ``shocklab/__init__.py`` are not
callers, and neither is the body of a public name that has no caller itself.
A name that only tests use belongs in the tests.
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

#: public names that only tests call, each kept as the tests' reference
ALLOWED = {
    "solver.simulate": "the bare march that run_experiment is compared with bit for bit",
    "inequalities.r_delta": "the oracle of the batched R_delta kernel's value test",
    "inequalities.DiscretizedW": "the discretized W that r_delta reads",
    "solver.read_checkpoint": "the one reader of the file simulate --checkpoint writes",
}


def _names(node):
    """The names and attributes read anywhere in node."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


@pytest.fixture(scope="module")
def called():
    """The names that code outside the tests reaches: every module-level
    statement, every definition that is not public, and, until nothing
    changes, the body of each public name already reached."""
    public = {name for names in PUBLIC.values() for name in names}
    live, pending = set(), {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs = _names(node) - {node.name}
                if path.parent == PACKAGE and node.name in public:
                    pending[node.name] = refs
                else:
                    live |= refs
            elif not _is_all(node):
                live |= _names(node)
    while reached := [name for name in pending if name in live]:
        for name in reached:
            live |= pending.pop(name)
    return live


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_name_has_a_caller_outside_the_tests(module, called):
    orphans = [name for name in PUBLIC[module]
               if name not in called and f"{module}.{name}" not in ALLOWED]
    assert not orphans, f"shocklab.{module}: only tests call {orphans}"


def test_every_allowed_name_is_public_and_has_no_other_caller(called):
    for key in ALLOWED:
        module, name = key.split(".")
        assert name in PUBLIC[module], key
        assert name not in called, f"{key} has a caller now; drop it from ALLOWED"
