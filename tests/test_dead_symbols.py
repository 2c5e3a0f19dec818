"""Every module-level name in the package is used somewhere in it, and
every exported name exists.

A helper or table that nothing reads is dead code that still looks
load-bearing, so one that outlives its last caller fails here. So does a
deleted function left behind in an `__all__` list. A public name counts as
used only when package code reads or imports it: being listed in `__all__`
or used by a test is not enough.
"""

import ast
import importlib
import types
from pathlib import Path

import hlpoly

PACKAGE = Path(hlpoly.__file__).parent


def _definitions(tree: ast.Module) -> set[str]:
    """Module-level names bound by def, class or assignment; dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def _references(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in the tree;
    a definition alone (def, class, assignment target) is not a reference."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced(sources: dict[str, str], private: bool = True) -> list[str]:
    """The private (or public) module-level names nothing in `sources` reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*map(_references, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name.startswith("_") == private and name not in used
    )


def _package_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_every_private_module_level_name_is_referenced():
    assert _unreferenced(_package_sources()) == []


def test_every_public_module_level_name_is_referenced():
    assert _unreferenced(_package_sources(), private=False) == []


def test_guard_sees_definitions_and_references():
    sources = {
        "a": "_TABLE = {1: 2}\n_USED = 3\ndef _helper():\n    return _USED\n",
        "b": "from .a import _helper\nclass _Dead:\n    pass\n_helper()\n",
    }
    assert _unreferenced(sources) == ["a._TABLE", "b._Dead"]


def test_public_guard_counts_imports_but_not_all_strings():
    sources = {
        "a": '__all__ = ["dead", "read", "imported"]\n'
        "dead = 1\nread = 2\ndef imported():\n    return read\n",
        "__init__": '__version__ = "1"\nfrom .a import imported\n',
    }
    assert _unreferenced(sources, private=False) == ["a.dead"]


def _unresolved_exports(module) -> list[str]:
    return [
        f"{module.__name__}.{name}"
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]


def test_every_all_entry_resolves():
    modules = [hlpoly] + [
        importlib.import_module(f"hlpoly.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if not path.stem.startswith("__")
    ]
    assert sum(hasattr(m, "__all__") for m in modules) >= 6
    assert [name for m in modules for name in _unresolved_exports(m)] == []


def test_export_guard_sees_a_missing_name():
    module = types.ModuleType("fake")
    module.__all__ = ["present", "gone"]
    module.present = 1
    assert _unresolved_exports(module) == ["fake.gone"]
