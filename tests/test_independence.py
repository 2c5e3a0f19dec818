"""The series path must not reach the Stirling-sum path.

THM1-THM3 compare the Stirling sums with the generating-function expansion;
that is an audit only while `series` computes its values without
`stirling` or `sequences`.
"""

import ast
from pathlib import Path

import hlpoly

FORBIDDEN = {"stirling", "sequences"}


def _imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            # `from . import stirling` and `from hlpoly import sequences`
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _reaches_forbidden(name: str) -> bool:
    return bool(FORBIDDEN & set(name.split(".")))


def test_series_imports_neither_stirling_nor_sequences():
    path = Path(hlpoly.__file__).parent / "series.py"
    imported = _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    assert imported, "series.py should at least import exact"
    assert sorted(n for n in imported if _reaches_forbidden(n)) == []


def test_guard_sees_every_import_form():
    for source in (
        "from .stirling import stirling2",
        "from . import sequences",
        "import hlpoly.stirling",
        "from hlpoly import sequences as s",
    ):
        assert any(map(_reaches_forbidden, _imported_modules(ast.parse(source))))
    allowed = _imported_modules(ast.parse("from .exact import pow_rat"))
    assert not any(map(_reaches_forbidden, allowed))
