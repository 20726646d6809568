"""Every name a module of the package imports is used in that module.

No linter ships with the project; this AST walk catches the imports a
deletion leaves dangling.  ``__init__.py`` imports only to re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nsdeg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # annotations written as strings, such as -> "RelativeIdeal", are parsed too
    annotations = [
        ann
        for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str)
    ]
    trees = [tree, *(ast.parse(ann.value, mode="eval") for ann in annotations)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = (
        "from os import path, sep\nimport json\nimport a.b\nfrom t import T\n\n"
        "def f(x: 'T') -> str:\n    return sep + a + 'json'\n"
    )
    assert unused_imports(source) == ["json (line 2)", "path (line 1)"]
