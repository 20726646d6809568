"""Every name a module of the package imports is used in that module,
and the library's tests import nothing from the benchmark harness.

No linter ships with the project; this AST walk catches the imports a
deletion leaves dangling.  ``__init__.py`` imports only to re-export.
The tests must run in a checkout without ``perfbench/``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nsdeg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# this module names the benchmark directory to list its modules
TESTS = sorted(p for p in Path(__file__).resolve().parent.glob("*.py") if p.name != Path(__file__).name)
BENCH_MODULES = {"perfbench", *(p.stem for p in (ROOT / "perfbench").glob("*.py"))}


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


def benchmark_references(source: str, modules: set[str] = BENCH_MODULES) -> list[str]:
    """Imports of a benchmark module, and string literals naming the
    benchmark directory, as a path put on ``sys.path`` would, by line;
    docstrings are prose and are left out."""
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] in modules]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in modules:
            found.append((node.lineno, f"import {node.module}"))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "perfbench" in node.value
            and id(node) not in docstrings
        ):
            found.append((node.lineno, repr(node.value)))
    return [f"{text} (line {line})" for line, text in sorted(found)]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_do_not_reach_into_the_benchmark(path):
    assert benchmark_references(path.read_text(encoding="utf-8")) == []


def test_benchmark_reference_is_reported():
    source = (
        '"""Runs without perfbench."""\nimport sys\nsys.path.insert(0, "perfbench")\n'
        "from workloads import is_known_defect\nimport perfbench.tracer\nfrom statistics import mean\n"
    )
    assert benchmark_references(source, {"perfbench", "workloads", "tracer"}) == [
        "'perfbench' (line 3)",
        "import workloads (line 4)",
        "import perfbench.tracer (line 5)",
    ]
