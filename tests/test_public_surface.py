"""The public surface of cepgeo is what the program runs.

Every public top-level ``def`` and ``class`` in ``src/cepgeo`` must be
referenced, as a name or an attribute, from the package outside its own
definition or from the benchmark in ``perfbench/``.  API that only tests
call belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cepgeo").glob("*.py"))


def _references(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


TREES = {path: _parse(path) for path in MODULES}
PACKAGE_REFS = sum((_references(tree) for tree in TREES.values()), Counter())
BENCH_REFS = sum(
    (_references(_parse(path)) for path in sorted((ROOT / "perfbench").glob("*.py"))), Counter()
)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_public_definitions_are_used(path):
    unused = [
        node.name
        for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and PACKAGE_REFS[node.name] - _references(node)[node.name] <= 0
        and not BENCH_REFS[node.name]
    ]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_environment_knobs(path):
    # settings come from options and arguments; thread counts from the BLAS variables
    reads = [
        node.lineno
        for node in ast.walk(TREES[path])
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
        and node.attr in ("environ", "getenv")
    ]
    assert reads == []
