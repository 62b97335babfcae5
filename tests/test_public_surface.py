"""The public surface of cepgeo is what the program runs.

Every public top-level ``def`` and ``class`` in ``src/cepgeo`` must be
referenced, as a name or an attribute, from the package outside its own
definition or from the benchmark in ``perfbench/``, and every public method
and property of a package class must be read as an attribute there, outside
its own body (dataclass fields aside: ``dataclasses.asdict`` reads them
without naming them).  API that only tests call belongs in the tests.
Every private top-level ``def`` and ``class`` must be referenced from the
package itself, so a helper cannot outlive its last caller.  Every
top-level assignment, public or private (dunders aside), must be read there
too, so a constant cannot outlive its last reader.  No module imports or
reads another module's private name, so the oracle cannot borrow a
closed-form helper by the back door.
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


def _attributes(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _reads(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


TREES = {path: _parse(path) for path in MODULES}
PACKAGE_REFS = sum((_references(tree) for tree in TREES.values()), Counter())
BENCH_TREES = [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
BENCH_REFS = sum((_references(tree) for tree in BENCH_TREES), Counter())
PACKAGE_ATTRS = sum((_attributes(tree) for tree in TREES.values()), Counter())
BENCH_ATTRS = sum((_attributes(tree) for tree in BENCH_TREES), Counter())
READS = sum((_reads(tree) for tree in [*TREES.values(), *BENCH_TREES]), Counter())


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
def test_public_class_members_are_used(path):
    unused = [
        f"{cls.name}.{node.name}"
        for cls in TREES[path].body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and PACKAGE_ATTRS[node.name] - _attributes(node)[node.name] <= 0
        and not BENCH_ATTRS[node.name]
    ]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_private_definitions_are_used(path):
    # references from the tests do not count
    unused = [
        node.name
        for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and PACKAGE_REFS[node.name] - _references(node)[node.name] <= 0
    ]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_level_names_are_read(path):
    assigned = [
        name.id
        for node in TREES[path].body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    ]
    unread = [
        name
        for name in assigned
        if not (name.startswith("__") and name.endswith("__")) and not READS[name]
    ]
    assert unread == []


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_reads_another_modules_private_names(path):
    stems = {p.stem for p in MODULES}
    borrowed = [
        ast.unparse(node)
        for node in ast.walk(TREES[path])
        if (isinstance(node, ast.ImportFrom) and any(_private(a.name) for a in node.names))
        or (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            # a module read by name, as ``filters._x`` or ``cepgeo.filters._x``
            and (getattr(node.value, "id", None) or getattr(node.value, "attr", None)) in stems
        )
    ]
    assert borrowed == []
