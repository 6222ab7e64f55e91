"""No module under ``src/gpstable`` or ``tests`` imports a name it never uses.

A plain ``ast`` scan: every name an import binds must be read somewhere in
the same module, appear in a string annotation, or be listed in
``__all__``.  Package ``__init__.py`` files are skipped, since importing
there is how the public names are re-exported.  A second scan keeps
``dataclasses`` out of every module of the package, and a third requires
that the package builds every tuple at its exact size.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    p
    for d in (ROOT / "src" / "gpstable", ROOT / "tests")
    for p in d.rglob("*.py")
    if p.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "gpstable").rglob("*.py"))


def _bound_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= _used_names(ast.parse(const.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(line, name) for line, name in _bound_names(tree) if name not in used]


def test_scan_sees_modules():
    assert any(p.name == "algebra.py" for p in SCANNED)
    assert any(p.name == "test_imports.py" for p in SCANNED)


def test_scanner_flags_and_honours():
    source = (
        "import os\n"
        "from typing import Sequence, Mapping\n"
        "from x import exported\n"
        "__all__ = ['exported']\n"
        "def f(m: 'Mapping[str, int]'):\n"
        "    return m\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "Sequence")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SCANNED
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def imported_modules(source: str) -> set[str]:
    """The top-level package of every module an ``import`` statement names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scanner_sees_every_import_form():
    source = "import dataclasses.x\nfrom dataclasses import field\nfrom . import y\n"
    assert imported_modules(source) == {"dataclasses"}


def test_package_never_imports_dataclasses():
    """The records are named tuples or slots classes: ``dataclasses`` (and
    the ``inspect`` it pulls in) would add to the import time of every CLI
    command."""
    assert any(p.name == "__init__.py" for p in PACKAGE)
    found = [
        str(path.relative_to(ROOT))
        for path in PACKAGE
        if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert not found, "imports dataclasses:\n" + "\n".join(found)


GUESSED_LENGTH_CALLS = {"map", "filter", "zip", "accumulate"}


def guessed_size_tuples(source: str) -> list[int]:
    """Lines of the ``tuple(...)`` calls over a generator expression or over
    a ``map``, ``filter``, ``zip`` or ``accumulate`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and node.args
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp):
            found.append(node.lineno)
        elif isinstance(arg, ast.Call):
            func = arg.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in GUESSED_LENGTH_CALLS:
                found.append(node.lineno)
    return found


def test_tuple_scanner_flags_and_honours():
    source = (
        "a = tuple(x for x in y)\n"
        "b = tuple(map(f, y))\n"
        "c = tuple(itertools.accumulate(y))\n"
        "d = tuple([x for x in y])\n"
        "e = tuple(sorted(x for x in y))\n"
        "f = tuple(zip(y, z))\n"
        "g = tuple(s.split('.'))\n"
    )
    assert guessed_size_tuples(source) == [1, 2, 3, 6]


def test_package_builds_tuples_at_exact_size():
    """``tuple()`` over an iterator of unknown length allocates a tuple at a
    guessed length (10 slots by default) and shrinks it in place at the end,
    so every such call moves a tuple from CPython's 10-slot free list to a
    smaller one.  The small free lists then fill to their cap, and they are
    emptied only by a full (generation 2) collection.  Since the pipeline
    leaves no cyclic garbage (``tests/test_cyclic_garbage.py``), such
    collections are rare, and the filled free lists showed as a higher peak
    RSS.  A list has its exact length, so ``tuple([...])`` allocates exactly."""
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE
        for line in guessed_size_tuples(path.read_text(encoding="utf-8"))
    ]
    assert not found, "tuple() of an iterator, build a list first:\n" + "\n".join(found)
