"""Every name ``gpstable`` exports has a caller outside the tests.

A plain ``ast`` scan, like ``test_imports.py``: each name imported into
``gpstable/__init__.py`` must be read somewhere in ``src/gpstable`` outside
its own ``def`` or ``class`` (a call, an attribute, an annotation), or be
named in a file under ``perfbench/``, or be on the allowlist below with a
reason.  Imports and the package ``__init__`` do not count as reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gpstable"

ALLOWED = {
    "cycle_predicates": "the only home of the repetition-free test of a cycle",
    "CyclePredicates": "the value cycle_predicates returns",
}


def exported_names(init_source: str) -> list[str]:
    return [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(sources: list[str]) -> dict[str, list[frozenset[str]]]:
    """Every name read as a bare name or an attribute, mapped to the names
    of the ``def``s and ``class``es enclosing each read."""
    found: dict[str, list[frozenset[str]]] = {}
    stack = [(ast.parse(src), frozenset()) for src in sources]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, DEFS):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            found.setdefault(node.id, []).append(inside)
        elif isinstance(node, ast.Attribute):
            found.setdefault(node.attr, []).append(inside)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return found


def read_in_package(name: str, found, outside=frozenset()) -> bool:
    """Whether ``name`` is read outside its own body and those in ``outside``."""
    skip = {name, *outside}
    return any(not inside & skip for inside in found.get(name, ()))


def uncalled_exports(init_source: str, sources: list[str], bench: str) -> list[str]:
    found = reads(sources)
    return [
        name
        for name in exported_names(init_source)
        if name not in ALLOWED
        and not read_in_package(name, found)
        and not re.search(rf"\b{re.escape(name)}\b", bench)
    ]


def package_sources() -> list[str]:
    return [
        p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    ]


def bench_text() -> str:
    return "\n".join(
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").rglob("*.py"))
    )


def test_scanner_flags_and_honours():
    init = "from .m import used, self_only, benched, idle, cycle_predicates\n"
    sources = [
        "def used():\n    return 1\n"
        "def self_only(n):\n    return self_only(n - 1)\n"
        "class idle:\n    pass\n"
        "def other(x: 'str') -> int:\n    return used()\n"
    ]
    bench = "gp.benched(an)\n"
    assert uncalled_exports(init, sources, bench) == ["self_only", "idle"]


def test_scan_sees_the_exports():
    names = exported_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert {"Analysis", "parse_algebra", "cycle_predicates"} <= set(names)


def test_every_export_has_a_caller():
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    found = uncalled_exports(init, package_sources(), bench_text())
    assert not found, "exported without a caller outside the tests: " + ", ".join(found)


def test_allowlist_is_needed():
    # an allowlisted name that gains a caller outside the allowlist leaves it
    found, bench = reads(package_sources()), bench_text()
    assert all(
        not read_in_package(name, found, ALLOWED)
        and not re.search(rf"\b{name}\b", bench)
        for name in ALLOWED
    )
