"""Every name the benchmark reads from the package still resolves.

``perfbench/layers.py`` wraps package functions by name and
``perfbench/workloads.py`` reads package attributes, so a rename in
``src/`` would only show as an ``AttributeError`` when ``run.py`` starts.
This loads the span table read-only and resolves each name on the package
(a module attribute, or ``Class.method``), scans the workloads with ``ast``
for the attributes they read, and calls ``verify_algebra`` the way the
``oracle-battery`` operation does.
"""

import ast
import importlib
import importlib.util
import random
from pathlib import Path

from gpstable import fixtures
from gpstable.oracle import verify_algebra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for name, (module_name, attrs) in layers.SPANS.items():
        module = importlib.import_module(f"gpstable.{module_name}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{name}: gpstable.{module_name}.{attr}")
    assert not missing, "unresolved spans:\n" + "\n".join(missing)


def package_chains(source: str) -> set[tuple[str, ...]]:
    """Every attribute chain read off ``gp`` or ``state.gp``, without the root."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            for root in (["gp"], ["state", "gp"]):
                if parts[: len(root)] == root and parts[len(root) :]:
                    chains.add(tuple(parts[len(root) :]))
    return chains


def test_every_workload_attribute_resolves():
    # run.py imports the package and its oracle module before setup
    gp = importlib.import_module("gpstable")
    importlib.import_module("gpstable.oracle")
    chains = package_chains(WORKLOADS.read_text())
    assert {("oracle", "FULL_PAIR_SCAN_LIMIT"), ("stable", "ar_translate_inverse")} <= chains
    absent = object()
    missing = []
    for chain in sorted(chains):
        owner = gp
        for part in chain:
            owner = getattr(owner, part, absent)
        if owner is absent:
            missing.append("gp." + ".".join(chain))
    assert not missing, "unresolved workload attributes:\n" + "\n".join(missing)


def test_verify_algebra_takes_a_positional_rng():
    # OracleBattery.op passes a random.Random as the second argument
    assert all(c.ok for c in verify_algebra(fixtures.nakayama(3, 3), random.Random(1)))
