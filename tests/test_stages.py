"""``scripts/stages.py`` charges a time to every stage of the
``classify-cycles`` operation, to every row of the oracle battery and
each brute-force table it builds, and to every query kind of the
``stable-queries`` operation."""

import importlib.util
from pathlib import Path

import pytest

from gpstable.algebra import parse_algebra
from gpstable.oracle import battery, verify_algebra

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
STAR = (ROOT / "fixtures" / "lambda_star.json").read_text()


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("stages", ROOT / "scripts" / "stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names(lines):
    return [line.split(None, 1)[1] for line in lines]


def test_names_every_classify_stage_on_one_document(script):
    *lines, whole = script.report(script.classify_operation, [STAR], 1)
    # in pipeline order
    assert names(lines) == [
        "parse",
        "opposite automaton",
        "perfect",
        "classes",
        "decompositions",
        "classify",
        "ungraded AR quiver",
        "JSON",
    ]
    assert whole.endswith("  whole operation")


def test_names_every_battery_row_on_one_document(script):
    *lines, whole = script.report(script.battery_operation, [STAR], 1)
    tables = [name for name in names(lines) if name.endswith(" (table)")]
    # in the order the battery builds them
    assert tables == [
        "bf_perfect_pairs (table)",
        "bf_overlap_table (table)",
        "bf_stable_hom_table (table)",
    ]
    rows = [name for name in names(lines) if not name.endswith(" (table)")]
    # each row once, in battery order, after the parse
    battery_order = dict.fromkeys(c.name for c in verify_algebra(parse_algebra(STAR)))
    assert rows == ["parse", *battery_order]
    assert whole.endswith("  whole operation")


def test_names_every_stable_query_stage(script):
    operation, items = script.benchmark_items("stable-queries", 1)
    *lines, whole = script.report(operation, items[:2], 1)
    # in the order the workload's operation asks them
    assert names(lines) == [
        "graded sweep",
        "ungraded Hom",
        "suspend",
        "AR triangle",
        "tau orbit",
    ]
    assert whole.endswith("  whole operation")


@pytest.mark.parametrize(
    "workload, count",
    [
        ("classify-cycles", 16),  # the benchmark's eight shapes, each also relabeled
        ("oracle-battery", 8),  # its eight shapes, each once
        # one source per perfect path, |c|·m_c per planted cycle: 6·6 + 5·7 + 4·8
        ("stable-queries", 103),
    ],
)
def test_reads_the_workload_documents(script, workload, count):
    assert len(script.benchmark_items(workload, 1)[1]) == count


@pytest.mark.parametrize("path", FIXTURES, ids=[f.name for f in FIXTURES])
def test_battery_streams_the_verify_rows(path):
    alg = parse_algebra(path.read_text())
    assert list(battery(alg)) == verify_algebra(alg)
