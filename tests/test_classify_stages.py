"""``scripts/classify_stages.py`` charges a time to every stage of the
``classify-cycles`` operation."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "classify_stages", ROOT / "scripts" / "classify_stages.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_every_stage_on_one_document(script):
    doc = (ROOT / "fixtures" / "lambda_star.json").read_text()
    *lines, whole = script.report([doc], 1)
    # in pipeline order
    assert [line.split(None, 1)[1] for line in lines] == [
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


def test_reads_the_workload_documents(script):
    # the benchmark's eight shapes, each also relabeled
    assert len(script.benchmark_documents(1)) == 16
