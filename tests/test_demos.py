"""Every narrative script under ``demos/`` runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    runpy.run_path(str(demo), run_name="__main__")


def test_demos_found():
    assert DEMOS
