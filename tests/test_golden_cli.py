"""Replay recorded CLI invocations on every fixture and compare byte for byte.

``golden_cli.json`` holds the argv, stdout, stderr and exit code of each
invocation.  Regenerate it from the repository root with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and review the diff: an entry may only change when a named defect is fixed.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from gpstable.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_cli.json")


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "stdout": out.getvalue(),
            "stderr": err.getvalue(), "exit": code}


def _invocations():
    """The recorded command lines, fixture by fixture."""
    from gpstable import analyze

    for fixture in sorted((ROOT / "fixtures").glob("*.json")):
        f = f"fixtures/{fixture.name}"
        paths = analyze(fixture.read_text(encoding="utf-8")).perfect.paths
        yield ["analyze", f]
        yield ["analyze", f, "--json"]
        yield ["classify", f]
        yield ["classify", f, "--json"]
        yield ["classify", f, "--weighted"]
        for order in ("prec", "leq"):
            yield ["hasse", f, f"--order={order}"]
            yield ["hasse", f, f"--order={order}", "--json"]
        for extra in ([], ["--graded"], ["--graded", "--window=2"]):
            yield ["ar-quiver", f, *extra]
            yield ["ar-quiver", f, *extra, "--json"]
        if paths:
            ends = [f"--from={paths[0]}", f"--to={paths[-1]}"]
            yield ["hom", f, *ends]
            yield ["hom", f, *ends, "--graded", "--shift=1", "--json"]
        else:
            yield ["hom", f, "--from=a1", "--to=a1"]
        yield ["verify", f]
        yield ["verify", f, "--random=3", "--seed=7", "--json"]


CASES = (
    json.loads(GOLDEN.read_text(encoding="utf-8"))
    if __name__ != "__main__" else []
)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _invoke(case["argv"]) == case


def test_golden_covers_every_fixture():
    recorded = {c["argv"][1] for c in CASES}
    assert recorded == {f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("*.json")}


if __name__ == "__main__":
    os.chdir(ROOT)
    cases = [_invoke(argv) for argv in _invocations()]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} invocations to {GOLDEN.relative_to(ROOT)}")
