"""Time each stage of the classify-cycles operation on its seeded documents.

Usage::

    PYTHONPATH=src python scripts/classify_stages.py --seed 1

The documents are the ``classify-cycles`` workload's for that seed, built
by ``ClassifyCycles.setup`` in ``perfbench/workloads.py``, which is loaded
read-only by ``tests/reference_scan.py``'s loader, which also loads
``calibrate`` and ``speed_factor`` from ``perfbench/run.py``.  The
operation is the workload's: analyze the document, classify it and write
the JSON of its full ungraded AR quiver.  :func:`operation` runs it one
stage at a time, in pipeline order, forcing each cached stage of
``Analysis`` before the next reads it:

- ``parse``: ``parse_algebra``, the forward automaton and the
  admissibility check included;
- ``opposite automaton``: ``MonomialAlgebra.opposite_automaton``;
- ``perfect``: ``Analysis.perfect``, with the opposite automaton built;
- ``classes`` and ``decompositions``: the two ``Analysis`` attributes;
- ``classify``: ``classify``;
- ``ungraded AR quiver``: ``full_ungraded_ar_quiver``;
- ``JSON``: ``emit`` of that quiver as JSON.

Each of ``ROUNDS`` rounds runs the operation on every document between
two runs of the benchmark's calibration loop, and the round's times are
scaled by ``speed_factor`` of the two to the benchmark's nominal machine
speed, as ``perfbench/run.py`` scales each operation.  Prints one line per
stage, in pipeline order, with its microseconds per operation (one
document), then the whole operation: each the median over rounds of the
round's mean per operation at nominal speed, to compare two commits on
one machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import gpstable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from reference_scan import _perfbench_module  # noqa: E402

ROUNDS = 40


def benchmark_documents(seed: int) -> list[str]:
    """The ``classify-cycles`` documents of ``seed``, as JSON texts."""
    _perfbench_module("inputs")
    workloads = _perfbench_module("workloads")
    return [item.text for item in workloads.ClassifyCycles.setup(gpstable, seed).items]


def operation(text: str):
    """The ``classify-cycles`` operation on one document, yielding each
    stage's name as that stage ends."""
    alg = gpstable.parse_algebra(text)
    yield "parse"
    alg.opposite_automaton
    yield "opposite automaton"
    an = gpstable.Analysis(alg)
    an.perfect
    yield "perfect"
    an.classes
    yield "classes"
    an.decompositions
    yield "decompositions"
    gpstable.classify(an)
    yield "classify"
    quiver = gpstable.full_ungraded_ar_quiver(an)
    yield "ungraded AR quiver"
    gpstable.emit(quiver, "json")
    yield "JSON"


def stage_times(documents: list[str], rounds: int) -> dict[str, list[float]]:
    """{stage: seconds per round} over ``rounds`` passes over
    ``documents``, each at nominal speed, in pipeline order."""
    run = _perfbench_module("run")
    per_round: dict[str, list[float]] = {}
    for _ in range(rounds):
        spent: dict[str, float] = {}
        before = run.calibrate()
        for text in documents:
            last = time.perf_counter()
            for stage in operation(text):
                now = time.perf_counter()
                spent[stage] = spent.get(stage, 0.0) + now - last
                last = now
        factor = run.speed_factor(before, run.calibrate())
        for stage, t in spent.items():
            per_round.setdefault(stage, []).append(t * factor)
    return per_round


def report(documents: list[str], rounds: int) -> list[str]:
    """One line per stage, then the whole operation, each with the median
    over rounds of its microseconds per operation."""
    stages = stage_times(documents, rounds)
    wholes = [sum(ts) for ts in zip(*stages.values())]
    per_op = 1e6 / len(documents)
    lines = [
        f"{per_op * statistics.median(ts):9.1f}  {stage}" for stage, ts in stages.items()
    ]
    lines.append(f"{per_op * statistics.median(wholes):9.1f}  whole operation")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    documents = benchmark_documents(args.seed)
    print(
        f"seed {args.seed}: {len(documents)} documents x {ROUNDS} rounds, "
        "median us per operation at nominal speed"
    )
    print("\n".join(report(documents, ROUNDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
