"""Time each stage of a benchmark operation on its seeded documents.

Usage::

    PYTHONPATH=src python scripts/stages.py --workload classify-cycles --seed 1
    PYTHONPATH=src python scripts/stages.py --workload oracle-battery --seed 1

The documents are the workload's for that seed, built by its ``setup`` in
``perfbench/workloads.py``, which is loaded read-only by
``tests/reference_scan.py``'s loader, which also loads ``calibrate`` and
``speed_factor`` from ``perfbench/run.py``.  Each operation is a
generator that yields a stage's name as that stage ends, and each stage
is charged the time since the previous yield (the first, the time since
the operation began); a stage yielded more than once sums its times.

``classify-cycles`` (:func:`classify_operation`) is the workload's
operation, one stage at a time in pipeline order, forcing each cached
stage of ``Analysis`` before the next reads it:

- ``parse``: ``parse_algebra``, the forward automaton and the
  admissibility check included;
- ``opposite automaton``: ``MonomialAlgebra.opposite_automaton``;
- ``perfect``: ``Analysis.perfect``, with the opposite automaton built;
- ``classes`` and ``decompositions``: the two ``Analysis`` attributes;
- ``classify``: ``classify``;
- ``ungraded AR quiver``: ``full_ungraded_ar_quiver``;
- ``JSON``: ``emit`` of that quiver as JSON.

``oracle-battery`` (:func:`battery_operation`) yields ``parse``, then the
name of each row as ``oracle.battery`` yields it, so the rows come in
battery order.  A row is charged the gap since the previous yield:

- a row judged in the same loop as the row before it reads near zero
  (``overlap-intersection-paths-perfect``, ``ungraded-hom-shift-sum``);
- a row checked once per class sums over its classes;
- ``perfect-pairs-match-bruteforce``, the first row after the pipeline
  is built, still carries the pipeline's build stages.

The three brute-force tables of ``TABLES`` are wrapped on ``oracle`` for
the run, so nothing under ``src/`` changes, and each build is taken out
of the gap it falls in: a table gets its own line, its name followed by
``(table)``, just before the row that first reads it
(``bf_perfect_pairs`` before ``perfect-pairs-match-bruteforce``,
``bf_overlap_table`` before ``no-overlap-between-coelementary`` and
``bf_stable_hom_table`` before ``graded-hom-closed-form-vs-oracle``).

Each of ``ROUNDS`` rounds runs the operation on every document between
two runs of the benchmark's calibration loop, and the round's times are
scaled by ``speed_factor`` of the two to the benchmark's nominal machine
speed, as ``perfbench/run.py`` scales each operation.  Prints one line per
stage, in the order first yielded, with its microseconds per operation
(one document), then the whole operation: each the median over rounds of
the round's mean per operation at nominal speed, to compare two commits
on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import gpstable
import gpstable.oracle as oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from reference_scan import _perfbench_module  # noqa: E402

ROUNDS = 40

# the brute-force tables the battery builds once per algebra, each timed
# on a line of its own
TABLES = ("bf_perfect_pairs", "bf_overlap_table", "bf_stable_hom_table")


def classify_operation(text: str):
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


def battery_operation(text: str):
    """The ``oracle-battery`` operation on one document, yielding
    ``parse`` and then each battery row's name as it is judged."""
    alg = gpstable.parse_algebra(text)
    yield "parse"
    for row in oracle.battery(alg):
        yield row.name


WORKLOADS = {"classify-cycles": classify_operation, "oracle-battery": battery_operation}


def benchmark_documents(workload: str, seed: int) -> list[str]:
    """The documents of ``workload`` for ``seed``, as JSON texts."""
    _perfbench_module("inputs")
    setup = _perfbench_module("workloads").WORKLOADS[workload].setup
    return [item.text for item in setup(gpstable, seed).items]


def timed_table(name: str, built: list[tuple[str, float]]):
    """``oracle``'s table builder ``name``, appending the line and the
    seconds of each build to ``built``."""
    build = getattr(oracle, name)

    def timed(*args):
        start = time.perf_counter()
        table = build(*args)
        built.append((f"{name} (table)", time.perf_counter() - start))
        return table

    return timed


def stage_times(operation, documents: list[str], rounds: int) -> dict[str, list[float]]:
    """{stage: seconds per round} over ``rounds`` passes of ``operation``
    over ``documents``, each at nominal speed, in the order first yielded;
    each table built takes its own entry just before the stage it falls in."""
    run = _perfbench_module("run")
    per_round: dict[str, list[float]] = {}
    built: list[tuple[str, float]] = []  # the tables built since the last yield
    with contextlib.ExitStack() as patches:
        for name in TABLES:
            patches.enter_context(mock.patch.object(oracle, name, timed_table(name, built)))
        for _ in range(rounds):
            spent: dict[str, float] = {}
            before = run.calibrate()
            for text in documents:
                last = time.perf_counter()
                for stage in operation(text):
                    now = time.perf_counter()
                    gap = now - last
                    for table, t in built:
                        spent[table] = spent.get(table, 0.0) + t
                        gap -= t
                    built.clear()
                    spent[stage] = spent.get(stage, 0.0) + gap
                    last = now
            factor = run.speed_factor(before, run.calibrate())
            for stage, t in spent.items():
                per_round.setdefault(stage, []).append(t * factor)
    return per_round


def report(operation, documents: list[str], rounds: int) -> list[str]:
    """One line per stage, then the whole operation, each with the median
    over rounds of its microseconds per operation."""
    stages = stage_times(operation, documents, rounds)
    wholes = [sum(ts) for ts in zip(*stages.values())]
    per_op = 1e6 / len(documents)
    lines = [
        f"{per_op * statistics.median(ts):9.1f}  {stage}" for stage, ts in stages.items()
    ]
    lines.append(f"{per_op * statistics.median(wholes):9.1f}  whole operation")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    documents = benchmark_documents(args.workload, args.seed)
    print(
        f"{args.workload} seed {args.seed}: {len(documents)} documents x {ROUNDS} rounds, "
        "median us per operation at nominal speed"
    )
    print("\n".join(report(WORKLOADS[args.workload], documents, ROUNDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
