"""Time each stage of a benchmark operation on its seeded items.

Usage::

    PYTHONPATH=src python scripts/stages.py --workload classify-cycles --seed 1
    PYTHONPATH=src python scripts/stages.py --workload oracle-battery --seed 1
    PYTHONPATH=src python scripts/stages.py --workload stable-queries --seed 1

The items are the workload's for that seed, built by its ``setup`` in
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

``stable-queries`` (:func:`stable_operation`) is the workload's operation
on one source path p, on the warm ``Analysis`` its ``setup`` builds, one
query kind at a time in the order the operation asks them:

- ``graded sweep``: ``graded_stable_hom`` from pL(0) to every target of
  the shift window;
- ``ungraded Hom``: ``ungraded_stable_hom`` from p to every perfect path;
- ``suspend``: ``suspend`` of pL(0) to every power of the workload's
  ``SUSPENSION_POWERS``;
- ``AR triangle``: ``ar_triangle`` of pL(0);
- ``tau orbit``: ``ar_translate`` from pL(0) until the orbit is back at p.

Each of ``ROUNDS`` rounds runs the operation on every item between two
runs of the benchmark's calibration loop, and the round's times are
scaled by ``speed_factor`` of the two to the benchmark's nominal machine
speed, as ``perfbench/run.py`` scales each operation.  Prints one line per
stage, in the order first yielded, with its microseconds per operation
(one item: a document, or a source path), then the whole operation: each
the median over rounds of the round's mean per operation at nominal
speed, to compare two commits on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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


def stable_operation(extra: dict, p):
    """The ``stable-queries`` operation from the source ``p``, on the
    ``setup`` state's ``extra`` (its warm Analysis, shift window and
    paths), yielding each query kind's name as its queries end."""
    an = extra["an"]
    obj = gpstable.StableObject
    x = obj(p, 0)
    [gpstable.graded_stable_hom(an, x, obj(q, k)).dimension for q, k in extra["window"]]
    yield "graded sweep"
    [gpstable.ungraded_stable_hom(an, p, q).dimension for q in extra["paths"]]
    yield "ungraded Hom"
    [gpstable.suspend(an, x, s) for s in _perfbench_module("workloads").SUSPENSION_POWERS]
    yield "suspend"
    gpstable.ar_triangle(an, x)
    yield "AR triangle"
    orbit = [x, gpstable.ar_translate(an, x)]
    while orbit[-1].path != p and len(orbit) <= len(extra["paths"]):
        orbit.append(gpstable.ar_translate(an, orbit[-1]))
    yield "tau orbit"


WORKLOADS = {
    "classify-cycles": classify_operation,
    "oracle-battery": battery_operation,
    "stable-queries": stable_operation,
}


def benchmark_items(workload: str, seed: int) -> tuple:
    """(operation, items) of ``workload`` for ``seed``: the documents as
    JSON texts, or for ``stable-queries`` the source paths, with the
    operation bound to the warm state they share."""
    _perfbench_module("inputs")
    state = _perfbench_module("workloads").WORKLOADS[workload].setup(gpstable, seed)
    operation = WORKLOADS[workload]
    if workload == "stable-queries":
        return functools.partial(operation, state.extra), state.items
    return operation, [item.text for item in state.items]


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


def stage_times(operation, items: list, rounds: int) -> dict[str, list[float]]:
    """{stage: seconds per round} over ``rounds`` passes of ``operation``
    over ``items``, each at nominal speed, in the order first yielded;
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
            for item in items:
                last = time.perf_counter()
                for stage in operation(item):
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


def report(operation, items: list, rounds: int) -> list[str]:
    """One line per stage, then the whole operation, each with the median
    over rounds of its microseconds per operation."""
    stages = stage_times(operation, items, rounds)
    wholes = [sum(ts) for ts in zip(*stages.values())]
    per_op = 1e6 / len(items)
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
    operation, items = benchmark_items(args.workload, args.seed)
    print(
        f"{args.workload} seed {args.seed}: {len(items)} items x {ROUNDS} rounds, "
        "median us per operation at nominal speed"
    )
    print("\n".join(report(operation, items, ROUNDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
