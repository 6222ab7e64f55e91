"""Time each row of the oracle battery on the benchmark's seeded documents.

Usage::

    PYTHONPATH=src python scripts/battery_rows.py --seed 1

The documents are the ``oracle-battery`` workload's for that seed, built
by ``OracleBattery.setup`` in ``perfbench/workloads.py``, which is loaded
read-only by ``tests/reference_scan.py``'s loader, which also loads
``calibrate`` and ``speed_factor`` from ``perfbench/run.py``.  Each of
``ROUNDS`` rounds parses every document and runs ``verify_algebra`` on it,
between two runs of the benchmark's calibration loop, and the round's
times are scaled by ``speed_factor`` of the two to the benchmark's nominal
machine speed, as ``perfbench/run.py`` scales each operation;
``oracle.CheckResult`` and the three brute-force tables of ``TABLES`` are
wrapped for the run, so nothing under ``src/`` changes.  Each row is
charged the time since the row before it, the first row the time since
``verify_algebra`` began, less the time of any table built in between:
a table gets its own line, just before the row that first reads it
(``bf_perfect_pairs`` before ``perfect-pairs-match-bruteforce``, which
still carries the pipeline stages, ``bf_overlap_table`` before
``no-overlap-between-coelementary`` and ``bf_stable_hom_table`` before
``graded-hom-closed-form-vs-oracle``), its name followed by
``(table)``.  Rows judged in one loop share one figure, printed on one
line with their names joined by `` / ``: ``overlap-implies-same-class``
with ``overlap-intersection-paths-perfect``, and
``graded-hom-closed-form-vs-oracle`` with ``ungraded-hom-shift-sum``.
A row checked once per class sums over its classes.  Prints one line per
row and table, in battery order, with its microseconds per operation (one
document: parse plus battery), then the parse time and the whole
operation: each the median over rounds of the round's mean per operation
at nominal speed, to compare two commits on one machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import gpstable
import gpstable.oracle as oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from reference_scan import _perfbench_module  # noqa: E402

ROUNDS = 40

# rows judged by one loop: the later row's time folds into the first's
SHARED = {
    "overlap-intersection-paths-perfect": "overlap-implies-same-class",
    "ungraded-hom-shift-sum": "graded-hom-closed-form-vs-oracle",
}

# the brute-force tables verify_algebra builds once per algebra, each
# timed on a line of its own
TABLES = ("bf_perfect_pairs", "bf_overlap_table", "bf_stable_hom_table")
TABLE = " (table)"


def benchmark_documents(seed: int) -> list[str]:
    """The ``oracle-battery`` documents of ``seed``, as JSON texts."""
    _perfbench_module("inputs")
    workloads = _perfbench_module("workloads")
    return [item.text for item in workloads.OracleBattery.setup(gpstable, seed).items]


def row_times(
    documents: list[str], rounds: int
) -> tuple[dict[str, list[float]], list[float]]:
    """({row: seconds per round}, parse seconds per round) over ``rounds``
    passes over ``documents``, each at nominal speed; rows and tables in
    battery order, shared rows folded, each table's time taken out of the
    row that first reads it."""
    run = _perfbench_module("run")
    real = oracle.CheckResult
    real_tables = {name: getattr(oracle, name) for name in TABLES}
    rows: dict[str, float] = {}
    last = [0.0]

    def timed(name, ok, detail=""):
        now = time.perf_counter()
        key = SHARED.get(name, name)
        rows[key] = rows.get(key, 0.0) + now - last[0]
        last[0] = time.perf_counter()
        return real(name, ok, detail)

    def timed_table(name):
        build = real_tables[name]

        def built(*args):
            start = time.perf_counter()
            table = build(*args)
            spent = time.perf_counter() - start
            rows[name + TABLE] = rows.get(name + TABLE, 0.0) + spent
            last[0] += spent  # not charged to the row that reads the table
            return table

        return built

    per_round: dict[str, list[float]] = {}
    parses = []
    oracle.CheckResult = timed
    for name in TABLES:
        setattr(oracle, name, timed_table(name))
    try:
        for _ in range(rounds):
            rows.clear()
            parse = 0.0
            before = run.calibrate()
            for text in documents:
                start = time.perf_counter()
                alg = gpstable.parse_algebra(text)
                last[0] = time.perf_counter()
                parse += last[0] - start
                oracle.verify_algebra(alg)
            factor = run.speed_factor(before, run.calibrate())
            for name, t in rows.items():
                per_round.setdefault(name, []).append(t * factor)
            parses.append(parse * factor)
    finally:
        oracle.CheckResult = real
        for name, build in real_tables.items():
            setattr(oracle, name, build)
    return per_round, parses


def report(documents: list[str], rounds: int) -> list[str]:
    """One line per row and table, then parse and the whole operation,
    each with the median over rounds of its microseconds per operation."""
    rows, parses = row_times(documents, rounds)
    wholes = [sum(ts) for ts in zip(parses, *rows.values())]
    per_op = 1e6 / len(documents)
    joined = {first: f"{first} / {later}" for later, first in SHARED.items()}
    lines = [
        f"{per_op * statistics.median(ts):9.1f}  {joined.get(name, name)}"
        for name, ts in rows.items()
    ]
    lines.append(f"{per_op * statistics.median(parses):9.1f}  parse")
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
