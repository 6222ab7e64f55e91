"""Time each row of the oracle battery on the benchmark's seeded documents.

Usage::

    PYTHONPATH=src python scripts/battery_rows.py --seed 1

The documents are the ``oracle-battery`` workload's for that seed, built
by ``OracleBattery.setup`` in ``perfbench/workloads.py``, which is loaded
read-only by ``tests/reference_scan.py``'s loader.  Each of ``ROUNDS``
rounds parses every document and runs ``verify_algebra`` on it;
``oracle.CheckResult`` is wrapped for the run, so nothing under
``src/`` changes, and each row is charged the time since the row before
it, the first row the time since ``verify_algebra`` began.  A row so
carries any table built before it: ``perfect-pairs-match-bruteforce`` the
pipeline stages and the perfect-pair scan, ``no-overlap-between-coelementary``
the overlap table, ``graded-hom-closed-form-vs-oracle`` the brute-force
Hom table.  Rows judged in one loop share one figure, printed on one line
with their names joined by `` / ``: ``overlap-implies-same-class`` with
``overlap-intersection-paths-perfect``, and
``graded-hom-closed-form-vs-oracle`` with ``ungraded-hom-shift-sum``.
A row checked once per class sums over its classes.  Prints one line per
row, in battery order, with its mean microseconds per operation (one
document: parse plus battery), then the parse time and the whole
operation; a measurement on one machine, to compare two commits.
"""

from __future__ import annotations

import argparse
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


def benchmark_documents(seed: int) -> list[str]:
    """The ``oracle-battery`` documents of ``seed``, as JSON texts."""
    _perfbench_module("inputs")
    workloads = _perfbench_module("workloads")
    return [item.text for item in workloads.OracleBattery.setup(gpstable, seed).items]


def row_times(documents: list[str], rounds: int) -> tuple[dict[str, float], float]:
    """({row: seconds}, parse seconds), summed over ``rounds`` passes over
    ``documents``; rows in battery order, shared rows folded."""
    real = oracle.CheckResult
    rows: dict[str, float] = {}
    last = [0.0]

    def timed(name, ok, detail=""):
        now = time.perf_counter()
        key = SHARED.get(name, name)
        rows[key] = rows.get(key, 0.0) + now - last[0]
        last[0] = time.perf_counter()
        return real(name, ok, detail)

    parse = 0.0
    oracle.CheckResult = timed
    try:
        for _ in range(rounds):
            for text in documents:
                start = time.perf_counter()
                alg = gpstable.parse_algebra(text)
                last[0] = time.perf_counter()
                parse += last[0] - start
                oracle.verify_algebra(alg)
    finally:
        oracle.CheckResult = real
    return rows, parse


def report(documents: list[str], rounds: int) -> list[str]:
    """One line per row, then parse and the whole operation, each with its
    mean microseconds per operation."""
    rows, parse = row_times(documents, rounds)
    ops = rounds * len(documents)
    joined = {first: f"{first} / {later}" for later, first in SHARED.items()}
    lines = [f"{1e6 * t / ops:9.1f}  {joined.get(name, name)}" for name, t in rows.items()]
    lines.append(f"{1e6 * parse / ops:9.1f}  parse")
    lines.append(f"{1e6 * (parse + sum(rows.values())) / ops:9.1f}  whole operation")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    documents = benchmark_documents(args.seed)
    print(f"seed {args.seed}: {len(documents)} documents x {ROUNDS} rounds, us per operation")
    print("\n".join(report(documents, ROUNDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
