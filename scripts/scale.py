"""Time the closed-form pipeline stage by stage on large algebras.

Usage::

    PYTHONPATH=src python scripts/scale.py

The first stage, ``import``, is the package's cold import: a child
``sys.executable`` run with ``PYTHONDONTWRITEBYTECODE=1`` times
``import gpstable, gpstable.oracle`` around itself, and the best of 3
children is printed, as ``{"import": seconds}`` on a line of its own.
It times the import from source only while ``src/`` holds no
``__pycache__``, so run the script itself with
``PYTHONDONTWRITEBYTECODE=1`` too (its own imports would write one);
otherwise the cached bytecode is timed.
Then, for N(60, 60), N(120, 120) and N(240, 240) (cyclic quiver on n
vertices, paths of length n + 1 zero) it prints the parse time and then the
parse-free stages of ``classify``, each cached on a fresh ``Analysis`` and
timed once with ``perf_counter``.  The first is the algebra's ``opposite_automaton``,
which ``perfect`` would otherwise build unseen; ``classify_total`` is their
sum with the rest of ``classify``.  ``perfect_maxrss_mb`` is the process's
high-water resident set (``ru_maxrss``) right after ``perfect``; the rungs
run in one process in increasing size, so a reading also holds what the
earlier rungs left allocated.  After it come the two Hasse quivers,
which ``classify`` does not build: an output-only stage (``hasse``) that
the oracle reads.
Last, on N(60, 60) and N(120, 120) only, ``graded_hom_sweep`` times
graded Hom from the first perfect path to every perfect path over one
period of shifts, 0 .. l(c) - 1 (P·l(c) calls, each building its target
``StableObject``), on the warm ``Analysis``; ``graded_hom_calls_per_s``
is the call count over that time.  At N(240, 240) the sweep would make
57 600 × 240 ≈ 13.8 million calls, about 20 s, for a rate that N(120, 120)
already gives, so that line has neither key.  Then
``ungraded_hom_sweep`` times ungraded Hom from the first perfect path to
every perfect path (P calls, no ``StableObject`` built by the caller), and
``ungraded_hom_calls_per_s`` is its call count over that time.  Three more
output-only stages follow: ``ar_quiver`` builds the ungraded AR
quiver of every class (``full_ungraded_ar_quiver``), ``ar_quiver_json``
emits it with ``emit(..., "json")`` and ``ar_quiver_dot`` with
``emit(..., "dot")``.  Then ``graded_ar_window`` builds the graded AR
quiver of every class over shifts [-2, 2] with ``ar_quiver``, the pieces
that ``ar-quiver --graded --window 2`` builds (no benchmark workload runs
the graded builder), and ``graded_ar_window_json`` emits it as JSON, on
N(60, 60) and N(120, 120) only.  The CLI's default window, [-l(c), l(c)],
would hold n²(2n + 1) vertices on N(n, n), and its build and JSON took
1.3 GB on N(60, 60) alone; the JSON of the [-2, 2] window of N(240, 240)
repeats a 240-arrow vertex id about seven times per vertex, and took the
process to 2.6 GB.
After the two Nakayama lines comes one for the wide tail W(17, 2; 3, 3)
(a chain of 18 vertices with 2 parallel arrows per step, beside N(3, 3);
524 280 non-zero paths): its ``parse`` time and ``analyze_summary``, the
summary that ``gpstable analyze`` prints (basis size and nilpotency bound
included), on a fresh ``Analysis``.  No time is gated, but the script
exits 1 unless each N(n, n) rung has n² perfect paths in one class with
(|c|, l(c), m_c) = (n, n, n), factors of one arrow each (prefix lengths
0, 1, ..., n), n elementary and n co-elementary paths, n window rows of
n spans each and an anchored cycle of n arrows, so it checks the
enumeration and the decomposition at sizes no test reaches.
``perfbench/ladder.py`` (ROADMAP L) is to replace it.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter

from gpstable import fixtures
from gpstable.algebra import parse_algebra
from gpstable.analysis import Analysis
from gpstable.arquiver import ar_quiver, emit, full_ungraded_ar_quiver
from gpstable.cli import _analysis_summary
from gpstable.stable import (
    StableObject,
    classify,
    graded_stable_hom,
    ungraded_stable_hom,
)

NAKAYAMA = (60, 120, 240)
# the graded Hom sweep runs on N(60, 60) and N(120, 120), not N(240, 240)
GRADED_SWEEP_MAX_PATHS = 120 * 120
# the graded AR window is [-2, 2], and its JSON is emitted on N(60, 60)
# and N(120, 120), not N(240, 240): see the docstring
GRADED_WINDOW = 2
GRADED_JSON_MAX_PATHS = 120 * 120
WIDE_TAIL = (17, 2, 3, 3)
IMPORT_TIMER = (
    "from time import perf_counter\n"
    "t0 = perf_counter()\n"
    "import gpstable, gpstable.oracle\n"
    "print(perf_counter() - t0)\n"
)
STAGES = ("classes", "decompositions")
OUTPUT_STAGES = ("hasse_prec", "hasse_leq")


def import_time() -> float:
    """Best of 3 cold imports, each in a fresh child interpreter."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return min(
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
        for _ in range(3)
    )


def time_stages(obj: object, stages: tuple[str, ...], times: dict) -> None:
    for stage in stages:
        t0 = perf_counter()
        getattr(obj, stage)
        times[stage] = perf_counter() - t0


def maxrss_mb() -> float:
    """The high-water resident set of this process so far, in MB
    (``ru_maxrss`` counts KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def nakayama_fault(an: Analysis, n: int) -> str | None:
    """What is wrong with the classification of N(n, n), if anything: it
    has n² perfect paths, all in one class with |c| = l(c) = m_c = n,
    whose decomposition has n one-arrow factors, n elementary and n
    co-elementary paths, n window rows of n spans and an n-arrow cycle."""
    shape = [(d.size, d.arrow_length, d.m) for d in an.decompositions]
    if len(an.perfect.paths) != n * n or shape != [(n, n, n)]:
        return (
            f"N({n},{n}): {len(an.perfect.paths)} perfect paths and classes "
            f"(|c|, l(c), m_c) = {shape}, expected {n * n} and {[(n, n, n)]}"
        )
    (dec,) = an.decompositions
    spans = {len(row) for row in dec.windows}
    length = dec.anchored_cycle.length
    checks = (
        ("prefix lengths not 0, 1, ..., n", dec.prefix_lengths == tuple(range(n + 1))),
        (f"{len(dec.elementary)} elementary paths", len(dec.elementary) == n),
        (f"{len(dec.coelementary)} co-elementary paths", len(dec.coelementary) == n),
        (f"{len(dec.windows)} window rows", len(dec.windows) == n),
        (f"window rows of {sorted(spans)} spans", spans == {n}),
        (f"an anchored cycle of {length} arrows", length == n),
    )
    wrong = [name for name, ok in checks if not ok]
    if wrong:
        return f"N({n},{n}): the decomposition has {', '.join(wrong)}; expected n = {n}"
    return None


def run_once(doc: dict) -> tuple[dict[str, float], Analysis]:
    times = {}
    t0 = perf_counter()
    alg = parse_algebra(doc)
    times["parse"] = perf_counter() - t0
    an = Analysis(alg)
    start = perf_counter()
    time_stages(alg, ("opposite_automaton",), times)
    time_stages(an, ("perfect",), times)
    times["perfect_maxrss_mb"] = maxrss_mb()
    time_stages(an, STAGES, times)
    t0 = perf_counter()
    classify(an)
    times["classify_rest"] = perf_counter() - t0
    times["classify_total"] = perf_counter() - start
    time_stages(an, OUTPUT_STAGES, times)
    if len(an.perfect.paths) <= GRADED_SWEEP_MAX_PATHS:
        calls = graded_hom_sweep(an, times)
        times["graded_hom_calls_per_s"] = round(calls / times["graded_hom_sweep"])
    calls = ungraded_hom_sweep(an, times)
    times["ungraded_hom_calls_per_s"] = round(calls / times["ungraded_hom_sweep"])
    t0 = perf_counter()
    quiver = full_ungraded_ar_quiver(an)
    times["ar_quiver"] = perf_counter() - t0
    t0 = perf_counter()
    emit(quiver, "json")
    times["ar_quiver_json"] = perf_counter() - t0
    t0 = perf_counter()
    emit(quiver, "dot")
    times["ar_quiver_dot"] = perf_counter() - t0
    del quiver
    graded_window(an, times)
    return times, an


def graded_window(an: Analysis, times: dict) -> None:
    """Build the graded AR quiver that ``ar-quiver --graded --window 2``
    builds, every class over shifts [-2, 2], and emit it as JSON up to
    ``GRADED_JSON_MAX_PATHS`` perfect paths."""
    pieces = [(dec, range(-GRADED_WINDOW, GRADED_WINDOW + 1)) for dec in an.decompositions]
    t0 = perf_counter()
    window = ar_quiver(pieces)
    times["graded_ar_window"] = perf_counter() - t0
    if len(an.perfect.paths) <= GRADED_JSON_MAX_PATHS:
        t0 = perf_counter()
        emit(window, "json")
        times["graded_ar_window_json"] = perf_counter() - t0


def graded_hom_sweep(an: Analysis, times: dict) -> int:
    paths = an.perfect.paths
    x = StableObject(paths[0])
    period = an.locate(paths[0])[0].arrow_length
    t0 = perf_counter()
    for q in paths:
        for k in range(period):
            graded_stable_hom(an, x, StableObject(q, k))
    times["graded_hom_sweep"] = perf_counter() - t0
    return len(paths) * period


def ungraded_hom_sweep(an: Analysis, times: dict) -> int:
    paths = an.perfect.paths
    t0 = perf_counter()
    for q in paths:
        ungraded_stable_hom(an, paths[0], q)
    times["ungraded_hom_sweep"] = perf_counter() - t0
    return len(paths)


def time_analyze_summary(doc: dict) -> dict[str, float]:
    times = {}
    t0 = perf_counter()
    alg = parse_algebra(doc)
    times["parse"] = perf_counter() - t0
    t0 = perf_counter()
    _analysis_summary(Analysis(alg))
    times["analyze_summary"] = perf_counter() - t0
    return times


def main() -> None:
    print(json.dumps({"import": round(import_time(), 4)}))
    faults = []
    for n in NAKAYAMA:
        times, an = run_once(fixtures.nakayama_document(n, n))
        rounded = {key: round(t, 4) for key, t in times.items()}
        print(json.dumps({"algebra": f"N({n},{n})", **rounded}))
        faults.append(nakayama_fault(an, n))
    k, w, n, m = WIDE_TAIL
    times = time_analyze_summary(fixtures.wide_tail_document(k, w, n, m))
    rounded = {key: round(t, 4) for key, t in times.items()}
    print(json.dumps({"algebra": f"W({k},{w};{n},{m})", **rounded}))
    faults = [f for f in faults if f]
    for fault in faults:
        print(fault, file=sys.stderr)
    if faults:
        sys.exit(1)


if __name__ == "__main__":
    main()
