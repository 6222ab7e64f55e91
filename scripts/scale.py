"""Time the closed-form pipeline stage by stage on large algebras.

Usage::

    PYTHONPATH=src python scripts/scale.py

For N(60, 60) and N(120, 120) (cyclic quiver on n vertices, paths of
length n + 1 zero) it prints the parse time and then the parse-free stages
of ``classify``, each cached on a fresh ``Analysis`` and timed once with
``perf_counter``; ``classify_total`` is their sum with the rest of
``classify``.  After it come the two Hasse quivers, which ``classify``
does not build: an output-only stage (``hasse``) that the oracle reads.
``perfbench/ladder.py`` (ROADMAP L) is to replace it.
"""

from __future__ import annotations

import json
from time import perf_counter

from gpstable import fixtures
from gpstable.algebra import parse_algebra
from gpstable.analysis import Analysis
from gpstable.stable import classify

NAKAYAMA = (60, 120)
STAGES = ("perfect", "classes", "decompositions")
OUTPUT_STAGES = ("hasse_prec", "hasse_leq")


def time_stages(an: Analysis, stages: tuple[str, ...], times: dict) -> None:
    for stage in stages:
        t0 = perf_counter()
        getattr(an, stage)
        times[stage] = perf_counter() - t0


def run_once(doc: dict) -> dict[str, float]:
    times = {}
    t0 = perf_counter()
    alg = parse_algebra(doc)
    times["parse"] = perf_counter() - t0
    an = Analysis(alg)
    start = perf_counter()
    time_stages(an, STAGES, times)
    t0 = perf_counter()
    classify(an)
    times["classify_rest"] = perf_counter() - t0
    times["classify_total"] = perf_counter() - start
    time_stages(an, OUTPUT_STAGES, times)
    return times


def main() -> None:
    for n in NAKAYAMA:
        times = run_once(fixtures.nakayama_document(n, n))
        rounded = {key: round(t, 4) for key, t in times.items()}
        print(json.dumps({"algebra": f"N({n},{n})", **rounded}))


if __name__ == "__main__":
    main()
