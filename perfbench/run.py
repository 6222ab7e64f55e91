"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload classify-cycles --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout and from nowhere else.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of ``layers.py`` and the tracing overhead.
Raw wall-clock figures go to standard error.  The process uses one thread
and starts no other process.

Times are wall times at a nominal machine speed.  Right before and right
after every operation the benchmark times a fixed pure-Python calibration
loop, and scales the operation by ``NOMINAL_CALIBRATION_S`` over the mean
of the two.  On shared virtual machines the speed of the interpreter
drifts by up to 2x over minutes, which moves raw medians by 15-40 %
between runs; the ratio of an operation to the calibration loops beside
it moves by a few percent.  A change to the program moves the operations
and not the loop, so it shows in full.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
MIN_OPS = 100  # so that at least ten operations lie beyond the p90
NOMINAL_CALIBRATION_S = 0.0015  # calibration loop time at the nominal speed
_WORDS = tuple(f"a{k}" for k in range(100, 164))


def calibrate() -> float:
    """Wall time of a fixed loop of tuple slicing, set lookups and calls,
    the kind of work the package does; it never touches the package."""
    start = perf_counter()
    seen = set()
    hits = 0
    for i in range(1500):
        k = i % 61
        window = _WORDS[k : k + 3]
        if window in seen:
            hits += 1
        else:
            seen.add(window)
        hits += len(_WORDS[k:] + _WORDS[:k]) > 63
    return perf_counter() - start


def speed_factor(*samples: float) -> float:
    """Multiplier from wall time to time at the nominal speed."""
    return NOMINAL_CALIBRATION_S / statistics.mean(samples)


def import_gpstable():
    """Import the package afresh from this checkout's ``src/``."""
    for name in [k for k in sys.modules if k.split(".")[0] == "gpstable"]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    gp = importlib.import_module("gpstable")
    importlib.import_module("gpstable.oracle")
    if os.path.dirname(os.path.abspath(gp.__file__)) != os.path.join(SRC, "gpstable"):
        raise ImportError(f"gpstable was imported from {gp.__file__}, not {SRC}")
    return gp


def set_up(workload, seed: int):
    """Import, build the fixed state and run one untimed warm-up operation,
    ``SETUP_REPEATS`` times.  Returns the median set-up time at nominal
    speed, the median raw wall time and the last state.  The previous
    repeat's state and modules are freed first, so the repeats do not add
    to ``peak_rss_mb``."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        before = [calibrate() for _ in range(3)]
        start = perf_counter()
        state = workload.setup(import_gpstable(), seed)
        workload.op(state, state.items[0])
        took = perf_counter() - start
        factor = speed_factor(*before, *(calibrate() for _ in range(3)))
        raw.append(took)
        scaled.append(took * factor)
    return statistics.median(scaled), statistics.median(raw), state


class Tally:
    def __init__(self):
        self.durations: list[float] = []  # at nominal speed
        self.raw: list[float] = []  # wall clock
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True


def measure(workload, state, seconds: float, min_ops: int, tally: Tally, tracer=None):
    """Whole rounds of operations until ``seconds`` of wall time have passed
    and at least ``min_ops`` were attempted; checks run between operations,
    outside the timed region.  Returns the wall time no span covered."""
    unattributed = 0.0
    start = perf_counter()
    ops = 0
    while ops < min_ops or perf_counter() - start < seconds:
        for item in state.items:
            ops += 1
            tally.attempted += 1
            before = calibrate()
            covered = tracer.covered() if tracer else 0.0
            t0 = perf_counter()
            try:
                result = workload.op(state, item)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                tally.failed += 1
                print(f"operation failed: {exc!r}", file=sys.stderr)
                continue
            took = perf_counter() - t0
            after = calibrate()
            tally.durations.append(took * speed_factor(before, after))
            tally.raw.append(took)
            tally.calibrations += (before, after)
            if tracer:
                unattributed += took - (tracer.covered() - covered)
            try:
                with tracer.paused() if tracer else nullcontext():
                    ok = workload.check(state, item, result)
            except Exception as exc:  # noqa: BLE001 - a crashing check fails
                print(f"check raised: {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                tally.failed += 1
                tally.correct = False
    return unattributed


def timing(durations: list[float]) -> dict:
    return {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_s_p50": (statistics.median(durations), "s"),
        "op_s_p90": (statistics.quantiles(durations, n=10, method="inclusive")[-1], "s"),
    }


def end_to_end(tally: Tally, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **timing(tally.durations),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workload, state, seconds: float) -> tuple[Tally, dict]:
    """Half the run untraced, half traced.  Per-layer figures are wall
    times per operation of the traced half; the overhead compares the two
    halves at nominal speed."""
    plain = Tally()
    measure(workload, state, seconds / 2, 1, plain)
    tracer = layers.Tracer()
    tracer.install()
    spanned = Tally()
    unattributed = measure(workload, state, seconds / 2, 1, spanned, tracer)
    tally = Tally()
    tally.attempted = plain.attempted + spanned.attempted
    tally.failed = plain.failed + spanned.failed
    tally.correct = plain.correct and spanned.correct
    ops = len(spanned.raw)
    if not ops or not plain.raw:
        return tally, {}
    tally.raw = plain.raw + spanned.raw
    metrics = tracer.metrics(ops)
    overhead = statistics.mean(spanned.durations) / statistics.mean(plain.durations) - 1
    metrics["bench.unattributed_s"] = (unattributed / ops, "s")
    metrics["bench.untraced_op_s"] = (statistics.mean(plain.raw), "s")
    metrics["bench.traced_op_s"] = (statistics.mean(spanned.raw), "s")
    metrics["bench.trace_overhead_pct"] = (100 * overhead, "%")
    metrics["bench.calibration_s"] = (statistics.median(spanned.calibrations), "s")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        setup_s, setup_raw, state = set_up(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import gpstable from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tally, metrics = traced(workload, state, args.seconds)
    else:
        tally = Tally()
        measure(workload, state, args.seconds, MIN_OPS, tally)
        metrics = end_to_end(tally, setup_s) if tally.raw else {}
    if not metrics:
        print("no operation completed", file=sys.stderr)
        return 1
    wall = {k: round(v, 6) for k, (v, _) in timing(tally.raw).items()}
    print(f"wall clock: setup_s {setup_raw:.6f} {wall}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
