"""Run the benchmark's workloads repeatedly and report their figures.

    python3 perfbench/report.py                      # every workload once
    python3 perfbench/report.py --runs 10            # steadiness check
    python3 perfbench/report.py --trace              # per-layer figures
    python3 perfbench/report.py --runs 5 --workloads stable-queries

Each run is ``run.py`` in a child process of its own, one after another,
with seeds 1, 2, ..., ``--runs`` and the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric the table gives the
median over the runs and the spread between runs: the distance between
the first and third quartile as a share of the median.  A spread at or
above the metric's bound in ``BENCHMARK.json`` marks the metric UNSTEADY
and the exit status is 1.  The traced table gives each layer's self time
per operation and its share of the traced operation time.  Every run's
JSON line is kept under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end_table(workload: str, runs: list[dict], spec: dict) -> bool:
    steady = True
    ops = [r["attempted"] for r in runs]
    print(
        f"\n{workload}: {len(runs)} run(s), attempted {min(ops)}..{max(ops)}, "
        f"failed {sum(r['failed'] for r in runs)}, "
        f"correct {all(r['correct'] for r in runs)}"
    )
    print(f"  {'metric':<14}{'unit':<6}{'median':>12}{'spread':>9}{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        line = f"  {name:<14}{metric['unit']:<6}{statistics.median(values):>12.6g}"
        if len(values) < 2:
            print(line)
            continue
        s, bound = spread(values), metric["bound"]
        if s < bound / 3:
            verdict = "steady"
        elif s < bound:
            verdict = "within bound"
        else:
            verdict, steady = "UNSTEADY", False
        print(f"{line}{s:>9.3f}{bound:>7.2f}  {verdict}")
    return steady and all(r["correct"] and not r["failed"] for r in runs)


def traced_table(workload: str, runs: list[dict]) -> None:
    med = {
        k: statistics.median(r["metrics"][k]["value"] for r in runs)
        for k in runs[0]["metrics"]
    }
    op = med["bench.traced_op_s"]
    print(
        f"\n{workload} traced: {op:.4g} s/op traced, "
        f"{med['bench.untraced_op_s']:.4g} s/op untraced, "
        f"overhead {med['bench.trace_overhead_pct']:.1f} %"
    )
    for key, value in med.items():
        unit = runs[0]["metrics"][key]["unit"]
        share = f"{100 * value / op:6.1f} %" if key.endswith(("self_s", "unattributed_s")) else ""
        print(f"  {key:<34}{value:>14.6g} {unit:<6}{share}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    ok = True
    for workload in args.workloads.split(","):
        runs = [
            run_once(workload, seed, spec["run_seconds"], args.trace)
            for seed in range(1, args.runs + 1)
        ]
        kind = "traced" if args.trace else "e2e"
        path = os.path.join(RESULTS, f"{stamp}-{workload}-{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seconds": spec["run_seconds"], "runs": runs}, fh, indent=1)
        if args.trace:
            traced_table(workload, runs)
        else:
            ok = end_to_end_table(workload, runs, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
