#!/usr/bin/env python3
"""Steadiness report: repeat each workload over several seeds and print the
median and quartiles of every end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workloads sweep serve]

For each metric and workload it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and the metric's bound from ``BENCHMARK.json``;
a spread of more than a third of the bound is flagged, except on
``setup_s``, whose spread is printed but not held to a bound (a run's set-up
median is taken over only three set-ups; its bound applies to the change of
the median).  With ``--sets 2`` a second-set median that differs from the
first, in either direction, by more than the bound is flagged.  The bounds
in ``BENCHMARK.json`` are set from this report.  Exits with code 1 when any
run fails or anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{workload} seed {seed}: no result, exit code {proc.returncode}"
        ) from None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set (>= 2)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = False
    print(f"{'workload':11s} {'metric':16s} {'set':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload in args.workloads:
        medians = []
        for s in range(args.sets):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: wrong output", file=sys.stderr)
                    flagged = True
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            medians.append({})
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians[-1][name] = med
                mark = ""
                if name == "setup_s":
                    mark = "  (spread not bounded)"
                elif spread > bounds[name] / 3:
                    mark = "  SPREAD"
                    flagged = True
                print(f"{workload:11s} {name:16s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:8.4f} {bounds[name]:6.3f}{mark}", flush=True)
        if args.sets == 2:
            for name in bounds:
                first, second = medians[0][name], medians[1][name]
                change = (second - first) / first
                mark = ""
                if abs(change) > bounds[name]:
                    mark = "  MOVED"
                    flagged = True
                print(f"{workload:11s} {name:16s} median change {change:+.4f}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
