"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/repeat.py --seeds 1-10 [--out .bench_out/repeat.json]

Runs every workload on each seed for ``BENCHMARK.json``'s ``run_seconds``.
For every workload and end-to-end metric this prints the median of the
runs, the distance between their first and third quartiles as a share of
the median (``statistics.quantiles(values, n=4)``), and whether that
spread is within the metric's bound and within a third of it.  The raw
results are written to ``--out`` for ``selfcheck.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT
from spec import load_spec
from workloads import WORKLOADS


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload, seed, extra=()):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(load_spec()["run_seconds"]), "--trace", "0",
               *extra]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def summarize(results):
    """Per workload and metric: (median, spread, bound)."""
    table = {}
    for workload, runs in results.items():
        for metric in load_spec()["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median, share = spread(values)
            table[(workload, metric["name"])] = (median, share,
                                                 metric["bound"])
    return table


def print_spreads(results):
    """Print each metric's median and spread; True if all are steady."""
    steady = True
    for (workload, name), (median, share, bound) in summarize(
            results).items():
        # ``setup_s`` has to agree between sets of runs, not within one.
        within = share <= bound / 3 or name == "setup_s"
        steady = steady and within
        print(f"{workload:26s} {name:14s} median {median:12.4f} "
              f"spread {share:7.2%} bound {bound:5.0%} "
              f"{'ok' if within else 'WIDE'}")
    return steady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed)
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed",
                      file=sys.stderr)
            results[workload].append(result)
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()}), flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(results, handle)
    steady = print_spreads(results)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
