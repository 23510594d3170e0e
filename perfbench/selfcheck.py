"""Sensitivity self-check: a known delay must be flagged, and only it.

Usage, from the root of the repository::

    python3 perfbench/selfcheck.py --seeds 1-10 \
        [--out .bench_out/selfcheck.json]

For every workload and seed this makes a pair of runs, alternating which
side runs first: a plain run and a copy run.  The copy of ``TARGET``
sleeps before every ``FLServer.aggregate``; the copies of the other
workloads are plain re-runs.  The delay is ``FACTOR`` times the
``cycle_ms_p50`` bound, as a share of the target's median cycle: the
median ``cycle_ms_p50`` of ``CALIBRATION_RUNS`` plain runs made first.
A metric is flagged when the copies' median is worse than the plain
runs' median by more than the metric's bound, the rule a change is
judged by.  The check passes when exactly ``cycle_ms_p50`` on the target
is flagged.

The plain runs are also the steadiness proof: the quartile spread of each
metric is printed as ``repeat.py`` prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from repeat import parse_seeds, print_spreads, run_once
from spec import load_spec
from workloads import WORKLOADS

#: The workload whose copy is delayed, and the delay as a multiple of the
#: ``cycle_ms_p50`` bound.
TARGET = "helios-lenet-serial"
FACTOR = 1.18
#: Plain runs of the target, on the first seeds, that size the delay; a
#: single run can fall in one of the host's slow or fast phases.
CALIBRATION_RUNS = 3


def worsening(metric, base, copy):
    """How much worse ``copy`` is than ``base``, as a share of ``base``."""
    change = (copy - base) / base
    return change if metric["better"] == "lower" else -change


def median(runs, name):
    return statistics.median(run["metrics"][name]["value"] for run in runs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {metric["name"]: metric
              for metric in load_spec()["end_to_end"]}

    p50 = statistics.median(
        run_once(TARGET, seed)["metrics"]["cycle_ms_p50"]["value"]
        for seed in seeds[:CALIBRATION_RUNS])
    delay_ms = FACTOR * bounds["cycle_ms_p50"]["bound"] * p50
    print(f"delay {delay_ms:.2f} ms per aggregate on {TARGET} "
          f"(its cycle_ms_p50 was {p50:.2f} ms)", flush=True)

    plain = {workload: [] for workload in WORKLOADS}
    copy = {workload: [] for workload in WORKLOADS}
    for position, seed in enumerate(seeds):
        for workload in WORKLOADS:
            extra = (("--delay-aggregate-ms", f"{delay_ms:.3f}")
                     if workload == TARGET else ())
            sides = [("plain", ()), ("copy", extra)]
            if position % 2:
                sides.reverse()
            for side, side_extra in sides:
                result = run_once(workload, seed, side_extra)
                (plain if side == "plain" else copy)[workload].append(
                    result)
                print(side, workload, seed, json.dumps(
                    {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()}), flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump({"delay_ms": delay_ms, "plain": plain,
                       "copy": copy}, handle)

    print("spread of the plain runs:")
    print_spreads(plain)
    print("spread of the copy runs:")
    print_spreads(copy)
    flagged = []
    incorrect = [(workload, run["attempted"], run["failed"])
                 for side in (plain, copy)
                 for workload, runs in side.items()
                 for run in runs if not run["correct"]]
    for workload in WORKLOADS:
        for name, metric in bounds.items():
            share = worsening(metric, median(plain[workload], name),
                              median(copy[workload], name))
            hit = share > metric["bound"]
            if hit:
                flagged.append((workload, name))
            mark = "  FLAGGED" if hit else ""
            print(f"{workload:26s} {name:14s} copy worse by {share:+8.2%} "
                  f"(bound {metric['bound']:4.0%}){mark}")
    expected = [(TARGET, "cycle_ms_p50")]
    print("flagged:", flagged, "expected:", expected,
          "runs failing the output check:", incorrect)
    return 0 if flagged == expected and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
