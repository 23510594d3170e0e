"""Record the serial oracle's history for every input seed.

Usage, from the root of the repository::

    python3 perfbench/pin.py

Runs the serial, flat-aggregation oracle of every task once for each of
the ``INPUT_SEEDS`` input seeds and writes ``perfbench/pinned.json``: the
digest of each history and its final cycle, and the environment they were
recorded in.  ``run.py`` checks every run against it, so that a change to
the program's numerics fails the output check instead of passing as a
speed-up.  Re-pin only for a change that is meant to alter the
simulation's results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import BENCH_DIR, RUN_DEADLINE_S, environment_key, run_child
from workloads import INPUT_SEEDS, WORKLOADS


def main():
    tasks = {}
    environments = []
    for workload in WORKLOADS.values():
        if workload.task in tasks:
            continue
        tasks[workload.task] = {}
        for seed in range(INPUT_SEEDS):
            result = run_child(workload, seed,
                               time.monotonic() + RUN_DEADLINE_S, oracle=True)
            if result["error"]:
                print(result["error"], file=sys.stderr)
                return 1
            tasks[workload.task][str(seed)] = {"digest": result["digest"],
                                               "final": result["final"]}
            environments.append(environment_key(result["env"]))
            print(workload.task, seed, result["digest"], flush=True)
    if any(env != environments[0] for env in environments):
        print("the environment changed while pinning", file=sys.stderr)
        return 1
    with open(os.path.join(BENCH_DIR, "pinned.json"), "w") as handle:
        json.dump({"environment": environments[0],
                   "input_seeds": INPUT_SEEDS, "tasks": tasks},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
