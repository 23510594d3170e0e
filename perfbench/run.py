"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload helios-lenet-serial --seed 0 \
        --seconds 25 --trace 0

A run starts several fresh interpreters (``child.py``), each of which
sets the workload up from the seed and runs every cycle, and checks that
each run's history equals the serial oracle's history for that seed, as
``pinned.json`` records it.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, whose spans are written under
``.bench_out/trace/``.  The line before it records the environment, the
checks and which layers were not measured.

The program's source must be under ``src/`` next to this directory; the
benchmark exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from spec import load_spec, worker_side  # noqa: E402
from workloads import WORKLOADS, get_workload, input_seed  # noqa: E402

#: A run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
#: Off the recording environment, a final-cycle float may differ from the
#: pinned one by this share (accuracy: by this much, absolute), because
#: other BLAS kernels round differently.
RELATIVE_TOLERANCE = 1e-4
ACCURACY_TOLERANCE = 0.02


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (not a failure of the program)."""


def check_benchmark_json(spec) -> None:
    """``BENCHMARK.json`` must list exactly the workloads defined here."""
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise BenchmarkError("BENCHMARK.json workloads disagree with "
                             "perfbench/workloads.py")


def run_child(workload, seed, deadline, *, oracle=False, traced=False,
              trace_out=None, delay_aggregate_ms=0.0):
    """Start one fresh interpreter and return its JSON result.

    A program failure comes back inside the result; a child that dies
    without a result, or overruns the run's deadline, is a benchmark
    error.
    """
    command = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               "--workload", workload.name, "--seed", str(seed)]
    if oracle:
        command.append("--oracle")
    if traced:
        command.append("--traced")
        if trace_out:
            command += ["--trace-out", trace_out]
    if delay_aggregate_ms:
        command += ["--delay-aggregate-ms", str(delay_aggregate_ms)]
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{workload.name}: a child overran the run's "
                             f"{RUN_DEADLINE_S:.0f} s deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload.name}: child exited with code "
                             f"{proc.returncode} and no result")
    return json.loads(lines[-1])


def load_pinned():
    with open(os.path.join(BENCH_DIR, "pinned.json")) as handle:
        return json.load(handle)


def environment_key(env):
    """What the pinned digests depend on besides the program."""
    return {"numpy": env["numpy"], "blas": env["blas"],
            "cpu": env.get("cpu")}


def close_to_pinned(final, pinned_final):
    """Whether a final history row matches the pinned one within rounding.

    Rows are ``history_rows`` rows: cycle, simulated time, accuracy, train
    loss, participants, straggler fraction, extras, dropped clients.
    """
    if (final[0], final[4], final[7]) != (pinned_final[0], pinned_final[4],
                                          pinned_final[7]):
        return False
    floats = [(final[i], pinned_final[i], RELATIVE_TOLERANCE, 0.0)
              for i in (1, 3, 5)]
    floats.append((final[2], pinned_final[2], 0.0, ACCURACY_TOLERANCE))
    if [key for key, _ in final[6]] != [key for key, _ in pinned_final[6]]:
        return False
    floats += [(mine, pinned, RELATIVE_TOLERANCE, 0.0)
               for (_, mine), (_, pinned) in zip(final[6], pinned_final[6])]
    return all(math.isclose(float.fromhex(mine), float.fromhex(pinned),
                            rel_tol=rel, abs_tol=absolute)
               for mine, pinned, rel, absolute in floats)


def check_outputs(workload, seed, results, env):
    """Which results are correct, and a summary of the check.

    A result is correct when it raised nothing and its history equals the
    serial oracle's for the seed: the pinned digest exactly where numpy,
    OpenBLAS and the CPU match the recording, and elsewhere the pinned
    final cycle within rounding, with every interpreter of the run agreeing.
    """
    pinned = load_pinned()
    entry = pinned["tasks"][workload.task].get(str(seed))
    if entry is None:
        raise BenchmarkError(f"pinned.json has no oracle for "
                             f"{workload.task} seed {seed}; run pin.py")
    exact = pinned["environment"] == environment_key(env)
    finished = [r for r in results if r["error"] is None]
    agreed = finished[0]["digest"] if finished else None

    def correct(result):
        if result["error"] is not None:
            return False
        if exact:
            return result["digest"] == entry["digest"]
        return (result["digest"] == agreed
                and close_to_pinned(result["final"], entry["final"]))
    verdicts = [correct(r) for r in results]
    summary = {"pinned": "exact digest" if exact
               else "final cycle within rounding (other environment)",
               "input_seed": seed, "mismatches": verdicts.count(False),
               "errors": [r["error"] for r in results if r["error"]]}
    return verdicts, summary


def tail(values, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``; with too few samples the
    largest value stands in.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        return ordered[-1], 100.0, count
    return (ordered[count - beyond - 1], 100.0 * (count - beyond) / count,
            count)


def timing_metrics(results):
    """The end-to-end metrics over a set of untraced child results."""
    cycles = [c for r in results for c in r["cycle_s"]]
    tail_s, percentile, count = tail(cycles)
    metrics = {
        "samples_per_s": sum(r["samples"] for r in results) / sum(cycles),
        "cycle_ms_p50": 1e3 * statistics.median(cycles),
        "cycle_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": statistics.median(
            r["rss_parent_mb"] + r["rss_workers_mb"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
    }
    return metrics, {"tail_percentile": round(percentile, 2),
                     "cycles": count}


def layer_figures(workload, timed, traced, oracle):
    """The per-layer metrics: medians over the traced children."""
    figures = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    figures["proc.peak_rss_mb.parent"] = statistics.median(
        r["rss_parent_mb"] for r in timed)
    figures["proc.peak_rss_mb.workers"] = statistics.median(
        r["rss_workers_mb"] for r in timed)
    untraced_rate = timing_metrics(timed)[0]["samples_per_s"]
    traced_rate = timing_metrics(traced)[0]["samples_per_s"]
    figures["trace.overhead"] = untraced_rate / traced_rate - 1.0
    # Serial client training time of the same task (the oracle's when
    # training runs in workers) over the time the backend took for it.
    reference = oracle if workload.resident else traced
    train_ms = statistics.median(r["layers"]["client.train_ms_per_cycle"]
                                 for r in reference)
    run_ms = figures["executor.run_ms"]
    figures["executor.parallel_speedup"] = train_ms / run_ms if run_ms else 0.0
    return figures


def run(args):
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        raise BenchmarkError("the program's source (src/repro) is missing")
    spec = load_spec()
    check_benchmark_json(spec)
    workload = get_workload(args.workload)
    seed = input_seed(args.seed)
    count = workload.children(args.seconds or spec["run_seconds"])
    plan = [False] * count
    if args.trace:
        # Untraced and traced children alternate, at least two of each:
        # their throughput ratio is the tracing overhead.
        plan = [index % 2 == 1 for index in range(max(4, count))]
    trace_dir = os.path.join(ROOT, ".bench_out", "trace")

    def trace_out(label):
        return os.path.join(trace_dir, f"{workload.name}-seed{args.seed}"
                                       f"-{label}.jsonl")

    # A traced run of a resident workload also times the serial client
    # training of the same task, for ``executor.parallel_speedup``.
    oracle = None
    if args.trace and workload.resident:
        oracle = run_child(workload, seed, deadline, oracle=True,
                           traced=True, trace_out=trace_out("oracle"))
    children = [run_child(workload, seed, deadline, traced=traced,
                          trace_out=trace_out(f"child{index}"),
                          delay_aggregate_ms=args.delay_aggregate_ms)
                for index, traced in enumerate(plan)]

    env = children[0]["env"]
    checked = children + ([oracle] if oracle else [])
    verdicts, checks = check_outputs(workload, seed, checked, env)
    attempted = sum(r["trainings"] for r in checked)
    failed = sum(r["trainings"] for r, ok in zip(checked, verdicts)
                 if not ok)

    timed = [r for r in children if not r["traced"] and r["error"] is None]
    traced = [r for r in children if r["traced"] and r["error"] is None]
    info = {"workload": workload.name, "seed": args.seed,
            "children": len(children), "env": env, "checks": checks}
    if args.trace and timed and traced and (oracle is None
                                            or oracle["error"] is None):
        values = layer_figures(workload, timed, traced,
                               [oracle] if oracle else None)
        info["not_measured_worker_side"] = (worker_side(spec)
                                            if workload.resident else [])
        info["trace_files"] = sorted(
            name for name in os.listdir(trace_dir)
            if name.startswith(f"{workload.name}-seed{args.seed}-"))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    elif not args.trace and timed:
        values, info["timing"] = timing_metrics(timed)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics = {m["name"]: {"value": 0.0, "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace
                                 else "end_to_end"]}
    info["wall_s"] = time.monotonic() - start
    print(json.dumps({"benchmark_info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay-aggregate-ms", type=float, default=0.0,
                        help="sensitivity check: sleep this long before "
                             "every FLServer.aggregate")
    args = parser.parse_args(argv)
    try:
        run(args)
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
