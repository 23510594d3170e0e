"""One fresh-interpreter run of a workload, driven by ``run.py``.

Usage (``run.py`` starts it; running it by hand prints the same JSON)::

    python3 perfbench/child.py --workload helios-lenet-serial --seed 0 \
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"

The child builds the workload through the public experiment API, runs
every cycle with :meth:`FederatedSimulation.run`, and prints one JSON
line: set-up time (from ``--t0``, the parent's monotonic clock just
before it started this interpreter, to the start of cycle 1), each
cycle's wall-clock time, the client trainings and samples it scheduled,
peak resident memory, a digest of the run history, and, with
``--traced``, the per-layer figures of ``tracer.layer_metrics``.  An
exception in the program is reported in the JSON, not raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

from tracer import Tracer, instrument, layer_metrics
from workloads import NUM_CAPABLE, NUM_STRAGGLERS, get_workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def history_rows(history):
    """The checked outputs of a run, floats in exact hex form."""
    return [[record.cycle, record.sim_time_s.hex(),
             float(record.global_accuracy).hex(),
             float(record.mean_train_loss).hex(),
             record.participating_clients,
             float(record.straggler_fraction_trained).hex(),
             sorted((key, float(value).hex())
                    for key, value in record.extra.items()),
             list(record.dropped_clients)]
            for record in history.records]


def _vmhwm_mb(pid) -> float:
    """Peak resident set (VmHWM) of a process in MB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _child_pids():
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def environment():
    import multiprocessing
    import platform

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    # The CPU model and its feature flags pick the BLAS kernels, and so
    # the last bits of every float the run computes.
    fields = {}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    flags = hashlib.sha256(fields.get("flags", "").encode()).hexdigest()
    cpu = f"{fields.get('model name', platform.processor())} {flags[:12]}"
    return {"nproc": os.cpu_count(),
            "cpu": cpu,
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas,
            "start_method": multiprocessing.get_context().get_start_method(),
            "blas_thread_vars": {name: os.environ.get(name)
                                 for name in BLAS_THREAD_VARS}}


def build(workload, seed):
    """The workload's simulation, strategy and cycle count."""
    from repro.baselines import SynchronousFLStrategy
    from repro.core import HeliosConfig, HeliosStrategy
    from repro.experiments.common import (DATASET_MODEL, ExperimentScale,
                                          ExperimentSetting,
                                          make_simulation_factory)
    from repro.fl import make_backend

    setting = ExperimentSetting(
        dataset=workload.dataset, model=DATASET_MODEL[workload.dataset],
        num_capable=NUM_CAPABLE, num_stragglers=NUM_STRAGGLERS,
        partition="iid", seed=seed)
    scale = ExperimentScale(**dict(workload.scale))
    factory, num_cycles = make_simulation_factory(setting, scale)
    sim = factory()
    if workload.backend != "serial":
        sim.set_backend(make_backend(workload.backend,
                                     max_workers=workload.workers,
                                     aggregation=workload.aggregation))
    if workload.strategy == "helios":
        strategy = HeliosStrategy(HeliosConfig(
            straggler_top_k=NUM_STRAGGLERS, seed=seed))
    else:
        strategy = SynchronousFLStrategy(
            straggler_top_k=NUM_STRAGGLERS, seed=seed)
    return sim, strategy, num_cycles, scale.eval_every


def delay_aggregate(seconds):
    """Sensitivity check: sleep before every ``FLServer.aggregate``."""
    from repro.fl import server
    original = server.FLServer.aggregate

    def aggregate(self, *args, **kwargs):
        time.sleep(seconds)
        return original(self, *args, **kwargs)
    server.FLServer.aggregate = aggregate


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's time.monotonic() before the spawn")
    parser.add_argument("--oracle", action="store_true",
                        help="run the workload's serial flat oracle")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--delay-aggregate-ms", type=float, default=0.0)
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = get_workload(args.workload)
    if args.oracle:
        workload = workload.oracle()
    tracer = Tracer()
    if args.delay_aggregate_ms > 0:
        delay_aggregate(args.delay_aggregate_ms / 1e3)

    cycle_starts = []
    counts = {"trainings": 0, "samples": 0}
    result = {"workload": workload.name, "seed": args.seed,
              "traced": args.traced, "error": None}
    sim = None
    expected_trainings = 0
    try:
        sim, strategy, num_cycles, eval_every = build(workload, args.seed)
        expected_trainings = num_cycles * sim.num_clients()
        if args.traced:
            from repro.nn.flops import estimate_model_cost

            # A fresh replica: ``estimate_model_cost`` leaves instance-level
            # ``forward`` attributes on the layers it measures, which
            # would hide the global model from the class-level wrappers.
            cost = estimate_model_cost(sim.server.model_factory(),
                                       sim.input_shape)
            instrument(tracer, {layer.name: layer.inference_flops
                                for layer in cost.layer_costs
                                if layer.layer_type == "Conv2D"})
        _hook_cycles(strategy, tracer, cycle_starts)
        _hook_executor(sim.backend, tracer, counts)
        tracer.enabled = args.traced
        history = sim.run(strategy, num_cycles=num_cycles,
                          eval_every=eval_every)
        end = time.monotonic()
        tracer.finish()
        tracer.enabled = False
        rows = history_rows(history)
        result.update(
            setup_s=cycle_starts[0] - t0,
            cycle_s=[b - a for a, b in zip(cycle_starts,
                                           cycle_starts[1:] + [end])],
            trainings=counts["trainings"], samples=counts["samples"],
            digest=hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
            final=rows[-1] if rows else None,
            rss_parent_mb=_vmhwm_mb("self"),
            rss_workers_mb=sum(_vmhwm_mb(pid) for pid in _child_pids()))
        if args.traced:
            result["layers"] = layer_metrics(tracer, len(cycle_starts))
    except Exception:  # the program failed: report it, do not crash
        result["error"] = traceback.format_exc(limit=8)
        result["trainings"] = max(counts["trainings"], expected_trainings)
    finally:
        tracer.enabled = False
        if sim is not None:
            sim.close()
    result["env"] = environment()
    if args.traced and args.trace_out:
        tracer.write(args.trace_out, {"workload": workload.name,
                                      "seed": args.seed,
                                      "env": result["env"]})
    print(json.dumps(result))
    return 0


def _hook_cycles(strategy, tracer, cycle_starts):
    """Time-stamp each cycle's start (its end is the next one's start)."""
    original = strategy.execute_cycle

    def execute_cycle(cycle, sim):
        cycle_starts.append(time.monotonic())
        tracer.start_cycle(cycle)
        return original(cycle, sim)
    strategy.execute_cycle = execute_cycle


def _hook_executor(backend, tracer, counts):
    """Count scheduled trainings and samples; trace ``executor.run``."""
    depth = [0]

    def wrap(original):
        def run(clients, jobs, *args, **kwargs):
            outer = depth[0] == 0
            if outer:
                counts["trainings"] += len(jobs)
                counts["samples"] += sum(
                    clients[job.index].num_samples
                    * (job.local_epochs
                       or clients[job.index].config.local_epochs)
                    for job in jobs)
            depth[0] += 1
            span = tracer.begin("executor.run") if tracer.enabled else None
            try:
                return original(clients, jobs, *args, **kwargs)
            finally:
                depth[0] -= 1
                if span is not None:
                    tracer.end(span)
                    if outer:
                        tracer.count("executor.reply_bytes", getattr(
                            backend, "last_reply_bytes", 0))
        return run
    backend.run_jobs = wrap(backend.run_jobs)
    backend.run_fold = wrap(backend.run_fold)


if __name__ == "__main__":
    sys.exit(main())
