"""In-memory span tracer and the wrappers that feed it.

The benchmark traces the program from its own files: :func:`instrument`
replaces public methods and module functions of each layer with wrappers
that record a span around the original call.  Nothing under ``src/`` is
changed.  Spans are ``(name, start, end, parent, cycle)`` records kept
in memory; the child writes them out when its run ends.

Every cycle has a root span (its id is the cycle's trace id); a span
opened with an empty call stack hangs off the current root, so the
spans directly below a cycle root are the layers the cycle called.
Spans before cycle 1 hang off the set-up root (cycle 0).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "instrument", "layer_metrics"]

# Span record fields (lists, for cheap appends and updates).
NAME, START, END, PARENT, CYCLE, OUTER = range(6)


class Tracer:
    """Spans and counters of one process, recorded only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._active: Dict[str, int] = defaultdict(int)
        self.cycle = 0
        self._root = self._open_root(0)
        # A forked worker inherits the wrappers but must not record: its
        # spans would never reach the parent.
        os.register_at_fork(after_in_child=self.disable)

    def disable(self) -> None:
        self.enabled = False

    def _open_root(self, cycle: int) -> int:
        self.spans.append(["cycle", time.perf_counter(), None, None, cycle,
                           True])
        return len(self.spans) - 1

    def start_cycle(self, cycle: int) -> None:
        """Close the current root span and open cycle ``cycle``'s."""
        now = time.perf_counter()
        self.spans[self._root][END] = now
        self.cycle = cycle
        self._root = self._open_root(cycle)

    def finish(self) -> None:
        self.spans[self._root][END] = time.perf_counter()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else self._root
        # ``OUTER``: no enclosing span of the same name, so summing the
        # durations of outer spans never counts a nested call twice.
        outer = self._active[name] == 0
        self._active[name] += 1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.cycle, outer])
        span_id = len(self.spans) - 1
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        span = self.spans[span_id]
        span[END] = time.perf_counter()
        self._active[span[NAME]] -= 1
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counters[f"{name}@{self.cycle}"] += value

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the header and every span as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span_id, span in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": span_id, "name": span[NAME],
                     "start": span[START], "end": span[END],
                     "parent": span[PARENT], "cycle": span[CYCLE]}) + "\n")


def _traced(tracer: Tracer, name: str, original: Callable,
            before: Optional[Callable] = None,
            after: Optional[Callable] = None) -> Callable:
    """Wrap ``original`` so that each call records span ``name``.

    ``before(args, kwargs)`` may return another span name for the call;
    ``after(args, kwargs, result)`` records counters.
    """
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        span_name = (before(args, kwargs) if before else None) or name
        span_id = tracer.begin(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(span_id)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def _patch(tracer: Tracer, owner: Any, attr: str, name: str,
           **hooks) -> None:
    setattr(owner, attr, _traced(tracer, name, getattr(owner, attr),
                                 **hooks))


def _traced_batches(tracer: Tracer, original: Callable) -> Callable:
    """Time each step of ``Dataset.batches``, not its consumer's work."""
    @functools.wraps(original)
    def batches(self, *args, **kwargs):
        iterator = original(self, *args, **kwargs)
        if not tracer.enabled:
            return iterator

        def timed():
            while True:
                span_id = tracer.begin("data.batch")
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(span_id)
                yield item
        return timed()
    return batches


def instrument(tracer: Tracer, conv_flops: Dict[str, float]) -> None:
    """Install the span wrappers on every traced layer of the program.

    ``conv_flops`` maps a Conv2D layer name to its per-sample forward
    FLOPs (``repro.nn.flops`` estimate of the unmasked layer); the conv
    wrappers count ``batch x flops`` forward and twice that backward.
    """
    from repro.core import helios, selection
    from repro.data import dataset
    from repro.fl import client, codec, server, simulation, transport
    from repro.nn import model
    from repro.nn.layers import (activations, conv, dense, normalization,
                                 pooling, residual)

    def conv_count(multiplier):
        def after(args, kwargs, result):
            layer, array = args[0], args[1]
            tracer.count("nn.conv.flops", multiplier * array.shape[0]
                         * conv_flops.get(layer.name, 0.0))
        return after

    _patch(tracer, conv.Conv2D, "forward", "nn.conv.fwd",
           after=conv_count(1.0))
    _patch(tracer, conv.Conv2D, "backward", "nn.conv.bwd",
           after=conv_count(2.0))
    leaves = [(residual.ResidualBlock, "nn.residual"),
              (normalization.BatchNorm1D, "nn.norm"),
              (normalization.BatchNorm2D, "nn.norm"),
              (dense.Dense, "nn.dense")]
    leaves += [(cls, "nn.pool") for cls in (
        pooling.MaxPool2D, pooling.AvgPool2D, pooling.GlobalAvgPool2D)]
    leaves += [(cls, "nn.act") for cls in (
        activations.ReLU, activations.LeakyReLU, activations.Sigmoid,
        activations.Tanh, activations.Softmax)]
    for cls, name in leaves:
        _patch(tracer, cls, "forward", name)
        _patch(tracer, cls, "backward", name)
    _patch(tracer, model.Sequential, "train_step", "nn.train_step",
           after=lambda args, kwargs, result: tracer.count("nn.steps"))

    def train_kind(args, kwargs):
        mask = kwargs.get("mask", args[2] if len(args) > 2 else None)
        return ("client.train.straggler" if mask is not None
                else "client.train.capable")

    def train_count(args, kwargs, result):
        kind = "straggler" if result.mask is not None else "capable"
        tracer.count(f"client.samples.{kind}",
                     result.num_samples * result.local_epochs)
        if result.mask is not None:
            tracer.count("client.active_fraction",
                         result.mask.active_fraction())
            tracer.count("client.straggler_trainings")
    _patch(tracer, client.FLClient, "local_train", "client.train",
           before=train_kind, after=train_count)
    dataset.Dataset.batches = _traced_batches(tracer,
                                              dataset.Dataset.batches)

    _patch(tracer, helios.HeliosStrategy, "setup", "core.setup")
    _patch(tracer, selection.SoftTrainingSelector, "select", "core.select")
    _patch(tracer, helios, "neuron_contributions", "core.contribution")
    _patch(tracer, simulation.FederatedSimulation, "client_cycle_seconds",
           "core.cost")

    _patch(tracer, server.FLServer, "aggregate", "server.aggregate")
    _patch(tracer, server.FLServer, "install_partials",
           "server.install_partials")
    _patch(tracer, server.FLServer, "evaluate", "server.evaluate")

    _patch(tracer, codec, "encode_message", "codec.encode",
           after=lambda args, kwargs, frame: (
               tracer.count("codec.frames"),
               tracer.count("codec.bytes_down", frame.total_bytes)))
    _patch(tracer, codec, "decode_message", "codec.decode",
           after=lambda args, kwargs, result: (
               tracer.count("codec.frames"),
               tracer.count("codec.bytes_up", memoryview(args[0]).nbytes)))
    for attr in ("send_frame", "send_bytes"):
        _patch(tracer, transport.MessageChannel, attr, "transport.send")
    _patch(tracer, transport.MessageChannel, "recv_bytes",
           "transport.recv_wait")


def _durations(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Outer (inclusive) and self seconds per span name, over cycles."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None and span[END] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = {"outer": defaultdict(float), "self": defaultdict(float),
              "calls": defaultdict(float)}
    for span_id, span in enumerate(spans):
        if span[END] is None or span[CYCLE] < 1:
            continue
        duration = span[END] - span[START]
        if span[OUTER]:
            totals["outer"][span[NAME]] += duration
            totals["calls"][span[NAME]] += 1
        totals["self"][span[NAME]] += duration - child_time[span_id]
    return totals


def _nested_in(spans: List[list], span_id: int, ancestor_name: str) -> bool:
    parent = spans[span_id][PARENT]
    while parent is not None:
        if spans[parent][NAME] == ancestor_name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer, num_cycles: int) -> Dict[str, float]:
    """Per-layer figures of one traced run, per cycle unless noted."""
    spans = tracer.spans
    totals = _durations(spans)
    outer, self_time = totals["outer"], totals["self"]
    counters: Dict[str, float] = defaultdict(float)
    for key, value in tracer.counters.items():
        name, cycle = key.rsplit("@", 1)
        if int(cycle) >= 1:
            counters[name] += value
    per_cycle = 1.0 / max(num_cycles, 1)

    def ms(name: str) -> float:
        return 1e3 * outer[name] * per_cycle

    conv_s = outer["nn.conv.fwd"] + outer["nn.conv.bwd"]
    train = {kind: (outer[f"client.train.{kind}"],
                    totals["calls"][f"client.train.{kind}"],
                    counters[f"client.samples.{kind}"])
             for kind in ("capable", "straggler")}

    def per_training_ms(kind: str) -> float:
        seconds, calls, _ = train[kind]
        return 1e3 * seconds / calls if calls else 0.0

    def per_sample(kind: str) -> float:
        seconds, _, samples = train[kind]
        return seconds / samples if samples else 0.0

    codec_in_executor = sum(
        span[END] - span[START] for span_id, span in enumerate(spans)
        if span[NAME] in ("codec.encode", "codec.decode") and span[OUTER]
        and span[CYCLE] >= 1 and _nested_in(spans, span_id, "executor.run"))
    roots = [span_id for span_id, span in enumerate(spans)
             if span[NAME] == "cycle" and span[CYCLE] >= 1]
    root_set = set(roots)
    cycle_wall = sum(spans[i][END] - spans[i][START] for i in roots)
    covered = sum(span[END] - span[START] for span in spans
                  if span[PARENT] in root_set and span[END] is not None)
    steps = totals["calls"]["nn.train_step"]
    return {
        "nn.conv.fwd_ms": ms("nn.conv.fwd"),
        "nn.conv.bwd_ms": ms("nn.conv.bwd"),
        "nn.conv.gflops": (counters["nn.conv.flops"] / conv_s / 1e9
                           if conv_s else 0.0),
        "nn.residual.self_ms": 1e3 * self_time["nn.residual"] * per_cycle,
        "nn.norm.ms": ms("nn.norm"),
        "nn.pool.ms": ms("nn.pool"),
        "nn.act.ms": ms("nn.act"),
        "nn.dense.ms": ms("nn.dense"),
        "nn.train_step_ms": (1e3 * outer["nn.train_step"] / steps
                             if steps else 0.0),
        "nn.steps": steps * per_cycle,
        "client.train_ms.capable": per_training_ms("capable"),
        "client.train_ms.straggler": per_training_ms("straggler"),
        "client.straggler_active_fraction": (
            counters["client.active_fraction"]
            / counters["client.straggler_trainings"]
            if counters["client.straggler_trainings"] else 0.0),
        "client.straggler_compute_ratio": (
            per_sample("straggler") / per_sample("capable")
            if per_sample("capable") else 0.0),
        "client.train_ms_per_cycle": 1e3 * per_cycle * (
            train["capable"][0] + train["straggler"][0]),
        "core.setup_ms": 1e3 * sum(span[END] - span[START] for span in spans
                                   if span[NAME] == "core.setup"
                                   and span[OUTER]),
        "core.select_ms": ms("core.select"),
        "core.contribution_ms": ms("core.contribution"),
        "core.cost_ms": ms("core.cost"),
        "server.aggregate_ms": ms("server.aggregate"),
        "server.install_partials_ms": ms("server.install_partials"),
        "server.evaluate_ms": ms("server.evaluate"),
        "executor.run_ms": ms("executor.run"),
        "executor.wait_ms": 1e3 * per_cycle * (outer["executor.run"]
                                               - codec_in_executor),
        "executor.reply_bytes": counters["executor.reply_bytes"] * per_cycle,
        "codec.encode_ms": ms("codec.encode"),
        "codec.decode_ms": ms("codec.decode"),
        "codec.frames": counters["codec.frames"] * per_cycle,
        "codec.bytes_down": counters["codec.bytes_down"] * per_cycle,
        "codec.bytes_up": counters["codec.bytes_up"] * per_cycle,
        "transport.recv_wait_ms": ms("transport.recv_wait"),
        "transport.send_ms": ms("transport.send"),
        "data.batch_ms": ms("data.batch"),
        "trace.coverage": covered / cycle_wall if cycle_wall else 0.0,
    }
