"""The benchmark's metrics and run length, as ``BENCHMARK.json`` lists them.

The end-to-end metrics are those a user of the program sees, measured
with tracing off; the per-layer metrics are the traced run's figures.
README.md holds the layer table: which layer each per-layer
metric measures, and which end-to-end metric and workload it should move.

Per-layer times are milliseconds per cycle (the sum over a cycle's calls,
outermost call only, so a nested call is not counted twice), except
``client.train_ms.*`` (per training), ``nn.train_step_ms`` (per step) and
``core.setup_ms`` (once per run).  ``nn.residual.self_ms`` is the
residual blocks' self time: their duration minus the spans of the layers
inside them.  Counts and bytes are per cycle.
"""

from __future__ import annotations

import json
import os

__all__ = ["load_spec", "worker_side"]

#: Prefixes of the per-layer metrics whose layers run inside worker or
#: shard processes on the resident workloads, where the parent-side trace
#: cannot see them (README.md).
WORKER_SIDE_PREFIXES = ("nn.", "client.", "data.")


def load_spec():
    """Read ``BENCHMARK.json``.

    Its ``end_to_end`` and ``per_layer`` keys are lists of metric dicts
    with ``name``, ``unit``, ``better`` and, end to end, ``bound``.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def worker_side(spec):
    """The per-layer metrics not measured on a resident workload."""
    return [metric["name"] for metric in spec["per_layer"]
            if metric["name"].startswith(WORKER_SIDE_PREFIXES)]
