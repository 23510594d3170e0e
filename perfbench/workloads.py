"""The benchmark's workloads: four slices of the paper's Fig. 5 panel.

Every workload is the 3 capable + 3 straggler fleet of Fig. 5's larger
panel, built through the public experiment API
(:func:`repro.experiments.common.make_simulation_factory`,
:func:`repro.fl.make_backend`, :meth:`FederatedSimulation.run`).  They
differ in strategy, model and execution backend, so that each stresses a
different layer (README.md says which metric each should move).

This module imports nothing from ``repro``: the parent process of a run
only needs the workload table, and the program is imported in the child
interpreters that actually run it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "get_workload", "input_seed",
           "NUM_CAPABLE", "NUM_STRAGGLERS", "INPUT_SEEDS"]

#: The fleet of Fig. 5's larger panel.
NUM_CAPABLE = 3
NUM_STRAGGLERS = 3

#: Distinct inputs per workload.  Benchmark seed ``n`` builds the inputs
#: of seed ``n % INPUT_SEEDS``, so that ``pinned.json`` holds the serial
#: oracle's history for every seed a run can be given.
INPUT_SEEDS = 16


def input_seed(seed: int) -> int:
    """The seed the workload's inputs are built from."""
    return seed % INPUT_SEEDS


@dataclass(frozen=True)
class Workload:
    """One benchmark workload of ``NUM_CAPABLE`` + ``NUM_STRAGGLERS`` devices.

    ``scale`` holds the fields of :class:`repro.experiments.common.
    ExperimentScale`; ``make_simulation_factory`` still applies the
    repository's per-dataset size adjustment to it.  ``child_seconds``
    is the wall-clock time of one fresh-interpreter run of the workload
    on the reference box (2 CPUs); a benchmark run of ``--seconds``
    seconds starts ``children(seconds)`` of them.
    """

    name: str
    strategy: str                  # "helios" or "syncfl"
    dataset: str                   # "mnist" (LeNet) or "cifar100" (ResNet)
    backend: str                   # "serial", "persistent" or "sharded"
    workers: Optional[int]         # worker processes or localhost shards
    aggregation: Optional[str]     # None (flat) or "hierarchical"
    scale: Tuple[Tuple[str, object], ...]
    child_seconds: float

    @property
    def resident(self) -> bool:
        """Whether client training runs outside the measured process."""
        return self.backend in ("persistent", "sharded")

    @property
    def task(self) -> str:
        """The numerical task: workloads with one task share one oracle."""
        return f"{self.strategy}-{self.dataset}"

    def oracle(self) -> "Workload":
        """The serial, flat-aggregation run whose history this must equal."""
        return replace(self, name=f"{self.task}-oracle", backend="serial",
                       workers=None, aggregation=None)

    def children(self, seconds: float) -> int:
        """Fresh interpreters one run starts: fixed work for a run length.

        At least three, so that ``setup_s`` is a median of several set-ups.
        """
        return max(3, int(round(seconds / self.child_seconds)))


# LeNet on synthetic MNIST: the repository's ``fast`` scale with a smaller
# training set and test set per cycle, so that a run holds many cycles.
_LENET_SCALE = (("name", "bench-lenet"), ("num_train", 600),
                ("num_test", 150), ("width_multiplier", 0.4),
                ("num_cycles", 12), ("batch_size", 32),
                ("learning_rate", 0.05), ("local_epochs", 1),
                ("workload_scale", 40.0), ("eval_every", 1))

# ResNet on synthetic CIFAR-100 (``make_simulation_factory`` applies the
# repository's cifar100 adjustment: width x0.2, train x0.5, cycles x0.6).
_RESNET_SCALE = (("name", "bench-resnet"), ("num_train", 240),
                 ("num_test", 80), ("width_multiplier", 0.25),
                 ("num_cycles", 14), ("batch_size", 20),
                 ("learning_rate", 0.08), ("local_epochs", 1),
                 ("workload_scale", 60.0), ("eval_every", 1))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("helios-lenet-serial", "helios", "mnist", "serial", None, None,
             _LENET_SCALE, child_seconds=4.2),
    Workload("helios-lenet-persistent", "helios", "mnist", "persistent", 2,
             None, _LENET_SCALE, child_seconds=7.7),
    Workload("syncfl-resnet-serial", "syncfl", "cifar100", "serial", None,
             None, _RESNET_SCALE, child_seconds=9.5),
    Workload("syncfl-lenet-sharded", "syncfl", "mnist", "sharded", 2,
             "hierarchical", _LENET_SCALE, child_seconds=9.0),
)}


def get_workload(name: str) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"available: {sorted(WORKLOADS)}")
    return WORKLOADS[name]
