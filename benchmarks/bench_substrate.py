"""Micro-benchmarks of the substrates themselves.

These are conventional pytest-benchmark timings (multiple rounds) of the
hot paths every experiment exercises: a CNN training step, neuron-granular
partial aggregation, the soft-training selection, the analytical cost
model, and the execution backends running one multi-client cycle.  They
make regressions in the substrate visible independently of the
figure-level experiments.

Besides the pytest-benchmark timings, ``test_substrate_report_json``
writes a machine-readable ``benchmarks/results/BENCH_substrate.json``
with per-backend cycle times and dispatch payload bytes, and asserts the
persistent backend's core scaling property: warm dispatch is O(weights),
independent of dataset size, and strictly smaller than the cold
dispatch that ships every client's spec.  Its ``virtual_fleets``
section sweeps logical fleet sizes through ``run_virtual_cycle`` on a
2-shard fleet and asserts the hierarchical-aggregation claim: upstream
bytes independent of the fleet size and >=10x below flat at 10^3
clients/shard.  The
``transport`` section records median ping round-trips against a live
shard server with TCP_NODELAY on (the default) and off, so the Nagle
before/after is visible in the report.
"""

import json
import os
import time

import numpy as np

from repro.core import SoftTrainingSelector
from repro.data.synthetic import (SyntheticImageSpec, VirtualClientDatasets,
                                  make_classification_images)
from repro.fl import (ClientConfig, ClientUpdate, FLClient, FLServer,
                      FederatedSimulation, VirtualFleet, make_backend)
from repro.fl.aggregation import ModelStructure, aggregate_partial
from repro.hardware import DeviceProfile, JETSON_NANO_CPU, TrainingCostModel
from repro.nn import SGD, ModelMask, SoftmaxCrossEntropy
from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.model import Sequential
from repro.nn.models import build_lenet


def _lenet():
    return build_lenet(width_multiplier=0.4, rng=np.random.default_rng(0))


def test_bench_lenet_train_step(benchmark):
    model = _lenet()
    loss_fn = SoftmaxCrossEntropy()
    optimizer = SGD(model.parameters(), lr=0.05)
    rng = np.random.default_rng(1)
    images = rng.normal(size=(32, 1, 28, 28))
    labels = rng.integers(0, 10, 32)
    benchmark(lambda: model.train_step(images, labels, loss_fn, optimizer))


def test_bench_partial_aggregation(benchmark):
    model = _lenet()
    structure = ModelStructure.from_model(model)
    global_weights = model.get_weights()
    rng = np.random.default_rng(0)
    updates = []
    for client_id in range(6):
        mask = None
        if client_id >= 3:
            mask = ModelMask.random(
                model, {layer.name: 0.3 for layer in model.neuron_layers()},
                rng)
        weights = {name: value + rng.normal(0, 0.01, value.shape)
                   for name, value in global_weights.items()}
        updates.append(ClientUpdate(client_id=client_id,
                                    client_name=f"c{client_id}",
                                    weights=weights, num_samples=100,
                                    train_loss=0.0, mask=mask))
    benchmark(lambda: aggregate_partial(global_weights, updates, structure))


def _reference_aggregate_partial(global_weights, updates, structure,
                                 client_weights=None):
    """The pre-exact-summation per-update loop, kept as the numerical
    reference for :func:`test_partial_aggregation_vectorization_guard`.

    Since the hierarchical-aggregation work, ``aggregate_partial`` sums
    on the error-free pre-rounding grids (order/partition independent);
    this loop uses plain float sums, so it agrees only to ~1e-12, not
    bit for bit."""
    from repro.fl.aggregation import (_neuron_weight_vector,
                                      normalize_weights,
                                      sample_count_weights)

    if client_weights is None:
        weights = sample_count_weights(updates)
    else:
        weights = normalize_weights(client_weights)
    aggregated = {}
    for name, global_value in global_weights.items():
        info = structure[name] if name in structure else None
        global_value = np.asarray(global_value)
        if info is None or info.layer_name is None or info.neuron_axis is None:
            stacked = np.stack([update.weights[name] for update in updates])
            aggregated[name] = np.tensordot(weights, stacked, axes=1)
            continue
        axis = info.neuron_axis
        num_neurons = global_value.shape[axis]
        numerator = np.zeros_like(global_value, dtype=np.float64)
        denominator = np.zeros(num_neurons, dtype=np.float64)
        for weight, update in zip(weights, updates):
            layer_mask = None
            if update.mask is not None and info.layer_name in update.mask:
                layer_mask = update.mask[info.layer_name]
            neuron_weights = _neuron_weight_vector(layer_mask, num_neurons,
                                                   float(weight))
            denominator += neuron_weights
            broadcast_shape = [1] * global_value.ndim
            broadcast_shape[axis] = num_neurons
            numerator += (neuron_weights.reshape(broadcast_shape)
                          * np.asarray(update.weights[name]))
        covered = denominator > 0
        safe_denominator = np.where(covered, denominator, 1.0)
        broadcast_shape = [1] * global_value.ndim
        broadcast_shape[axis] = num_neurons
        blended = numerator / safe_denominator.reshape(broadcast_shape)
        keep_mask = (~covered).reshape(broadcast_shape)
        aggregated[name] = np.where(keep_mask, global_value, blended)
    return aggregated


def _many_masked_updates(num_updates=32):
    """A wide masked-update batch that makes the per-update loop hurt."""
    model = _lenet()
    structure = ModelStructure.from_model(model)
    global_weights = model.get_weights()
    rng = np.random.default_rng(7)
    updates = []
    for client_id in range(num_updates):
        mask = ModelMask.random(
            model, {layer.name: 0.5 for layer in model.neuron_layers()},
            rng)
        weights = {name: value + rng.normal(0, 0.01, value.shape)
                   for name, value in global_weights.items()}
        updates.append(ClientUpdate(client_id=client_id,
                                    client_name=f"c{client_id}",
                                    weights=weights, num_samples=100,
                                    train_loss=0.0, mask=mask))
    return global_weights, updates, structure


def _per_update_exact_aggregate_partial(global_weights, updates, structure):
    """Per-update Python loop over the *same* exact-summation algorithm:
    fold every update alone and merge the partials.  Level sums add
    exactly, so this is bit-identical to the chunk-vectorized
    ``aggregate_partial`` — it is the one-client-per-shard degenerate
    topology, and the timing baseline the vectorized fold must beat."""
    from repro.fl.aggregation import (finalize_partials, fold_updates,
                                      sample_count_weights)

    weights = sample_count_weights(updates)
    partials = [fold_updates([update], [weight], structure, partial=True)
                for update, weight in zip(updates, weights)]
    return finalize_partials(global_weights, partials, structure=structure)


def test_partial_aggregation_vectorization_guard():
    """The chunk-vectorized aggregate_partial must match the per-update
    exact fold bit for bit (partition invariance), agree with the plain
    float-sum loop numerically, and must not be slower than per-update
    Python looping of the same algorithm."""
    global_weights, updates, structure = _many_masked_updates()
    plain = _reference_aggregate_partial(global_weights, updates,
                                         structure)
    looped = _per_update_exact_aggregate_partial(global_weights, updates,
                                                 structure)
    actual = aggregate_partial(global_weights, updates, structure)
    assert plain.keys() == actual.keys()
    for name in plain:
        np.testing.assert_allclose(actual[name], plain[name],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(actual[name], looped[name],
                                      err_msg=name)
    # Timing guard: best-of-3 each, generous 1.5x margin so the
    # assertion stays robust on loaded CI machines while still catching
    # a regression back to per-update Python looping.
    reference_s = min(_timeit(lambda: _per_update_exact_aggregate_partial(
        global_weights, updates, structure)) for _ in range(3))
    vectorized_s = min(_timeit(lambda: aggregate_partial(
        global_weights, updates, structure)) for _ in range(3))
    print(f"\naggregate_partial ({len(updates)} masked updates): "
          f"per-update exact loop {reference_s * 1000:.1f} ms, vectorized "
          f"{vectorized_s * 1000:.1f} ms "
          f"({reference_s / vectorized_s:.2f}x)")
    assert vectorized_s <= reference_s * 1.5


def _timeit(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_bench_soft_training_selection(benchmark):
    model = _lenet()
    fractions = {layer.name: 0.25 for layer in model.neuron_layers()}
    selector = SoftTrainingSelector(model, fractions, top_share=0.1,
                                    rng=np.random.default_rng(0))
    contributions = {layer.name: np.random.default_rng(1).random(
        layer.num_neurons) for layer in model.neuron_layers()}
    benchmark(lambda: selector.select(contributions))


def test_bench_cost_model_estimate(benchmark):
    model = _lenet()
    cost_model = TrainingCostModel(model, (1, 28, 28),
                                   samples_per_cycle=10_000)
    fractions = {layer.name: 0.4 for layer in model.neuron_layers()}
    benchmark(lambda: cost_model.estimate(JETSON_NANO_CPU, fractions))


# --------------------------------------------------------------------- #
# execution backends: one multi-client cycle, serial vs. concurrent
# --------------------------------------------------------------------- #

#: Emulated per-client device round-trip latency of the backend benches.
_CLIENT_LATENCY_S = 0.03
_NUM_LATENCY_CLIENTS = 6

_BENCH_SPEC = SyntheticImageSpec(
    name="bench", image_shape=(1, 8, 8), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)


def _bench_model():
    rng = np.random.default_rng(3)
    return Sequential([
        Flatten(name="flatten"),
        Dense(64, 16, rng=rng, name="fc1"),
        ReLU(name="relu1"),
        Dense(16, 4, rng=rng, name="output"),
    ], name="bench-mlp")


class _LatencyBoundClient(FLClient):
    """A client whose local training hides a device round-trip latency.

    The NumPy trainings of this repo are CPU-bound, so on a single-core
    runner the concurrency win of the pooled backends comes from
    overlapping *latency* (exactly what real edge-device round-trips look
    like); this client makes that latency explicit and measurable.
    """

    def local_train(self, *args, **kwargs):
        time.sleep(_CLIENT_LATENCY_S)
        return super().local_train(*args, **kwargs)


def _latency_fleet(num_clients=_NUM_LATENCY_CLIENTS) -> FederatedSimulation:
    samples = 20
    pool = make_classification_images(samples * num_clients + 40,
                                      _BENCH_SPEC, np.random.default_rng(0))
    device = DeviceProfile(name="bench-node", compute_gflops=50.0,
                           memory_bandwidth_gbps=10.0,
                           network_bandwidth_mbps=100.0,
                           memory_capacity_mb=1024.0)
    config = ClientConfig(batch_size=10, local_epochs=1, learning_rate=0.1)
    clients = [
        _LatencyBoundClient(
            client_id=index,
            dataset=pool.subset(np.arange(index * samples,
                                          (index + 1) * samples)),
            device=device, model_factory=_bench_model, config=config)
        for index in range(num_clients)
    ]
    server = FLServer(_bench_model,
                      test_dataset=pool.subset(
                          np.arange(samples * num_clients, len(pool))))
    return FederatedSimulation(clients, server, input_shape=(1, 8, 8))


def _bench_backend_cycle(benchmark, backend_name):
    sim = _latency_fleet()
    sim.set_backend(make_backend(backend_name,
                                 max_workers=_NUM_LATENCY_CLIENTS)
                    if backend_name != "serial" else "serial")
    indices = sim.client_indices()
    try:
        # Warm the pool (fork/thread startup) outside the timed region.
        sim.train_clients(indices)
        benchmark(lambda: sim.train_clients(indices))
    finally:
        sim.backend.close()


def test_bench_cycle_serial_backend(benchmark):
    _bench_backend_cycle(benchmark, "serial")


def test_bench_cycle_thread_backend(benchmark):
    _bench_backend_cycle(benchmark, "thread")


def test_bench_cycle_persistent_backend(benchmark):
    _bench_backend_cycle(benchmark, "persistent")


def test_bench_cycle_sharded_backend(benchmark):
    _bench_backend_cycle(benchmark, "sharded")


def _timed_cycle(backend_name, **backend_kwargs):
    """Seconds of one warm full-fleet cycle on the latency-bound fleet."""
    sim = _latency_fleet()
    if backend_name != "serial":
        sim.set_backend(make_backend(
            backend_name, max_workers=_NUM_LATENCY_CLIENTS,
            **backend_kwargs))
    indices = sim.client_indices()
    try:
        sim.train_clients(indices)  # pool warm-up outside the timing
        start = time.perf_counter()
        updates = sim.train_clients(indices)
        elapsed = time.perf_counter() - start
    finally:
        sim.backend.close()
    assert len(updates) == len(indices)
    return elapsed


def test_parallel_backends_beat_serial_cycle():
    """Measured speedup: pooled backends overlap a latency-bound cycle."""
    serial_s = _timed_cycle("serial")
    thread_s = _timed_cycle("thread")
    persistent_s = _timed_cycle("persistent")
    sharded_s = _timed_cycle("sharded")
    print(f"\nmulti-client cycle ({_NUM_LATENCY_CLIENTS} clients, "
          f"{_CLIENT_LATENCY_S * 1000:.0f} ms latency each): "
          f"serial {serial_s * 1000:.1f} ms, "
          f"thread {thread_s * 1000:.1f} ms ({serial_s / thread_s:.2f}x), "
          f"persistent {persistent_s * 1000:.1f} ms "
          f"({serial_s / persistent_s:.2f}x), "
          f"sharded {sharded_s * 1000:.1f} ms "
          f"({serial_s / sharded_s:.2f}x)")
    # The serial cycle pays every client's latency back to back; the
    # pooled backends overlap them.  Require a conservative 1.5x so the
    # assertion stays robust on loaded CI machines.
    assert serial_s > 1.5 * thread_s
    assert serial_s > 1.5 * persistent_s
    assert serial_s > 1.5 * sharded_s


# --------------------------------------------------------------------- #
# machine-readable substrate report (BENCH_substrate.json)
# --------------------------------------------------------------------- #

def _payload_fleet(samples_per_client):
    """A plain (no artificial latency) fleet for dispatch-size accounting."""
    num_clients = _NUM_LATENCY_CLIENTS
    pool = make_classification_images(
        samples_per_client * num_clients + 40, _BENCH_SPEC,
        np.random.default_rng(0))
    device = DeviceProfile(name="bench-node", compute_gflops=50.0,
                           memory_bandwidth_gbps=10.0,
                           network_bandwidth_mbps=100.0,
                           memory_capacity_mb=1024.0)
    config = ClientConfig(batch_size=10, local_epochs=1, learning_rate=0.1)
    clients = [
        FLClient(client_id=index,
                 dataset=pool.subset(np.arange(
                     index * samples_per_client,
                     (index + 1) * samples_per_client)),
                 device=device, model_factory=_bench_model, config=config)
        for index in range(num_clients)
    ]
    server = FLServer(_bench_model,
                      test_dataset=pool.subset(
                          np.arange(samples_per_client * num_clients,
                                    len(pool))))
    return FederatedSimulation(clients, server, input_shape=(1, 8, 8))


#: Wire-codec configurations the dispatch accounting sweeps.  ``full``
#: is the pickle-full-snapshot baseline (delta off, raw segments) —
#: byte-wise what the pre-codec wire format shipped per cycle.
_CODEC_CONFIGS = {
    "full": {"delta_shipping": False, "wire_compression": "none"},
    "delta": {"delta_shipping": True, "wire_compression": "none"},
    "delta_zlib": {"delta_shipping": True, "wire_compression": "zlib"},
}


def _dispatch_payloads(samples_per_client, codec_name,
                       include_sharded=True):
    """Warm per-cycle dispatch bytes of the distributed-capable backends.

    Measures the ``persistent`` pipe backend under one codec
    configuration, optionally a 2-shard ``sharded`` socket fleet (the
    wire bytes a multi-host deployment would put on the network each
    cycle — byte-identical to the pipe payload by design).
    """
    from repro.fl.executor import TrainingJob

    config = _CODEC_CONFIGS[codec_name]
    sim = _payload_fleet(samples_per_client)
    sim.set_backend("persistent", max_workers=2, **config)
    weights = sim.server.get_global_weights()
    jobs = [TrainingJob(index=index, weights=weights)
            for index in sim.client_indices()]
    try:
        cold = sim.backend.dispatch_payload_bytes(sim.clients, jobs)
        sim.run_jobs(jobs)  # ships the specs; replicas become resident
        warm = sim.backend.dispatch_payload_bytes(sim.clients, jobs)
    finally:
        sim.close()
    payloads = {"persistent_cold": cold, "persistent_warm": warm}
    if not include_sharded:
        return payloads

    sharded_sim = _payload_fleet(samples_per_client)
    sharded_sim.set_backend("sharded", max_workers=2, **config)
    sharded_weights = sharded_sim.server.get_global_weights()
    sharded_jobs = [TrainingJob(index=index, weights=sharded_weights)
                    for index in sharded_sim.client_indices()]
    try:
        sharded_cold = sharded_sim.backend.dispatch_payload_bytes(
            sharded_sim.clients, sharded_jobs)
        sharded_sim.run_jobs(sharded_jobs)
        sharded_warm = sharded_sim.backend.dispatch_payload_bytes(
            sharded_sim.clients, sharded_jobs)
    finally:
        sharded_sim.close()
    payloads.update({"sharded_cold": sharded_cold,
                     "sharded_warm": sharded_warm})
    return payloads


def _evolving_cycle_bytes(codec_name):
    """Dispatch bytes of a warm cycle whose global weights *moved*.

    The identical-resend path (``skip`` deltas) is the best case; this
    measures the realistic one — every cycle the aggregated global
    snapshot differs from the shard's base, so changed parameters ship
    as XOR deltas (optionally compressed).
    """
    from repro.fl.aggregation import aggregate_full
    from repro.fl.executor import TrainingJob

    sim = _payload_fleet(samples_per_client=20)
    sim.set_backend("persistent", max_workers=2,
                    **_CODEC_CONFIGS[codec_name])
    weights = sim.server.get_global_weights()
    jobs = [TrainingJob(index=index, weights=weights)
            for index in sim.client_indices()]
    try:
        updates = sim.run_jobs(jobs)  # cycle 1: specs + full snapshot
        evolved = aggregate_full(updates)
        next_jobs = [TrainingJob(index=index, weights=evolved)
                     for index in sim.client_indices()]
        return sim.backend.dispatch_payload_bytes(sim.clients, next_jobs)
    finally:
        sim.close()


# --------------------------------------------------------------------- #
# virtual fleets: upstream bytes vs. logical fleet size
# --------------------------------------------------------------------- #

#: Virtual-client counts per aggregation mode of the scale sweep.  The
#: flat topology ships every update upstream, so its largest point stays
#: at 10^3 clients/shard (= 2000 on the 2-shard fleet — the acceptance
#: point for the >=10x reduction claim); hierarchical folds in-shard and
#: is measured one decade further to demonstrate byte-flatness.  Beyond
#: that the bytes are provably constant, so the report carries a
#: projection instead of an hour-long 10^6 measurement.
_VIRTUAL_SWEEP = {
    "flat": (200, 2000),
    "hierarchical": (2000, 10_000),
}
_PROJECTED_FLEET = 1_000_000


def _virtual_fleet(num_clients):
    device = DeviceProfile(name="bench-node", compute_gflops=50.0,
                           memory_bandwidth_gbps=10.0,
                           network_bandwidth_mbps=100.0,
                           memory_capacity_mb=1024.0)
    return VirtualFleet(
        num_clients=num_clients,
        dataset_factory=VirtualClientDatasets(_BENCH_SPEC,
                                              samples_per_client=8, seed=5),
        device=device, model_factory=_bench_model,
        config=ClientConfig(batch_size=8, local_epochs=1, learning_rate=0.1),
        seed=9)


def _virtual_cycle_stats(aggregation, num_clients):
    """Upstream bytes + wall-clock of one warm virtual cycle (2 shards)."""
    sim = _payload_fleet(samples_per_client=8)
    sim.set_backend("sharded", max_workers=2, aggregation=aggregation)
    try:
        sim.run_virtual_cycle(_virtual_fleet(4))  # spawn shards outside
        start = time.perf_counter()
        loss, count = sim.run_virtual_cycle(_virtual_fleet(num_clients))
        elapsed = time.perf_counter() - start
        upstream = sim.backend.last_reply_bytes
    finally:
        sim.close()
    assert count == num_clients and np.isfinite(loss)
    return {"upstream_bytes": upstream, "cycle_seconds": elapsed}


def _virtual_sweep_report():
    """Measure and assert the hierarchical-aggregation claim:
    shard->parent bytes are independent of the logical fleet size,
    >=10x below flat at 10^3 clients/shard, while flat grows linearly."""
    sweep = {mode: {str(n): _virtual_cycle_stats(mode, n) for n in sizes}
             for mode, sizes in _VIRTUAL_SWEEP.items()}
    flat_small, flat_large = (sweep["flat"][str(n)]["upstream_bytes"]
                              for n in _VIRTUAL_SWEEP["flat"])
    hier_small, hier_large = (
        sweep["hierarchical"][str(n)]["upstream_bytes"]
        for n in _VIRTUAL_SWEEP["hierarchical"])
    print(f"\nvirtual fleets (2 shards): flat upstream {flat_small}B@200 "
          f"-> {flat_large}B@2000, hierarchical {hier_small}B@2000 = "
          f"{hier_large}B@10000 "
          f"({flat_large / hier_small:.1f}x reduction at 10^3/shard)")
    # Hierarchical upstream bytes are exactly fleet-size independent …
    assert hier_small == hier_large
    # … flat grows ~linearly with the fleet (10x clients, >5x bytes) …
    assert flat_large > 5 * flat_small
    # … and at the acceptance point (10^3 clients/shard) hierarchical
    # ships at least 10x fewer bytes upstream than flat.
    assert flat_large >= 10 * hier_small
    return {
        "num_shards": 2,
        "samples_per_client": 8,
        "sweep": sweep,
        "upstream_reduction_at_1e3_per_shard": flat_large / hier_small,
        "hierarchical_bytes_independent_of_fleet_size": True,
        "projected_hierarchical_upstream_bytes": {
            str(_PROJECTED_FLEET): hier_large,
        },
    }


def _transport_ping_report(num_pings=50, num_nagle_pings=25):
    """Median ping round-trip against a live :class:`ShardServer`, with
    TCP_NODELAY on (the transport's default since concurrent serving
    landed) and explicitly off for the before/after comparison.

    Recorded, not asserted: small-frame RTT is scheduler noise on a busy
    CI box, and pings are answered inline by the server's event loop
    either way — the record is here so Nagle regressions are visible in
    the report, not to gate merges on microseconds.
    """
    import threading

    from repro.fl.transport import ShardServer, connect_to_shard

    server = ShardServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def median_rtt_s(channel, count):
        rtts = []
        for _ in range(count):
            start = time.perf_counter()
            channel.send(("ping", None))
            kind, _ = channel.recv()
            rtts.append(time.perf_counter() - start)
            assert kind == "pong"
        return float(np.median(rtts))

    try:
        channel = connect_to_shard(server.address, timeout=10)
        try:
            median_rtt_s(channel, 5)  # warm-up
            nodelay = median_rtt_s(channel, num_pings)
            channel.set_tcp_nodelay(False)
            nagle = median_rtt_s(channel, num_nagle_pings)
        finally:
            channel.send(("shutdown", None))
            channel.close()
    finally:
        thread.join(timeout=15)
    assert not thread.is_alive()
    print(f"\ntransport ping RTT: nodelay {nodelay * 1e6:.0f}us "
          f"(default), nagle {nagle * 1e6:.0f}us")
    return {
        "ping_rtt_s": {"tcp_nodelay": nodelay, "nagle": nagle},
        "num_pings": num_pings,
        "tcp_nodelay_default": True,
    }


def test_substrate_report_json(results_dir):
    """Write BENCH_substrate.json and assert the dispatch-scaling and
    delta-shipping claims."""
    cycle_seconds = {name: _timed_cycle(name)
                     for name in ("serial", "thread", "persistent",
                                  "sharded")}
    # Warm-cycle latency with the full codec enabled (delta + zlib), so
    # codec overhead regressions show up next to the plain numbers.
    cycle_seconds["persistent_delta_zlib"] = _timed_cycle(
        "persistent", **_CODEC_CONFIGS["delta_zlib"])
    cycle_seconds["sharded_delta_zlib"] = _timed_cycle(
        "sharded", **_CODEC_CONFIGS["delta_zlib"])
    codec_payloads = {
        name: {"small": _dispatch_payloads(20, name),
               "large": _dispatch_payloads(200, name,
                                           include_sharded=False)}
        for name in _CODEC_CONFIGS
    }
    evolving = {name: _evolving_cycle_bytes(name) for name in _CODEC_CONFIGS}
    payloads = codec_payloads["delta"]  # the default configuration
    report = {
        "num_clients": _NUM_LATENCY_CLIENTS,
        "num_shards": 2,
        "client_latency_s": _CLIENT_LATENCY_S,
        "cycle_seconds": cycle_seconds,
        "dispatch_payload_bytes": payloads,
        "transport": _transport_ping_report(),
        "virtual_fleets": _virtual_sweep_report(),
        "codec": {
            "configs": _CODEC_CONFIGS,
            "dispatch_payload_bytes": codec_payloads,
            "evolving_cycle_bytes": evolving,
            "warm_reduction_vs_full": {
                name: (codec_payloads["full"]["small"]["persistent_warm"]
                       / codec_payloads[name]["small"]["persistent_warm"])
                for name in _CODEC_CONFIGS
            },
        },
    }
    path = os.path.join(results_dir, "BENCH_substrate.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    full_warm = codec_payloads["full"]["small"]["persistent_warm"]
    delta_warm = codec_payloads["delta"]["small"]["persistent_warm"]
    print(f"\nwritten {path}: warm dispatch full {full_warm}B, "
          f"delta {delta_warm}B ({full_warm / delta_warm:.1f}x), "
          f"evolving cycle full {evolving['full']}B / delta+zlib "
          f"{evolving['delta_zlib']}B "
          f"({evolving['full'] / evolving['delta_zlib']:.2f}x), "
          f"cold dispatch {payloads['small']['persistent_cold']}B")
    for name, sizes in codec_payloads.items():
        # Warm resident dispatch ships weights/deltas + RNG digests
        # only: the payload must not grow with the dataset (the digest
        # values encode to ±a few bytes, hence the 1 % tolerance on a
        # 10x dataset-size increase) …
        assert (abs(sizes["large"]["persistent_warm"]
                    - sizes["small"]["persistent_warm"])
                <= 0.01 * sizes["small"]["persistent_warm"])
        # … the 2-shard socket fleet's wire format is byte-identical to
        # the pipe workers' …
        assert (sizes["small"]["sharded_warm"]
                == sizes["small"]["persistent_warm"])
        # … and the cold dispatch ships every spec, datasets included:
        # it grows with the dataset and is strictly larger at every size.
        assert (sizes["large"]["persistent_cold"]
                > sizes["small"]["persistent_cold"])
        for size in ("small", "large"):
            assert (sizes[size]["persistent_warm"]
                    < sizes[size]["persistent_cold"])
    # The tentpole claim: delta shipping cuts the warm-cycle dispatch of
    # the resident backends at least 5x vs. the full-snapshot baseline
    # (identical-resend path — unchanged parameters ship as a bitmap).
    assert full_warm >= 5 * delta_warm
    assert (codec_payloads["full"]["small"]["sharded_warm"]
            >= 5 * codec_payloads["delta"]["small"]["sharded_warm"])
    # An evolving cycle (every parameter moved) still never costs more
    # than the full snapshot, and zlib'd XOR deltas must actually win.
    assert evolving["delta"] <= evolving["full"] * 1.01
    assert evolving["delta_zlib"] < evolving["full"]
