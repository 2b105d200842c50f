"""What the benchmark runs and what each number means.

Every workload serves the ``chatbot`` trace on backend ``ianus`` with
``gpt2-m`` on the array engine.  Arrivals are open-loop Poisson in
simulated time, seeded by ``--seed``; the host replays them as a batch,
with no real-time schedule, so generator lateness does not apply.

``LAYERS`` is the metric-to-layer map: for each layer (named after its
module) the per-layer metrics that measure it, the end-to-end metric it
should move, and the workloads it is heavy and light on.  A change to one
layer predicts no change on the workloads listed as light.
"""

from __future__ import annotations

#: Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 9173

#: The worker's CPU-speed probe (a fixed pure-Python loop) on the reference
#: host's uncontended CPU, in ms.  Host times are reported scaled to this
#: speed: measured seconds x (REFERENCE_PROBE_MS / the probes around them)
#: ** SPEED_EXPONENT.
REFERENCE_PROBE_MS = 16.0

#: How steeply the program slows with the probe when the host is contended.
#: Measured on the reference host (2-vCPU Xeon) by alternating probes with
#: fixed slices of both workloads' serving: log slice time against log
#: probe time has slope 1.17-1.27 (r^2 0.56-0.73), i.e. contention slows
#: the program somewhat more than the probe's tight loop.
SPEED_EXPONENT = 1.25

#: Simulated-output metrics: printed to catch drift, never compared to
#: hardware (the model is unvalidated, so no error figure is given).
SIM_METRICS = (
    "sim_tokens_per_s",
    "sim_latency_mean_s",
    "sim_latency_p99_s",
    "sim_ttft_mean_s",
    "sim_ttft_p99_s",
    "sim_tpot_mean_s",
)

#: Workload name -> configuration.  ``requests`` is the size of one timed
#: repetition, ``oracle_requests`` the capped size of the oracles, and
#: ``rep_s`` the nominal length of one repetition (process start, set-up and
#: serving) on the reference host: a run of ``--seconds`` makes
#: ``--seconds / rep_s`` repetitions, a number that depends on the run length
#: only, never on how fast the program under test happens to be.
#: ``BENCHMARK.json`` says why each exists and which layers it stresses and
#: bypasses.
WORKLOADS: dict[str, dict] = {
    "overload-stream": dict(
        replicas=1,
        policy="fcfs",
        max_batch=4,
        rate_rps=2000.0,
        stream=True,
        requests=150_000,
        oracle_requests=400,
        rep_s=2.5,
    ),
    "features-evented": dict(
        replicas=3,
        router="kv-aware",
        policy="interleaved",
        max_batch=16,
        load=0.8,
        admission="optimistic",
        swap=True,
        prefix_share=0.5,
        models=("gpt2-m", "gemma-1b"),
        kv_fraction=0.06,
        failures="seeded",
        autoscaler="queue-depth",
        record_events=True,
        requests=2_800,
        oracle_requests=250,
        rep_s=7.5,
    ),
}

#: layer -> (per-layer metrics, end-to-end metric moved, heavy on, light on)
LAYERS: dict[str, dict] = {
    "cli": dict(
        metrics=("cli.import_s",),
        moves="setup_s",
        heavy=tuple(WORKLOADS),
        light=(),
    ),
    "costmodel": dict(
        metrics=(
            "costmodel.pass_cost_calls",
            "costmodel.pass_cost_s",
            "costmodel.hit_ratio",
        ),
        moves="setup_s",
        heavy=("features-evented",),
        light=("overload-stream",),
    ),
    "decode_table": dict(
        metrics=("decode_table.builds", "decode_table.build_s"),
        moves="setup_s",
        heavy=("features-evented",),
        light=("overload-stream",),
    ),
    "trace": dict(
        metrics=("trace.generate_s", "trace.us_per_request"),
        moves="wall_s, requests_per_s",
        heavy=("overload-stream",),
        light=("features-evented",),
    ),
    "array_engine": dict(
        metrics=(
            "array_engine.offer_s",
            "array_engine.advance_s",
            "array_engine.finish_s",
            "array_engine.advance_calls",
            "array_engine.prefill_passes",
            "array_engine.decode_passes",
            "array_engine.mean_decode_batch",
            "array_engine.us_per_request",
        ),
        moves="wall_s, requests_per_s; peak_rss_mb on overload-stream",
        heavy=tuple(WORKLOADS),
        light=(),
    ),
    "kv_memory": dict(
        metrics=(
            "kv_memory.calls",
            "kv_memory.s",
            "kv_memory.peak_fraction",
            "kv_memory.preemptions",
            "kv_memory.recomputed_tokens",
            "kv_memory.swap_outs",
            "kv_memory.swap_ins",
            "kv_memory.swapped_pages",
        ),
        moves="wall_s",
        heavy=("features-evented",),
        light=("overload-stream",),
    ),
    "cluster": dict(
        metrics=(
            "cluster.self_s",
            "cluster.advance_calls_per_request",
            "cluster.load_imbalance",
            "cluster.model_swaps",
            "cluster.failures",
            "cluster.rerouted_requests",
        ),
        moves="wall_s",
        heavy=("features-evented",),
        light=("overload-stream",),
    ),
    "validate": dict(
        metrics=("validate.replay_s", "validate.events", "validate.us_per_event"),
        moves="wall_s",
        heavy=("features-evented",),
        light=("overload-stream",),
    ),
    "host": dict(
        metrics=(
            "host.heavy_self_share",
            "host.cpu_share",
            "host.probe_ms",
            "host.trace_overhead_s",
            "host.trace_cost_s",
        ),
        moves="diagnostics only",
        heavy=(),
        light=(),
    ),
}

#: Layers whose self time should cover most of a workload's traced wall
#: time (``host.heavy_self_share``).  Set-up layers are excluded: they run
#: before the timed window.
WALL_LAYERS = ("trace", "array_engine", "kv_memory", "cluster", "validate")


def heavy_wall_layers(workload: str) -> tuple[str, ...]:
    """The timed-window layers named heavy on ``workload``."""
    return tuple(
        layer
        for layer in WALL_LAYERS
        if workload in LAYERS[layer]["heavy"]
    )
