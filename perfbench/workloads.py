"""Set-up and timed run of each workload, through the public API only.

``prepare`` is everything a run pays before it accepts its first request:
building the backend, pricing the mix (``mean_service_time_s``), building
the simulator or cluster, and ``begin()``, which builds the decode table.
``serve`` is the timed window: trace generation through ``finish()``, plus
``validate_invariants()`` where the workload records events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from spec import WORKLOADS

TRACE = "chatbot"
BACKEND = "ianus"
MODEL = "gpt2-m"


@dataclass
class Prepared:
    name: str
    seed: int
    requests: int
    record_events: bool
    config: dict
    backend: object
    rate_rps: float
    generator: object
    models: "tuple | None" = None
    simulator: object = None
    cluster: object = None
    run: object = None


@dataclass
class Served:
    metrics: object
    offered: int
    trace: tuple = ()
    violations: list = field(default_factory=list)
    events: int = 0


def prepare(
    name: str,
    seed: int,
    requests: "int | None" = None,
    engine: str = "array",
    record_events: "bool | None" = None,
    on_backend=None,
) -> Prepared:
    from repro.core.costmodel import make_cost_model
    from repro.models import get_model
    from repro.serving import (
        ClusterSimulator,
        ServingSimulator,
        decode_kv_bounds,
        get_trace_generator,
        make_autoscaler,
        make_failure_schedule,
        mean_service_time_s,
    )

    config = WORKLOADS[name]
    if record_events is None:
        record_events = config.get("record_events", False)
    backend = make_cost_model(BACKEND)
    if on_backend is not None:
        on_backend(backend)
    model = get_model(MODEL)
    generator = get_trace_generator(TRACE)
    models = None
    if "models" in config:
        models = tuple(get_model(member) for member in config["models"])
        # Price the other co-hosted models cold too, as serving them would.
        for member in models:
            if member.name != MODEL:
                mean_service_time_s(backend, member, generator.workloads)
    if "rate_rps" in config:
        rate_rps = config["rate_rps"]
    else:
        service_s = mean_service_time_s(backend, model, generator.workloads)
        rate_rps = config["replicas"] * config["load"] / service_s
    kv_bounds = decode_kv_bounds(generator.workloads)
    prepared = Prepared(
        name=name,
        seed=seed,
        requests=config["requests"] if requests is None else requests,
        record_events=record_events,
        config=config,
        backend=backend,
        rate_rps=rate_rps,
        generator=generator,
        models=models,
    )
    simulator_kwargs = dict(
        policy=config["policy"],
        max_batch=config["max_batch"],
        engine=engine,
        admission=config.get("admission", "worst-case"),
        swap=config.get("swap", False),
        kv_fraction=config.get("kv_fraction", 1.0),
        models=models,
    )
    if config.get("stream"):
        # One replica, the trace streamed in chunks, pooled metrics only.
        prepared.simulator = ServingSimulator(
            backend, model, per_request_detail=False, **simulator_kwargs
        )
        prepared.run = prepared.simulator.begin(
            record_events=record_events, kv_bounds=kv_bounds
        )
    else:
        prepared.cluster = ClusterSimulator(
            backend,
            model,
            num_replicas=config["replicas"],
            router=config["router"],
            failures=make_failure_schedule(config["failures"]),
            autoscaler=make_autoscaler(config["autoscaler"]),
            **simulator_kwargs,
        )
        # The cluster calls begin() inside simulate(); one begin() here
        # builds the shared decode table for the mix's KV range, which is
        # the trace's range once every shape of the mix has been drawn.
        prepared.cluster.replicas[0].begin(kv_bounds=kv_bounds)
    return prepared


def _trace_kwargs(prepared: Prepared) -> dict:
    config = prepared.config
    kwargs: dict = {"seed": prepared.seed}
    if "prefix_share" in config:
        kwargs["prefix_share"] = config["prefix_share"]
    if prepared.models is not None:
        kwargs["model_mix"] = [(member.name, 1.0) for member in prepared.models]
    return kwargs


def serve(prepared: Prepared, keep_trace: bool = False) -> Served:
    """The timed window: generate, offer, drain (and replay, if evented)."""
    generator = prepared.generator
    kwargs = _trace_kwargs(prepared)
    if prepared.config.get("stream"):
        run = prepared.run
        offered = 0
        kept: list = []
        for chunk in generator.generate_stream(
            prepared.requests, prepared.rate_rps, **kwargs
        ):
            run.offer_many(chunk)
            run.advance_until(chunk[-1].arrival_s)
            offered += len(chunk)
            if keep_trace:
                kept.extend(chunk)
        return Served(run.finish(), offered, tuple(kept))
    trace = generator.generate(prepared.requests, prepared.rate_rps, **kwargs)
    cluster = prepared.cluster
    metrics = cluster.simulate(trace, record_events=prepared.record_events)
    served = Served(metrics, len(trace), trace)
    if prepared.record_events:
        served.violations = cluster.validate_invariants()
        served.events = sum(len(events) for events in cluster.events)
    return served
