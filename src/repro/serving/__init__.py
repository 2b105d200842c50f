"""Request-level serving simulation on top of the unified cost-model layer.

The paper (and the ``figXX`` experiments) evaluate one inference request at
a time.  This package turns the same per-pass cost models into a
*multi-user serving* study: a stream of timed requests shares one device,
and a discrete-event simulator schedules their prefill/decode passes under
a pluggable policy, reporting the metrics LLM-serving work cares about
(TTFT, TPOT, latency percentiles, tokens/s, device utilization, SLO
attainment).

Layering — who knows what:

:mod:`repro.serving.request`
    :class:`Request` (arrival time + token counts + priority class) and the
    per-request :class:`RequestMetrics`.  Knows nothing about backends.
:mod:`repro.serving.trace`
    Deterministic seeded Poisson trace generators over named workload mixes
    (:data:`~repro.serving.trace.TRACES`).  Knows nothing about backends.
:mod:`repro.serving.kv_memory`
    :class:`KvPageAccountant`: paged KV-cache accounting against the bytes
    a backend's memory system holds beyond the model weights.  Reads only
    capacity attributes off a cost model.
:mod:`repro.serving.simulator`
    :class:`ServingSimulator`: schedules token-granularity passes whose
    costs come from *any* :class:`repro.core.costmodel.CostModel` (IANUS,
    NPU-MEM, A100, DFX), with memory-aware admission, optional chunked
    prefill, and FCFS / interleaved / SRPT / priority-class policies.  The
    only layer that touches cost models, and only through the protocol.
:mod:`repro.serving.array_engine` / :mod:`repro.serving.decode_table`
    The *megatrace* engine.  ``ServingSimulator(..., engine="array")``
    swaps the per-request object hot loop for a columnar one (parallel
    state lists, dense :class:`~repro.serving.decode_table.DecodeCostTable`
    pricing, prefix-sum macro-stepping over uneventful decode runs) behind
    the same ``SimulationRun`` API.  ``engine="object"`` (the default)
    remains the reference: with events recorded the array engine is
    bit-identical to it, and macro-stepped pooled metrics agree to 1e-9.
    Pick ``array`` for million-request traces and sweeps; pick ``object``
    when stepping through or debugging individual scheduling decisions.
    :data:`ENGINES` lists the valid names; unknown names raise with that
    list.  ``per_request_detail=False`` additionally pools metrics without
    materializing a ``RequestMetrics`` row per request (single replica
    only), and ``TraceGenerator.generate_stream`` feeds
    ``ServingSimulator.simulate_stream`` arrivals in O(chunk) memory —
    byte-identical to ``generate`` under every trace curve.
:mod:`repro.serving.metrics`
    :class:`ServingMetrics` / :class:`ClusterMetrics` and the one reducer
    both engines and the cluster build them with: completion columns to
    latency/TTFT/TPOT percentiles, throughput and SLO attainment, plus
    one declared pooling rule per field across replicas.
:mod:`repro.serving.validate`
    :func:`check_invariants`: replays a recorded event log against the
    trace and reports scheduling-invariant violations (``repro serve
    --validate`` and the invariant test suite use it as an oracle).
    :func:`check_cluster_invariants` extends the replay across replica
    failures, failover and autoscaling.
:mod:`repro.serving.failures`
    Seeded :class:`FailureSchedule` registry: deterministic replica
    deaths and recoveries the cluster applies mid-run.
:mod:`repro.serving.autoscale`
    Causal :class:`Autoscaler` registry plus the modeled
    :func:`replica_warmup_s` a spawned replica pays before serving.

The ``serving`` experiment (:mod:`repro.experiments.serving_throughput`)
sweeps offered load x backend x policy x chunking x KV budget as a
shardable :class:`~repro.experiments.base.Sweep`, and ``repro serve``
exposes a single simulation from the command line.
"""

from repro.serving.autoscale import (
    AUTOSCALERS,
    Autoscaler,
    AutoscalerSignal,
    FixedAutoscaler,
    KvPressureAutoscaler,
    QueueDepthAutoscaler,
    SloAttainmentAutoscaler,
    make_autoscaler,
    replica_warmup_s,
)
from repro.serving.cluster import (
    ROUTERS,
    ClusterMetrics,
    ClusterSimulator,
    KvAwareRouter,
    LeastOutstandingTokensRouter,
    ReplicaSnapshot,
    RoundRobinRouter,
    Router,
    cluster_kv_peak,
    make_router,
)
from repro.serving.failures import (
    FAILURE_SCHEDULES,
    FailureEvent,
    FailureSchedule,
    NoFailures,
    SeededFailures,
    SingleFailure,
    make_failure_schedule,
)
from repro.serving.kv_memory import (
    DEFAULT_KV_BUDGET_BYTES,
    DEFAULT_PAGE_TOKENS,
    KvPageAccountant,
    backend_memory_capacity_bytes,
    kv_budget_bytes,
)
from repro.serving.decode_table import DecodeCostTable, build_decode_table
from repro.serving.request import Request, RequestMetrics
from repro.serving.simulator import (
    ADMISSION_MODES,
    ENGINES,
    POLICIES,
    FcfsPolicy,
    InterleavedPolicy,
    PassCostProvider,
    PriorityPolicy,
    ServingMetrics,
    ServingPolicy,
    ServingSimulator,
    SimulationRun,
    SrptPolicy,
    decode_kv_bounds,
    make_policy,
    mean_service_time_s,
    percentile,
)
from repro.serving.trace import (
    TRACE_CURVES,
    TRACES,
    ConstantCurve,
    DiurnalCurve,
    FlashCrowdCurve,
    StepCurve,
    TraceCurve,
    TraceGenerator,
    get_trace_generator,
    make_trace_curve,
)
from repro.serving.validate import (
    SimEvent,
    check_cluster_invariants,
    check_invariants,
)

__all__ = [
    "Request",
    "RequestMetrics",
    "ClusterMetrics",
    "ClusterSimulator",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "KvAwareRouter",
    "ReplicaSnapshot",
    "ROUTERS",
    "make_router",
    "cluster_kv_peak",
    "ADMISSION_MODES",
    "ENGINES",
    "SimulationRun",
    "DecodeCostTable",
    "build_decode_table",
    "decode_kv_bounds",
    "TraceGenerator",
    "TRACES",
    "get_trace_generator",
    "TraceCurve",
    "ConstantCurve",
    "DiurnalCurve",
    "FlashCrowdCurve",
    "StepCurve",
    "TRACE_CURVES",
    "make_trace_curve",
    "FailureEvent",
    "FailureSchedule",
    "NoFailures",
    "SingleFailure",
    "SeededFailures",
    "FAILURE_SCHEDULES",
    "make_failure_schedule",
    "Autoscaler",
    "AutoscalerSignal",
    "FixedAutoscaler",
    "QueueDepthAutoscaler",
    "SloAttainmentAutoscaler",
    "KvPressureAutoscaler",
    "AUTOSCALERS",
    "make_autoscaler",
    "replica_warmup_s",
    "DEFAULT_KV_BUDGET_BYTES",
    "DEFAULT_PAGE_TOKENS",
    "KvPageAccountant",
    "backend_memory_capacity_bytes",
    "kv_budget_bytes",
    "PassCostProvider",
    "ServingPolicy",
    "FcfsPolicy",
    "InterleavedPolicy",
    "SrptPolicy",
    "PriorityPolicy",
    "POLICIES",
    "make_policy",
    "ServingMetrics",
    "ServingSimulator",
    "mean_service_time_s",
    "percentile",
    "SimEvent",
    "check_invariants",
    "check_cluster_invariants",
]
