"""Serving metrics: one reducer, one pooling rule per field, one renderer.

Every :class:`ServingMetrics` and :class:`ClusterMetrics` takes its
request-pooled figures from :func:`pool_completions`, which reduces
completion columns (arrival, first token, completion, output tokens,
class, model) to the latency, TTFT and TPOT mean/p50/p99, throughput and
SLO attainment.  The object engine and the array engine's detail mode
hand it their :class:`~repro.serving.request.RequestMetrics` rows (via
:func:`row_columns`), the array engine's pooled-only mode its typed
completion columns, and the cluster the rows of every replica — so a
figure is defined once, whichever path produced it.

:class:`ClusterMetrics` extends :class:`ServingMetrics`, so it carries every
field of the single-device report, and :data:`POOLING` declares how each
is pooled over the replicas.  ``to_dict`` and ``summary`` walk the
dataclass fields, so a counter added to :class:`ServingMetrics` shows up
in both reports — and a test fails until it has a pooling rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.serving.kv_memory import DEFAULT_PAGE_TOKENS
from repro.serving.request import RequestMetrics

__all__ = [
    "ServingMetrics",
    "ClusterMetrics",
    "POOLING",
    "percentile",
    "pool_completions",
    "pool_replicas",
    "row_columns",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation between ranks.

    Deterministic: sort, place ``q`` on the ``(n - 1)``-step rank axis,
    interpolate between the two bracketing order statistics.
    """
    if not len(values):
        return 0.0
    return _percentile_sorted(sorted(values), q)


def _percentile_sorted(ordered, q: float) -> float:
    """:func:`percentile` over an already-sorted sequence (list or array)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if not len(ordered):
        return 0.0
    position = q / 100.0 * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return float(ordered[lower] + weight * (ordered[upper] - ordered[lower]))


def _mean(values: np.ndarray) -> float:
    # Summed left to right in column order (``np.cumsum`` is sequential,
    # unlike ``ndarray.sum``'s pairwise tree), so a column of rows in
    # request order means what a running total over those rows means.
    if not values.size:
        return 0.0
    return float(np.cumsum(values)[-1]) / values.size


def _share(met: np.ndarray) -> float:
    return int(np.count_nonzero(met)) / met.size


def pool_completions(
    arrival,
    first,
    completion,
    out,
    makespan: float,
    *,
    slo=None,
    classes=None,
    model=None,
    model_names: tuple = (),
) -> dict:
    """The request-pooled :class:`ServingMetrics` fields of completed requests.

    ``arrival``/``first``/``completion`` are per-request instants and
    ``out`` the output-token counts.  ``slo`` holds each request's latency
    target (0 = unscored) and ``classes`` its priority class; ``slo=None``
    means the run set no targets.  ``model`` indexes ``model_names`` per
    request and adds the per-(model, class) attainment table.
    """
    arrival = np.asarray(arrival, dtype=np.float64)
    first = np.asarray(first, dtype=np.float64)
    completion = np.asarray(completion, dtype=np.float64)
    out = np.asarray(out, dtype=np.int64)
    count = int(arrival.size)
    latencies = completion - arrival
    ttfts = first - arrival
    multi = out > 1
    tpots = (completion[multi] - first[multi]) / (out[multi] - 1)
    output_tokens = int(out.sum())
    ordered_latencies = np.sort(latencies)
    ordered_ttfts = np.sort(ttfts)

    slo_attainment: "float | None" = None
    slo_by_class: dict[str, float] = {}
    slo_by_model_class: dict[str, float] = {}
    if slo is not None:
        slo = np.asarray(slo, dtype=np.float64)
        scored = slo > 0.0
        if scored.any():
            met = latencies[scored] <= slo[scored]
            scored_classes = np.asarray(classes, dtype=np.int64)[scored]
            slo_attainment = _share(met)
            slo_by_class = {
                str(cls): _share(met[scored_classes == cls])
                for cls in np.unique(scored_classes).tolist()
            }
            if model is not None:
                scored_models = np.asarray(model, dtype=np.int64)[scored]
                pairs = np.unique(
                    np.column_stack((scored_models, scored_classes)), axis=0
                ).tolist()
                slo_by_model_class = {
                    f"{model_names[index]}/{cls}": _share(
                        met[(scored_models == index) & (scored_classes == cls)]
                    )
                    for index, cls in sorted(
                        pairs, key=lambda pair: (model_names[pair[0]], pair[1])
                    )
                }
        else:
            slo_attainment = 1.0

    return dict(
        num_requests=count,
        output_tokens=output_tokens,
        tokens_per_s=output_tokens / makespan if makespan > 0 else 0.0,
        requests_per_s=count / makespan if makespan > 0 else 0.0,
        latency_mean_s=_mean(latencies),
        latency_p50_s=_percentile_sorted(ordered_latencies, 50.0),
        latency_p99_s=_percentile_sorted(ordered_latencies, 99.0),
        ttft_mean_s=_mean(ttfts),
        ttft_p50_s=_percentile_sorted(ordered_ttfts, 50.0),
        ttft_p99_s=_percentile_sorted(ordered_ttfts, 99.0),
        tpot_mean_s=_mean(tpots),
        slo_attainment=slo_attainment,
        slo_by_class=slo_by_class,
        slo_by_model_class=slo_by_model_class,
    )


def row_columns(
    rows: "Sequence[RequestMetrics]",
    scored: bool,
    model_names: tuple = (),
    default_model: str = "",
) -> dict:
    """:func:`pool_completions` columns of completed request rows.

    ``scored`` says whether the run set SLO targets; ``model_names`` (a
    real set of two or more) adds the model column, where a row's empty
    model means ``default_model``.
    """
    columns = dict(
        arrival=[row.arrival_s for row in rows],
        first=[row.first_token_s for row in rows],
        completion=[row.completion_s for row in rows],
        out=[row.output_tokens for row in rows],
    )
    if scored:
        columns["slo"] = [row.slo_s for row in rows]
        columns["classes"] = [row.priority_class for row in rows]
        if len(model_names) > 1:
            position = {name: index for index, name in enumerate(model_names)}
            columns["model"] = [
                position[row.model or default_model] for row in rows
            ]
            columns["model_names"] = model_names
    return columns


# ----------------------------------------------------------------------
# The reports
# ----------------------------------------------------------------------
#: Keys that appear only for real model sets, so a single-model run's
#: dict keeps its pre-multi-model layout byte for byte.
_MULTI_MODEL_FIELDS = frozenset(
    ("models", "model_swaps", "model_swap_s", "slo_by_model_class")
)
#: Detail fields, rendered on request by ``to_dict``.
_DETAIL_FIELDS = frozenset(("per_replica", "per_request"))


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate metrics of one simulated trace (plus per-request detail)."""

    backend: str
    model: str
    policy: str
    num_requests: int
    makespan_s: float
    busy_s: float
    utilization: float
    output_tokens: int
    tokens_per_s: float
    requests_per_s: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    ttft_mean_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tpot_mean_s: float
    energy_j: float
    flops: float
    prefill_passes: int
    decode_passes: int
    mean_decode_batch: float
    #: Admission mode of the run ("worst-case" or "optimistic").
    admission: str = "worst-case"
    #: Total admit decisions (> num_requests when preemption re-admits).
    admissions: int = 0
    #: High-water mark of concurrently admitted requests.
    peak_active: int = 0
    #: Preempt-and-recompute evictions performed by optimistic admission.
    preemptions: int = 0
    #: Prompt + output tokens computed then discarded by preemptions.
    recomputed_tokens: int = 0
    #: Victims whose KV pages were swapped out to host DRAM (swap tier).
    swap_outs: int = 0
    #: Swapped-out requests restored to the pool (no recompute).
    swap_ins: int = 0
    #: KV pages moved over the host link, both directions summed.
    swapped_pages: int = 0
    #: Host-link bandwidth priced for swap transfers (0 = swap disabled).
    link_gbps: float = 0.0
    chunk_tokens: int = 0
    kv_page_tokens: int = DEFAULT_PAGE_TOKENS
    kv_pages_total: int = 0
    kv_peak_pages: int = 0
    kv_budget_bytes: int = 0
    slo_attainment: "float | None" = None
    slo_by_class: dict = field(default_factory=dict)
    #: Names of the co-hosted model set; empty for single-model runs (the
    #: pre-multi-model representation is preserved byte for byte).
    models: tuple = ()
    #: Weight swaps paid when the active model changed mid-run.
    model_swaps: int = 0
    #: Simulated seconds spent streaming model weights over the host link.
    model_swap_s: float = 0.0
    #: Per-(model, class) SLO attainment, keyed ``"model/class"`` —
    #: populated only for multi-model runs with SLO targets.
    slo_by_model_class: dict = field(default_factory=dict)
    per_request: tuple[RequestMetrics, ...] = field(default_factory=tuple)

    def to_dict(self, include_requests: bool = True) -> dict:
        """JSON-stable representation (reports and determinism tests)."""
        return self._as_dict(include_requests, include_replicas=False)

    def _as_dict(self, include_requests: bool, include_replicas: bool) -> dict:
        multi = len(self.models) > 1
        data = {}
        for item in fields(self):
            name = item.name
            if name in _DETAIL_FIELDS or (name in _MULTI_MODEL_FIELDS and not multi):
                continue
            value = getattr(self, name)
            data[name] = list(value) if isinstance(value, tuple) else value
        if include_replicas:
            data["per_replica"] = [
                metrics.to_dict(include_requests=False)
                for metrics in self.per_replica
            ]
        if include_requests:
            data["per_request"] = [metrics.to_dict() for metrics in self.per_request]
        return data

    @property
    def kv_peak_fraction(self) -> float:
        """Peak committed fraction of the KV page pool."""
        if self.kv_pages_total <= 0:
            return 0.0
        return self.kv_peak_pages / self.kv_pages_total

    def summary(self) -> str:
        """Multi-line human-readable summary (``repro serve`` prints this)."""
        cluster = isinstance(self, ClusterMetrics)
        lines = [
            f"cluster         : {self.num_replicas} x {self.backend} "
            f"(router {self.router}, {self.admission} admission)"
            if cluster
            else f"backend         : {self.backend}",
            f"model           : {self.model}",
            f"policy          : {self.policy}"
            + (f" (chunked prefill, {self.chunk_tokens} tokens)"
               if self.chunk_tokens else ""),
            f"requests        : {self.num_requests} "
            f"({self.output_tokens} output tokens)",
        ]
        if cluster:
            routed = ", ".join(
                f"r{index}: {count} req / {tokens} tok"
                for index, (count, tokens) in enumerate(
                    zip(self.routed_requests, self.routed_tokens)
                )
            )
            lines.append(
                f"routing         : {routed} "
                f"(imbalance {self.load_imbalance:.2f}x)"
            )
        lines += [
            f"makespan        : {self.makespan_s:.3f} s "
            f"({'summed' if cluster else 'device'} busy {self.busy_s:.3f} s, "
            f"{self.utilization:.0%} utilized)",
            f"throughput      : {self.tokens_per_s:.1f} tokens/s, "
            f"{self.requests_per_s:.2f} requests/s",
            f"latency         : mean {self.latency_mean_s * 1e3:.1f} ms, "
            f"p50 {self.latency_p50_s * 1e3:.1f} ms, "
            f"p99 {self.latency_p99_s * 1e3:.1f} ms",
            f"TTFT            : mean {self.ttft_mean_s * 1e3:.1f} ms, "
            f"p50 {self.ttft_p50_s * 1e3:.1f} ms, "
            f"p99 {self.ttft_p99_s * 1e3:.1f} ms",
            f"TPOT            : mean {self.tpot_mean_s * 1e3:.3f} ms/token",
            f"passes          : {self.prefill_passes} prefill, "
            f"{self.decode_passes} decode "
            f"(mean batch {self.mean_decode_batch:.2f})",
            f"admission       : {self.admission} "
            f"({self.admissions} admits, peak {self.peak_active} in flight, "
            f"{self.preemptions} preemptions, "
            f"{self.recomputed_tokens} tokens recomputed)",
        ]
        if self.link_gbps > 0.0:
            lines.append(
                f"KV swap         : {self.swap_outs} out / {self.swap_ins} in, "
                f"{self.swapped_pages} pages over a "
                f"{self.link_gbps:g} Gb/s host link"
            )
        if len(self.models) > 1:
            lines.append(
                f"model set       : {', '.join(self.models)} "
                f"({self.model_swaps} weight swaps, "
                f"{self.model_swap_s:.3f} s streaming)"
            )
        lines += [
            f"KV memory       : {self.kv_peak_pages}/{self.kv_pages_total} "
            f"pages peak ({self.kv_peak_fraction:.0%} of "
            f"{self.kv_budget_bytes / 2**30:.2f} GiB, "
            f"{self.kv_page_tokens} tokens/page"
            + (", summed across replicas)" if cluster else ")"),
            f"dynamic energy  : {self.energy_j * 1e3:.1f} mJ",
        ]
        if cluster and (
            self.failure_schedule != "none" or self.autoscaler != "fixed"
        ):
            lines.append(
                f"ops             : {self.failures} failure(s) "
                f"({self.rerouted_requests} rerouted, "
                f"{self.dropped_kv_pages} pages dropped), "
                f"{self.recoveries} recovery(ies), "
                f"+{self.scale_ups}/-{self.scale_downs} scale, "
                f"{self.replica_seconds:.3f} replica-s "
                f"(peak {self.peak_replicas} replicas, "
                f"warm-up {self.warmup_s * 1e3:.1f} ms)"
            )
        if self.slo_attainment is not None:
            by_class = ", ".join(
                f"class {cls}: {attained:.0%}"
                for cls, attained in self.slo_by_class.items()
            )
            lines.append(
                f"SLO attainment  : {self.slo_attainment:.0%}"
                + (f" ({by_class})" if by_class else "")
            )
        return "\n".join(lines)


#: How :class:`ClusterMetrics` pools each :class:`ServingMetrics` field
#: over the replicas (``per_request`` is the pooled rows themselves):
#:
#: ``shared``
#:     a configuration value every replica holds alike (taken from the
#:     first replica);
#: ``sum``
#:     the sum of the per-replica values, in replica order;
#: ``completions``
#:     recomputed by :func:`pool_completions` from the pooled per-request
#:     rows (a percentile of percentiles would be wrong);
#: ``fleet``
#:     computed from fleet-wide quantities: the makespan spans the trace's
#:     first arrival to the last completion, utilization is summed busy
#:     over provisioned replica-seconds, the KV peak is the summed
#:     instantaneous peak of the merged event logs (the sum of per-replica
#:     peaks without them), and the mean decode batch is total decode
#:     tokens over total decode passes.
POOLING: dict[str, str] = {
    name: rule
    for rule, names in (
        ("shared", (
            "backend", "model", "policy", "admission", "link_gbps",
            "chunk_tokens", "kv_page_tokens", "models",
        )),
        ("sum", (
            "busy_s", "energy_j", "flops", "prefill_passes", "decode_passes",
            "admissions", "peak_active", "preemptions", "recomputed_tokens",
            "swap_outs", "swap_ins", "swapped_pages", "kv_pages_total",
            "kv_budget_bytes", "model_swaps", "model_swap_s",
        )),
        ("completions", (
            "num_requests", "output_tokens", "tokens_per_s", "requests_per_s",
            "latency_mean_s", "latency_p50_s", "latency_p99_s",
            "ttft_mean_s", "ttft_p50_s", "ttft_p99_s", "tpot_mean_s",
            "slo_attainment", "slo_by_class", "slo_by_model_class",
        )),
        ("fleet", (
            "makespan_s", "utilization", "kv_peak_pages", "mean_decode_batch",
        )),
    )
    for name in names
}


def pool_replicas(
    per_replica: "Sequence[ServingMetrics]",
    rows: "Sequence[RequestMetrics]",
    *,
    makespan: float,
    replica_seconds: float,
    kv_peak_pages: int,
    default_model: str,
) -> dict:
    """Every :class:`ServingMetrics` field of a fleet, by its :data:`POOLING` rule.

    ``rows`` are the pooled completions; the ``fleet`` rules take the
    cluster-wide makespan, provisioned replica-seconds and KV peak.
    """
    pooled = {}
    for name, rule in POOLING.items():
        if rule == "shared":
            pooled[name] = getattr(per_replica[0], name)
        elif rule == "sum":
            pooled[name] = sum(getattr(metrics, name) for metrics in per_replica)
    scored = any(metrics.slo_attainment is not None for metrics in per_replica)
    columns = row_columns(rows, scored, pooled["models"], default_model)
    pooled.update(pool_completions(makespan=makespan, **columns))
    # A replica's decode-token count is an integer, recovered exactly
    # from its correctly rounded mean batch.
    decode_tokens = sum(
        round(metrics.mean_decode_batch * metrics.decode_passes)
        for metrics in per_replica
    )
    decode_passes = pooled["decode_passes"]
    pooled.update(
        makespan_s=makespan,
        utilization=(
            pooled["busy_s"] / replica_seconds if replica_seconds > 0 else 0.0
        ),
        kv_peak_pages=kv_peak_pages,
        mean_decode_batch=decode_tokens / decode_passes if decode_passes else 0.0,
    )
    return pooled


@dataclass(frozen=True, kw_only=True)
class ClusterMetrics(ServingMetrics):
    """Pooled metrics of one cluster simulation (plus per-replica detail).

    Every :class:`ServingMetrics` field is pooled over the replicas by its
    :data:`POOLING` rule: ``shared`` configuration (backend, model,
    policy, admission, ``link_gbps``, ``chunk_tokens``,
    ``kv_page_tokens``, the model set), ``sum`` counters (busy time,
    energy, FLOPs, ``prefill_passes``/``decode_passes``, admissions,
    preemptions, ``swap_outs``/``swap_ins``/``swapped_pages``, the KV
    pool and ``kv_budget_bytes``, weight swaps), ``completions`` figures
    recomputed from the pooled per-request rows (latency, TTFT and TPOT,
    throughput, SLO attainment) and ``fleet`` figures (makespan,
    utilization over replica-seconds, the merged KV peak and the
    decode-weighted ``mean_decode_batch``).  On top come the cluster's
    own routing and ops accounting.
    """

    router: str
    num_replicas: int
    #: Requests / tokens routed to each replica, in replica order.
    routed_requests: tuple[int, ...]
    routed_tokens: tuple[int, ...]
    #: max/min routed tokens over the replicas that received at least one
    #: request (1.0 when fewer than two replicas did).
    load_imbalance: float
    #: Production-ops accounting (inert defaults when no failure schedule
    #: or autoscaler was configured).
    failure_schedule: str = "none"
    autoscaler: str = "fixed"
    failures: int = 0
    recoveries: int = 0
    rerouted_requests: int = 0
    dropped_kv_pages: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    #: Summed alive time across replicas — the fleet's energy/cost proxy.
    replica_seconds: float = 0.0
    peak_replicas: int = 0
    #: Modeled warm-up a spawned replica pays before serving.
    warmup_s: float = 0.0
    per_replica: tuple[ServingMetrics, ...] = ()

    def to_dict(
        self, include_requests: bool = True, include_replicas: bool = True
    ) -> dict:
        """JSON-stable representation (reports and determinism tests)."""
        return self._as_dict(include_requests, include_replicas)
