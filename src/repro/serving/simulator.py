"""Discrete-event request-level serving simulator over the cost-model layer.

:class:`ServingSimulator` plays a trace of
:class:`~repro.serving.request.Request` objects against one device whose
per-pass costs come from any :class:`~repro.core.costmodel.CostModel` — the
IANUS simulator, the NPU-MEM variant, or the A100/DFX analytical baselines.
Time advances at *pass* granularity (one prefill pass or chunk, or one
fused decode iteration at a time), which is exactly the scheduling
granularity of iteration-level serving systems (Orca, vLLM): between any
two passes the scheduler may admit new arrivals or change the decode batch.

Memory-aware admission
----------------------
Admission is governed by the backend's *memory system*, not a head count: a
:class:`~repro.serving.kv_memory.KvPageAccountant` commits KV pages against
the bytes the backend holds beyond the model weights, scaled by
``kv_fraction``.  A request is admitted only when both the policy's
concurrency gate and the page pool agree; pages are released at completion.
Two admission modes are supported:

``admission="worst-case"`` (default)
    Each request commits its worst-case pages (its full ``input + output``
    tokens) up front.  Deadlock-free by construction and maximally
    conservative — the PR 4 behavior, bit-for-bit.
``admission="optimistic"``
    Each request commits only its *prompt* pages; every decode pass grows
    the reservation on demand as the KV cache crosses page boundaries
    (vLLM-style).  On pool exhaustion the scheduler preempts the active
    request with the least generated tokens (ties: least prefilled, then
    latest arrival), releases all its pages, and re-enqueues it for
    **recompute** from scratch; ``preempt=False`` disables preemption, in
    which case a decode that cannot grow simply stalls for the iteration
    (and the simulator raises if *nothing* can run).  Preemptions and the
    tokens they discard are reported as ``preemptions`` /
    ``recomputed_tokens``; optimism admits more concurrent requests
    (``peak_active``) in exchange for that wasted work.

Incremental runs
----------------
:meth:`ServingSimulator.begin` returns a :class:`SimulationRun` — the same
discrete-event loop exposed as ``offer`` / ``advance_until`` / ``finish``
steps, so a caller can interleave request injection with simulation time.
``simulate`` is the one-shot wrapper (offer everything, drain); the cluster
simulator (:mod:`repro.serving.cluster`) drives one run per replica and
routes each arrival using the replicas' states at that instant.  Offering a
trace incrementally at its arrival instants is *byte-identical* to the
one-shot path: admission happens at pass boundaries in both.

Chunked prefill
---------------
With ``chunk_tokens > 0`` a prompt is prefilled in scheduler-visible chunks
instead of one head-of-line-blocking pass.  Chunk ``i`` is priced at the
*incremental* cost ``C(prefix + chunk) - C(prefix)``
(:func:`~repro.core.costmodel.diff_pass_cost`), so chunk costs telescope to
the monolithic prefill cost — a chunk size >= the prompt is a byte-identical
no-op, and chunking conserves both tokens and total prefill work.  Each
chunk iteration is *fused* with one decode token for the policy's decode
batch (Sarathi-style piggybacking): the chunk already streams every FC
weight, so the decode members ride along paying only their KV-dependent
marginal, and decodes no longer starve behind long prompts.

Scheduling policies
-------------------
:class:`FcfsPolicy`
    Classic run-to-completion: requests are served one at a time in arrival
    order; an arrival behind a long generation waits for the whole request.
:class:`InterleavedPolicy`
    Continuous batching: up to ``max_batch`` requests are in flight; new
    arrivals are prefilled as soon as a slot (and KV pages) free up, and all
    in-flight requests advance one token per fused decode iteration.
:class:`SrptPolicy`
    Shortest-remaining-processing-time continuous batching: admission,
    prefill order and the decode batch all prefer the request with the
    fewest remaining tokens, which minimizes mean latency.
:class:`PriorityPolicy`
    Priority-class continuous batching: class 0 is admitted, prefilled and
    decoded before class 1, and so on; pair with per-class ``slo_targets``
    to measure SLO attainment under overload.

Batched-decode cost model
-------------------------
The cost layer prices *single-request* passes, so the simulator derives the
cost of a fused decode iteration from it explicitly.  Decode passes on every
evaluated backend are dominated by streaming the FC weights, which a batch
shares; the per-request remainder (KV-cache traffic, attention) is not
shared.  With ``c(kv)`` the single-request decode cost and ``base = c(1)``
(the weight-streaming plus fixed-overhead floor), a batch at KV lengths
``kv_1..kv_B`` is charged::

    latency = sum_i c(kv_i).latency - share * (B - 1) * base.latency

i.e. the shared floor is paid once and every request pays its KV-dependent
marginal, floored at the slowest member (a fused pass cannot beat its
largest request).  When a prefill chunk carries the iteration, the chunk
pays the weights and *all* ``B`` decode floors are shareable.  ``share``
(default 1.0) scales how much of the floor is shareable; ``share=0``
recovers fully serial decoding.  A batch of one is by construction
*exactly* the single-request pass cost, which is what makes a one-request
trace reproduce ``IanusSystem.run(mode="exact")`` latency.  Energy follows
the same sharing (shared weight reads are shared DRAM energy); FLOPs sum
fully — batching shares bytes, not math.

Pass-cost provider
------------------
:class:`PassCostProvider` fronts the cost model: prefill costs are always
priced exactly (few distinct prompt lengths per mix), decode costs either
exactly per KV length (``exact=True``) or by piecewise-linear interpolation
over ``kv_samples`` anchor lengths — the serving-level counterpart of the
fast generation mode of :meth:`repro.core.system.IanusSystem.run`, and the
reason a load sweep touches a handful of simulated passes instead of
thousands.  Every anchor evaluation routes through the backend's shared
(persistently cacheable) pass-cost cache.

Engines
-------
Two interchangeable implementations sit behind ``begin``/``simulate``
(:data:`ENGINES`, selected by ``ServingSimulator(engine=...)``):

``engine="object"`` (default)
    The reference discrete-event loop in this module — per-request
    ``_InFlight`` objects, a cost-provider call per pass.  Always correct,
    supports custom :class:`ServingPolicy` subclasses, comfortable up to
    tens of thousands of requests.
``engine="array"``
    The vectorized fast core (:mod:`repro.serving.array_engine`): columnar
    request state, decode costs from a dense per-(model, backend) lookup
    table (:mod:`repro.serving.decode_table`), and macro-stepping that
    prices whole runs of decode iterations from prefix sums.  Simulates a
    day of production traffic — a million requests — in seconds.  With
    ``record_events=True`` it takes the per-iteration path and reproduces
    the object engine's event log *bit for bit*; macro-stepped runs match
    pooled metrics to ~1e-9 (float accumulation order differs).  Requires
    a registered policy (the four in :data:`POLICIES`) because policy
    decisions are re-derived over columns.
"""

from __future__ import annotations

import bisect
import inspect
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.core.costmodel import CostModel, PassCost, diff_pass_cost, lerp_pass_cost
from repro.energy.model import EnergyBreakdown
from repro.models.flops import model_weight_bytes
from repro.models.transformer import ModelConfig
from repro.models.workload import Stage, StagePass
from repro.serving.kv_memory import DEFAULT_PAGE_TOKENS, KvPageAccountant
from repro.serving.metrics import (
    ServingMetrics,
    percentile,
    pool_completions,
    row_columns,
)
from repro.serving.request import Request, RequestMetrics
from repro.serving.validate import SimEvent

__all__ = [
    "PassCostProvider",
    "ServingPolicy",
    "FcfsPolicy",
    "InterleavedPolicy",
    "SrptPolicy",
    "PriorityPolicy",
    "POLICIES",
    "make_policy",
    "ADMISSION_MODES",
    "ENGINES",
    "ServingMetrics",
    "SimulationRun",
    "ServingSimulator",
    "decode_kv_bounds",
    "mean_service_time_s",
    "percentile",
]

#: Admission-control modes of the simulator (see the module docstring).
ADMISSION_MODES = ("worst-case", "optimistic")

#: Simulation engines (see the module docstring): the reference
#: object-graph loop, and the vectorized array core behind the same API.
ENGINES = ("object", "array")

#: ServingMetrics fields both engines' runs keep under the same name.
_RUN_COUNTERS = (
    "flops", "prefill_passes", "decode_passes", "admissions", "peak_active",
    "preemptions", "recomputed_tokens", "swap_outs", "swap_ins",
    "swapped_pages", "model_swaps", "model_swap_s",
)

#: Default number of KV-length anchors of the interpolating provider.
DEFAULT_KV_SAMPLES = 9


# ----------------------------------------------------------------------
# Pass-cost provider
# ----------------------------------------------------------------------
class PassCostProvider:
    """Exact or KV-interpolating per-pass costing over one cost model."""

    def __init__(
        self,
        cost_model: CostModel,
        model: ModelConfig,
        exact: bool = False,
        kv_samples: int = DEFAULT_KV_SAMPLES,
    ) -> None:
        if kv_samples < 2:
            raise ValueError("kv_samples must be at least 2")
        self.cost_model = cost_model
        self.model = model
        self.exact = exact
        self.kv_samples = kv_samples
        self._prefill_costs: dict[int, PassCost] = {}
        #: Exactly-priced decode costs — valid forever, kept across prepare().
        self._exact_costs: dict[int, PassCost] = {}
        #: Interpolated decode costs — anchor-grid-dependent, cleared by
        #: prepare() so a reused provider never mixes two grids.
        self._interp_costs: dict[int, PassCost] = {}
        self._anchors: list[int] = []
        #: Dense decode tables keyed (kv_lo, kv_hi) — anchor-grid-dependent
        #: like _interp_costs, cleared by prepare() with it.
        self._tables: dict = {}

    # ------------------------------------------------------------------
    def prepare(self, kv_min: int, kv_max: int) -> None:
        """Choose the decode anchor grid for a known KV range.

        Anchors are evaluated lazily; ``prepare`` only fixes their
        positions.  KV length 1 is always an anchor — it is the shared
        ``base`` of the fused-decode cost model.  Interpolated costs from a
        previous grid are dropped, so reusing a provider (or simulator)
        across traces yields the same metrics as a fresh one.
        """
        if kv_max < kv_min:
            raise ValueError("kv_max must be at least kv_min")
        anchors = {1, kv_min, kv_max}
        if kv_max > kv_min:
            step = (kv_max - kv_min) / (self.kv_samples - 1)
            anchors.update(
                int(round(kv_min + i * step)) for i in range(self.kv_samples)
            )
        self._anchors = sorted(anchors)
        self._interp_costs.clear()
        self._tables.clear()

    def prefill(self, input_tokens: int) -> PassCost:
        """Cost of the summarization (prefill) pass — always exact."""
        cost = self._prefill_costs.get(input_tokens)
        if cost is None:
            cost = self.cost_model.pass_cost(
                self.model,
                StagePass(Stage.SUMMARIZATION, input_tokens, input_tokens),
            )
            self._prefill_costs[input_tokens] = cost
        return cost

    def prefill_chunk(self, prefix_tokens: int, chunk_tokens: int) -> PassCost:
        """Incremental cost of prefilling ``chunk_tokens`` after a prefix.

        Priced as ``C(prefix + chunk) - C(prefix)`` so a request's chunk
        costs telescope to its monolithic prefill cost exactly (and a chunk
        covering the whole prompt *is* the monolithic pass).
        """
        if chunk_tokens < 1:
            raise ValueError("chunk_tokens must be at least 1")
        if prefix_tokens < 0:
            raise ValueError("prefix_tokens must be non-negative")
        if prefix_tokens == 0:
            return self.prefill(chunk_tokens)
        return diff_pass_cost(
            self.prefill(prefix_tokens + chunk_tokens), self.prefill(prefix_tokens)
        )

    def decode(self, kv_length: int) -> PassCost:
        """Cost of one single-request decode pass at ``kv_length``."""
        cost = self._exact_costs.get(kv_length)
        if cost is not None:
            return cost
        if self.exact or kv_length in self._anchors or len(self._anchors) < 2:
            return self._decode_exact(kv_length)
        cost = self._interp_costs.get(kv_length)
        if cost is None:
            position = bisect.bisect_left(self._anchors, kv_length)
            position = min(max(position, 1), len(self._anchors) - 1)
            low, high = self._anchors[position - 1], self._anchors[position]
            weight = (kv_length - low) / (high - low)
            cost = lerp_pass_cost(
                self._decode_exact(low), self._decode_exact(high), weight
            )
            self._interp_costs[kv_length] = cost
        return cost

    def decode_table(self, kv_lo: int, kv_hi: int):
        """Dense ``kv -> cost`` table over ``[kv_lo, kv_hi]`` (array engine).

        Built once per (model, backend, anchor grid) — every entry is
        bit-identical to :meth:`decode` at that KV length, and the anchor
        evaluations it triggers route through the backend's shared
        (persistently cacheable) pass-cost cache.  Memoized until the next
        :meth:`prepare`; see :mod:`repro.serving.decode_table`.
        """
        key = (kv_lo, kv_hi)
        table = self._tables.get(key)
        if table is None:
            table = self._shared_table(kv_lo, kv_hi)
            self._tables[key] = table
        return table

    def _shared_table(self, kv_lo: int, kv_hi: int):
        """Fetch or build a table via the process-wide (optionally
        persistent) decode-table cache.

        The shared key is ``(backend fingerprint, model fingerprint, anchor
        grid, kv range)`` — everything the columns depend on *except* this
        provider's exact-cost overrides, so the shared path is skipped
        whenever a non-anchor KV length in range has been priced exactly
        (the override would make the table provider-history-dependent).
        When :func:`repro.perf.cache.install_disk_caches` is active the
        payload persists across processes, amortizing cold-start builds the
        same way pass costs already are.
        """
        from repro.perf.cache import config_fingerprint, global_decode_table_cache
        from repro.serving.decode_table import (
            build_decode_table,
            table_from_payload,
            table_to_payload,
        )

        backend_fp = getattr(self.cost_model, "config_fingerprint", None)
        if backend_fp is None:
            config = getattr(self.cost_model, "config", None)
            if config is not None:
                try:
                    backend_fp = config_fingerprint(config)
                except TypeError:
                    backend_fp = None
        anchors = tuple(self._anchors)
        anchor_set = set(anchors)
        overridden = any(
            kv_lo <= kv <= kv_hi and kv not in anchor_set
            for kv in self._exact_costs
        )
        if backend_fp is None or overridden:
            return build_decode_table(self, kv_lo, kv_hi)
        try:
            model_fp = config_fingerprint(self.model)
        except TypeError:
            return build_decode_table(self, kv_lo, kv_hi)
        shared = global_decode_table_cache()
        shared_key = (backend_fp, model_fp, anchors, kv_lo, kv_hi)
        payload = shared.get(shared_key)
        if payload is not None:
            table = table_from_payload(payload)
            if table is not None:
                return table
        table = build_decode_table(self, kv_lo, kv_hi)
        shared.put(shared_key, table_to_payload(table))
        return table

    def base(self) -> PassCost:
        """The KV-independent decode floor (``c(1)``): weights + overheads."""
        return self._decode_exact(1)

    def _decode_exact(self, kv_length: int) -> PassCost:
        cost = self._exact_costs.get(kv_length)
        if cost is None:
            cost = self.cost_model.pass_cost(
                self.model, StagePass(Stage.GENERATION, 1, kv_length)
            )
            self._exact_costs[kv_length] = cost
        return cost


def _decode_kv_bounds(items) -> "tuple[int, int] | None":
    """(min, max) decode KV length over requests or workloads, or ``None``.

    A request's decode passes span KV lengths ``input+1 .. input+output-1``
    (the prefill produces the first output token); items generating a single
    token contribute no decode pass.  Works on anything exposing
    ``input_tokens``/``output_tokens`` (:class:`~repro.serving.request.Request`,
    :class:`~repro.models.workload.Workload`).
    """
    bounds = [
        bound
        for item in items
        if item.output_tokens > 1
        for bound in (
            item.input_tokens + 1,
            item.input_tokens + item.output_tokens - 1,
        )
    ]
    if not bounds:
        return None
    return min(bounds), max(bounds)


def decode_kv_bounds(items) -> "tuple[int, int] | None":
    """Public form of :func:`_decode_kv_bounds`.

    Streaming callers cannot derive bounds from a trace they have not
    materialized; pass the generator's *workloads* here instead (the mix
    bounds cover every request drawn from it) and hand the result to
    :meth:`ServingSimulator.simulate_stream` or
    :meth:`ServingSimulator.begin`.
    """
    return _decode_kv_bounds(items)


def mean_service_time_s(
    cost_model: CostModel,
    model: ModelConfig,
    workloads: "Sequence",
    exact: bool = False,
    kv_samples: int = DEFAULT_KV_SAMPLES,
) -> float:
    """Mean run-to-completion service time of a workload mix (uniform weights).

    The reciprocal is the backend's nominal capacity in requests/s — the
    arrival rate at which an ideal, never-idle FCFS server would be exactly
    saturated.  Load sweeps use it to express offered load as a fraction of
    each backend's capacity, so curves are comparable across backends whose
    absolute speeds differ by an order of magnitude.
    """
    if not workloads:
        raise ValueError("workloads must be non-empty")
    provider = PassCostProvider(cost_model, model, exact=exact, kv_samples=kv_samples)
    kv_bounds = _decode_kv_bounds(workloads)
    if kv_bounds is not None:
        provider.prepare(*kv_bounds)
    total = 0.0
    for workload in workloads:
        service = provider.prefill(workload.input_tokens).latency_s
        for kv in range(
            workload.input_tokens + 1,
            workload.input_tokens + workload.output_tokens,
        ):
            service += provider.decode(kv).latency_s
        total += service
    return total / len(workloads)


# ----------------------------------------------------------------------
# Scheduling policies
# ----------------------------------------------------------------------
@dataclass
class _InFlight:
    """Mutable in-flight request state (internal to the simulator)."""

    request: Request
    prefilled: int = 0
    generated: int = 0
    first_token_s: float = 0.0

    @property
    def prefill_done(self) -> bool:
        return self.prefilled >= self.request.input_tokens

    @property
    def done(self) -> bool:
        return self.prefill_done and self.generated >= self.request.output_tokens

    @property
    def next_kv_length(self) -> int:
        """KV length of this request's next decode pass."""
        return self.request.input_tokens + self.generated

    @property
    def remaining_tokens(self) -> int:
        """Prompt tokens still to prefill plus output tokens still to emit."""
        return (self.request.input_tokens - self.prefilled) + (
            self.request.output_tokens - self.generated
        )


class ServingPolicy:
    """Decides what the device executes between two passes.

    ``admit`` gates concurrency (the KV page pool independently gates
    memory); ``admit_index`` picks which waiting request is admitted next;
    ``prefill_index`` picks which admitted-but-unprefilled request runs its
    next chunk; ``decode_batch`` picks the fully-prefilled requests that
    advance one token in the next decode iteration.  The base class admits
    and prefills in arrival order.
    """

    name = "policy"

    def admit(self, active_count: int) -> bool:
        raise NotImplementedError

    def admit_index(self, waiting: "Sequence[Request]") -> int:
        return 0

    def admit_filter(
        self, waiting: "Sequence[Request]", active: "Sequence[_InFlight]"
    ) -> "list[int] | None":
        """Indices of ``waiting`` that are admissible *right now*, or
        ``None`` to leave admission ungated (the default).

        Called after the concurrency gate with the current active set;
        returning ``[]`` stops admission for this pass boundary.
        Implementations must keep admission live: when ``active`` is
        empty the filter must not be empty while work waits, or the
        device would idle forever.
        """
        return None

    def prefill_index(self, prefilling: "Sequence[_InFlight]") -> int:
        return 0

    def decode_batch(self, decodable: "Sequence[_InFlight]") -> "list[_InFlight]":
        raise NotImplementedError


class FcfsPolicy(ServingPolicy):
    """First-come-first-served, run-to-completion, one request at a time."""

    name = "fcfs"

    def admit(self, active_count: int) -> bool:
        return active_count == 0

    def decode_batch(self, decodable):
        return list(decodable[:1])


class _BatchedPolicy(ServingPolicy):
    """Shared concurrency gate of the continuous-batching policies."""

    def __init__(self, max_batch: int = 8) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch

    def admit(self, active_count: int) -> bool:
        return active_count < self.max_batch


class InterleavedPolicy(_BatchedPolicy):
    """Iteration-level continuous batching with prefill priority."""

    name = "interleaved"

    def decode_batch(self, decodable):
        return list(decodable[: self.max_batch])


class SrptPolicy(_BatchedPolicy):
    """Shortest-remaining-processing-time continuous batching.

    Admission, prefill order and the decode batch all prefer the request
    with the fewest remaining tokens (ties broken by queue position, so the
    order is deterministic).  Remaining tokens are the service-demand proxy
    the cost models support: every token costs roughly one pass slot.
    """

    name = "srpt"

    def admit_index(self, waiting):
        return min(
            range(len(waiting)), key=lambda i: (waiting[i].total_tokens, i)
        )

    def prefill_index(self, prefilling):
        return min(
            range(len(prefilling)),
            key=lambda i: (prefilling[i].remaining_tokens, i),
        )

    def decode_batch(self, decodable):
        order = sorted(
            range(len(decodable)),
            key=lambda i: (decodable[i].remaining_tokens, i),
        )
        return [decodable[i] for i in order[: self.max_batch]]


class PriorityPolicy(_BatchedPolicy):
    """Priority-class continuous batching (class 0 first, then arrival order).

    Strict priority at every decision point: admission, prefill order and
    the decode batch serve the lowest class first.  Pair with the
    simulator's per-class ``slo_targets`` to measure SLO attainment — under
    overload, class 0 keeps its attainment at the expense of class 1.

    ``class_shares`` adds per-class *admission reservations* for tenant
    isolation: class ``i`` is guaranteed ``floor(class_shares[i] *
    max_batch)`` concurrency slots.  A candidate of class ``c`` is admitted
    while class ``c`` is under its reservation, or while enough headroom
    remains that admitting it cannot eat into another waiting class's
    unfilled reservation.  With shares, an overloaded low-priority tenant
    can no longer starve class 0 of admission slots *and* a burst of
    class-0 work cannot squeeze a reserved lower class out entirely.
    Classes beyond ``len(class_shares)`` hold no reservation.  Without
    ``class_shares`` (default) admission is the legacy strict-priority
    order, bit for bit.
    """

    name = "priority"

    def __init__(
        self, max_batch: int = 8, class_shares: "Sequence[float] | None" = None
    ) -> None:
        super().__init__(max_batch)
        self.class_shares: "tuple[float, ...] | None" = None
        self._reservations: "tuple[int, ...] | None" = None
        if class_shares is not None:
            shares = tuple(float(share) for share in class_shares)
            if not shares:
                raise ValueError("class_shares must name at least one class")
            if any(
                not 0.0 <= share <= 1.0 or share != share for share in shares
            ):
                raise ValueError("class_shares must be fractions in [0, 1]")
            if sum(shares) > 1.0 + 1e-9:
                raise ValueError(
                    f"class_shares sum to {sum(shares):g}; reservations "
                    "cannot exceed the whole batch (sum must be <= 1)"
                )
            self.class_shares = shares
            self._reservations = tuple(
                int(share * self.max_batch) for share in shares
            )

    def admit_index(self, waiting):
        return min(
            range(len(waiting)), key=lambda i: (waiting[i].priority_class, i)
        )

    def admit_filter(self, waiting, active):
        if self._reservations is None:
            return None
        reserved = self._reservations
        active_by_class: "dict[int, int]" = {}
        for flight in active:
            cls = flight.request.priority_class
            active_by_class[cls] = active_by_class.get(cls, 0) + 1
        waiting_classes = {request.priority_class for request in waiting}
        total = len(active)
        allowed: "list[int]" = []
        for index, request in enumerate(waiting):
            cls = request.priority_class
            quota = reserved[cls] if cls < len(reserved) else 0
            if active_by_class.get(cls, 0) < quota:
                allowed.append(index)
                continue
            # Slots other waiting classes still have reserved but unfilled:
            # admitting past them could eat a guaranteed slot.
            pending = sum(
                max(
                    0,
                    (reserved[other] if other < len(reserved) else 0)
                    - active_by_class.get(other, 0),
                )
                for other in waiting_classes
                if other != cls
            )
            if total + pending < self.max_batch:
                allowed.append(index)
        return allowed

    def prefill_index(self, prefilling):
        return min(
            range(len(prefilling)),
            key=lambda i: (prefilling[i].request.priority_class, i),
        )

    def decode_batch(self, decodable):
        order = sorted(
            range(len(decodable)),
            key=lambda i: (decodable[i].request.priority_class, i),
        )
        return [decodable[i] for i in order[: self.max_batch]]


#: Policy registry: CLI/experiment name -> class, in presentation order.
POLICIES: dict[str, type[ServingPolicy]] = {
    "fcfs": FcfsPolicy,
    "interleaved": InterleavedPolicy,
    "srpt": SrptPolicy,
    "priority": PriorityPolicy,
}


def _constructor_keywords(cls: type) -> set[str]:
    """Keyword arguments a class constructor accepts (shared by the policy
    and router factories, so both validate the same way)."""
    return {
        name
        for name, param in inspect.signature(cls.__init__).parameters.items()
        if name != "self"
        and param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    }


def _validated_construct(kind: str, registry: dict, name: str, kwargs: dict):
    """Look up ``name`` in ``registry`` and build it, validating kwargs.

    Unknown names raise with the list of known entries; keyword arguments
    the named class does not accept raise instead of being silently
    dropped.  The single construction path of policies and routers.
    """
    cls = registry.get(name)
    if cls is None:
        raise ValueError(f"unknown {kind} {name!r}; known: {', '.join(registry)}")
    allowed = _constructor_keywords(cls)
    unexpected = sorted(set(kwargs) - allowed)
    if unexpected:
        accepted = ", ".join(sorted(allowed)) if allowed else "none"
        raise ValueError(
            f"{kind} {name!r} does not accept {', '.join(unexpected)} "
            f"(accepted keyword(s): {accepted})"
        )
    return cls(**kwargs)


def make_policy(name: str, **kwargs) -> ServingPolicy:
    """Instantiate a scheduling policy by name — the single validation point.

    Unknown names raise with the list of known policies; keyword arguments
    the named policy does not accept raise instead of being silently
    dropped (e.g. ``max_batch`` on FCFS, which is unbatched by definition).
    """
    return _validated_construct("policy", POLICIES, name, kwargs)


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
class _RunBase:
    """Drain, metrics, event and ops hooks shared by the object and array runs.

    Both runs keep their state under the same attribute names (clock,
    counters, queues, ``completed``, ``phase_s``), so one body serves both.
    """

    def finish(self) -> ServingMetrics:
        """Drain all remaining work and return the run's metrics."""
        if self.finished:
            raise ValueError("finish() called twice on the same run")
        self.advance_until(None)
        self.finished = True
        self.completed.sort(key=lambda metrics: metrics.request_id)
        makespan = (
            self.clock - self.first_arrival if self.first_arrival is not None else 0.0
        )
        if self.sim.profile:
            start = perf_counter()
            metrics = self.sim._finalize(self, makespan)
            self.phase_s["metrics"] += perf_counter() - start
            return metrics
        return self.sim._finalize(self, makespan)

    def completion_columns(self) -> dict:
        """Completion columns of the finished requests (metric pooling)."""
        sim = self.sim
        return row_columns(
            self.completed,
            sim.slo_targets is not None,
            sim._model_names,
            sim.model.name,
        )

    def recover(self, now: float) -> None:
        """Bring a failed replica back (empty: its KV cache did not survive)."""
        if self.finished:
            raise ValueError("cannot recover a finished run")
        if not self.dead:
            raise ValueError("cannot recover a replica that is not dead")
        self.dead = False
        if now > self.clock:
            self.clock = now
        self._emit("recover")

    def catch_up(self, now: float) -> None:
        """Jump an idle replica's clock forward to ``now``.

        Failover resubmits bypass the pending queue (and with it the idle
        jump in :meth:`advance_until`), so the cluster calls this first —
        otherwise an idle survivor would start recomputing a victim's work
        *before* the failure instant.
        """
        if (
            now > self.clock
            and not self.active
            and not self.waiting
            and not self.swapped
        ):
            self.clock = now
            self._emit("idle")

    def note_scale(self, delta: int) -> None:
        """Record an autoscaling decision (+1 spawn, -1 drain) in the log."""
        self._emit("scale", tokens=delta)

    def _emit(
        self,
        kind: str,
        latency: float = 0.0,
        request_id: "int | None" = None,
        tokens: int = 0,
        decode_ids: tuple = (),
        model: str = "",
    ) -> None:
        if self.events is not None:
            self.events.append(
                SimEvent(
                    kind=kind,
                    clock_s=self.clock,
                    latency_s=latency,
                    request_id=request_id,
                    tokens=tokens,
                    decode_ids=decode_ids,
                    active=len(self.active),
                    waiting=len(self.waiting),
                    kv_reserved_pages=self.kv.reserved_pages,
                    kv_total_pages=self.kv.total_pages,
                    model=model,
                )
            )

    def _swap_model(self, target: str) -> None:
        """Stream ``target``'s weights in over the host link (weight swap)."""
        sim = self.sim
        moved = sim._weight_bytes[target]
        latency = moved * 8.0 / (sim.link_gbps * 1e9)
        self.clock += latency
        self.busy += latency
        self.resident_model = target
        self._provider = sim.providers[target]
        self.model_swaps += 1
        self.model_swap_s += latency
        self._emit("model_swap", latency=latency, tokens=moved, model=target)

    def _swap_latency(self, pages: int) -> float:
        """Transfer time of ``pages`` KV pages over the host link."""
        return pages * self.kv.page_bytes * 8.0 / (self.sim.link_gbps * 1e9)


class SimulationRun(_RunBase):
    """One in-progress simulation over a :class:`ServingSimulator`.

    Created by :meth:`ServingSimulator.begin`.  The one-shot
    :meth:`ServingSimulator.simulate` offers the whole (sorted) trace and
    drains; the cluster layer instead drives one run per replica — it
    advances every replica to a request's arrival instant
    (:meth:`advance_until`), reads the replicas' router-visible state, and
    :meth:`offer`\\ s the request to the chosen one.  Offering a trace
    incrementally at its arrival instants produces the *same* event log and
    metrics as the one-shot path, because the scheduler only acts at pass
    boundaries in both cases.

    The run owns all mutable state (queues, clock, KV accountant, event
    log, counters); the simulator it was created from supplies the
    immutable configuration (policy, provider, admission mode).
    """

    def __init__(
        self,
        sim: "ServingSimulator",
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> None:
        self.sim = sim
        self.kv = sim._new_accountant()
        self.events: "list[SimEvent] | None" = [] if record_events else None
        if kv_bounds is not None:
            for provider in sim.providers.values():
                provider.prepare(*kv_bounds)
        #: Model whose weights are resident on the device right now.
        self.resident_model = sim.model.name
        self._provider = sim.provider
        self.model_swaps = 0
        self.model_swap_s = 0.0
        self.pending: "deque[Request]" = deque()
        self.waiting: list[Request] = []
        self.active: list[_InFlight] = []
        #: Swapped-out requests, oldest first; their private KV pages live
        #: in host DRAM and their progress is preserved until swap-in.
        self.swapped: list[_InFlight] = []
        self.completed: list[RequestMetrics] = []
        self.clock = 0.0
        self.busy = 0.0
        self.energy = EnergyBreakdown.zero()
        self.flops = 0.0
        self.prefill_passes = 0
        self.decode_passes = 0
        self.decode_tokens = 0
        self.admissions = 0
        self.peak_active = 0
        self.preemptions = 0
        self.recomputed_tokens = 0
        self.swap_outs = 0
        self.swap_ins = 0
        self.swapped_pages = 0
        self.offered = 0
        self.first_arrival: "float | None" = None
        self.finished = False
        #: Set by :meth:`fail` — a dead replica takes no work until recovery.
        self.dead = False
        self._last_until: "float | None" = None
        #: Wall-time per simulator phase, populated when ``sim.profile``.
        self.phase_s: dict[str, float] = {
            "admit": 0.0,
            "prefill": 0.0,
            "decode": 0.0,
            "metrics": 0.0,
        }
        self._step_kind = "decode"

    # ------------------------------------------------------------------
    def offer(self, request: Request) -> None:
        """Inject one request; offers must come in ``(arrival, id)`` order."""
        if self.finished:
            raise ValueError("cannot offer a request to a finished run")
        if self.dead:
            raise ValueError("cannot offer a request to a failed replica")
        config = self.sim._config_for(request)
        if not config.is_decoder and request.output_tokens > 1:
            raise ValueError(
                f"{config.name} is not a decoder; serving traces for it "
                "must be summarization-only (output_tokens == 1)"
            )
        if self.pending:
            last = self.pending[-1]
            if (request.arrival_s, request.request_id) < (
                last.arrival_s,
                last.request_id,
            ):
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
        self.pending.append(request)
        self.offered += 1
        if self.first_arrival is None:
            self.first_arrival = request.arrival_s

    def offer_many(self, requests) -> None:
        """Offer a batch of requests in ``(arrival, id)`` order.

        Semantically a loop over :meth:`offer`; the array engine overrides
        this with a bulk path that hoists the guards out of the loop.
        """
        for request in requests:
            self.offer(request)

    # ------------------------------------------------------------------
    # Router-visible state (read by the cluster layer between offers)
    # ------------------------------------------------------------------
    @property
    def outstanding_requests(self) -> int:
        """Requests routed here and not yet completed."""
        return (
            len(self.pending)
            + len(self.waiting)
            + len(self.active)
            + len(self.swapped)
        )

    @property
    def outstanding_tokens(self) -> int:
        """Prompt + output tokens not yet computed across live requests."""
        tokens = sum(request.total_tokens for request in self.pending)
        tokens += sum(request.total_tokens for request in self.waiting)
        tokens += sum(flight.remaining_tokens for flight in self.active)
        tokens += sum(flight.remaining_tokens for flight in self.swapped)
        return tokens

    # ------------------------------------------------------------------
    def advance_until(self, until: "float | None") -> None:
        """Run every pass *starting* before ``until`` (all work if ``None``).

        A pass that starts before ``until`` may end after it — exactly as
        in the one-shot loop, where arrivals during a pass wait for the
        next pass boundary.  Idle clock jumps stop at the last arrival
        ``<= until``, so the run never invents knowledge of the future.

        Targets must not move backwards: simulated time only advances, so
        a caller handing a smaller ``until`` than its previous one holds a
        stale clock and gets a ``ValueError`` rather than a silent no-op.
        """
        if self.finished:
            raise ValueError("cannot advance a finished run")
        if until is not None:
            if self._last_until is not None and until < self._last_until:
                raise ValueError(
                    f"advance_until moved backwards: target {until:.6f}s is "
                    f"before the previous target {self._last_until:.6f}s"
                )
            self._last_until = until
        while True:
            while self.pending and self.pending[0].arrival_s <= self.clock:
                self.waiting.append(self.pending.popleft())
            if not self.waiting and not self.active and not self.swapped:
                if self.pending and (
                    until is None or self.pending[0].arrival_s <= until
                ):
                    self.clock = self.pending[0].arrival_s
                    self._emit("idle")
                    continue
                return
            if until is not None and self.clock >= until:
                return
            if self.sim.profile:
                start = perf_counter()
                self._admit()
                self.phase_s["admit"] += perf_counter() - start
            else:
                self._admit()
            if not self.active:
                raise RuntimeError(
                    f"policy {self.sim.policy.name!r} left the device idle with "
                    f"{len(self.waiting)} admissible request(s) waiting"
                )  # pragma: no cover - defensive, no shipped policy does this
            if self.sim.profile:
                start = perf_counter()
                self._step()
                self.phase_s[self._step_kind] += perf_counter() - start
            else:
                self._step()

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        # Admission is instantaneous: commit KV pages and make the
        # request scheduler-visible.  Both gates must agree — the
        # policy's concurrency cap and the page pool.  Swapped-out
        # requests come back first (they hold completed work a recompute
        # would repay), then new admissions in the policy's order.
        self._swap_in_ready()
        self._admit_waiting()
        # The device may be idle with the pool pinned: every active slot
        # empty, yet swapped requests cannot return because resident
        # shared-prefix pages (theirs or their peers') crowd the pool.
        # Sacrifice the youngest swapped request for recompute until the
        # oldest fits again — each round shrinks the swap set, and a lone
        # swapped request always fits (fits_alone held at admission).
        while (
            not self.active
            and self.swapped
            and self.sim.policy.admit(len(self.active))
        ):
            if self.kv.can_swap_in(self.swapped[0].request.request_id):
                self._swap_in_head()
            else:
                self._preempt_swapped(len(self.swapped) - 1)
            self._admit_waiting()

    def _swap_in_ready(self) -> None:
        """Restore swapped-out requests, oldest first, while they fit."""
        sim, kv = self.sim, self.kv
        while self.swapped and sim.policy.admit(len(self.active)):
            if not kv.can_swap_in(self.swapped[0].request.request_id):
                break
            self._swap_in_head()

    def _swap_in_head(self) -> None:
        """Pay the link transfer and re-activate the oldest swapped request."""
        flight = self.swapped.pop(0)
        request_id = flight.request.request_id
        pages = self.kv.swap_in(request_id)
        latency = self._swap_latency(pages)
        self.clock += latency
        self.busy += latency
        self.active.append(flight)
        self.swap_ins += 1
        self.swapped_pages += pages
        if len(self.active) > self.peak_active:
            self.peak_active = len(self.active)
        self._emit("swap_in", latency=latency, request_id=request_id, tokens=pages)

    def _admit_waiting(self) -> None:
        # KV blocking is head-of-line on the policy's own admission order
        # (no smaller-request bypass), which keeps admission
        # starvation-free under every policy.  Worst-case mode commits the
        # full input + output tokens; optimistic mode commits the prompt
        # only and grows during decode (_grow_batch).  Requests with a
        # shared prefix charge only their unique new pages.
        sim, kv = self.sim, self.kv
        while self.waiting and sim.policy.admit(len(self.active)):
            allowed = sim.policy.admit_filter(self.waiting, self.active)
            if allowed is None:
                index = sim.policy.admit_index(self.waiting)
            else:
                if not allowed:
                    break
                subset = [self.waiting[i] for i in allowed]
                index = allowed[sim.policy.admit_index(subset)]
            request = self.waiting[index]
            if not kv.fits_alone(request.total_tokens):
                raise ValueError(
                    f"request {request.request_id} needs "
                    f"{kv.pages_for(request.total_tokens)} KV pages but the "
                    f"pool holds {kv.total_pages}; it can never be served "
                    f"(raise kv_fraction or the budget)"
                )
            commit_tokens = (
                request.input_tokens
                if sim.admission == "optimistic"
                else request.total_tokens
            )
            if not kv.can_reserve(
                commit_tokens, request.prefix_id, request.prefix_tokens
            ):
                break
            pages = kv.reserve(
                request.request_id,
                commit_tokens,
                request.prefix_id,
                request.prefix_tokens,
            )
            self.waiting.pop(index)
            self.active.append(_InFlight(request))
            self.admissions += 1
            if len(self.active) > self.peak_active:
                self.peak_active = len(self.active)
            self._emit("admit", request_id=request.request_id, tokens=pages)

    def _model_of(self, request: Request) -> str:
        """The model a request runs on ("" in a request means the default)."""
        return request.model or self.sim.model.name

    def _sync_model(self) -> None:
        """Swap weights when no resident-model work is runnable.

        Sticky-resident scheduling: while *any* active request uses the
        resident model the iteration is restricted to that model and no
        swap is paid.  Only when the resident model has nothing runnable
        does the replica stream in the weights of the policy's preferred
        next request (prefill-first, mirroring :meth:`_step`'s structure).
        """
        sim = self.sim
        resident = self.resident_model
        if any(self._model_of(f.request) == resident for f in self.active):
            return
        prefilling = [f for f in self.active if not f.prefill_done]
        if prefilling:
            target = prefilling[sim.policy.prefill_index(prefilling)]
        else:
            decodable = [f for f in self.active if f.prefill_done]
            batch = sim.policy.decode_batch(decodable)
            target = batch[0] if batch else decodable[0]
        self._swap_model(self._model_of(target.request))

    def _step(self) -> None:
        """One device iteration: a prefill chunk and/or a fused decode batch."""
        sim = self.sim
        eligible = self.active
        if sim.multi_model:
            self._sync_model()
            eligible = [
                flight
                for flight in self.active
                if self._model_of(flight.request) == self.resident_model
            ]
        prefilling = [flight for flight in eligible if not flight.prefill_done]
        decodable = [flight for flight in eligible if flight.prefill_done]
        flight: "_InFlight | None" = None
        carrier: "PassCost | None" = None
        chunk = 0
        batch: list[_InFlight] = []
        if prefilling:
            flight = prefilling[sim.policy.prefill_index(prefilling)]
            remaining = flight.request.input_tokens - flight.prefilled
            chunk = (
                remaining
                if sim.chunk_tokens == 0
                else min(sim.chunk_tokens, remaining)
            )
            carrier = self._provider.prefill_chunk(flight.prefilled, chunk)
            # A chunked iteration piggybacks one decode token per batch
            # member on the chunk's weight streaming (Sarathi-style);
            # monolithic prefills keep the pass pure.
            if sim.chunk_tokens and decodable:
                batch = sim.policy.decode_batch(decodable)
        else:
            batch = sim.policy.decode_batch(decodable)

        if sim.admission == "optimistic" and batch:
            requested = batch
            batch = self._grow_batch(batch, flight)
            if carrier is None and not batch:
                head = requested[0]
                kv = self.kv
                held = kv.held_pages(head.request.request_id)
                need = kv.grow_need(head.request.request_id, head.next_kv_length)
                raise RuntimeError(
                    "KV pool exhausted with preemption disabled: request "
                    f"{head.request.request_id} holds {held} page(s) and "
                    f"needs {need} more for its next decode, but only "
                    f"{kv.free_pages} of {kv.total_pages} pool page(s) are "
                    "free and no prefill can run (enable preempt or raise "
                    "the KV budget)"
                )

        costs = [self._provider.decode(f.next_kv_length) for f in batch]
        self._step_kind = "prefill" if carrier is not None else "decode"
        latency, pass_energy, pass_flops = sim._fused_iteration(
            carrier, costs, self._provider
        )
        self.clock += latency
        self.busy += latency
        self.energy = self.energy + pass_energy
        self.flops += pass_flops
        if carrier is not None:
            self.prefill_passes += 1
        if batch:
            self.decode_passes += 1
            self.decode_tokens += len(batch)
        self._emit(
            "step",
            latency=latency,
            request_id=None if flight is None else flight.request.request_id,
            tokens=chunk,
            decode_ids=tuple(f.request.request_id for f in batch),
        )

        finished: list[_InFlight] = []
        if flight is not None:
            flight.prefilled += chunk
            if flight.prefill_done:
                flight.generated = 1
                flight.first_token_s = self.clock
                if flight.done:
                    finished.append(flight)
        for f in batch:
            f.generated += 1
            if f.done:
                finished.append(f)
        for f in finished:
            self.active.remove(f)
            self.kv.release(f.request.request_id)
            self.completed.append(sim._completed(f, self.clock))
            self._emit("complete", request_id=f.request.request_id)

    # ------------------------------------------------------------------
    # Optimistic admission: on-demand growth, preempt-and-recompute,
    # and the host-DRAM swap tier
    # ------------------------------------------------------------------
    def _grow_batch(
        self, batch: "list[_InFlight]", carrier_flight: "_InFlight | None"
    ) -> "list[_InFlight]":
        """Grant each decode member the pages its next pass needs.

        Members are processed in the policy's priority order.  A member
        whose growth does not fit evicts the least-progressed unprotected
        victim until it fits, or is stalled for this iteration.  With the
        swap tier enabled the victim's private pages move to host DRAM
        (its progress survives; it resumes via swap-in); otherwise — with
        ``preempt=True`` — the victim is preempted for recompute.  When
        swapping every active victim still does not free enough (resident
        shared-prefix pages of swapped peers can pin the pool), the
        youngest swapped request is preempted outright, which releases
        its prefix reference — so the first member can always be granted:
        every admitted request fits the pool alone.
        """
        kv = self.kv
        granted: list[_InFlight] = []
        protected: set[int] = set()
        if carrier_flight is not None:
            protected.add(id(carrier_flight))
        for f in batch:
            if not any(f is flight for flight in self.active):
                continue  # evicted by an earlier member's growth
            need = kv.grow_need(f.request.request_id, f.next_kv_length)
            if need > 0 and need > kv.free_pages and (
                self.sim.swap or self.sim.preempt
            ):
                protected.add(id(f))
                while need > kv.free_pages:
                    victim = self._choose_victim(protected)
                    if victim is not None:
                        if self.sim.swap:
                            self._swap_out(victim)
                        else:
                            self._preempt(victim)
                        continue
                    if self.sim.swap and self.swapped:
                        self._preempt_swapped(len(self.swapped) - 1)
                        continue
                    break  # everyone left is protected: stall, not deadlock
            if need <= kv.free_pages:
                kv.grow(f.request.request_id, f.next_kv_length)
                granted.append(f)
                protected.add(id(f))
        return granted

    def _choose_victim(self, protected: "set[int]") -> "_InFlight | None":
        """The active request losing the least work: fewest generated
        tokens, then fewest prefilled, then the latest arrival (LIFO)."""
        candidates = [
            flight for flight in self.active if id(flight) not in protected
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda f: (
                f.generated,
                f.prefilled,
                -f.request.arrival_s,
                -f.request.request_id,
            ),
        )

    def _preempt(self, victim: _InFlight) -> None:
        """Evict one request: release its pages, re-enqueue for recompute."""
        request = victim.request
        pages = self.kv.release(request.request_id)
        for index, flight in enumerate(self.active):
            if flight is victim:
                del self.active[index]
                break
        self.preemptions += 1
        self.recomputed_tokens += victim.prefilled + victim.generated
        if self.preemptions > 50 * max(self.offered, 1):  # pragma: no cover
            raise RuntimeError(
                f"preemption livelock: {self.preemptions} preemptions over "
                f"{self.offered} offered request(s)"
            )
        self._requeue(request)
        self._emit("preempt", request_id=request.request_id, tokens=pages)

    def _preempt_swapped(self, index: int) -> None:
        """Preempt a swapped-out request: discard its host copy, recompute.

        The last-resort path when resident shared-prefix pages pin the
        pool — releasing the request drops its prefix reference, freeing
        the shared pages once the last member leaves.
        """
        victim = self.swapped.pop(index)
        request = victim.request
        pages = self.kv.release(request.request_id)
        self.preemptions += 1
        self.recomputed_tokens += victim.prefilled + victim.generated
        if self.preemptions > 50 * max(self.offered, 1):  # pragma: no cover
            raise RuntimeError(
                f"preemption livelock: {self.preemptions} preemptions over "
                f"{self.offered} offered request(s)"
            )
        self._requeue(request)
        self._emit("preempt", request_id=request.request_id, tokens=pages)

    def _swap_out(self, victim: _InFlight) -> None:
        """Move a victim's private pages to host DRAM over the link.

        Unlike preemption the victim's prefill/decode progress survives;
        it rejoins the active set via swap-in with nothing to recompute.
        The transfer occupies the device timeline (and the link), priced
        from the page size and ``link_gbps``.
        """
        request = victim.request
        pages = self.kv.swap_out(request.request_id)
        for index, flight in enumerate(self.active):
            if flight is victim:
                del self.active[index]
                break
        latency = self._swap_latency(pages)
        self.clock += latency
        self.busy += latency
        self.swapped.append(victim)
        self.swap_outs += 1
        self.swapped_pages += pages
        if self.swap_outs > 50 * max(self.offered, 1):  # pragma: no cover
            raise RuntimeError(
                f"swap livelock: {self.swap_outs} swap-outs over "
                f"{self.offered} offered request(s)"
            )
        self._emit(
            "swap_out", latency=latency, request_id=request.request_id, tokens=pages
        )

    def _requeue(self, request: Request) -> None:
        """Re-insert a preempted request, keeping ``waiting`` arrival-sorted."""
        keys = [(r.arrival_s, r.request_id) for r in self.waiting]
        index = bisect.bisect_left(keys, (request.arrival_s, request.request_id))
        self.waiting.insert(index, request)

    # ------------------------------------------------------------------
    # Failure injection and failover (driven by the cluster layer)
    # ------------------------------------------------------------------
    def fail(self, now: float) -> "tuple[list[Request], int]":
        """Kill this replica at instant ``now``.

        Every KV page is dropped (the cache dies with the device) and every
        request routed here but not yet completed is returned — in
        ``(arrival, id)`` order — for the cluster to fail over to
        survivors, which recompute them from scratch.  Failure lands at
        pass granularity: the caller advances the run to ``now`` first, so
        passes that started before the instant stand (their completions are
        safe) and everything else is lost.  Returns ``(lost, pages)`` where
        ``pages`` is the KV page count dropped.
        """
        if self.finished:
            raise ValueError("cannot fail a finished run")
        if self.dead:
            raise ValueError("replica is already dead")
        dropped_ids = tuple(
            sorted(
                flight.request.request_id
                for flight in (*self.active, *self.swapped)
            )
        )
        lost = [flight.request for flight in self.active]
        lost.extend(flight.request for flight in self.swapped)
        lost.extend(self.waiting)
        lost.extend(self.pending)
        lost.sort(key=lambda request: (request.arrival_s, request.request_id))
        pages = self.kv.release_all()
        self.active.clear()
        self.swapped.clear()
        self.waiting.clear()
        self.pending.clear()
        if now > self.clock:
            self.clock = now
        self.dead = True
        self._emit("fail", tokens=pages, decode_ids=dropped_ids)
        return lost, pages

    def resubmit(self, request: Request) -> None:
        """Re-inject a failed-over request for recompute from scratch.

        Unlike :meth:`offer`, arrival order against the pending queue is
        not enforced: the request's original arrival may predate requests
        this replica has already seen.  It keeps that original arrival, so
        its latency keeps accruing across the failure — failover does not
        reset the clock.
        """
        if self.finished:
            raise ValueError("cannot resubmit a request to a finished run")
        if self.dead:
            raise ValueError("cannot resubmit a request to a failed replica")
        self._requeue(request)
        self.offered += 1
        if self.first_arrival is None or request.arrival_s < self.first_arrival:
            self.first_arrival = request.arrival_s


class ServingSimulator:
    """Single-device discrete-event serving simulator.

    Parameters
    ----------
    cost_model:
        Any :class:`~repro.core.costmodel.CostModel` backend.
    model:
        The served model; must be a decoder when any request generates more
        than one token.
    policy:
        A name in :data:`POLICIES` (``"fcfs"``, ``"interleaved"``,
        ``"srpt"``, ``"priority"``) or a :class:`ServingPolicy` instance.
    max_batch:
        Decode-batch cap of the batching policies (ignored by FCFS).
    exact:
        Price every decode KV length exactly instead of interpolating over
        ``kv_samples`` anchors (see :class:`PassCostProvider`).
    batch_share:
        Fraction of the decode cost floor shared across a fused batch (see
        the module docstring); 1.0 models fully shared weight streaming.
    kv_fraction:
        Fraction of the backend's weight-free memory granted to the KV page
        pool (admission control; see :mod:`repro.serving.kv_memory`).
    page_tokens:
        Tokens per KV page.
    kv_budget:
        Explicit KV pool size in bytes, overriding the backend derivation.
    chunk_tokens:
        Prefill chunk size in tokens; 0 (default) prefills whole prompts.
    slo_targets:
        Optional per-class latency SLO targets in seconds (class ``i`` gets
        ``slo_targets[min(i, len - 1)]``); enables SLO-attainment metrics.
    admission:
        ``"worst-case"`` (default) commits a request's full ``input +
        output`` pages up front; ``"optimistic"`` commits only the prompt
        pages and grows on demand during decode (see the module docstring).
    preempt:
        Under optimistic admission, whether pool exhaustion may preempt
        (and later recompute) the least-progressed request.  With
        ``preempt=False`` a decode that cannot grow stalls instead, and the
        simulator raises ``RuntimeError`` if the pool wedges completely.
        Ignored under worst-case admission, which never needs to grow.
    swap:
        Enable the host-DRAM swap tier (optimistic admission only): on
        pool exhaustion the victim's private KV pages are *swapped out*
        over the host link instead of preempted — its progress survives
        and it resumes via swap-in, paying transfer time instead of
        recompute time.  Preempt-and-recompute remains the last resort
        when resident shared-prefix pages pin the pool.
    link_gbps:
        Host PCIe/interconnect link bandwidth in Gbit/s used to price
        swap transfers (``pages * page_bytes * 8 / (link_gbps * 1e9)``
        seconds per direction).  Only meaningful with ``swap=True``.
    engine:
        ``"object"`` (default) or ``"array"`` — see the module docstring's
        *Engines* section.  The array engine requires a registered policy
        name/class (its decisions are re-derived over columns) and numpy.
    profile:
        Record a per-phase wall-time breakdown (``admit`` / ``prefill`` /
        ``decode`` / ``metrics``) in ``run.phase_s`` — read it from
        ``simulator.last_run`` after ``simulate``; ``repro serve
        --profile`` prints it.
    per_request_detail:
        When ``False``, drop per-request :class:`RequestMetrics` from the
        result (``per_request=()``) and let the array engine pool metrics
        columnar-only — at a million requests materializing a metrics
        object per request costs more than the whole simulation.  Pooled
        aggregates are unaffected.  The cluster layer requires detail
        (it re-pools per-request rows across replicas).
    models:
        Optional *co-hosted model set*: every member's weights live in
        device memory budget terms (the KV pool is sized against the
        heaviest member) but only one model is *resident* (active) at a
        time.  Requests name their model (``Request.model``; "" = the
        default ``model``, which must be a member).  When an iteration has
        no runnable work for the resident model the replica pays a *weight
        swap* — the target's whole parameter footprint streamed over the
        ``link_gbps`` host link, advancing the clock and logged as a
        ``model_swap`` event.  A single-member set (or ``None``) keeps
        every legacy code path bit for bit.
    num_classes:
        Optional declared priority-class count.  When given alongside
        ``slo_targets``, the target list must hold exactly one shared
        target or one per class — catching the silent clamp where class
        ``i >= len(slo_targets)`` inherited the last target.
    """

    def __init__(
        self,
        cost_model: CostModel,
        model: ModelConfig,
        policy: "ServingPolicy | str" = "interleaved",
        max_batch: int = 8,
        exact: bool = False,
        kv_samples: int = DEFAULT_KV_SAMPLES,
        batch_share: float = 1.0,
        kv_fraction: float = 1.0,
        page_tokens: int = DEFAULT_PAGE_TOKENS,
        kv_budget: "int | None" = None,
        chunk_tokens: int = 0,
        slo_targets: "Sequence[float] | None" = None,
        admission: str = "worst-case",
        preempt: bool = True,
        swap: bool = False,
        link_gbps: float = 16.0,
        engine: str = "object",
        profile: bool = False,
        per_request_detail: bool = True,
        models: "Sequence[ModelConfig] | None" = None,
        num_classes: "int | None" = None,
    ) -> None:
        if not 0.0 <= batch_share <= 1.0:
            raise ValueError("batch_share must be in [0, 1]")
        if chunk_tokens < 0:
            raise ValueError("chunk_tokens must be non-negative (0 = unchunked)")
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {', '.join(ADMISSION_MODES)}; "
                f"got {admission!r}"
            )
        if not link_gbps > 0.0 or link_gbps != link_gbps or link_gbps == float("inf"):
            raise ValueError("link_gbps must be a positive finite bandwidth")
        if swap and admission != "optimistic":
            raise ValueError(
                "swap requires admission='optimistic' (worst-case admission "
                "never exhausts the pool mid-decode, so there is nothing to "
                "swap)"
            )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINES)}"
            )
        if slo_targets is not None:
            slo_targets = tuple(float(target) for target in slo_targets)
            if not slo_targets or any(target <= 0 for target in slo_targets):
                raise ValueError("slo_targets must be positive latencies")
        if num_classes is not None:
            if num_classes < 1:
                raise ValueError("num_classes must be at least 1")
            if slo_targets is not None and len(slo_targets) not in (1, num_classes):
                raise ValueError(
                    f"slo_targets has {len(slo_targets)} target(s) for "
                    f"{num_classes} priority class(es); give one shared "
                    "target or one per class"
                )
        self.num_classes = num_classes
        model_set = (model,) if models is None else tuple(models)
        if models is not None:
            if not model_set:
                raise ValueError("models must be a non-empty model set")
            names = [member.name for member in model_set]
            if len(set(names)) != len(names):
                dupes = sorted({n for n in names if names.count(n) > 1})
                raise ValueError(
                    f"models contains duplicate name(s): {', '.join(dupes)}"
                )
            if model.name not in set(names):
                raise ValueError(
                    f"the default model {model.name!r} must be a member of "
                    f"the co-hosted model set ({', '.join(names)})"
                )
        self.cost_model = cost_model
        self.model = model
        self.models = model_set
        self._model_by_name = {member.name: member for member in model_set}
        #: True when this simulator co-hosts more than one model — the
        #: single-model configuration keeps every legacy code path.
        self.multi_model = len(model_set) > 1
        #: Names of the co-hosted model set (empty for single-model runs).
        self._model_names = (
            tuple(member.name for member in model_set) if self.multi_model else ()
        )
        if isinstance(policy, str):
            cls = POLICIES.get(policy)
            kwargs = (
                {"max_batch": max_batch}
                if cls is not None and "max_batch" in _constructor_keywords(cls)
                else {}
            )
            self.policy = make_policy(policy, **kwargs)
        else:
            self.policy = policy
        self.batch_share = batch_share
        self.chunk_tokens = chunk_tokens
        self.slo_targets = slo_targets
        self.admission = admission
        self.preempt = preempt
        self.swap = swap
        self.link_gbps = link_gbps
        self.kv_fraction = kv_fraction
        self.page_tokens = page_tokens
        self.kv_budget = kv_budget
        self.engine = engine
        self.profile = profile
        self.per_request_detail = per_request_detail
        if engine == "array" and type(self.policy) not in POLICIES.values():
            known = ", ".join(cls.__name__ for cls in POLICIES.values())
            raise ValueError(
                f"engine 'array' re-derives policy decisions over columns and "
                f"only supports the registered policies ({known}); got "
                f"{type(self.policy).__name__} — use engine='object' for "
                f"custom policies"
            )
        self.provider = PassCostProvider(
            cost_model, model, exact=exact, kv_samples=kv_samples
        )
        #: Per-model pass-cost providers (the default model reuses
        #: ``self.provider`` so single-model costing is untouched).
        self.providers = {model.name: self.provider}
        for member in model_set:
            if member.name not in self.providers:
                self.providers[member.name] = PassCostProvider(
                    cost_model, member, exact=exact, kv_samples=kv_samples
                )
        self._weight_bytes = {
            member.name: model_weight_bytes(member) for member in model_set
        }
        # Validate the KV pool configuration eagerly (budget, page size).
        self._new_accountant()
        #: Event log of the last ``simulate(record_events=True)`` run.
        self.events: "list[SimEvent] | None" = None
        #: The run behind the last one-shot ``simulate``/``simulate_stream``
        #: (profiling reads ``last_run.phase_s``).
        self.last_run: "SimulationRun | None" = None

    def _new_accountant(self) -> KvPageAccountant:
        return KvPageAccountant.for_backend(
            self.cost_model,
            self.model,
            fraction=self.kv_fraction,
            page_tokens=self.page_tokens,
            budget_bytes=self.kv_budget,
            models=self.models if self.multi_model else None,
        )

    def _config_for(self, request: Request) -> ModelConfig:
        """The :class:`ModelConfig` a request targets ("" = the default)."""
        name = request.model
        if not name or name == self.model.name:
            return self.model
        config = self._model_by_name.get(name)
        if config is None:
            known = ", ".join(sorted(self._model_by_name))
            raise ValueError(
                f"request {request.request_id} targets unknown model "
                f"{name!r}; this simulator hosts: {known}"
            )
        return config

    # ------------------------------------------------------------------
    def begin(
        self,
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> "SimulationRun":
        """Start an incremental run (see :class:`SimulationRun`).

        ``kv_bounds`` fixes the decode interpolation anchors up front —
        pass the :func:`decode_kv_bounds` of everything the run will ever
        be offered (the cluster layer passes the whole trace's bounds, so a
        one-replica cluster prices passes identically to ``simulate``).
        """
        if self.engine == "array":
            from repro.serving.array_engine import ArraySimulationRun

            return ArraySimulationRun(
                self, record_events=record_events, kv_bounds=kv_bounds
            )
        return SimulationRun(self, record_events=record_events, kv_bounds=kv_bounds)

    def simulate(
        self, requests: Sequence[Request], record_events: bool = False
    ) -> ServingMetrics:
        """Play a trace to completion and return its metrics."""
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        run = self.begin(
            record_events=record_events, kv_bounds=_decode_kv_bounds(ordered)
        )
        self.events = run.events
        self.last_run = run
        run.offer_many(ordered)
        return run.finish()

    def simulate_stream(
        self,
        chunks: "Iterable[Sequence[Request]]",
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> ServingMetrics:
        """Play a *streamed* trace to completion — O(active) memory.

        ``chunks`` yields request batches in ``(arrival_s, request_id)``
        order (:meth:`repro.serving.trace.TraceGenerator.generate_stream`
        produces exactly this); each chunk is offered and the run advanced
        to its last arrival before the next chunk is drawn, so no more
        than one chunk of the trace is materialized at a time.  Offering
        incrementally is metric-identical to the one-shot path (the
        scheduler only acts at pass boundaries in both), which the
        differential suite pins.

        ``kv_bounds`` cannot be derived from an unmaterialized trace —
        pass ``decode_kv_bounds(generator.workloads)`` (the mix-wide
        bounds cover every request the generator can draw).  Without it
        the provider prices decodes exactly, which is correct but slow.
        """
        run = self.begin(record_events=record_events, kv_bounds=kv_bounds)
        self.events = run.events
        self.last_run = run
        for chunk in chunks:
            if chunk:
                run.offer_many(chunk)
                run.advance_until(chunk[-1].arrival_s)
        return run.finish()

    # ------------------------------------------------------------------
    def _completed(self, flight: _InFlight, completion_s: float) -> RequestMetrics:
        request = flight.request
        slo_s = 0.0
        if self.slo_targets:
            index = min(request.priority_class, len(self.slo_targets) - 1)
            slo_s = self.slo_targets[index]
        return RequestMetrics(
            request_id=request.request_id,
            arrival_s=request.arrival_s,
            first_token_s=flight.first_token_s,
            completion_s=completion_s,
            input_tokens=request.input_tokens,
            output_tokens=request.output_tokens,
            priority_class=request.priority_class,
            slo_s=slo_s,
            model=request.model,
        )

    def _fused_decode(
        self, costs: "list[PassCost]"
    ) -> "tuple[float, EnergyBreakdown, float]":
        """Latency, energy and FLOPs of one pure fused decode iteration."""
        return self._fused_iteration(None, costs)

    def _fused_iteration(
        self,
        carrier: "PassCost | None",
        costs: "list[PassCost]",
        provider: "PassCostProvider | None" = None,
    ) -> "tuple[float, EnergyBreakdown, float]":
        """One device iteration: an optional prefill chunk fused with decodes.

        Without a carrier the first decode member pays the shared floor and
        the other ``B - 1`` ride along; with a carrier (a prefill chunk,
        which streams every FC weight anyway) all ``B`` decode floors are
        shareable.  Latency is floored at the slowest member — a fused pass
        cannot beat its largest constituent.  ``provider`` selects whose
        decode floor is shared (multi-model runs pass the resident model's
        provider; the default is the simulator's own).
        """
        if carrier is None and len(costs) == 1:
            only = costs[0]
            return only.latency_s, only.energy, only.flops
        if carrier is not None and not costs:
            return carrier.latency_s, carrier.energy, carrier.flops
        base = (self.provider if provider is None else provider).base()
        if carrier is None:
            parts = costs
            shared = self.batch_share * (len(costs) - 1)
        else:
            parts = [carrier, *costs]
            shared = self.batch_share * len(costs)
        latency = sum(cost.latency_s for cost in parts) - shared * base.latency_s
        latency = max(latency, max(cost.latency_s for cost in parts))
        energy = EnergyBreakdown(
            normal_memory_j=self._shared_component(
                [c.energy.normal_memory_j for c in parts],
                shared * base.energy.normal_memory_j,
            ),
            pim_op_j=self._shared_component(
                [c.energy.pim_op_j for c in parts], shared * base.energy.pim_op_j
            ),
            npu_cores_j=self._shared_component(
                [c.energy.npu_cores_j for c in parts],
                shared * base.energy.npu_cores_j,
            ),
        )
        flops = sum(cost.flops for cost in parts)  # batching shares bytes, not math
        return latency, energy, flops

    @staticmethod
    def _shared_component(values: "list[float]", saved: float) -> float:
        return max(sum(values) - saved, max(values))

    def _finalize(self, run, makespan: float) -> ServingMetrics:
        """Metrics of a drained run of either engine.

        The object and array runs share their counter attribute names;
        the request-pooled figures come from the run's completion columns
        through :func:`~repro.serving.metrics.pool_completions`.
        """
        kv = run.kv
        decode_passes = run.decode_passes
        return ServingMetrics(
            backend=self.cost_model.name,
            model=self.model.name,
            policy=self.policy.name,
            makespan_s=makespan,
            busy_s=run.busy,
            utilization=run.busy / makespan if makespan > 0 else 0.0,
            energy_j=run.energy.total_j,
            mean_decode_batch=(
                run.decode_tokens / decode_passes if decode_passes else 0.0
            ),
            admission=self.admission,
            link_gbps=self.link_gbps if self.swap else 0.0,
            chunk_tokens=self.chunk_tokens,
            kv_page_tokens=kv.page_tokens,
            kv_pages_total=kv.total_pages,
            kv_peak_pages=kv.peak_reserved_pages,
            kv_budget_bytes=kv.budget_bytes,
            models=self._model_names,
            **{name: getattr(run, name) for name in _RUN_COUNTERS},
            per_request=tuple(run.completed) if self.per_request_detail else (),
            **pool_completions(makespan=makespan, **run.completion_columns()),
        )
