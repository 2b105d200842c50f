"""Multi-replica cluster serving: request routing over replicated devices.

One IANUS appliance (or GPU) is a *replica*: a cost model plus a KV page
accountant, simulated by :class:`~repro.serving.simulator.ServingSimulator`.
A :class:`ClusterSimulator` fans a single arrival trace out over ``R``
replicas through a pluggable :class:`Router` and pools the per-replica
metrics into one :class:`ClusterMetrics` — the serving-layer counterpart of
the paper's Sec. 7.1 scale-out, but at *request* rather than tensor
granularity (each replica may itself be a multi-device cluster via
``make_cost_model("ianus-xN")``).

Routing is **online and causal**: requests are routed one at a time in
arrival order, and before each decision every replica is advanced to the
arrival instant (:meth:`~repro.serving.simulator.SimulationRun.advance_until`),
so the router sees exactly the state a real load balancer would — queue
depths, outstanding tokens and free KV pages as of that moment, never the
future.  Routers:

``round-robin``
    Ignore state, rotate.  The baseline every balancer is measured against.
``least-outstanding-tokens``
    Route to the replica with the fewest prompt+output tokens still to
    compute (queued or in flight) — join-shortest-queue in token units.
``kv-aware``
    Route to the replica with the most *effective* free KV pages: free
    pages plus any pages of the arriving request's shared prefix already
    resident there (those cost the request nothing — landing next to its
    prefix is both cheaper and stickier, so group members co-locate and
    the prefix is charged once per replica instead of once per member).
    Free pages track both load and *memory* pressure, which is what
    actually gates admission under paged-KV serving; under skewed traces
    this keeps the heavy tail from piling onto one replica's pool.
    Without shared prefixes the resident term is identically zero and the
    router scores plain free pages, byte-identical to before.

A one-replica cluster reproduces the single-device simulator **byte for
byte** under every router (all decisions collapse to replica 0, and the
run prices passes over the same anchor grid), which is the differential
test pinning this layer to PR 3/4's.

Production ops: failures, failover, autoscaling
-----------------------------------------------
A production fleet is not fixed: replicas die, recover, and are scaled
with load.  ``ClusterSimulator(..., failures=..., autoscaler=...)``
activates the ops layer:

- a :class:`~repro.serving.failures.FailureSchedule` kills replicas at
  scheduled instants — the victim's KV pages are dropped and its
  unfinished requests *fail over*: they are re-routed (through the same
  router, over the surviving replicas' state at the failure instant) and
  recomputed from scratch, keeping their original arrival so latency
  accrues across the failure.  Recovery brings the replica back empty.
- an :class:`~repro.serving.autoscale.Autoscaler` is consulted at every
  arrival instant on router-visible state only.  A spawned replica warms
  up for :func:`~repro.serving.autoscale.replica_warmup_s` (weights over
  the host link plus one priming pass, priced by the cost model) before
  it may serve; a drained replica finishes its routed work but takes no
  new requests.  Routers therefore receive the *eligible subset* of
  snapshots and must return the chosen snapshot's ``index`` field.

The fleet's cost is metered in **replica-seconds** (the energy/price
proxy the chaos benches trade against SLO attainment): each replica is
billed from the trace start (or its spawn) until it fails, empties after
a drain, or the run ends.  With no failure schedule and no autoscaler the
ops layer is inert and the run is byte-identical to the plain cluster.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.core.costmodel import CostModel
from repro.models.transformer import ModelConfig
from repro.serving.autoscale import (
    Autoscaler,
    AutoscalerSignal,
    make_autoscaler,
    replica_warmup_s,
)
from repro.serving.failures import FailureSchedule, make_failure_schedule
from repro.serving.metrics import ClusterMetrics, ServingMetrics, pool_replicas
from repro.serving.request import Request, RequestMetrics
from repro.serving.simulator import (
    ServingSimulator,
    SimulationRun,
    _decode_kv_bounds,
    _validated_construct,
)
from repro.serving.validate import check_cluster_invariants, check_invariants

__all__ = [
    "ReplicaSnapshot",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "KvAwareRouter",
    "ModelAwareRouter",
    "ROUTERS",
    "make_router",
    "ClusterMetrics",
    "ClusterSimulator",
    "cluster_kv_peak",
]


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaSnapshot:
    """What a router may observe about one replica at an arrival instant."""

    index: int
    #: Requests routed here and not yet completed (queued or in flight).
    outstanding_requests: int
    #: Prompt + output tokens not yet computed across those requests.
    outstanding_tokens: int
    #: Uncommitted pages of the replica's KV pool right now.
    free_kv_pages: int
    total_kv_pages: int
    #: Requests / total tokens ever routed to this replica.
    routed_requests: int
    routed_tokens: int
    #: Pages of the *arriving request's* shared prefix already resident on
    #: this replica (0 when the request shares nothing or the prefix is
    #: absent) — those pages would cost the request nothing here.
    resident_prefix_pages: int = 0
    #: Model whose weights are resident on the replica right now,
    #: normalized like :attr:`Request.model` (empty string = the cluster's
    #: default model).  Routing a request here costs no weight swap iff
    #: this equals the request's ``model`` field.
    resident_model: str = ""


class Router:
    """Chooses the replica that serves the next arrival.

    ``select`` sees one :class:`ReplicaSnapshot` per *eligible* replica
    (ascending ``index`` order — under failures/autoscaling this may be a
    subset of the fleet) plus the arriving request, and returns the chosen
    snapshot's ``index`` field.  Routers may keep internal state
    (round-robin does); ``reset`` is called at the start of every cluster
    simulation so a reused :class:`ClusterSimulator` stays deterministic
    run over run.
    """

    name = "router"

    def reset(self) -> None:
        """Drop any per-simulation state (no-op for stateless routers)."""

    def select(
        self, replicas: "Sequence[ReplicaSnapshot]", request: Request
    ) -> int:
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Rotate through the offered replicas, blind to their state."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, replicas, request):
        choice = replicas[self._next % len(replicas)].index
        self._next += 1
        return choice

    def reset(self) -> None:
        self._next = 0


class LeastOutstandingTokensRouter(Router):
    """Join-shortest-queue in token units (ties: lowest replica index)."""

    name = "least-outstanding-tokens"

    def select(self, replicas, request):
        return min(
            replicas, key=lambda state: (state.outstanding_tokens, state.index)
        ).index


class KvAwareRouter(Router):
    """Route to the replica with the most effective free KV pages.

    Effective = free pages + pages of the arriving request's shared
    prefix already resident there (ties: lowest index).  The resident
    term is zero for requests that share nothing, so without prefix
    sharing this is exactly the most-free-pages rule.
    """

    name = "kv-aware"

    def select(self, replicas, request):
        return min(
            replicas,
            key=lambda state: (
                -(state.free_kv_pages + state.resident_prefix_pages),
                state.index,
            ),
        ).index


class ModelAwareRouter(Router):
    """Route on (resident model, load, KV): swap avoidance first.

    Prefers replicas whose resident weights already match the arriving
    request's model (a mismatch costs a full weight swap on the replica's
    next pass for that request), then the least outstanding tokens among
    them, then the most effective free KV pages, then the lowest index.
    With a single-model set every replica always matches, so this
    degrades to exactly the least-outstanding-tokens rule with a KV
    tie-break — the model term never reorders a model-blind fleet.
    """

    name = "model-aware"

    def select(self, replicas, request):
        return min(
            replicas,
            key=lambda state: (
                0 if state.resident_model == request.model else 1,
                state.outstanding_tokens,
                -(state.free_kv_pages + state.resident_prefix_pages),
                state.index,
            ),
        ).index


#: Router registry: CLI/experiment name -> class, in presentation order.
ROUTERS: dict[str, type[Router]] = {
    "round-robin": RoundRobinRouter,
    "least-outstanding-tokens": LeastOutstandingTokensRouter,
    "kv-aware": KvAwareRouter,
    "model-aware": ModelAwareRouter,
}


def make_router(name: str, **kwargs) -> Router:
    """Instantiate a router by name — the single validation point.

    Unknown names raise with the list of known routers; keyword arguments
    the named router does not accept raise instead of being dropped (the
    same validated construction path as
    :func:`~repro.serving.simulator.make_policy`).
    """
    return _validated_construct("router", ROUTERS, name, kwargs)


# ----------------------------------------------------------------------
# Cluster-wide KV peak
# ----------------------------------------------------------------------
def cluster_kv_peak(event_logs: "Sequence[Sequence]") -> int:
    """Peak *summed* reserved KV pages across replicas at any event instant.

    Merges the replicas' event logs in clock order (each log's
    ``kv_reserved_pages`` is a step function over its own events) and
    tracks the maximum of the sum, kept as a running total — the
    cluster-wide high-water mark, which is lower than the sum of
    per-replica peaks whenever the replicas peak at different times.
    """
    merged = sorted(
        (
            (event.clock_s, replica_index, sequence, event.kv_reserved_pages)
            for replica_index, events in enumerate(event_logs)
            for sequence, event in enumerate(events)
        ),
        key=lambda item: (item[0], item[1], item[2]),
    )
    current = [0] * len(event_logs)
    total = peak = 0
    for _, replica_index, _, reserved in merged:
        total += reserved - current[replica_index]
        current[replica_index] = reserved
        if total > peak:
            peak = total
    return peak


# ----------------------------------------------------------------------
# Cluster simulator
# ----------------------------------------------------------------------
def _snapshot(
    index: int,
    run: SimulationRun,
    assignments: "list[list[Request]]",
    routed_tokens: "list[int]",
    request: "Request | None" = None,
) -> ReplicaSnapshot:
    """The router-visible state of one replica at this instant.

    When the arriving ``request`` is given and shares a prefix, the
    snapshot also reports how many pages of that prefix are already
    resident on the replica (autoscaler snapshots pass no request — the
    field stays 0, which every built-in consumer treats as neutral).
    """
    resident = 0
    if request is not None and request.prefix_id >= 0:
        resident = run.kv.resident_prefix_pages(request.prefix_id)
    # Report the resident model in Request.model's convention (empty =
    # default), so routers can compare it to request.model directly.
    resident_model = run.resident_model
    if resident_model == run.sim.model.name:
        resident_model = ""
    return ReplicaSnapshot(
        index=index,
        outstanding_requests=run.outstanding_requests,
        outstanding_tokens=run.outstanding_tokens,
        free_kv_pages=run.kv.free_pages,
        total_kv_pages=run.kv.total_pages,
        routed_requests=len(assignments[index]),
        routed_tokens=routed_tokens[index],
        resident_prefix_pages=resident,
        resident_model=resident_model,
    )


class _OpsState:
    """Mutable production-ops bookkeeping of one ``simulate()`` call.

    Owns the fleet's liveness/draining/warm-up state, applies the failure
    schedule (failover included), consults the autoscaler, and meters
    replica-seconds.  Created only when a failure schedule or autoscaler
    is configured; inert configurations (``failures="none"`` with the
    ``fixed`` autoscaler) leave every run byte-identical to the plain
    fixed-fleet path.
    """

    def __init__(
        self,
        cluster: "ClusterSimulator",
        runs: "list[SimulationRun]",
        assignments: "list[list[Request]]",
        routed_tokens: "list[int]",
        start: float,
        record_events: bool,
        bounds: "tuple[int, int] | None",
    ) -> None:
        self.cluster = cluster
        self.runs = runs
        self.assignments = assignments
        self.routed_tokens = routed_tokens
        self.record_events = record_events
        self.bounds = bounds
        schedule = cluster.failures
        self.pending = deque(
            sorted(schedule.events(len(runs))) if schedule is not None else ()
        )
        count = len(runs)
        self.alive = [True] * count
        self.draining = [False] * count
        #: Initial replicas are warm from the start; spawned ones wait.
        self.ready_at = [float("-inf")] * count
        #: Open billing segment per replica (None while failed/closed).
        self.open_clock: "list[float | None]" = [start] * count
        self.seconds = [0.0] * count
        self.drain_clock = [0.0] * count
        self.failures = 0
        self.recoveries = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.rerouted_requests = 0
        self.dropped_kv_pages = 0
        self.peak_replicas = count
        self._has_slo = bool(cluster.replicas[0].slo_targets)

    # -- liveness ------------------------------------------------------
    def eligible(self, now: float) -> "list[int]":
        """Replicas the router may choose from: alive, warmed, not draining."""
        return [
            index
            for index in range(len(self.runs))
            if self.alive[index]
            and not self.draining[index]
            and self.ready_at[index] <= now
        ]

    def apply_until(self, now: "float | None") -> None:
        """Apply every scheduled fleet event at or before ``now`` (all
        remaining ones when ``None``, at the end of the trace)."""
        while self.pending and (now is None or self.pending[0].time_s <= now):
            event = self.pending.popleft()
            if event.kind == "fail":
                self._fail(event)
            else:
                self._recover(event)

    def _fail(self, event) -> None:
        index = event.replica
        if not self.alive[index]:
            raise RuntimeError(
                f"failure schedule kills replica {index} at "
                f"{event.time_s:.6f}s but it is already down"
            )
        run = self.runs[index]
        run.advance_until(event.time_s)
        lost, pages = run.fail(event.time_s)
        self.alive[index] = False
        self.failures += 1
        self.dropped_kv_pages += pages
        # Billed until the straddling pass ended (run.clock >= fail time).
        self._close_segment(index, run.clock)
        if not lost:
            return
        candidates = self.eligible(event.time_s)
        if not candidates:
            # Emergency failover: no serving replica survives.  Reverse
            # any in-progress drain first — a draining replica is warm
            # and alive, so cancelling its retirement is how production
            # absorbs a failure mid-scale-down.
            for i in range(len(self.runs)):
                if self.alive[i] and self.draining[i]:
                    self.draining[i] = False
                    self.scale_downs -= 1
                    candidates.append(i)
        if not candidates:
            # Last resort: replicas still warming up.  They take the
            # work now but begin recomputing only once warmed.
            candidates = [
                i for i in range(len(self.runs)) if self.alive[i]
            ]
        if not candidates:
            raise RuntimeError(
                f"replica {index} failed at {event.time_s:.6f}s with "
                f"{len(lost)} unfinished request(s) and no eligible "
                "replica to fail over to"
            )
        for survivor in candidates:
            # Survivors advance to the failure instant before receiving
            # work: resubmits bypass the pending queue, so an idle
            # survivor must not start recomputing in the past (a warming
            # survivor, no earlier than the end of its warm-up).
            self.runs[survivor].advance_until(event.time_s)
            self.runs[survivor].catch_up(
                max(event.time_s, self.ready_at[survivor])
            )
        router = self.cluster.router
        for request in lost:
            snapshots = [
                _snapshot(
                    i, self.runs[i], self.assignments, self.routed_tokens,
                    request,
                )
                for i in candidates
            ]
            choice = router.select(snapshots, request)
            if choice not in set(candidates):
                raise ValueError(
                    f"router {router.name!r} chose replica {choice} of "
                    f"{len(self.runs)} (eligible: {candidates})"
                )
            self.runs[choice].resubmit(request)
            self.assignments[choice].append(request)
            self.routed_tokens[choice] += request.total_tokens
            self.rerouted_requests += 1

    def _recover(self, event) -> None:
        index = event.replica
        if self.alive[index]:
            raise RuntimeError(
                f"failure schedule recovers replica {index} at "
                f"{event.time_s:.6f}s but it is not down"
            )
        self.runs[index].recover(event.time_s)
        self.alive[index] = True
        self.recoveries += 1
        # The failure already billed through the straddling pass's end
        # (run.clock at the fail), which can lie past a fast recovery —
        # reopening earlier would bill that overlap twice.  recover()
        # leaves run.clock at max(billed end, recovery instant).
        self.open_clock[index] = self.runs[index].clock
        self._note_peak()

    def _note_peak(self) -> None:
        count = sum(1 for flag in self.alive if flag)
        if count > self.peak_replicas:
            self.peak_replicas = count

    # -- autoscaling ---------------------------------------------------
    def autoscale(self, now: float) -> None:
        autoscaler = self.cluster.autoscaler
        if autoscaler is None:
            return
        candidates = self.eligible(now)
        snapshots = tuple(
            _snapshot(i, self.runs[i], self.assignments, self.routed_tokens)
            for i in candidates
        )
        provisioned = sum(
            1
            for index in range(len(self.runs))
            if self.alive[index] and not self.draining[index]
        )
        signal = AutoscalerSignal(
            clock_s=now,
            snapshots=snapshots,
            provisioned_replicas=provisioned,
            slo_attainment=self._window_attainment(now, autoscaler.window_s),
        )
        delta = autoscaler.evaluate(signal)
        if delta > 0:
            self._spawn(now)
        elif delta < 0:
            self._drain(now, snapshots)

    def _window_attainment(
        self, now: float, window_s: float
    ) -> "float | None":
        """Causal SLO attainment: scored completions inside the window."""
        if not self._has_slo:
            return None
        met = 0
        total = 0
        for run in self.runs:
            for metrics in run.completed:
                if metrics.slo_s <= 0.0:
                    continue
                if now - window_s <= metrics.completion_s <= now:
                    total += 1
                    if metrics.slo_met:
                        met += 1
        if total == 0:
            return None
        return met / total

    def _spawn(self, now: float) -> None:
        cluster = self.cluster
        replica = ServingSimulator(
            cluster.cost_model, cluster.model, **cluster._simulator_kwargs
        )
        cluster.replicas.append(replica)
        run = replica.begin(
            record_events=self.record_events, kv_bounds=self.bounds
        )
        run.clock = now
        run.note_scale(+1)
        self.runs.append(run)
        self.assignments.append([])
        self.routed_tokens.append(0)
        self.alive.append(True)
        self.draining.append(False)
        self.ready_at.append(now + cluster._warmup_s)
        self.open_clock.append(now)
        self.seconds.append(0.0)
        self.drain_clock.append(0.0)
        self.scale_ups += 1
        self._note_peak()

    def _drain(self, now: float, snapshots: "tuple[ReplicaSnapshot, ...]") -> None:
        if len(snapshots) <= 1:
            return  # never drain the last serving replica
        # Retire the least-loaded serving replica (ties: the newest).
        choice = min(
            snapshots, key=lambda snap: (snap.outstanding_tokens, -snap.index)
        ).index
        self.draining[choice] = True
        self.drain_clock[choice] = now
        self.runs[choice].note_scale(-1)
        self.scale_downs += 1

    # -- replica-seconds -----------------------------------------------
    def _close_segment(self, index: int, end: float) -> None:
        begin = self.open_clock[index]
        if begin is not None:
            self.seconds[index] += max(0.0, end - begin)
            self.open_clock[index] = None

    def report(self, global_end: float) -> dict:
        """Close every open billing segment at the end of the run and
        return the ops fields of :class:`~repro.serving.metrics.ClusterMetrics`."""
        for index in range(len(self.runs)):
            if self.open_clock[index] is None:
                continue
            if self.draining[index]:
                # A drained replica stops billing once its work is done.
                end = max(self.drain_clock[index], self.runs[index].clock)
            else:
                end = global_end
            self._close_segment(index, end)
        return dict(
            failures=self.failures,
            recoveries=self.recoveries,
            rerouted_requests=self.rerouted_requests,
            dropped_kv_pages=self.dropped_kv_pages,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            replica_seconds=sum(self.seconds),
            peak_replicas=self.peak_replicas,
        )


class ClusterSimulator:
    """Fan one trace out over ``num_replicas`` identical replicas.

    Parameters
    ----------
    cost_model:
        The per-replica backend (shared across replicas: pass costs are
        pure and cached, so sharing one instance is safe and warm).  Use
        ``make_cost_model("ianus-xN")`` for replicas that are themselves
        multi-device.
    model:
        The served model.
    num_replicas:
        Replica count ``R`` (the *initial* fleet when autoscaling).
    router:
        A name in :data:`ROUTERS` or a :class:`Router` instance.
    failures:
        A name in :data:`~repro.serving.failures.FAILURE_SCHEDULES`, a
        :class:`~repro.serving.failures.FailureSchedule` instance, or
        ``None`` (never fails).
    autoscaler:
        A name in :data:`~repro.serving.autoscale.AUTOSCALERS`, an
        :class:`~repro.serving.autoscale.Autoscaler` instance, or ``None``
        (fixed fleet).
    **simulator_kwargs:
        Everything else (policy, admission, preempt, kv_fraction, ...) is
        forwarded to each replica's
        :class:`~repro.serving.simulator.ServingSimulator` — including
        replicas spawned by the autoscaler mid-run.
    """

    def __init__(
        self,
        cost_model: CostModel,
        model: ModelConfig,
        num_replicas: int = 2,
        router: "Router | str" = "round-robin",
        failures: "FailureSchedule | str | None" = None,
        autoscaler: "Autoscaler | str | None" = None,
        **simulator_kwargs,
    ) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be at least 1")
        if simulator_kwargs.get("per_request_detail") is False:
            # Cluster metrics are pooled across replicas FROM the
            # per-request rows, so replicas must keep them.
            raise ValueError(
                "per_request_detail=False is not supported for cluster "
                "replicas; the cluster pools metrics from per-request rows"
            )
        self.cost_model = cost_model
        self.model = model
        self.router = make_router(router) if isinstance(router, str) else router
        self.failures = (
            make_failure_schedule(failures)
            if isinstance(failures, str)
            else failures
        )
        self.autoscaler = (
            make_autoscaler(autoscaler)
            if isinstance(autoscaler, str)
            else autoscaler
        )
        self._simulator_kwargs = dict(simulator_kwargs)
        self._initial_count = num_replicas
        self._warmup_s = (
            replica_warmup_s(cost_model, model)
            if self.autoscaler is not None
            else 0.0
        )
        self.replicas = [
            ServingSimulator(cost_model, model, **simulator_kwargs)
            for _ in range(num_replicas)
        ]
        #: Per-replica event logs of the last simulate() (None entries when
        #: events were not recorded).
        self.events: "list[list] | None" = None
        #: Per-replica request assignments of the last simulate().
        self.assignments: "list[tuple[Request, ...]] | None" = None
        self._last_trace: "tuple[Request, ...] | None" = None

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def _ops_active(self) -> bool:
        return self.failures is not None or self.autoscaler is not None

    # ------------------------------------------------------------------
    def simulate(
        self, requests: Sequence[Request], record_events: bool = True
    ) -> ClusterMetrics:
        """Route and play a trace to completion; returns pooled metrics.

        Events are recorded by default: they feed the cluster-wide KV peak
        and let every simulation self-validate
        (:meth:`validate_invariants`); pass ``record_events=False`` to
        skip both (the KV peak then falls back to the summed per-replica
        peaks, an upper bound).
        """
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        bounds = _decode_kv_bounds(ordered)
        # A reused simulator must stay deterministic: stateful routers
        # (round-robin's rotation) restart with every simulation, and the
        # fleet shrinks back to its initial replicas (autoscaling grows
        # self.replicas mid-run).
        self.router.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        del self.replicas[self._initial_count :]
        runs: list[SimulationRun] = [
            replica.begin(record_events=record_events, kv_bounds=bounds)
            for replica in self.replicas
        ]
        assignments: list[list[Request]] = [[] for _ in runs]
        routed_tokens = [0] * len(runs)
        start = ordered[0].arrival_s if ordered else 0.0
        self.route_s = 0.0
        self._last_runs = runs
        ops: "_OpsState | None" = None
        if self._ops_active:
            ops = _OpsState(
                self, runs, assignments, routed_tokens, start,
                record_events, bounds,
            )
            self._route_generic(ordered, runs, assignments, routed_tokens, ops)
        else:
            # Fixed fleets route through the array-native fast paths when
            # the router's decision rule is known exactly; any Router
            # subclass (including subclasses of the built-ins, which may
            # override select) goes through the generic snapshot loop.
            router_type = type(self.router)
            if router_type is RoundRobinRouter:
                self._route_round_robin(
                    ordered, runs, assignments, routed_tokens
                )
            elif router_type in (LeastOutstandingTokensRouter, KvAwareRouter):
                self._route_columnar(ordered, runs, assignments, routed_tokens)
            else:
                self._route_generic(
                    ordered, runs, assignments, routed_tokens, None
                )
        if ops is not None:
            ops.apply_until(None)
        per_replica = tuple(run.finish() for run in runs)
        self.events = [run.events for run in runs]
        self.assignments = [tuple(assigned) for assigned in assignments]
        self._last_trace = tuple(ordered)
        return self._pool(per_replica, ordered, routed_tokens, ops)

    # -- routing paths --------------------------------------------------
    @property
    def _profiling(self) -> bool:
        return bool(self._simulator_kwargs.get("profile"))

    def _route_generic(
        self,
        ordered: "list[Request]",
        runs: "list[SimulationRun]",
        assignments: "list[list[Request]]",
        routed_tokens: "list[int]",
        ops: "_OpsState | None",
    ) -> None:
        """The reference per-arrival loop: advance everything to each
        arrival, snapshot the eligible replicas, ask the router."""
        from time import perf_counter

        profile = self._profiling
        for request in ordered:
            arrival = request.arrival_s
            if ops is not None:
                ops.apply_until(arrival)
                for index, run in enumerate(runs):
                    if ops.alive[index]:
                        run.advance_until(arrival)
                ops.autoscale(arrival)
                candidates = ops.eligible(arrival)
                if not candidates:
                    raise RuntimeError(
                        f"no eligible replica for request "
                        f"{request.request_id} at {arrival:.6f}s (every "
                        "replica is failed, draining or warming up)"
                    )
            else:
                for run in runs:
                    run.advance_until(arrival)
                candidates = list(range(len(runs)))
            routed_at = perf_counter() if profile else 0.0
            snapshots = [
                _snapshot(index, runs[index], assignments, routed_tokens, request)
                for index in candidates
            ]
            choice = self.router.select(snapshots, request)
            if choice not in set(candidates):
                raise ValueError(
                    f"router {self.router.name!r} chose replica {choice} of "
                    f"{len(runs)} (eligible: {candidates})"
                )
            runs[choice].offer(request)
            assignments[choice].append(request)
            routed_tokens[choice] += request.total_tokens
            if profile:
                self.route_s += perf_counter() - routed_at

    def _route_round_robin(
        self,
        ordered: "list[Request]",
        runs: "list[SimulationRun]",
        assignments: "list[list[Request]]",
        routed_tokens: "list[int]",
    ) -> None:
        """Whole-trace bucketing for the round-robin router.

        Round-robin is blind to replica state, so with a fixed fleet its
        choice for the k-th arrival is ``k mod R`` no matter when the
        decision is made — the entire trace buckets up front and each
        replica plays its bucket independently through one
        :meth:`~repro.serving.simulator.SimulationRun.offer_many`.  This
        replaces ``R`` advances plus a snapshot build *per arrival* with
        one bulk offer per replica; results are identical because a run's
        outcome never depends on when (only in what order) its requests
        were offered, which the cluster differential suite pins.
        """
        from time import perf_counter

        routed_at = perf_counter() if self._profiling else 0.0
        count = len(runs)
        for index in range(count):
            bucket = ordered[index::count]
            runs[index].offer_many(bucket)
            assignments[index].extend(bucket)
            routed_tokens[index] = sum(
                request.total_tokens for request in bucket
            )
        # Keep the rotation counter where the per-arrival loop would have
        # left it, so external observers (and a later generic-path call on
        # the same router instance) see the same state.
        self.router._next += len(ordered)
        if self._profiling:
            self.route_s += perf_counter() - routed_at

    def _route_columnar(
        self,
        ordered: "list[Request]",
        runs: "list[SimulationRun]",
        assignments: "list[list[Request]]",
        routed_tokens: "list[int]",
    ) -> None:
        """Per-arrival routing over columnar replica state for the
        built-in state-dependent routers.

        Causality is identical to the generic loop — every replica with
        live work is advanced to each arrival before the decision — but
        the decision itself reads the two O(1) columns the built-in
        routers score on (outstanding tokens, free KV pages — plus the
        resident-prefix pages of the arriving request's group for the
        kv-aware rule, looked up only when the request shares a prefix)
        directly from the runs instead of materializing a
        ``ReplicaSnapshot`` dataclass per replica per arrival, and idle
        replicas (nothing queued or in flight — advancing them cannot
        change any router-visible column) skip the advance call entirely.
        """
        from time import perf_counter

        profile = self._profiling
        lot = type(self.router) is LeastOutstandingTokensRouter
        count = len(runs)
        for request in ordered:
            arrival = request.arrival_s
            for run in runs:
                if run.outstanding_requests:
                    run.advance_until(arrival)
            routed_at = perf_counter() if profile else 0.0
            if lot:
                best = 0
                best_tokens = runs[0].outstanding_tokens
                for index in range(1, count):
                    tokens = runs[index].outstanding_tokens
                    if tokens < best_tokens:
                        best = index
                        best_tokens = tokens
            else:
                prefix_id = request.prefix_id
                best = 0
                best_free = runs[0].kv.free_pages
                if prefix_id >= 0:
                    best_free += runs[0].kv.resident_prefix_pages(prefix_id)
                for index in range(1, count):
                    free = runs[index].kv.free_pages
                    if prefix_id >= 0:
                        free += runs[index].kv.resident_prefix_pages(prefix_id)
                    if free > best_free:
                        best = index
                        best_free = free
            runs[best].offer(request)
            assignments[best].append(request)
            routed_tokens[best] += request.total_tokens
            if profile:
                self.route_s += perf_counter() - routed_at

    def pooled_phase_s(self) -> dict[str, float]:
        """Per-phase wall breakdown of the last ``simulate()``, pooled
        across replicas, plus the cluster's own ``route`` phase.

        Populated when the replicas were built with ``profile=True``
        (``repro serve --profile`` arranges this); phases absent from an
        engine are simply missing from the dict.
        """
        pooled = self._pooled("phase_s")
        pooled["route"] = getattr(self, "route_s", 0.0)
        return pooled

    def pooled_path_passes(self) -> dict[str, int]:
        """Decode passes of the last ``simulate()`` by the engine path that
        served them, pooled across replicas (counted only when the
        replicas were built with ``profile=True``; empty on the object
        engine, which has one path)."""
        return self._pooled("path_passes")

    def _pooled(self, attribute: str) -> dict:
        pooled: dict = {}
        for run in getattr(self, "_last_runs", ()):
            for name, value in getattr(run, attribute, {}).items():
                pooled[name] = pooled.get(name, 0) + value
        return pooled

    def validate_invariants(self) -> list[str]:
        """Replay the last run's event logs through the invariant checker.

        Fixed fleets replay each replica's log against its exact
        assignment (:func:`~repro.serving.validate.check_invariants`);
        with a failure schedule or autoscaler active, failover
        legitimately moves requests between replicas, so the cross-replica
        books are balanced instead
        (:func:`~repro.serving.validate.check_cluster_invariants`).
        """
        if self.events is None or self.assignments is None:
            raise RuntimeError("validate_invariants() needs a simulate() first")
        if any(events is None for events in self.events):
            raise RuntimeError(
                "validate_invariants() needs simulate(record_events=True)"
            )
        if self._ops_active:
            reference = self.replicas[0]
            return check_cluster_invariants(
                self.events,
                self._last_trace or (),
                page_tokens=reference.page_tokens,
                admission=reference.admission,
                initial_replicas=self._initial_count,
                default_model=self.model.name,
            )
        violations: list[str] = []
        for index, (events, assigned) in enumerate(
            zip(self.events, self.assignments)
        ):
            replica = self.replicas[index]
            violations.extend(
                f"replica {index}: {violation}"
                for violation in check_invariants(
                    events,
                    assigned,
                    page_tokens=replica.page_tokens,
                    admission=replica.admission,
                    default_model=self.model.name,
                )
            )
        return violations

    # ------------------------------------------------------------------
    def _pool(
        self,
        per_replica: tuple[ServingMetrics, ...],
        ordered: "list[Request]",
        routed_tokens: "list[int]",
        ops: "_OpsState | None" = None,
    ) -> ClusterMetrics:
        """Pool the replicas' metrics field by field (see ``POOLING``)."""
        pooled: list[RequestMetrics] = sorted(
            (
                request_metrics
                for metrics in per_replica
                for request_metrics in metrics.per_request
            ),
            key=lambda metrics: metrics.request_id,
        )
        makespan = 0.0
        last_completion = ordered[0].arrival_s if ordered else 0.0
        if pooled and ordered:
            last_completion = max(m.completion_s for m in pooled)
            makespan = last_completion - ordered[0].arrival_s
        # One definition of utilization for both paths: summed busy over
        # summed provisioned replica-seconds.  The paths differ only in
        # where replica_seconds comes from — metered billing segments
        # under ops, R x makespan for a fixed fleet (a fleet with an
        # inert schedule meters to exactly R x makespan, so the two
        # agree wherever both apply).
        if ops is not None:
            fleet = ops.report(last_completion)
        else:
            fleet = dict(
                replica_seconds=len(per_replica) * makespan,
                peak_replicas=len(per_replica),
            )
        if self.events is not None and all(
            events is not None for events in self.events
        ):
            kv_peak = cluster_kv_peak(self.events)
        else:
            kv_peak = sum(metrics.kv_peak_pages for metrics in per_replica)
        # Imbalance is a skew ratio over the replicas that actually
        # participated in routing.  A replica that never received an
        # arrival (spawned after the trace drained, or dead before its
        # first request) says nothing about routing skew — including it
        # used to render the ratio as a meaningless ``inf``.
        routed_nonzero = [tokens for tokens in routed_tokens if tokens > 0]
        if len(routed_nonzero) < 2:
            imbalance = 1.0
        else:
            imbalance = max(routed_nonzero) / min(routed_nonzero)
        return ClusterMetrics(
            **pool_replicas(
                per_replica,
                pooled,
                makespan=makespan,
                replica_seconds=fleet["replica_seconds"],
                kv_peak_pages=kv_peak,
                default_model=self.model.name,
            ),
            **fleet,
            router=self.router.name,
            num_replicas=len(per_replica),
            routed_requests=tuple(
                metrics.num_requests for metrics in per_replica
            ),
            routed_tokens=tuple(routed_tokens),
            load_imbalance=imbalance,
            failure_schedule=(
                self.failures.name if self.failures is not None else "none"
            ),
            autoscaler=(
                self.autoscaler.name if self.autoscaler is not None else "fixed"
            ),
            warmup_s=self._warmup_s,
            per_replica=per_replica,
            per_request=tuple(pooled),
        )
