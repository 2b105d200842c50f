"""Differential + property tests for cluster serving and optimistic admission.

The cluster layer (PR 5) is pinned by three kinds of evidence:

* **differential** — a one-replica :class:`ClusterSimulator` reproduces the
  plain :class:`ServingSimulator` *byte for byte* under every router, and
  optimistic admission on an uncontended pool reproduces worst-case-commit
  timing to 1e-12 (identical scheduling, different bookkeeping);
* **property/metamorphic** — preemption count is zero whenever pages
  suffice; optimistic admission admits at least as many requests as
  worst-case-commit on every (seed, trace) pair; kv-aware routing never
  balances worse than round-robin on heavy-tailed traces;
* **oracle-of-the-oracle** — the extended invariant checker (preempt
  episodes plus the exact page-ledger replay) is itself tested by
  tampering sound logs: forged, deleted and mis-sized preemption events
  must all be caught.

Multi-device cost models (``make_cost_model("ianus-xN")``) and their CLI
surfacing are pinned here too, since a cluster replica is just such a cost
model plus a page accountant.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from test_serving_invariants import LinearCostModel

from repro.cli import main
from repro.config import SystemConfig
from repro.core.costmodel import (
    ALL_BACKEND_NAMES,
    CostModel,
    make_cost_model,
)
from repro.core.multi_device import MultiIanusSystem
from repro.core.system import IanusSystem
from repro.models import GPT2_CONFIGS, get_model
from repro.models.workload import Stage, StagePass
from repro.serving import (
    ClusterMetrics,
    ClusterSimulator,
    KvPageAccountant,
    Request,
    ServingMetrics,
    ServingSimulator,
    check_invariants,
    cluster_kv_peak,
    get_trace_generator,
    make_router,
)
from repro.serving.cluster import ReplicaSnapshot, Router
from repro.serving.metrics import POOLING
from repro.serving.validate import SimEvent

MODEL = GPT2_CONFIGS["m"]
ROUTER_NAMES = ("round-robin", "least-outstanding-tokens", "kv-aware")

#: Timing fields that must agree between admission modes on an uncontended
#: pool (identical scheduling; only page bookkeeping may differ).
TIMING_FIELDS = (
    "makespan_s", "busy_s", "utilization", "tokens_per_s", "requests_per_s",
    "latency_mean_s", "latency_p50_s", "latency_p99_s",
    "ttft_mean_s", "ttft_p50_s", "ttft_p99_s", "tpot_mean_s",
    "energy_j", "flops", "prefill_passes", "decode_passes",
)


def _tight_budget(trace_name: str = "chatbot", requests: float = 1.5) -> int:
    """A pool holding ~``requests`` worst-case requests of the mix."""
    accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
    worst = max(
        workload.total_tokens
        for workload in get_trace_generator(trace_name).workloads
    )
    return int(requests * worst * accountant.token_bytes)


def _simulate(admission, seed=3, trace_name="chatbot", rate=40.0, n=12,
              kv_budget=None, policy="interleaved", **kwargs):
    trace = get_trace_generator(trace_name).generate(n, rate, seed=seed)
    simulator = ServingSimulator(
        LinearCostModel(), MODEL, policy=policy,
        admission=admission, kv_budget=kv_budget, **kwargs,
    )
    metrics = simulator.simulate(trace, record_events=True)
    return trace, simulator, metrics


class TestMultiDeviceCostModels:
    """``make_cost_model("ianus-xN")`` — a replica is a cost model."""

    @pytest.mark.parametrize("name", ("ianus-x2", "npu-mem-x2", "partitioned-x4"))
    def test_multi_device_names_satisfy_the_protocol(self, name):
        backend = make_cost_model(name)
        assert isinstance(backend, CostModel)
        assert backend.num_devices == int(name.rsplit("x", 1)[1])
        cost = backend.pass_cost(MODEL, StagePass(Stage.GENERATION, 1, 128))
        assert cost.latency_s > 0
        assert backend.cache_stats() is not None

    def test_cluster_prices_passes_like_fig17(self):
        # MultiIanusSystem.pass_cost must be the same tensor-parallel
        # pricing the Fig. 17/18 experiments integrate over workloads.
        cluster = make_cost_model("ianus-x4")
        assert isinstance(cluster, MultiIanusSystem)
        reference = IanusSystem(SystemConfig.ianus(), num_devices=4)
        for stage_pass in (
            StagePass(Stage.SUMMARIZATION, 128, 128),
            StagePass(Stage.GENERATION, 1, 256),
        ):
            ours = cluster.pass_cost(MODEL, stage_pass)
            theirs = reference.pass_cost(MODEL, stage_pass)
            assert ours.latency_s == theirs.latency_s
            assert ours.flops == theirs.flops

    def test_multi_device_is_faster_per_pass(self):
        one = make_cost_model("ianus")
        two = make_cost_model("ianus-x2")
        stage_pass = StagePass(Stage.GENERATION, 1, 512)
        assert (
            two.pass_cost(MODEL, stage_pass).latency_s
            < one.pass_cost(MODEL, stage_pass).latency_s
        )

    def test_unknown_backend_error_lists_multi_device_names(self):
        with pytest.raises(ValueError) as excinfo:
            make_cost_model("tpu")
        message = str(excinfo.value)
        assert "unknown backend" in message
        for name in ALL_BACKEND_NAMES:
            assert name in message

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError, match="zero-device"):
            make_cost_model("ianus-x0")

    def test_conflicting_device_counts_rejected(self):
        with pytest.raises(ValueError, match="num_devices"):
            make_cost_model("ianus-x2", num_devices=4)
        # Agreeing spellings are fine.
        assert make_cost_model("ianus-x2", num_devices=2).num_devices == 2

    def test_repro_list_prints_multi_device_backends_and_routers(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ALL_BACKEND_NAMES:
            assert name in output
        for router in ROUTER_NAMES:
            assert router in output
        assert "cluster" in output  # the sweep is listed too


class TestClusterDifferential:
    """One replica == the single-device simulator, byte for byte."""

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    @pytest.mark.parametrize("admission", ("worst-case", "optimistic"))
    def test_one_replica_reproduces_the_simulator(self, router, admission):
        trace = get_trace_generator("skewed").generate(16, 50.0, seed=1)
        single = ServingSimulator(
            LinearCostModel(), MODEL, policy="interleaved", admission=admission
        ).simulate(trace, record_events=True)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=1, router=router,
            policy="interleaved", admission=admission,
        )
        pooled = cluster.simulate(trace)
        assert json.dumps(pooled.per_replica[0].to_dict()) == json.dumps(
            single.to_dict()
        )
        assert cluster.validate_invariants() == []

    def test_one_replica_event_log_is_identical(self):
        trace = get_trace_generator("chatbot").generate(10, 30.0, seed=5)
        single = ServingSimulator(LinearCostModel(), MODEL, policy="interleaved")
        single.simulate(trace, record_events=True)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=1, router="round-robin",
            policy="interleaved",
        )
        cluster.simulate(trace)
        assert cluster.events[0] == single.events

    def test_one_replica_real_backend_differential(self):
        # The identity holds on the real IANUS cost model too (shared
        # pass-cost caches make this cheap).
        cost_model = make_cost_model("ianus")
        trace = get_trace_generator("gpt2-paper").generate(6, 8.0, seed=2)
        single = ServingSimulator(cost_model, MODEL, policy="interleaved")
        reference = single.simulate(trace)
        cluster = ClusterSimulator(
            cost_model, MODEL, num_replicas=1, router="kv-aware",
            policy="interleaved",
        )
        pooled = cluster.simulate(trace)
        assert json.dumps(pooled.per_replica[0].to_dict()) == json.dumps(
            reference.to_dict()
        )

    @pytest.mark.parametrize("preempt", (True, False))
    def test_uncontended_optimistic_matches_worst_case(self, preempt):
        # With a roomy pool, optimistic admission never needs to preempt
        # and the schedule is identical to worst-case-commit: every timing
        # metric matches to 1e-12 (they are in fact byte-identical; only
        # the page bookkeeping differs).
        for seed in (0, 1, 2):
            _, _, worst = _simulate("worst-case", seed=seed)
            _, _, optimistic = _simulate(
                "optimistic", seed=seed, preempt=preempt
            )
            assert optimistic.preemptions == 0
            assert optimistic.recomputed_tokens == 0
            for field in TIMING_FIELDS:
                assert getattr(optimistic, field) == pytest.approx(
                    getattr(worst, field), rel=1e-12
                ), field
            # Optimistic commits fewer pages for the same schedule.
            assert optimistic.kv_peak_pages <= worst.kv_peak_pages

    def test_cluster_pools_every_request_exactly_once(self):
        trace = get_trace_generator("skewed").generate(20, 60.0, seed=4)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=3, router="round-robin",
            policy="interleaved",
        )
        pooled = cluster.simulate(trace)
        assert pooled.num_requests == len(trace)
        assert [m.request_id for m in pooled.per_request] == sorted(
            r.request_id for r in trace
        )
        assert sum(pooled.routed_requests) == len(trace)
        assert sum(pooled.routed_tokens) == sum(r.total_tokens for r in trace)
        assert pooled.output_tokens == sum(r.output_tokens for r in trace)


class TestOptimisticAdmissionProperties:
    """Property/metamorphic relations of growth and preemption."""

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    @pytest.mark.parametrize("policy", ("interleaved", "srpt"))
    def test_no_preemption_when_pages_suffice(self, seed, policy):
        trace, simulator, metrics = _simulate(
            "optimistic", seed=seed, policy=policy
        )
        assert metrics.preemptions == 0
        assert metrics.recomputed_tokens == 0
        assert check_invariants(
            simulator.events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        ) == []

    @pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
    @pytest.mark.parametrize("trace_name", ("chatbot", "skewed"))
    def test_optimistic_admits_at_least_worst_case(self, seed, trace_name):
        budget = _tight_budget(trace_name, 2.0)
        _, sim_wc, worst = _simulate(
            "worst-case", seed=seed, trace_name=trace_name, kv_budget=budget,
            max_batch=16,
        )
        trace, sim_opt, optimistic = _simulate(
            "optimistic", seed=seed, trace_name=trace_name, kv_budget=budget,
            max_batch=16,
        )
        assert optimistic.admissions >= worst.admissions
        assert optimistic.peak_active >= worst.peak_active
        assert optimistic.num_requests == worst.num_requests == len(trace)
        # Both runs stay sound under the exact page-ledger replay.
        for simulator, admission in ((sim_wc, "worst-case"), (sim_opt, "optimistic")):
            assert check_invariants(
                simulator.events, trace,
                page_tokens=simulator.page_tokens, admission=admission,
            ) == []

    def test_preemption_under_pressure_recomputes_and_completes(self):
        budget = _tight_budget("chatbot", 1.5)
        trace, simulator, metrics = _simulate(
            "optimistic", seed=3, kv_budget=budget, max_batch=16
        )
        assert metrics.preemptions > 0
        assert metrics.recomputed_tokens > 0
        assert metrics.num_requests == len(trace)  # everyone still finishes
        assert metrics.admissions == len(trace) + metrics.preemptions
        events = simulator.events
        assert sum(1 for e in events if e.kind == "preempt") == metrics.preemptions
        assert check_invariants(
            events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        ) == []

    def test_preempt_disabled_wedges_instead_of_evicting(self):
        # Two long generations that cannot both grow to completion: with
        # preemption the pool self-resolves; without it the simulator
        # refuses to deadlock silently.
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        budget = 32 * accountant.page_bytes  # 32 pages
        trace = [
            Request(0, 0.0, 16, 400),
            Request(1, 0.0, 16, 400),
        ]
        with_preempt = ServingSimulator(
            LinearCostModel(), MODEL, policy="interleaved",
            admission="optimistic", kv_budget=budget,
        ).simulate(trace)
        assert with_preempt.num_requests == 2
        assert with_preempt.preemptions > 0
        without = ServingSimulator(
            LinearCostModel(), MODEL, policy="interleaved",
            admission="optimistic", preempt=False, kv_budget=budget,
        )
        with pytest.raises(RuntimeError, match="KV pool exhausted"):
            without.simulate(trace)

    def test_stalled_decodes_resume_without_preemption(self):
        # A single heavy request next to a short one: the short one stalls
        # while the pool is full, resumes after the heavy one completes —
        # no preemption needed, nothing deadlocks.
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        budget = 40 * accountant.page_bytes
        trace = [
            Request(0, 0.0, 16, 500),   # needs ~33 pages at its end
            Request(1, 0.0, 16, 64),    # needs ~5
        ]
        simulator = ServingSimulator(
            LinearCostModel(), MODEL, policy="interleaved",
            admission="optimistic", preempt=False, kv_budget=budget,
        )
        metrics = simulator.simulate(trace, record_events=True)
        assert metrics.num_requests == 2
        assert metrics.preemptions == 0
        assert check_invariants(
            simulator.events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        ) == []

    def test_kv_aware_balances_at_least_as_well_as_round_robin(self):
        # Pooled over seeds (a single seed is not a theorem — under deep
        # overload the free-page snapshots of all replicas can saturate
        # and kv-aware degenerates to its index tie-break), kv-aware must
        # never balance a heavy-tailed trace worse than blind rotation.
        def imbalance(router, trace):
            cluster = ClusterSimulator(
                LinearCostModel(), MODEL, num_replicas=2, router=router,
                policy="interleaved", kv_budget=_tight_budget("skewed", 6.0),
            )
            return cluster.simulate(trace).load_imbalance

        ratios = {"kv-aware": 0.0, "round-robin": 0.0}
        for seed in (0, 1, 2, 3, 4):
            trace = get_trace_generator("skewed").generate(24, 80.0, seed=seed)
            for router in ratios:
                ratios[router] += imbalance(router, trace)
        assert ratios["kv-aware"] <= ratios["round-robin"] * (1 + 1e-9)


class TestExtendedValidator:
    """Tampered preemption logs are rejected — the oracle is tested."""

    @pytest.fixture()
    def preempting(self):
        budget = _tight_budget("chatbot", 1.5)
        trace, simulator, metrics = _simulate(
            "optimistic", seed=3, kv_budget=budget, max_batch=16
        )
        events = list(simulator.events)
        assert metrics.preemptions > 0
        assert check_invariants(
            events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        ) == []
        return trace, events, simulator.page_tokens

    def _check(self, events, trace, page_tokens):
        return check_invariants(
            events, trace, page_tokens=page_tokens, admission="optimistic"
        )

    def test_forged_preemption_detected(self, preempting):
        # Inject a preempt for a request that is decoding: its later steps
        # and completion become orphans and the ledger diverges.
        trace, events, page_tokens = preempting
        index, step = next(
            (i, e) for i, e in enumerate(events)
            if e.kind == "step" and e.decode_ids
        )
        forged = dataclasses.replace(
            step, kind="preempt", latency_s=0.0,
            request_id=step.decode_ids[0], tokens=1, decode_ids=(),
        )
        violations = self._check(
            events[: index + 1] + [forged] + events[index + 1:], trace, page_tokens
        )
        assert violations
        assert any(
            "before admission" in v or "ledger" in v or "admission(s)" in v
            for v in violations
        )

    def test_deleted_preemption_detected(self, preempting):
        trace, events, page_tokens = preempting
        index = next(i for i, e in enumerate(events) if e.kind == "preempt")
        violations = self._check(
            events[:index] + events[index + 1:], trace, page_tokens
        )
        assert any("admitted twice" in v or "ledger" in v for v in violations)

    def test_mis_sized_preemption_release_detected(self, preempting):
        trace, events, page_tokens = preempting
        index = next(i for i, e in enumerate(events) if e.kind == "preempt")
        events[index] = dataclasses.replace(
            events[index], tokens=events[index].tokens + 1
        )
        assert any(
            "released" in v for v in self._check(events, trace, page_tokens)
        )

    def test_preemption_of_unadmitted_request_detected(self, preempting):
        trace, events, page_tokens = preempting
        index = next(i for i, e in enumerate(events) if e.kind == "preempt")
        events[index] = dataclasses.replace(events[index], request_id=10_000)
        assert any(
            "not in flight" in v for v in self._check(events, trace, page_tokens)
        )

    def test_ledger_pins_reported_reservations(self, preempting):
        trace, events, page_tokens = preempting
        index = next(
            i for i, e in enumerate(events)
            if e.kind == "step" and e.kv_reserved_pages > 1
        )
        events[index] = dataclasses.replace(
            events[index], kv_reserved_pages=events[index].kv_reserved_pages - 1
        )
        assert any(
            "ledger mismatch" in v for v in self._check(events, trace, page_tokens)
        )

    def test_wrong_admission_mode_is_detected(self, preempting):
        # The same sound log replayed under the wrong mode must fail: the
        # ledger is sensitive to what admission commits.
        trace, events, page_tokens = preempting
        violations = check_invariants(
            events, trace, page_tokens=page_tokens, admission="worst-case"
        )
        assert any("committed" in v or "ledger" in v for v in violations)

    def test_geometry_arguments_must_come_together(self, preempting):
        trace, events, page_tokens = preempting
        with pytest.raises(ValueError, match="together"):
            check_invariants(events, trace, page_tokens=page_tokens)
        with pytest.raises(ValueError, match="together"):
            check_invariants(events, trace, admission="optimistic")

    def test_worst_case_logs_still_validate_without_geometry(self):
        # Back-compat: the PR 4 call shape (no geometry) still works on
        # preemption-free logs.
        trace, simulator, _ = _simulate("worst-case", seed=1)
        assert check_invariants(simulator.events, trace) == []


class TestClusterPlumbing:
    """Routers, pooled metrics and the cluster-wide KV peak."""

    def test_make_router_validates(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")
        with pytest.raises(ValueError, match="does not accept"):
            make_router("round-robin", replicas=3)
        for name in ROUTER_NAMES:
            assert make_router(name).name == name

    def test_router_choice_out_of_range_rejected(self):
        class BadRouter(Router):
            name = "bad"

            def select(self, replicas, request):
                return 99

        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2, router=BadRouter(),
            policy="interleaved",
        )
        trace = get_trace_generator("chatbot").generate(2, 10.0, seed=0)
        with pytest.raises(ValueError, match="chose replica 99"):
            cluster.simulate(trace)

    def test_starved_replicas_do_not_blow_up_imbalance(self):
        # 2 requests over 3 replicas: the third replica never receives an
        # arrival, so it says nothing about routing skew.  The ratio is
        # computed over the two participating replicas (it used to render
        # as a meaningless inf).
        trace = get_trace_generator("chatbot").generate(2, 10.0, seed=0)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=3, router="round-robin",
            policy="interleaved",
        )
        pooled = cluster.simulate(trace)
        assert pooled.routed_requests == (1, 1, 0)
        tokens = [t for t in pooled.routed_tokens if t > 0]
        assert pooled.load_imbalance == max(tokens) / min(tokens)
        assert pooled.load_imbalance != float("inf")

    def test_least_outstanding_tokens_balances_tokens(self):
        trace = get_trace_generator("skewed").generate(24, 80.0, seed=2)
        rr = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2, router="round-robin",
            policy="interleaved",
        ).simulate(trace)
        jsq = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2,
            router="least-outstanding-tokens", policy="interleaved",
        ).simulate(trace)
        assert jsq.load_imbalance <= rr.load_imbalance * (1 + 1e-9)

    def test_cluster_kv_peak_is_instantaneous_not_summed(self):
        # Replica 0 peaks at t=1 then drains; replica 1 peaks at t=3.  The
        # cluster-wide peak (6) is below the summed per-replica peaks (9).
        def log(points):
            return [
                SimEvent(kind="step", clock_s=t, latency_s=1e-9,
                         kv_reserved_pages=r, kv_total_pages=10)
                for t, r in points
            ]

        logs = [
            log([(1.0, 5), (2.0, 1), (3.0, 1)]),
            log([(1.0, 1), (2.0, 1), (3.0, 4)]),
        ]
        assert cluster_kv_peak(logs) == 6

    @staticmethod
    def _resummed_kv_peak(event_logs):
        """Reference formula: re-sum every replica's level at each event."""
        merged = sorted(
            (event.clock_s, replica, sequence, event.kv_reserved_pages)
            for replica, events in enumerate(event_logs)
            for sequence, event in enumerate(events)
        )
        current = [0] * len(event_logs)
        peak = 0
        for _, replica, _, reserved in merged:
            current[replica] = reserved
            peak = max(peak, sum(current))
        return peak

    def test_cluster_kv_peak_matches_resum_on_staggered_peaks(self):
        # Replica 0 peaks at t=1.5, replica 1 at t=2.5 and replica 2 at
        # t=2.0, tied with replica 0's drain: the tie breaks by replica
        # index, so the cluster never holds 9 + 4 + 6 at once and the peak
        # is 13, well under the 23 of the summed per-replica peaks.
        def log(points):
            return [
                SimEvent(kind="step", clock_s=t, latency_s=1e-9,
                         kv_reserved_pages=r, kv_total_pages=20)
                for t, r in points
            ]

        logs = [
            log([(0.5, 2), (1.5, 9), (2.0, 0), (3.0, 3)]),
            log([(1.0, 4), (2.5, 8), (3.5, 1)]),
            log([(2.0, 6), (2.0, 2), (4.0, 0)]),
        ]
        assert cluster_kv_peak(logs) == self._resummed_kv_peak(logs) == 13

    def test_cluster_kv_peak_matches_resum_on_a_recorded_log(self):
        generator = get_trace_generator("chatbot")
        trace = generator.generate(
            60, 400.0, seed=3, prefix_share=0.5, prefix_tokens=32
        )
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        worst = accountant.token_bytes * max(
            w.total_tokens for w in generator.workloads
        )
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=3, router="kv-aware",
            policy="interleaved", admission="optimistic", swap=True,
            kv_budget=3 * worst,
        )
        pooled = cluster.simulate(trace, record_events=True)
        assert len(cluster.events) == 3
        assert all(cluster.events)
        assert pooled.swap_outs > 0
        peak = cluster_kv_peak(cluster.events)
        assert peak == self._resummed_kv_peak(cluster.events)
        assert peak == pooled.kv_peak_pages

    def test_pooled_metrics_report_cluster_kv_peak(self):
        trace = get_trace_generator("chatbot").generate(12, 40.0, seed=1)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2, router="round-robin",
            policy="interleaved",
        )
        pooled = cluster.simulate(trace)
        summed = sum(m.kv_peak_pages for m in pooled.per_replica)
        assert 0 < pooled.kv_peak_pages <= summed
        assert pooled.kv_pages_total == sum(
            m.kv_pages_total for m in pooled.per_replica
        )

    def test_to_dict_shape_and_summary(self):
        trace = get_trace_generator("chatbot").generate(6, 20.0, seed=0)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2, router="kv-aware",
            policy="interleaved", admission="optimistic",
        )
        pooled = cluster.simulate(trace)
        data = pooled.to_dict()
        for key in ("router", "admission", "num_replicas", "load_imbalance",
                    "routed_tokens", "kv_peak_pages", "preemptions",
                    "recomputed_tokens", "per_replica", "per_request"):
            assert key in data
        assert len(data["per_replica"]) == 2
        lean = pooled.to_dict(include_requests=False, include_replicas=False)
        assert "per_request" not in lean and "per_replica" not in lean
        text = pooled.summary()
        assert "router kv-aware" in text
        assert "optimistic admission" in text

    def test_constructor_and_validate_guards(self):
        with pytest.raises(ValueError, match="num_replicas"):
            ClusterSimulator(LinearCostModel(), MODEL, num_replicas=0)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2, policy="interleaved"
        )
        with pytest.raises(RuntimeError, match="simulate"):
            cluster.validate_invariants()

    def test_reused_simulator_is_deterministic(self):
        # Stateful routers reset per simulation: simulating the same trace
        # twice on one ClusterSimulator must be byte-identical (round-robin
        # would otherwise resume its rotation mid-cycle on an odd trace).
        trace = get_trace_generator("chatbot").generate(7, 20.0, seed=0)
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2, router="round-robin",
            policy="interleaved",
        )
        first = cluster.simulate(trace)
        second = cluster.simulate(trace)
        assert first.routed_requests == second.routed_requests
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_cli_preempt_conflicts_rejected(self, capsys):
        assert main([
            "serve", "--preempt", "--admission", "worst-case",
            "--requests", "2", "--no-disk-cache",
        ]) == 2
        assert "contradicts" in capsys.readouterr().err
        assert main([
            "serve", "--preempt", "--no-preempt",
            "--requests", "2", "--no-disk-cache",
        ]) == 2
        assert "contradict" in capsys.readouterr().err


class TestPooledFields:
    """Every per-replica field reaches the pooled report by a declared rule."""

    def test_every_serving_field_has_a_rule_and_a_key(self):
        # A two-model set with SLO targets, so the model-set keys (which
        # appear only for real model sets) are in the dict too.
        models = (MODEL, get_model("gemma-1b"))
        trace = get_trace_generator("chatbot").generate(
            30, 100.0, seed=2, num_classes=2,
            model_mix=[(member.name, 1.0) for member in models],
        )
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=2, router="model-aware",
            policy="interleaved", models=models, slo_targets=(0.5, 2.0),
            num_classes=2,
        )
        data = cluster.simulate(trace).to_dict()
        cluster_fields = {item.name for item in dataclasses.fields(ClusterMetrics)}
        serving_fields = [
            item.name
            for item in dataclasses.fields(ServingMetrics)
            if item.name != "per_request"
        ]
        for name in serving_fields:
            assert name in cluster_fields, name
            assert POOLING.get(name) in ("shared", "sum", "completions", "fleet"), name
            assert name in data, name
        assert set(POOLING) == set(serving_fields)

    def test_swap_and_pass_counters_pool_to_per_replica_sums(self):
        generator = get_trace_generator("chatbot")
        trace = generator.generate(60, 400.0, seed=3)
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        worst = accountant.token_bytes * max(
            w.total_tokens for w in generator.workloads
        )
        cluster = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=3, router="round-robin",
            policy="interleaved", admission="optimistic", swap=True,
            link_gbps=8.0, kv_budget=3 * worst,
        )
        pooled = cluster.simulate(trace)
        replicas = pooled.per_replica
        assert pooled.swap_outs > 0
        data = pooled.to_dict(include_requests=False, include_replicas=False)
        for name in (
            "swap_outs", "swap_ins", "swapped_pages", "prefill_passes",
            "decode_passes", "kv_budget_bytes",
        ):
            assert data[name] == sum(getattr(m, name) for m in replicas), name
        decode_tokens = sum(
            round(m.mean_decode_batch * m.decode_passes) for m in replicas
        )
        assert pooled.mean_decode_batch == decode_tokens / pooled.decode_passes
        assert pooled.link_gbps == 8.0
        text = pooled.summary()
        assert (
            f"KV swap         : {pooled.swap_outs} out / {pooled.swap_ins} in"
            in text
        )

    def test_one_replica_pools_to_the_single_device_metrics(self):
        # With one replica every pooling rule reduces to the identity, so
        # each field shared with ServingMetrics equals the device's own.
        trace = get_trace_generator("skewed").generate(16, 50.0, seed=1)
        single = ServingSimulator(
            LinearCostModel(), MODEL, policy="interleaved",
            admission="optimistic",
        ).simulate(trace, record_events=True)
        pooled = ClusterSimulator(
            LinearCostModel(), MODEL, num_replicas=1, router="round-robin",
            policy="interleaved", admission="optimistic",
        ).simulate(trace, record_events=True)
        expected = single.to_dict(include_requests=False)
        actual = pooled.to_dict(include_requests=False, include_replicas=False)
        for name, value in expected.items():
            assert json.dumps(actual[name]) == json.dumps(value), name


class TestClusterSweep:
    """The registered ``cluster`` experiment holds its headline claims."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.registry import run_experiment

        return run_experiment("cluster", fast=True)

    def test_all_claims_hold(self, result):
        assert result.data["differential"]
        assert result.data["kv_beats_rr"]
        assert result.data["admits_at_least"]
        assert result.data["admits_strictly_more"]
        assert result.data["valid"]

    def test_stressed_corner_numbers_are_reported(self, result):
        stressed = result.data["stressed"]
        assert stressed["optimistic"]["preemptions"] > 0
        assert stressed["worst-case"]["preemptions"] == 0
        assert (
            stressed["optimistic"]["peak_active"]
            > stressed["worst-case"]["peak_active"]
        )

    def test_every_cell_validated(self, result):
        cells = result.data["cells"]
        assert cells and all(out["violations"] == 0 for out in cells.values())
