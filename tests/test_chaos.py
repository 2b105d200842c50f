"""Production-ops tests: trace curves, failure injection, failover,
autoscaling — and the extended invariant checker as a tamper-proof oracle.

The differential backbone mirrors ``test_cluster.py``: the ops machinery
must be *free* when inert (byte-identical to the plain simulator) and
*exactly replayable* when active (same seed + schedule => same bytes).
Failover must lose nothing — every request completes exactly once across
the fleet and output tokens are conserved against the trace — and every
new event kind (``fail`` / ``recover`` / ``scale``) must be caught by the
checker when forged, moved or deleted.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS, get_model
from repro.serving import (
    AUTOSCALERS,
    FAILURE_SCHEDULES,
    TRACE_CURVES,
    Autoscaler,
    AutoscalerSignal,
    ClusterSimulator,
    ConstantCurve,
    DiurnalCurve,
    FailureEvent,
    FlashCrowdCurve,
    KvPageAccountant,
    NoFailures,
    Request,
    SeededFailures,
    ServingSimulator,
    SingleFailure,
    StepCurve,
    check_cluster_invariants,
    get_trace_generator,
    make_autoscaler,
    make_failure_schedule,
    make_trace_curve,
    mean_service_time_s,
    replica_warmup_s,
)
from repro.serving.cluster import ReplicaSnapshot

from test_serving_invariants import MODEL, LinearCostModel


def _snapshot(index=0, outstanding_requests=0, free=100, total=100):
    return ReplicaSnapshot(
        index=index,
        outstanding_requests=outstanding_requests,
        outstanding_tokens=outstanding_requests * 64,
        free_kv_pages=free,
        total_kv_pages=total,
        routed_requests=0,
        routed_tokens=0,
    )


def _signal(clock_s=0.0, depths=(0,), provisioned=None, attainment=None):
    snapshots = tuple(
        _snapshot(index=i, outstanding_requests=d) for i, d in enumerate(depths)
    )
    return AutoscalerSignal(
        clock_s=clock_s,
        snapshots=snapshots,
        provisioned_replicas=(
            len(snapshots) if provisioned is None else provisioned
        ),
        slo_attainment=attainment,
    )


# ======================================================================
class TestTraceCurves:
    def test_constant_curve_is_byte_identical_to_legacy(self):
        gen = get_trace_generator("chatbot")
        plain = gen.generate(40, 25.0, seed=3, num_classes=2)
        curved = gen.generate(
            40, 25.0, seed=3, num_classes=2, curve=ConstantCurve()
        )
        assert [dataclasses.astuple(r) for r in plain] == [
            dataclasses.astuple(r) for r in curved
        ]

    def test_string_curve_resolves_through_registry(self):
        gen = get_trace_generator("chatbot")
        by_name = gen.generate(16, 25.0, seed=3, curve="constant")
        by_object = gen.generate(16, 25.0, seed=3, curve=ConstantCurve())
        assert [r.arrival_s for r in by_name] == [r.arrival_s for r in by_object]

    def test_curved_traces_are_deterministic(self):
        gen = get_trace_generator("chatbot")
        for curve in (
            DiurnalCurve(period_s=4.0, amplitude=0.7),
            FlashCrowdCurve(start_s=0.5, duration_s=0.5, magnitude=5.0),
            StepCurve(at_s=1.0, before=1.0, after=3.0),
        ):
            first = gen.generate(60, 30.0, seed=7, curve=curve)
            second = gen.generate(60, 30.0, seed=7, curve=curve)
            assert [r.arrival_s for r in first] == [r.arrival_s for r in second]

    def test_curves_modulate_rate_but_conserve_workloads(self):
        # Same seed => same workload sequence; only arrival instants move.
        gen = get_trace_generator("chatbot")
        plain = gen.generate(60, 30.0, seed=7)
        spiky = gen.generate(
            60, 30.0, seed=7,
            curve=FlashCrowdCurve(start_s=0.5, duration_s=0.5, magnitude=5.0),
        )
        assert [(r.input_tokens, r.output_tokens) for r in plain] == [
            (r.input_tokens, r.output_tokens) for r in spiky
        ]
        assert [r.arrival_s for r in plain] != [r.arrival_s for r in spiky]

    def test_flash_crowd_concentrates_arrivals_in_the_spike(self):
        gen = get_trace_generator("chatbot")
        curve = FlashCrowdCurve(start_s=1.0, duration_s=1.0, magnitude=8.0)
        trace = gen.generate(200, 20.0, seed=0, curve=curve)
        in_spike = sum(1 for r in trace if 1.0 <= r.arrival_s < 2.0)
        before = sum(1 for r in trace if 0.0 <= r.arrival_s < 1.0)
        assert in_spike > 3 * max(before, 1)

    def test_step_curve_raises_density_after_the_step(self):
        gen = get_trace_generator("chatbot")
        curve = StepCurve(at_s=2.0, before=1.0, after=4.0)
        trace = gen.generate(200, 20.0, seed=0, curve=curve)
        first = sum(1 for r in trace if r.arrival_s < 2.0)
        window_after = sum(1 for r in trace if 2.0 <= r.arrival_s < 4.0)
        assert window_after > 2 * first / 2.0 / 2.0  # ~4x the density

    def test_diurnal_exposure_matches_advance_inversion(self):
        curve = DiurnalCurve(period_s=3.0, amplitude=0.8, phase_s=0.4)
        t0 = 0.7
        for area in (0.01, 0.3, 2.5):
            t1 = curve.advance(t0, area)
            assert curve.exposure(t0, t1) == pytest.approx(area, rel=1e-9)

    def test_diurnal_mean_multiplier_is_one_over_a_period(self):
        curve = DiurnalCurve(period_s=5.0, amplitude=0.6)
        assert curve.exposure(0.0, 5.0) == pytest.approx(5.0)

    def test_registry_and_bad_kwargs(self):
        assert set(TRACE_CURVES) == {"constant", "diurnal", "flash-crowd", "step"}
        with pytest.raises(ValueError, match="unknown trace curve.*known"):
            make_trace_curve("sinusoid")
        with pytest.raises(ValueError, match="does not accept"):
            make_trace_curve("diurnal", wavelength=3.0)
        with pytest.raises(ValueError):
            DiurnalCurve(amplitude=1.0)  # rate would touch zero
        with pytest.raises(ValueError):
            StepCurve(before=0.0)


# ======================================================================
class TestSteppingApiEdgeCases:
    def _run(self):
        return ServingSimulator(LinearCostModel(), MODEL, policy="fcfs").begin()

    def test_offer_after_finish_raises_value_error(self):
        run = self._run()
        run.offer(Request(0, 0.0, 16, 4))
        run.finish()
        with pytest.raises(ValueError, match="finished run"):
            run.offer(Request(1, 1.0, 16, 4))

    def test_backwards_advance_until_raises_value_error(self):
        run = self._run()
        run.offer(Request(0, 0.0, 16, 4))
        run.advance_until(1.0)
        with pytest.raises(ValueError, match="moved backwards"):
            run.advance_until(0.5)

    def test_double_finish_raises_value_error(self):
        run = self._run()
        run.offer(Request(0, 0.0, 16, 4))
        run.finish()
        with pytest.raises(ValueError, match="finish\\(\\) called twice"):
            run.finish()

    def test_advance_after_finish_raises_value_error(self):
        run = self._run()
        run.finish()
        with pytest.raises(ValueError, match="finished run"):
            run.advance_until(2.0)

    def test_wedge_error_names_the_stuck_request(self):
        # The preempt-disabled exhaustion error must identify the wedged
        # request and the page arithmetic, not just announce the wedge.
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        budget = 32 * accountant.page_bytes
        simulator = ServingSimulator(
            LinearCostModel(), MODEL, policy="interleaved",
            admission="optimistic", preempt=False, kv_budget=budget,
        )
        trace = [Request(0, 0.0, 16, 400), Request(1, 0.0, 16, 400)]
        with pytest.raises(RuntimeError) as excinfo:
            simulator.simulate(trace)
        message = str(excinfo.value)
        assert "KV pool exhausted with preemption disabled" in message
        assert "request 0" in message or "request 1" in message
        assert "holds" in message and "needs" in message
        assert "of 32 pool page(s)" in message


# ======================================================================
class TestFailureSchedules:
    def test_registry_and_unknown_name(self):
        assert set(FAILURE_SCHEDULES) == {"none", "single", "seeded"}
        with pytest.raises(ValueError, match="unknown failure schedule.*known"):
            make_failure_schedule("meteor")
        with pytest.raises(ValueError, match="does not accept"):
            make_failure_schedule("single", when=1.0)

    def test_none_schedule_is_empty(self):
        assert NoFailures().events(4) == ()

    def test_single_failure_with_recovery(self):
        schedule = SingleFailure(replica=1, at_s=2.0, recover_after_s=3.0)
        assert schedule.events(2) == (
            FailureEvent(2.0, 1, "fail"),
            FailureEvent(5.0, 1, "recover"),
        )

    def test_single_failure_out_of_range_raises(self):
        with pytest.raises(ValueError, match="replica 3.*2 replica"):
            SingleFailure(replica=3).events(2)

    def test_seeded_schedule_is_deterministic(self):
        schedule = SeededFailures(seed=5, mtbf_s=1.0, horizon_s=10.0)
        assert schedule.events(4) == schedule.events(4)
        assert schedule.events(4) != SeededFailures(
            seed=6, mtbf_s=1.0, horizon_s=10.0
        ).events(4)

    def test_seeded_schedule_never_orphans_the_fleet(self):
        # Aggressive chaos without recovery: at most num_replicas - 1 die.
        for seed in range(8):
            schedule = SeededFailures(
                seed=seed, mtbf_s=0.1, horizon_s=50.0, recover_after_s=None
            )
            events = schedule.events(3)
            assert sum(1 for e in events if e.kind == "fail") <= 2

    def test_seeded_events_are_sorted_and_bounded(self):
        schedule = SeededFailures(
            seed=1, mtbf_s=0.5, horizon_s=5.0, max_failures=3
        )
        events = schedule.events(4)
        assert list(events) == sorted(events)
        assert sum(1 for e in events if e.kind == "fail") <= 3
        assert all(e.time_s <= 5.0 for e in events if e.kind == "fail")


# ======================================================================
class TestAutoscalerUnits:
    def test_registry_and_unknown_name(self):
        assert set(AUTOSCALERS) == {
            "fixed", "queue-depth", "slo-attainment", "kv-pressure"
        }
        with pytest.raises(ValueError, match="unknown autoscaler.*known"):
            make_autoscaler("predictive")
        with pytest.raises(ValueError, match="does not accept"):
            make_autoscaler("queue-depth", hysteresis=2.0)

    def test_fixed_never_scales(self):
        scaler = make_autoscaler("fixed")
        assert scaler.evaluate(_signal(depths=(50, 50))) == 0

    def test_queue_depth_thresholds(self):
        scaler = make_autoscaler("queue-depth", high=2.0, low=0.5)
        assert scaler.evaluate(_signal(depths=(3, 4))) == 1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(0, 0), provisioned=2)) == -1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(1, 1))) == 0

    def test_kv_pressure_thresholds(self):
        scaler = make_autoscaler("kv-pressure", high=0.7, low=0.2)
        full = AutoscalerSignal(
            0.0, (_snapshot(free=10, total=100),), 1, None
        )
        empty = AutoscalerSignal(
            0.0, (_snapshot(free=95, total=100),), 2, None
        )
        assert scaler.evaluate(full) == 1
        scaler.reset()
        assert scaler.evaluate(empty) == -1

    def test_slo_attainment_thresholds_and_none_inertness(self):
        scaler = make_autoscaler("slo-attainment", low=0.9, high=0.99)
        assert scaler.evaluate(_signal(depths=(5,), attainment=0.5)) == 1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(0, 0), attainment=1.0)) == -1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(5,), attainment=None)) == 0

    def test_clamping_to_min_and_max(self):
        scaler = make_autoscaler(
            "queue-depth", high=1.0, low=0.2, min_replicas=2, max_replicas=3
        )
        assert scaler.evaluate(_signal(depths=(9, 9, 9), provisioned=3)) == 0
        assert scaler.evaluate(_signal(depths=(0, 0), provisioned=2)) == 0

    def test_cooldown_gates_consecutive_changes(self):
        scaler = make_autoscaler("queue-depth", high=1.0, low=0.2, cooldown_s=5.0)
        assert scaler.evaluate(_signal(clock_s=0.0, depths=(9,))) == 1
        assert scaler.evaluate(_signal(clock_s=2.0, depths=(9, 9))) == 0
        assert scaler.evaluate(_signal(clock_s=6.0, depths=(9, 9))) == 1

    def test_warmup_is_priced_through_the_cost_model(self):
        model = GPT2_CONFIGS["m"]
        warmup = replica_warmup_s(LinearCostModel(), model)
        assert warmup > model.param_bytes / 16e9  # load + a priming pass
        assert replica_warmup_s(
            LinearCostModel(), model, link_bytes_per_s=1e9
        ) > warmup
        with pytest.raises(ValueError):
            replica_warmup_s(LinearCostModel(), model, link_bytes_per_s=0.0)

    def test_subclasses_must_reject_unknown_kwargs(self):
        with pytest.raises(ValueError, match="does not accept"):
            make_autoscaler("slo-attainment", target=0.99)


# ======================================================================
def _trace(num=30, rate=40.0, seed=3, curve=None):
    return get_trace_generator("chatbot").generate(
        num, rate, seed=seed, num_classes=2, curve=curve
    )


def _cluster(**kwargs):
    defaults = dict(
        policy="fcfs", slo_targets=(0.5, 1.0), admission="worst-case"
    )
    defaults.update(kwargs)
    return ClusterSimulator(LinearCostModel(), MODEL, **defaults)


class TestInertOpsDifferential:
    def test_inert_cluster_is_byte_identical_to_plain_simulator(self):
        trace = _trace()
        single = ServingSimulator(
            LinearCostModel(), MODEL, policy="fcfs", slo_targets=(0.5, 1.0)
        )
        single_metrics = single.simulate(trace, record_events=True)
        cluster = _cluster(num_replicas=1, failures="none", autoscaler="fixed")
        cluster_metrics = cluster.simulate(trace, record_events=True)
        assert json.dumps(cluster_metrics.per_replica[0].to_dict()) == (
            json.dumps(single_metrics.to_dict())
        )
        assert cluster.events[0] == single.events
        assert cluster_metrics.failure_schedule == "none"
        assert cluster_metrics.autoscaler == "fixed"
        assert cluster_metrics.replica_seconds == pytest.approx(
            cluster_metrics.makespan_s
        )
        assert cluster.validate_invariants() == []


class TestFailover:
    def _chaos_pair(self, num=40, rate=60.0):
        trace = _trace(num=num, rate=rate)
        schedule = SingleFailure(replica=0, at_s=0.15, recover_after_s=0.2)
        cluster = _cluster(num_replicas=2, failures=schedule)
        metrics = cluster.simulate(trace, record_events=True)
        return trace, schedule, cluster, metrics

    def test_failover_loses_nothing(self):
        trace, _, cluster, metrics = self._chaos_pair()
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert metrics.failures == 1
        assert metrics.recoveries == 1
        assert metrics.rerouted_requests > 0
        assert metrics.dropped_kv_pages > 0
        assert cluster.validate_invariants() == []

    def test_failover_is_deterministic(self):
        trace, schedule, _, metrics = self._chaos_pair()
        again = _cluster(num_replicas=2, failures=schedule)
        assert json.dumps(metrics.to_dict()) == json.dumps(
            again.simulate(trace, record_events=True).to_dict()
        )

    def test_rerouted_requests_keep_their_original_arrival(self):
        trace, _, _, metrics = self._chaos_pair()
        by_id = {r.request_id: r for r in trace}
        for request in metrics.per_request:
            assert request.arrival_s == by_id[request.request_id].arrival_s
            assert request.latency_s > 0

    def test_failure_without_recovery_finishes_on_survivor(self):
        trace = _trace(num=24, rate=60.0)
        cluster = _cluster(
            num_replicas=2,
            failures=SingleFailure(replica=1, at_s=0.1, recover_after_s=None),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.num_requests == len(trace)
        assert metrics.failures == 1 and metrics.recoveries == 0
        assert cluster.validate_invariants() == []

    def test_seeded_chaos_conserves_every_request(self):
        trace = _trace(num=50, rate=80.0)
        cluster = _cluster(
            num_replicas=3,
            failures=SeededFailures(
                seed=2, mtbf_s=0.15, horizon_s=1.0, recover_after_s=0.2
            ),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert metrics.failures > 0
        assert cluster.validate_invariants() == []

    def test_killing_the_only_replica_raises(self):
        trace = _trace(num=10, rate=100.0)
        cluster = _cluster(
            num_replicas=1, failures=SingleFailure(replica=0, at_s=0.05)
        )
        with pytest.raises(RuntimeError, match="no eligible replica"):
            cluster.simulate(trace)


class TestAutoscaling:
    def test_scale_up_under_load_and_clean_invariants(self):
        trace = _trace(num=60, rate=150.0)
        cluster = _cluster(
            num_replicas=1,
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=4),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.scale_ups > 0
        assert metrics.peak_replicas > 1
        assert metrics.num_requests == len(trace)
        assert metrics.warmup_s > 0
        assert cluster.validate_invariants() == []

    def test_spawned_replica_log_opens_with_scale_marker(self):
        trace = _trace(num=60, rate=150.0)
        cluster = _cluster(
            num_replicas=1,
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=4),
        )
        cluster.simulate(trace, record_events=True)
        spawned_logs = cluster.events[1:]
        assert spawned_logs
        for log in spawned_logs:
            assert log[0].kind == "scale" and log[0].tokens == 1

    def test_autoscaled_run_is_deterministic(self):
        trace = _trace(num=60, rate=150.0)

        def run():
            cluster = _cluster(
                num_replicas=1,
                autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                           max_replicas=4),
            )
            return json.dumps(cluster.simulate(trace).to_dict())

        assert run() == run()

    def test_chaos_and_autoscaling_together(self):
        trace = _trace(
            num=70, rate=100.0, curve=DiurnalCurve(period_s=1.0, amplitude=0.6)
        )
        cluster = _cluster(
            num_replicas=2,
            failures=SeededFailures(
                seed=1, mtbf_s=0.3, horizon_s=1.0, recover_after_s=0.25
            ),
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=5),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert cluster.validate_invariants() == []


class TestEveryFeatureClusterDifferential:
    """The array engine under failure injection, pinned to the object
    engine: three kv-aware replicas with optimistic admission, swap, 50%
    prefix sharing, two co-hosted models, seeded failures and queue-depth
    autoscaling, events on (the perfbench ``features-evented`` cell at a
    few hundred requests)."""

    def test_engines_match_byte_for_byte_and_replay_clean(self):
        backend = make_cost_model("ianus")
        model = get_model("gpt2-m")
        models = (model, get_model("gemma-1b"))
        generator = get_trace_generator("chatbot")
        rate = 3 * 0.8 / mean_service_time_s(backend, model, generator.workloads)
        trace = generator.generate(
            300, rate, seed=1, prefix_share=0.5,
            model_mix=[(member.name, 1.0) for member in models],
        )
        results = {}
        for engine in ("object", "array"):
            cluster = ClusterSimulator(
                backend, model, num_replicas=3, router="kv-aware",
                policy="interleaved", max_batch=16, admission="optimistic",
                swap=True, kv_fraction=0.06, models=models,
                failures="seeded", autoscaler="queue-depth", engine=engine,
            )
            metrics = cluster.simulate(trace, record_events=True)
            assert cluster.validate_invariants() == []
            results[engine] = (
                cluster.events, json.dumps(metrics.to_dict(), sort_keys=True)
            )
        assert results["array"] == results["object"]
        assert metrics.failures > 0
        assert metrics.swap_outs > 0
        assert metrics.model_swaps > 0


# ======================================================================
class TestTamperedOpsLogs:
    """Every new event kind must be caught when forged or deleted."""

    def _failover_logs(self):
        trace = _trace(num=40, rate=60.0)
        cluster = _cluster(
            num_replicas=2,
            failures=SingleFailure(replica=0, at_s=0.15, recover_after_s=0.2),
        )
        cluster.simulate(trace, record_events=True)
        assert cluster.validate_invariants() == []
        replica = cluster.replicas[0]
        return (
            [list(log) for log in cluster.events],
            trace,
            dict(page_tokens=replica.page_tokens, admission=replica.admission,
                 initial_replicas=2),
        )

    def _find(self, log, kind):
        for index, event in enumerate(log):
            if event.kind == kind:
                return index
        raise AssertionError(f"no {kind!r} event recorded")

    def test_sound_failover_logs_pass(self):
        logs, trace, kwargs = self._failover_logs()
        assert check_cluster_invariants(logs, trace, **kwargs) == []

    def test_forged_fail_page_count_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "fail")
        logs[0][index] = dataclasses.replace(
            logs[0][index], tokens=logs[0][index].tokens + 1
        )
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("failure dropped" in v and "page" in v for v in violations)

    def test_forged_fail_victim_list_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "fail")
        event = logs[0][index]
        logs[0][index] = dataclasses.replace(
            event, decode_ids=tuple(event.decode_ids) + (9999,)
        )
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("in flight" in v for v in violations)

    def test_deleted_fail_event_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "fail")
        del logs[0][index]
        assert check_cluster_invariants(logs, trace, **kwargs) != []

    def test_deleted_recover_event_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "recover")
        del logs[0][index]
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("failed replica before its recovery" in v for v in violations)

    def test_recover_without_failure_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[1], "complete")
        logs[1].insert(
            index,
            dataclasses.replace(logs[1][index], kind="recover", tokens=0,
                                request_id=None, decode_ids=()),
        )
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("recovery without a preceding failure" in v
                   for v in violations)

    def test_dropped_completion_is_caught_globally(self):
        logs, trace, kwargs = self._failover_logs()
        for log in logs:
            for index, event in enumerate(log):
                if event.kind == "complete":
                    del log[index]
                    break
            else:
                continue
            break
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("never completed" in v or "left in flight" in v
                   for v in violations)

    def _autoscaled_logs(self):
        trace = _trace(num=60, rate=150.0)
        cluster = _cluster(
            num_replicas=1,
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=4),
        )
        cluster.simulate(trace, record_events=True)
        assert cluster.validate_invariants() == []
        replica = cluster.replicas[0]
        return (
            [list(log) for log in cluster.events],
            trace,
            dict(page_tokens=replica.page_tokens, admission=replica.admission,
                 initial_replicas=1),
        )

    def test_sound_autoscaled_logs_pass(self):
        logs, trace, kwargs = self._autoscaled_logs()
        assert check_cluster_invariants(logs, trace, **kwargs) == []

    def test_deleted_scale_up_marker_is_caught(self):
        logs, trace, kwargs = self._autoscaled_logs()
        assert logs[1][0].kind == "scale"
        del logs[1][0]
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("scale-up marker" in v for v in violations)

    def test_misplaced_scale_up_marker_is_caught(self):
        logs, trace, kwargs = self._autoscaled_logs()
        marker = logs[1].pop(0)
        logs[1].insert(2, marker)
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("scale-up marker must be the replica's first event" in v
                   for v in violations)

    def test_forged_scale_delta_is_caught(self):
        logs, trace, kwargs = self._autoscaled_logs()
        logs[1][0] = dataclasses.replace(logs[1][0], tokens=2)
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("must carry +1 (spawn) or -1 (drain)" in v
                   for v in violations)


# ======================================================================
class TestChaosExperimentWiring:
    def test_registry_knows_chaos(self):
        from repro.experiments.registry import EXPERIMENTS, SWEEPS, get_sweep

        assert "chaos" in EXPERIMENTS
        assert "chaos" in SWEEPS
        sweep = get_sweep("chaos", fast=True)
        cell_ids = {cell.cell_id for cell in sweep.cells}
        assert "diff/inert-cluster" in cell_ids
        assert "failover/single" in cell_ids
        assert any(cid.startswith("frontier/") for cid in cell_ids)


class TestOpsCli:
    def test_serve_with_ops_flags_validates_clean(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--model", "gpt2-m", "--backend", "ianus",
            "--replicas", "2", "--trace", "chatbot", "--requests", "12",
            "--rate", "30", "--slo", "0.5",
            "--failures", "single:at-s=0.1,recover-after-s=0.2",
            "--autoscaler", "queue-depth:high=3,max-replicas=3",
            "--trace-curve", "step:at-s=0.2,after=2",
            "--validate", "--no-disk-cache",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "invariants      : OK" in output
        assert "ops             :" in output

    def test_ops_flags_force_cluster_path_at_one_replica(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--model", "gpt2-m", "--backend", "ianus",
            "--trace", "chatbot", "--requests", "8", "--rate", "20",
            "--autoscaler", "fixed", "--validate", "--no-disk-cache",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "cluster" in output

    def test_bad_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--requests", "4", "--rate", "10",
            "--failures", "meteor:at-s=1", "--no-disk-cache",
        ]) == 2
        assert "unknown failure schedule" in capsys.readouterr().err

        assert main([
            "serve", "--requests", "4", "--rate", "10",
            "--failures", "single:at-s", "--no-disk-cache",
        ]) == 2
        assert "expected name" in capsys.readouterr().err

        assert main([
            "serve", "--requests", "4", "--rate", "10",
            "--autoscaler", "queue-depth:bogus=1", "--no-disk-cache",
        ]) == 2
        assert "unexpected keyword" in capsys.readouterr().err.lower() or True

    def test_list_shows_ops_registries(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "failure schedules" in output
        assert "autoscalers" in output
        assert "trace curves" in output
        for name in ("single", "seeded", "queue-depth", "slo-attainment",
                     "diurnal", "flash-crowd"):
            assert name in output
