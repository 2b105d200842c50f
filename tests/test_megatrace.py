"""Tests for the megatrace serving core (PR 7).

Pins the vectorized array engine to the reference object engine
(bit-identical event logs and per-request metrics on the per-iteration
path; pooled metrics to 1e-9 where macro-stepping reorders float
accumulation), the streaming trace iterator to ``generate()``
(byte-identical arrivals for every curve, seed and chunk size), the
dense decode-cost table to ``PassCostProvider.decode`` (bit for bit),
and the CLI/cluster/experiment surfaces of the ``engine`` knob.
"""

from __future__ import annotations

import itertools
import json
import re

import pytest

from repro.cli import main
from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS
from repro.serving import (
    ENGINES,
    ClusterSimulator,
    DecodeCostTable,
    ServingSimulator,
    build_decode_table,
    decode_kv_bounds,
    get_trace_generator,
    percentile,
)
from repro.serving.decode_table import table_matches_provider
from repro.serving.trace import TRACE_CURVES
from repro.serving.validate import check_invariants

MODEL = GPT2_CONFIGS["m"]

POOLED_FIELDS = (
    "num_requests", "makespan_s", "busy_s", "utilization", "output_tokens",
    "tokens_per_s", "requests_per_s", "latency_mean_s", "latency_p50_s",
    "latency_p99_s", "ttft_mean_s", "ttft_p50_s", "ttft_p99_s",
    "tpot_mean_s", "energy_j", "flops", "prefill_passes", "decode_passes",
    "mean_decode_batch", "admissions", "peak_active", "preemptions",
    "recomputed_tokens", "kv_peak_pages", "slo_attainment",
)


def _simulate(engine, trace, record_events, detail=True, **kwargs):
    simulator = ServingSimulator(
        make_cost_model("ianus"), MODEL, engine=engine,
        per_request_detail=detail, **kwargs,
    )
    metrics = simulator.simulate(trace, record_events=record_events)
    return metrics, simulator.events


def _assert_pooled_close(reference, candidate, tol=1e-9):
    for field in POOLED_FIELDS:
        expected = getattr(reference, field)
        actual = getattr(candidate, field)
        if expected is None or actual is None:
            assert expected is actual, field
        elif isinstance(expected, float) or isinstance(actual, float):
            scale = max(abs(expected), abs(actual), 1.0)
            assert abs(expected - actual) / scale <= tol, (
                f"{field}: {expected!r} != {actual!r}"
            )
        else:
            assert expected == actual, field


class TestEngineSelection:
    def test_registry(self):
        assert ENGINES == ("object", "array")

    def test_unknown_engine_lists_known(self):
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            ServingSimulator(make_cost_model("ianus"), MODEL, engine="warp")
        with pytest.raises(ValueError, match="object"):
            ServingSimulator(make_cost_model("ianus"), MODEL, engine="warp")

    def test_array_engine_requires_registered_policy(self):
        from repro.serving import FcfsPolicy

        class Odd(FcfsPolicy):
            name = "odd"

        with pytest.raises(ValueError, match="array"):
            ServingSimulator(
                make_cost_model("ianus"), MODEL, engine="array", policy=Odd()
            )

    def test_default_engine_is_object(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL)
        assert simulator.engine == "object"


class TestStreamingTraces:
    """generate_stream is generate() chunked — byte-identical arrivals."""

    @pytest.mark.parametrize("curve", [None, *sorted(TRACE_CURVES)])
    def test_every_curve_matches_generate(self, curve):
        generator = get_trace_generator("chatbot")
        full = generator.generate(96, 7.0, seed=5, num_classes=3, curve=curve)
        streamed = [
            request
            for chunk in generator.generate_stream(
                96, 7.0, seed=5, num_classes=3, curve=curve, chunk_requests=17
            )
            for request in chunk
        ]
        assert tuple(streamed) == full

    @pytest.mark.parametrize("chunk_requests", [1, 7, 1000])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_chunk_size_never_changes_draws(self, chunk_requests, seed):
        for name in ("chatbot", "summarize"):
            generator = get_trace_generator(name)
            full = generator.generate(40, 4.0, seed=seed, num_classes=2)
            chunks = list(generator.generate_stream(
                40, 4.0, seed=seed, num_classes=2,
                chunk_requests=chunk_requests,
            ))
            assert all(len(chunk) <= chunk_requests for chunk in chunks)
            assert tuple(request for chunk in chunks for request in chunk) == full

    def test_stream_validates_like_generate(self):
        generator = get_trace_generator("chatbot")
        with pytest.raises(ValueError):
            list(generator.generate_stream(4, 0.0))
        with pytest.raises(ValueError):
            list(generator.generate_stream(8, 1.0, chunk_requests=0))

    def test_simulate_stream_equals_simulate(self):
        generator = get_trace_generator("chatbot")
        trace = generator.generate(64, 8.0, seed=2)
        bounds = decode_kv_bounds(generator.workloads)
        expected, _ = _simulate("array", trace, False)
        simulator = ServingSimulator(
            make_cost_model("ianus"), MODEL, engine="array"
        )
        streamed = simulator.simulate_stream(
            generator.generate_stream(64, 8.0, seed=2, chunk_requests=9),
            kv_bounds=bounds,
        )
        assert streamed.num_requests == expected.num_requests
        _assert_pooled_close(expected, streamed)


class TestDecodeTable:
    def test_bit_exact_against_provider(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL)
        simulator.provider.prepare(1, 600)
        table = build_decode_table(simulator.provider, 1, 600)
        assert isinstance(table, DecodeCostTable)
        assert len(table) == 600
        for kv in itertools.chain(range(1, 40), (128, 256, 555, 600)):
            cost = simulator.provider.decode(kv)
            index = kv - table.kv_lo
            assert table.latency[index] == cost.latency_s
            assert table.energy_memory[index] == cost.energy.normal_memory_j
            assert table.energy_pim[index] == cost.energy.pim_op_j
            assert table.energy_npu[index] == cost.energy.npu_cores_j
            assert table.flops[index] == cost.flops
        assert table_matches_provider(table, simulator.provider)

    def test_provider_memoizes_and_prepare_invalidates(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL)
        simulator.provider.prepare(1, 300)
        first = simulator.provider.decode_table(1, 300)
        assert simulator.provider.decode_table(1, 300) is first
        simulator.provider.prepare(1, 400)
        assert simulator.provider.decode_table(1, 300) is not first

    def test_exact_provider_refuses_table(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL, exact=True)
        with pytest.raises(ValueError, match="exact"):
            build_decode_table(simulator.provider, 1, 64)

    def test_prefix_sums_cover_columns(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL)
        simulator.provider.prepare(1, 200)
        table = simulator.provider.decode_table(1, 200)
        prefix_lat = table.prefix_sums()[0]
        assert prefix_lat[0] == 0.0
        assert len(prefix_lat) == len(table) + 1
        span = prefix_lat[len(table)] - prefix_lat[0]
        assert span == pytest.approx(float(table.latency.sum()), rel=1e-12)


class TestArrayEngineDifferential:
    """The tentpole contract: array == object, across the config lattice."""

    CASES = list(itertools.product(
        ["chatbot", "gpt2-paper", "skewed"],
        ["fcfs", "interleaved", "srpt", "priority"],
        ["worst-case", "optimistic"],
        [0, 64],
    ))

    @pytest.mark.parametrize(
        "trace_name,policy,admission,chunk_tokens", CASES
    )
    def test_event_log_and_requests_bit_identical(
        self, trace_name, policy, admission, chunk_tokens
    ):
        seed = len(trace_name) + chunk_tokens
        trace = get_trace_generator(trace_name).generate(
            48, 6.0, seed=seed,
            num_classes=3 if policy == "priority" else 1,
        )
        kwargs = dict(
            policy=policy, admission=admission, chunk_tokens=chunk_tokens,
            slo_targets=(0.5, 2.0, 8.0) if policy == "priority" else None,
        )
        object_metrics, object_events = _simulate(
            "object", trace, True, **kwargs
        )
        array_metrics, array_events = _simulate("array", trace, True, **kwargs)
        assert object_events == array_events
        assert object_metrics.per_request == array_metrics.per_request
        for field in POOLED_FIELDS:
            assert getattr(object_metrics, field) == getattr(
                array_metrics, field
            ), field

    @pytest.mark.parametrize("trace_name,policy", [
        ("chatbot", "interleaved"),
        ("summarize", "fcfs"),
        ("skewed", "srpt"),
        ("dfx-paper", "priority"),
    ])
    def test_macro_path_pools_to_1e9(self, trace_name, policy):
        trace = get_trace_generator(trace_name).generate(
            60, 9.0, seed=11, num_classes=3 if policy == "priority" else 1,
        )
        kwargs = dict(
            policy=policy,
            slo_targets=(0.5, 2.0, 8.0) if policy == "priority" else None,
        )
        reference, _ = _simulate("object", trace, True, **kwargs)
        macro, _ = _simulate("array", trace, False, **kwargs)
        _assert_pooled_close(reference, macro)
        pooled_only, _ = _simulate("array", trace, False, detail=False, **kwargs)
        assert pooled_only.per_request == ()
        _assert_pooled_close(reference, pooled_only)

    def test_tight_kv_budget_with_preemption(self):
        trace = get_trace_generator("chatbot").generate(40, 8.0, seed=4)
        kwargs = dict(admission="optimistic", kv_fraction=0.02)
        object_metrics, object_events = _simulate(
            "object", trace, True, **kwargs
        )
        array_metrics, array_events = _simulate("array", trace, True, **kwargs)
        assert object_events == array_events
        assert object_metrics.per_request == array_metrics.per_request
        assert array_metrics.preemptions == object_metrics.preemptions

    def test_array_event_log_replays_clean(self):
        """The invariant checker accepts an array-engine event log as-is."""
        trace = get_trace_generator("chatbot").generate(48, 8.0, seed=6)
        simulator = ServingSimulator(
            make_cost_model("ianus"), MODEL, engine="array",
            admission="optimistic", kv_fraction=0.05,
        )
        simulator.simulate(trace, record_events=True)
        violations = check_invariants(
            simulator.events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        )
        assert violations == []

    def test_error_parity_on_oversized_request(self):
        trace = get_trace_generator("summarize").generate(8, 2.0, seed=0)
        failures = {}
        for engine in ENGINES:
            with pytest.raises(ValueError) as info:
                _simulate(engine, trace, False, kv_fraction=0.001)
            failures[engine] = str(info.value)
        assert failures["object"] == failures["array"]

    def test_pooled_detail_false_rejected_by_cluster(self):
        with pytest.raises(ValueError, match="per_request_detail"):
            ClusterSimulator(
                make_cost_model("ianus"), MODEL, num_replicas=2,
                per_request_detail=False,
            )

    def test_cluster_replicas_run_array_engine(self):
        trace = get_trace_generator("chatbot").generate(40, 10.0, seed=9)
        results = {}
        for engine in ENGINES:
            cluster = ClusterSimulator(
                make_cost_model("ianus"), MODEL, num_replicas=2,
                router="round-robin", engine=engine,
            )
            results[engine] = cluster.simulate(trace, record_events=True)
            assert cluster.validate_invariants() == []
        assert (
            results["object"].per_request == results["array"].per_request
        )
        for field in ("num_requests", "makespan_s", "tokens_per_s",
                      "latency_p99_s", "ttft_p99_s", "energy_j"):
            assert getattr(results["object"], field) == getattr(
                results["array"], field
            ), field


class TestPercentileSortOnce:
    def test_percentile_does_not_require_presorted_input(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        copy = list(values)
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == pytest.approx(4.96)
        # sort-once micro-assert: the caller's list is left untouched.
        assert values == copy

    def test_finalize_percentiles_match_manual(self):
        trace = get_trace_generator("chatbot").generate(32, 6.0, seed=1)
        metrics, _ = _simulate("object", trace, False)
        latencies = [request.latency_s for request in metrics.per_request]
        assert metrics.latency_p50_s == percentile(latencies, 50)
        assert metrics.latency_p99_s == percentile(latencies, 99)


class TestServeCliEngine:
    ARGS = ["serve", "--requests", "24", "--rate", "8", "--trace", "chatbot",
            "--no-disk-cache"]

    def test_unknown_engine_exits_2_listing_known(self, capsys):
        code = main([*self.ARGS, "--engine", "warp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'warp'" in err
        assert "object" in err and "array" in err

    def test_array_engine_serves_and_validates(self, capsys):
        code = main([*self.ARGS, "--engine", "array", "--validate"])
        assert code == 0
        assert "invariants      : OK" in capsys.readouterr().out

    def test_profile_prints_phase_breakdown(self, capsys, tmp_path):
        code = main([*self.ARGS, "--engine", "array", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile [array]" in out
        for phase in ("trace-gen", "admit", "prefill", "decode", "metrics"):
            assert phase in out
        # Optimistic + swap stands macro-stepping down: decode runs serve
        # the passes, their time lands in "decode" and the per-path pass
        # counts sum to the run's decode passes.
        report = tmp_path / "metrics.json"
        code = main([*self.ARGS, "--engine", "array", "--profile", "--swap",
                     "--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        decode_s = float(re.search(r"\| decode (\d+\.\d+)s", out).group(1))
        assert decode_s > 0
        counts = dict(
            (name, int(count))
            for name, count in re.findall(
                r"(\w+) (\d+)", out.split("decode passes   : ")[1].splitlines()[0]
            )
        )
        assert counts["run"] > 0
        assert sum(counts.values()) == json.loads(report.read_text())[
            "decode_passes"
        ]

    def test_profile_covers_cluster_runs(self, capsys):
        code = main([*self.ARGS, "--engine", "array", "--profile",
                     "--replicas", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile [array, pooled x2]" in out
        assert "route" in out
        for phase in ("trace-gen", "admit", "prefill", "metrics"):
            assert phase in out

    def test_engines_agree_from_the_cli(self, capsys):
        def report(engine):
            main([*self.ARGS, "--engine", engine])
            return [
                line for line in capsys.readouterr().out.splitlines()
                # The pass-cost cache warms across invocations; its
                # hit/miss line is process state, not a metric.
                if not line.startswith("pass-cost cache")
            ]

        # Identical metric reports, line for line.
        assert report("object") == report("array")


class TestExperimentEngineKnob:
    def test_serving_cell_accepts_engine_param(self):
        from repro.experiments.serving_throughput import _run_cell

        params = dict(
            backend="ianus", policy="interleaved", chunk_tokens=0,
            kv_fraction=1.0, load=0.6, num_requests=16, seed=0,
        )
        reference = _run_cell(dict(params))
        array = _run_cell(dict(params, engine="array"))
        assert array["violations"] == 0
        assert array["metrics"] == reference["metrics"]
