"""One cold process of the benchmark: set up, serve one workload, report.

    python3 perfbench/worker.py --workload NAME --seed N --mode timed|traced|oracle

``run.py`` starts one of these per repetition, so every repetition pays
a cold import and empty in-process caches.  The last line of standard
output is one JSON object.
"""

import gc
from time import perf_counter


def _probe_ms() -> float:
    """A fixed pure-Python loop, timed: how fast this CPU runs right now.

    On a shared host the same work can take 1.4-1.8x longer from one second
    to the next with ``cpu_s == wall_s``; the probe shows such a slow spell
    for what it is.  Each worker probes at its start, between set-up and the
    timed window, and after it.
    """
    gc.disable()
    start = perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    elapsed_ms = (perf_counter() - start) * 1e3
    gc.enable()
    return elapsed_ms


_START_PROBE_MS = _probe_ms()
_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spec import heavy_wall_layers  # noqa: E402


def _check_isolated() -> None:
    """A run starts cold: no disk cache, empty caches, default fast paths."""
    from repro.perf.cache import (
        PersistentPassCostCache,
        global_baseline_cache,
        global_decode_table_cache,
        global_pass_cache,
    )
    from repro.serving.array_engine import ArraySimulationRun

    for cache in (
        global_pass_cache(),
        global_baseline_cache(),
        global_decode_table_cache(),
    ):
        if isinstance(cache, PersistentPassCostCache) or len(cache):
            raise RuntimeError("pass-cost caches are not cold and in-memory")
    if ArraySimulationRun.arrival_batching is not True:
        raise RuntimeError("ArraySimulationRun.arrival_batching is not at its default")


def _sim_metrics(metrics) -> dict:
    return {
        "sim_tokens_per_s": metrics.tokens_per_s,
        "sim_latency_mean_s": metrics.latency_mean_s,
        "sim_latency_p99_s": metrics.latency_p99_s,
        "sim_ttft_mean_s": metrics.ttft_mean_s,
        "sim_ttft_p99_s": metrics.ttft_p99_s,
        "sim_tpot_mean_s": metrics.tpot_mean_s,
    }


def _replica_totals(metrics) -> dict:
    """Pass and swap counts summed over replicas (pooled cluster metrics
    carry neither)."""
    replicas = getattr(metrics, "per_replica", None) or (metrics,)
    totals = {
        key: sum(getattr(replica, key) for replica in replicas)
        for key in (
            "prefill_passes",
            "decode_passes",
            "swap_outs",
            "swap_ins",
            "swapped_pages",
        )
    }
    decode_tokens = sum(
        replica.mean_decode_batch * replica.decode_passes for replica in replicas
    )
    totals["mean_decode_batch"] = (
        decode_tokens / totals["decode_passes"] if totals["decode_passes"] else 0.0
    )
    return totals


def _layer_metrics(tracer, prepared, served, wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics of one traced repetition.

    Self times have the tracer's calibrated cost taken out; so has the
    wall time that ``host.heavy_self_share`` divides by (``overhead_s``,
    the estimated cost inside the timed window).
    """
    metrics = served.metrics
    offered = served.offered
    calls = tracer.calls
    totals = _replica_totals(metrics)
    is_cluster = prepared.cluster is not None
    advance_calls = calls["array_engine.advance"]
    engine_s = tracer.layer_self_s("array_engine")
    trace_s = tracer.layer_self_s("trace")
    replay_s = tracer.layer_self_s("validate")
    heavy_s = sum(
        tracer.layer_self_s(layer) for layer in heavy_wall_layers(prepared.name)
    )
    return {
        "cli.import_s": tracer.total_s["cli.import"],
        "costmodel.pass_cost_calls": calls["costmodel.pass_cost"],
        "costmodel.pass_cost_s": tracer.layer_self_s("costmodel"),
        "costmodel.hit_ratio": prepared.backend.cache_stats()["hit_rate"],
        "decode_table.builds": calls["decode_table.build"],
        "decode_table.build_s": tracer.layer_self_s("decode_table"),
        "trace.generate_s": trace_s,
        "trace.us_per_request": trace_s / offered * 1e6,
        "array_engine.offer_s": tracer.self_time("array_engine.offer"),
        "array_engine.advance_s": tracer.self_time("array_engine.advance"),
        "array_engine.finish_s": tracer.self_time("array_engine.finish"),
        "array_engine.advance_calls": advance_calls,
        "array_engine.prefill_passes": totals["prefill_passes"],
        "array_engine.decode_passes": totals["decode_passes"],
        "array_engine.mean_decode_batch": totals["mean_decode_batch"],
        "array_engine.us_per_request": engine_s / offered * 1e6,
        "kv_memory.calls": calls["kv_memory.call"],
        "kv_memory.s": tracer.layer_self_s("kv_memory"),
        "kv_memory.peak_fraction": (
            metrics.kv_peak_pages / metrics.kv_pages_total
            if metrics.kv_pages_total
            else 0.0
        ),
        "kv_memory.preemptions": metrics.preemptions,
        "kv_memory.recomputed_tokens": metrics.recomputed_tokens,
        "kv_memory.swap_outs": totals["swap_outs"],
        "kv_memory.swap_ins": totals["swap_ins"],
        "kv_memory.swapped_pages": totals["swapped_pages"],
        "cluster.self_s": tracer.layer_self_s("cluster"),
        "cluster.advance_calls_per_request": (
            advance_calls / offered if is_cluster else 0.0
        ),
        "cluster.load_imbalance": metrics.load_imbalance if is_cluster else 1.0,
        "cluster.model_swaps": metrics.model_swaps,
        "cluster.failures": metrics.failures if is_cluster else 0,
        "cluster.rerouted_requests": (
            metrics.rerouted_requests if is_cluster else 0
        ),
        "validate.replay_s": replay_s,
        "validate.events": served.events,
        "validate.us_per_event": (
            replay_s / served.events * 1e6 if served.events else 0.0
        ),
        "host.heavy_self_share": heavy_s / (wall_s - overhead_s),
        "host.trace_cost_s": overhead_s,
    }


def _serve(args, tracer) -> dict:
    """Set up and serve one workload (timed or traced)."""
    if tracer is not None:
        tracer.calibrate()
        tracer.open("setup")
        tracer.open("cli.import")
    import repro.serving  # noqa: F401
    from repro.serving.array_engine import ArraySimulationRun  # noqa: F401

    if tracer is not None:
        tracer.close()
        import tracer as tracing

        tracing.install(tracer)
    from workloads import prepare, serve

    _check_isolated()
    on_backend = None
    if tracer is not None:
        on_backend = lambda backend: tracing.wrap_cost_model(tracer, backend)  # noqa: E731
    prepared = prepare(
        args.workload, args.seed, requests=args.requests, on_backend=on_backend
    )
    if tracer is not None:
        tracer.close()
    ready = perf_counter()
    probe_ms = _probe_ms()
    if tracer is not None:
        before_run = tracer.counts()
        tracer.open("run")
    cpu_start = process_time()
    wall_start = perf_counter()
    served = serve(prepared)
    wall_s = perf_counter() - wall_start
    cpu_s = process_time() - cpu_start
    if tracer is not None:
        tracer.close()
    probes_ms = [_START_PROBE_MS, probe_ms, _probe_ms()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": ready - _STARTED,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "probes_ms": probes_ms,
        "offered": served.offered,
        "completed": served.metrics.num_requests,
        "violations": served.violations[:5],
        "violation_count": len(served.violations),
        "sim": _sim_metrics(served.metrics),
    }
    if tracer is not None:
        tracer.calibrate()
        overhead_s = tracer.overhead_s(since=before_run)
        result["layers"] = _layer_metrics(tracer, prepared, served, wall_s, overhead_s)
        if args.spans:
            tracer.write(args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "oracle"), required=True)
    parser.add_argument("--requests", type=int, default=None,
                        help="override the workload's size (self-check)")
    parser.add_argument("--spans", default=None,
                        help="traced mode: write the recorded spans here")
    args = parser.parse_args()
    if args.mode == "oracle":
        from oracles import run_oracles

        result = run_oracles(args.workload, args.seed, args.requests)
    else:
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
        result = _serve(args, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
