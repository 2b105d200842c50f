"""The repository benchmark: serving workloads timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root.  Each repetition is a fresh, cold,
single-threaded worker process (``worker.py``) that sets up, serves the
workload once and reports.  A run makes a fixed number of repetitions,
sized so that they take about ``--seconds`` on the reference host
(``repetitions``).  Host times are trimmed means over the repetitions,
each scaled to a reference CPU speed by a CPU-speed probe (see
``measure``).  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` traced
and untraced repetitions alternate, and the per-layer metrics of the traced
ones are printed with the tracing overhead.  The correctness oracles
(``oracles.py``) then run in one more process, outside the timed window.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit, the
names and units of ``BENCHMARK.json``).  ``--self-check`` runs every
workload at a tiny size in both modes and checks that every metric name
of ``BENCHMARK.json`` is produced and every oracle passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import (  # noqa: E402
    HELD_OUT_SEED,
    LAYERS,
    REFERENCE_PROBE_MS,
    SIM_METRICS,
    SPEED_EXPONENT,
    WORKLOADS,
)

MIN_REPS = 3
WORKER_TIMEOUT_S = 120
#: No repetition starts after this many seconds of a run.
MAX_MEASURE_S = 120
#: Worker environment: a fixed hash seed keeps host-side set and dict
#: behaviour the same from run to run.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
#: Where runs leave their results with their environment, and traced runs
#: their span logs (one file per workload).
OUTPUT_DIR = ROOT / ".perfbench"
SELF_CHECK_REQUESTS = 200


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, *extra: str) -> dict:
    """Run one worker process to completion; returns its JSON report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, *extra,
    ]
    done = subprocess.run(
        command,
        cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise WorkerError(
            f"{mode} worker for {workload} exited {done.returncode}:\n"
            + done.stderr[-2000:]
        )
    return json.loads(done.stdout.splitlines()[-1])


def _warm_bytecode() -> None:
    """Import the package once so every timed process finds compiled
    bytecode, as an installed package would have."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); import repro.serving.array_engine"],
        cwd=ROOT, env=WORKER_ENV, check=True, timeout=WORKER_TIMEOUT_S,
    )


def _source_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> "str | None":
    """HEAD of the repository at ROOT, if ROOT is a git work tree's top."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha1": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "load_avg_1m": os.getloadavg()[0],
    }


def _median(reports: list, key) -> float:
    return statistics.median(key(report) for report in reports)


def _trimmed_mean(values) -> float:
    """The mean without the highest and the lowest value (once there are
    five or more): one repetition that a stall hit cannot move it far."""
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return statistics.fmean(values)


def _at_reference_speed(seconds: float, probes_ms: list) -> float:
    """``seconds`` as they would read at the reference CPU speed: scaled by
    the CPU-speed probes taken just before and just after them."""
    speed = REFERENCE_PROBE_MS / statistics.fmean(probes_ms)
    return seconds * speed**SPEED_EXPONENT


def _setup_s(report: dict) -> float:
    return _at_reference_speed(report["setup_s"], report["probes_ms"][:2])


def _wall_s(report: dict) -> float:
    return _at_reference_speed(report["wall_s"], report["probes_ms"][1:])


def _cpu_s(report: dict) -> float:
    return _at_reference_speed(report["cpu_s"], report["probes_ms"][1:])


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """How many repetitions a run of ``seconds`` makes.

    The count depends on the run length and the workload only, so both
    sides of a comparison take their statistics over the same number of
    draws however fast the program is.  A traced repetition is a traced
    and an untraced process, so a traced run makes half as many.
    """
    nominal_s = WORKLOADS[workload]["rep_s"] * (2 if trace else 1)
    return max(MIN_REPS, int(seconds / nominal_s))


def measure(
    workload: str,
    seed: int,
    reps: int,
    trace: bool,
    requests: "int | None" = None,
) -> tuple[dict, dict, list[str]]:
    """Run the repetitions and the oracles of one benchmark run.

    Returns ``(metrics, summary, problems)``: metric name -> value; the
    oracle verdicts, request counts and per-repetition figures; and every
    correctness problem found.
    """
    extra = [] if requests is None else ["--requests", str(requests)]
    timed: list[dict] = []
    traced: list[dict] = []
    OUTPUT_DIR.mkdir(exist_ok=True)
    spans = ["--spans", str(OUTPUT_DIR / f"spans-{workload}.csv")]
    began = perf_counter()

    def traced_rep() -> None:
        # The first traced repetition leaves its span log behind.
        traced.append(
            _worker(workload, seed, "traced", *extra, *([] if traced else spans))
        )

    for rep in range(reps):
        if perf_counter() - began > MAX_MEASURE_S:
            # Only a program several times slower than the reference gets
            # here; stopping early keeps the run within its time limit.
            print(f"stopped after {rep} of {reps} repetitions: "
                  f"{MAX_MEASURE_S} s passed")
            break
        # In traced runs, alternate which side of each pair runs first.
        traced_first = trace and rep % 2 == 0
        if traced_first:
            traced_rep()
        timed.append(_worker(workload, seed, "timed", *extra))
        if trace and not traced_first:
            traced_rep()
    verdicts = _worker(workload, seed, "oracle", *extra)

    reports = timed + traced
    problems = [
        f"oracle {name}: {verdict['detail']}"
        for name, verdict in verdicts.items()
        if not verdict["passed"]
    ]
    for report in reports:
        if report["completed"] != report["offered"]:
            problems.append(
                f"{report['offered'] - report['completed']} requests not completed"
            )
        if report["violation_count"]:
            problems.append(f"replay of the timed run: {report['violations']}")
    if any(report["sim"] != reports[0]["sim"] for report in reports):
        problems.append("simulated metrics differ between repetitions of one seed")

    cpu_share = _median(timed, lambda report: report["cpu_s"] / report["wall_s"])
    if trace:
        metrics = {
            name: _median(traced, lambda report: report["layers"][name])
            for name in traced[0]["layers"]
        }
        metrics["host.cpu_share"] = cpu_share
        metrics["host.probe_ms"] = _median(
            timed, lambda report: statistics.fmean(report["probes_ms"])
        )
        metrics["host.trace_overhead_s"] = _median(
            traced, lambda report: report["wall_s"]
        ) - _median(timed, lambda report: report["wall_s"])
    else:
        # Host times are trimmed means over the fixed number of repetitions,
        # each scaled to the reference CPU speed by the probes around it.
        # On a shared host the CPU alternates, from one second to the next
        # and in longer spells, between an uncontended and a contended speed
        # 1.4-1.8x apart (with cpu_s == wall_s); unscaled, any statistic
        # moves with the share of contended time in a run.  Edge probes
        # estimate a window's speed with an error of either sign, which a
        # mean averages out better than a median.
        wall_s = _trimmed_mean(map(_wall_s, timed))
        metrics = {
            "setup_s": _trimmed_mean(map(_setup_s, timed)),
            "wall_s": wall_s,
            "cpu_s": _trimmed_mean(map(_cpu_s, timed)),
            "requests_per_s": timed[0]["completed"] / wall_s,
            "peak_rss_mb": _median(timed, lambda report: report["peak_rss_mb"]),
        }
        metrics.update((name, reports[0]["sim"][name]) for name in SIM_METRICS)
    attempted = sum(report["offered"] for report in reports)
    failed = (
        attempted
        if problems
        else sum(report["offered"] - report["completed"] for report in reports)
    )
    if not trace:
        metrics["completed_share"] = 1.0 - failed / attempted
    summary = {
        "verdicts": verdicts,
        "attempted": attempted,
        "failed": failed,
        "host.cpu_share": cpu_share,
        "setup_s": [report["setup_s"] for report in timed],
        "wall_s": [report["wall_s"] for report in timed],
        "traced_wall_s": [report["wall_s"] for report in traced],
        "probe_ms": [
            statistics.fmean(report["probes_ms"]) for report in timed
        ],
        "raw_median_wall_s": _median(timed, lambda report: report["wall_s"]),
        "raw_median_setup_s": _median(timed, lambda report: report["setup_s"]),
    }
    return metrics, summary, problems


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(bench: dict) -> dict:
    return {
        metric["name"]: metric["unit"]
        for key in ("end_to_end", "per_layer")
        for metric in bench[key]
    }


def run(args) -> int:
    units = _units(_benchmark())
    env = environment(args.seed)
    _warm_bytecode()
    reps = repetitions(args.workload, args.seconds, bool(args.trace))
    metrics, summary, problems = measure(
        args.workload, args.seed, reps, bool(args.trace)
    )
    for name, verdict in summary["verdicts"].items():
        status = "pass" if verdict["passed"] else "FAIL"
        print(f"oracle {name:<16} {status} ({verdict['requests']} requests)")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"requests offered {summary['attempted']}, failed_share "
          f"{summary['failed'] / summary['attempted']:g}")
    for label in ("setup_s", "wall_s", "traced_wall_s", "probe_ms"):
        if summary[label]:
            print(f"{label} per repetition: "
                  + " ".join(f"{value:.3f}" for value in summary[label]))
    for name, value in metrics.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    env["workload"] = args.workload
    env["trace"] = args.trace
    env["host.cpu_share"] = summary["host.cpu_share"]
    env["host.probe_ms"] = statistics.median(summary["probe_ms"])
    env["reference_probe_ms"] = REFERENCE_PROBE_MS
    env["raw_median_setup_s"] = summary["raw_median_setup_s"]
    env["raw_median_wall_s"] = summary["raw_median_wall_s"]
    # The environment is kept with the result: on the line before it, and
    # in a file holding both.
    record = OUTPUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "result": result}, indent=1))
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Every workload, tiny, both modes: all names produced, all oracles pass."""
    bench = _benchmark()
    expected = {
        False: [metric["name"] for metric in bench["end_to_end"]],
        True: [metric["name"] for metric in bench["per_layer"]],
    }
    oracles = {"replay", "engines_evented", "engines_timed"}
    failures = []
    if not {workload["name"] for workload in bench["workloads"]} <= set(WORKLOADS):
        failures.append("BENCHMARK.json names a workload spec.WORKLOADS lacks")
    mapped = [name for layer in LAYERS.values() for name in layer["metrics"]]
    if mapped != expected[True]:
        failures.append("spec.LAYERS metrics differ from BENCHMARK.json per_layer")
    for workload in WORKLOADS:
        for trace in (False, True):
            metrics, summary, problems = measure(
                workload, HELD_OUT_SEED, 1, trace, requests=SELF_CHECK_REQUESTS
            )
            label = f"{workload} trace={int(trace)}"
            if sorted(metrics) != sorted(expected[trace]):
                missing = sorted(set(expected[trace]) - set(metrics))
                extra = sorted(set(metrics) - set(expected[trace]))
                failures.append(f"{label}: missing {missing}, unexpected {extra}")
            if set(summary["verdicts"]) != oracles:
                failures.append(f"{label}: oracles ran {sorted(summary['verdicts'])}")
            failures.extend(f"{label}: {problem}" for problem in problems)
            print(f"self-check {label}: {len(metrics)} metrics, "
                  f"{len(summary['verdicts'])} oracles, {len(problems)} problems")
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def _terminate(signum, frame) -> None:
    # SystemExit unwinds through subprocess.run, which kills the worker.
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except (WorkerError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
