"""Correctness oracles, run outside the timed window.

Each runs a capped prefix of the workload (the same seed, so the same
first requests) in the workload's exact configuration:

``replay``
    The array engine with the event log recorded must replay with zero
    invariant violations (``check_invariants``; ``validate_invariants``
    for clusters).
``engines_evented``
    With events recorded the array engine mirrors the object engine (the
    reference) operation for operation: the metrics JSON must be
    byte-identical.  On the pooled-only streamed path, where means are
    pooled columnar, pooled metrics must agree within 1e-9.
``engines_timed``
    The array engine as timed (no event log, so its closed-form fast
    paths run) must agree with the reference within 1e-9 on every
    number, the agreement those fast paths promise.
"""

from __future__ import annotations

import json
import math

from spec import WORKLOADS
from workloads import MODEL, prepare, serve

#: Relative tolerance of the fast-path and pooled-only comparisons.
TOLERANCE = 1e-9


def _mismatches(reference, candidate, path: str = "") -> list[str]:
    """Every place two metrics dicts differ by more than ``TOLERANCE``."""
    if isinstance(reference, dict) and isinstance(candidate, dict):
        if reference.keys() != candidate.keys():
            return [f"{path or 'metrics'}: keys differ"]
        return [
            mismatch
            for key in reference
            for mismatch in _mismatches(
                reference[key], candidate[key], f"{path}.{key}"
            )
        ]
    if isinstance(reference, list) and isinstance(candidate, list):
        if len(reference) != len(candidate):
            return [f"{path}: lengths differ"]
        return [
            mismatch
            for index, (left, right) in enumerate(zip(reference, candidate))
            for mismatch in _mismatches(left, right, f"{path}[{index}]")
        ]
    if isinstance(reference, float) and isinstance(candidate, float):
        if math.isclose(reference, candidate, rel_tol=TOLERANCE, abs_tol=0.0):
            return []
    elif reference == candidate:
        return []
    return [f"{path}: {reference!r} != {candidate!r}"]


def _verdict(mismatches: list, requests: int) -> dict:
    return {"passed": not mismatches, "requests": requests, "detail": mismatches[:5]}


def _replay(prepared, served) -> list[str]:
    from repro.serving import check_invariants

    if prepared.cluster is not None:
        violations, events = served.violations, served.events
    else:
        simulator = prepared.simulator
        violations = check_invariants(
            prepared.run.events,
            served.trace,
            page_tokens=simulator.page_tokens,
            admission=simulator.admission,
            default_model=MODEL,
        )
        events = len(prepared.run.events)
    return violations if events else ["the run recorded no events to replay"]


def run_oracles(name: str, seed: int, requests: "int | None" = None) -> dict:
    config = WORKLOADS[name]
    size = config["oracle_requests"] if requests is None else requests

    def metrics(engine: str, record_events: bool) -> dict:
        prepared = prepare(
            name, seed, requests=size, engine=engine, record_events=record_events
        )
        return serve(prepared).metrics.to_dict()

    # The cluster's pooled KV peak depends on whether events were recorded
    # (without them it is the summed per-replica peaks), so each array run
    # is compared with a reference run recording the same.
    reference = metrics("object", True)
    evented = prepare(name, seed, requests=size, record_events=True)
    served = serve(evented, keep_trace=True)
    evented_dict = served.metrics.to_dict()
    if config.get("stream"):
        evented_mismatches = _mismatches(reference, evented_dict)
    else:
        evented_mismatches = (
            []
            if json.dumps(reference, sort_keys=True)
            == json.dumps(evented_dict, sort_keys=True)
            else ["metrics JSON differs"] + _mismatches(reference, evented_dict)
        )
    if config.get("record_events", False):
        timed_mismatches = evented_mismatches
    else:
        timed_mismatches = _mismatches(
            metrics("object", False), metrics("array", False)
        )
    return {
        "replay": _verdict(_replay(evented, served), size),
        "engines_evented": _verdict(evented_mismatches, size),
        "engines_timed": _verdict(timed_mismatches, size),
    }
