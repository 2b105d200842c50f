"""Decode runs of the array engine, pinned case by case to the object engine.

``ArraySimulationRun._decode_run`` iterates a fixed all-decode batch pass
by pass wherever macro-stepping stands down.  Every case records events
(which keeps macro-stepping off), serves one trace on both engines and
asserts byte-identical event logs and metrics JSON plus a clean invariant
replay.  A spy on the decode run then checks that the boundary the case
is named after really happened inside a run, so no case passes
vacuously.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.models import get_model
from repro.serving import (
    Request,
    ServingSimulator,
    check_invariants,
    decode_kv_bounds,
    get_trace_generator,
)
from repro.serving.array_engine import ArraySimulationRun

from test_serving_invariants import MODEL, LinearCostModel

PAGE_TOKENS = 16
PAGE_BYTES = PAGE_TOKENS * MODEL.num_blocks * MODEL.kv_bytes_per_token_per_block


@pytest.fixture
def runs(monkeypatch):
    """One record per ``_decode_run`` call: what it returned, the passes it
    served, the rows it completed, the prefilling rows it saw and the
    events it appended."""
    calls: list = []
    original = ArraySimulationRun._decode_run

    def spy(self, until):
        passes, active = self.decode_passes, len(self.active)
        prefilling, reserved = self._num_prefilling, self.kv.reserved_pages
        logged = len(self.events)
        result = original(self, until)
        calls.append(
            SimpleNamespace(
                result=result,
                passes=self.decode_passes - passes,
                completed=active - len(self.active),
                prefilling=prefilling,
                reserved=reserved,
                steps=[e for e in self.events[logged:] if e.kind == "step"],
                until=until,
                clock=self.clock,
            )
        )
        return result

    monkeypatch.setattr(ArraySimulationRun, "_decode_run", spy)
    return calls


def _pinned(trace, **kwargs):
    """Serve ``trace`` on both engines with events; assert byte-identical
    logs and metrics and a clean replay; return the array simulator."""
    logs = {}
    for engine in ("object", "array"):
        simulator = ServingSimulator(
            LinearCostModel(), MODEL, engine=engine, page_tokens=PAGE_TOKENS,
            **kwargs,
        )
        metrics = simulator.simulate(trace, record_events=True)
        logs[engine] = (
            simulator.events, json.dumps(metrics.to_dict(), sort_keys=True)
        )
    assert logs["array"] == logs["object"]
    assert check_invariants(
        simulator.events, trace, page_tokens=PAGE_TOKENS,
        admission=kwargs.get("admission", "worst-case"),
        default_model=MODEL.name,
    ) == []
    return simulator


def _served(runs) -> int:
    return sum(call.passes for call in runs)


def _granted(call) -> int:
    """Pages a run granted before its last pass (its completions come
    after that pass's event)."""
    return call.steps[-1].kv_reserved_pages - call.reserved if call.steps else 0


class TestDecodeRunBoundaries:
    def test_two_rows_completing_on_the_same_pass(self, runs):
        trace = (Request(0, 0.0, 40, 20), Request(1, 0.0, 40, 20))
        simulator = _pinned(trace, policy="interleaved", max_batch=4)
        assert [call.completed for call in runs if call.completed] == [2]
        completes = [e for e in simulator.events if e.kind == "complete"]
        assert completes[0].clock_s == completes[1].clock_s

    @pytest.mark.parametrize(
        "swap", (False, True), ids=("held-column", "accountant")
    )
    def test_page_grant_that_fits(self, runs, swap):
        # 30 prompt tokens hold 2 pages; decoding to 69 tokens crosses
        # three page boundaries, each granted inside the one run.
        trace = (Request(0, 0.0, 30, 40),)
        _pinned(trace, policy="interleaved", admission="optimistic", swap=swap)
        assert [_granted(call) for call in runs if call.passes] == [3]
        assert runs[-1].completed == 1

    @pytest.mark.parametrize("swap", (False, True), ids=("preempt", "swap"))
    def test_grant_that_does_not_fit_falls_back(self, runs, swap):
        # Two requests grow toward 6 pages each in an 8-page pool: the run
        # stops before the grant that no longer fits and _step evicts.
        trace = (Request(0, 0.0, 30, 60), Request(1, 0.0, 30, 60))
        simulator = _pinned(
            trace, policy="interleaved", admission="optimistic", swap=swap,
            kv_budget=8 * PAGE_BYTES,
        )
        kind = "swap_out" if swap else "preempt"
        evictions = [e for e in simulator.events if e.kind == kind]
        assert evictions
        cut = [call for call in runs if not call.result and call.passes]
        assert cut and cut[0].clock <= evictions[0].clock_s

    def test_run_cut_by_advance_until(self, runs):
        trace = get_trace_generator("chatbot").generate(24, 40.0, seed=4)
        def simulator():
            return ServingSimulator(
                LinearCostModel(), MODEL, engine="array", policy="interleaved",
                max_batch=4, page_tokens=PAGE_TOKENS,
            )

        reference = simulator()
        expected = reference.simulate(trace, record_events=True)
        run = simulator().begin(
            record_events=True, kv_bounds=decode_kv_bounds(trace)
        )
        horizon = trace[-1].arrival_s
        cuts = [horizon * i / 40 for i in range(1, 41)]
        offered = 0
        for until in cuts:
            while offered < len(trace) and trace[offered].arrival_s <= until:
                run.offer(trace[offered])
                offered += 1
            run.advance_until(until)
        run.offer_many(trace[offered:])
        metrics = run.finish()
        assert run.events == reference.events
        assert metrics.to_dict() == expected.to_dict()
        assert any(
            call.until is not None and call.passes and call.result
            and not call.completed and call.clock >= call.until
            for call in runs
        )

    def test_srpt_within_the_cap_is_accepted(self, runs):
        trace = get_trace_generator("chatbot").generate(30, 30.0, seed=2)
        _pinned(trace, policy="srpt", max_batch=4)
        assert _served(runs) > 0
        # srpt reorders the batch: some run's decode ids leave arrival order.
        assert any(
            list(call.steps[0].decode_ids) != sorted(call.steps[0].decode_ids)
            for call in runs if call.steps
        )

    def test_srpt_over_the_cap_is_refused(self):
        simulator = ServingSimulator(
            LinearCostModel(), MODEL, engine="array", policy="srpt", max_batch=4
        )
        trace = tuple(Request(i, 0.0, 20 + i, 30 - i) for i in range(3))
        run = simulator.begin(
            record_events=True, kv_bounds=decode_kv_bounds(trace)
        )
        run.offer_many(trace)
        until = 0.0
        while run._num_prefilling or len(run.active) < 3:
            until += 1e-4
            run.advance_until(until)
        # Admission caps the batch, so only a lowered cap can leave more
        # decodable rows than it: the run must then leave the pass to _step.
        run._policy_cap = 2
        clock, passes, logged = run.clock, run.decode_passes, len(run.events)
        assert run._decode_run(None) is False
        assert (run.clock, run.decode_passes, len(run.events)) == (
            clock, passes, logged
        )
        run._policy_cap = 4
        assert run._decode_run(None) is True
        assert run.decode_passes > passes

    def test_priority(self, runs):
        trace = get_trace_generator("chatbot").generate(
            30, 30.0, seed=6, num_classes=3
        )
        _pinned(trace, policy="priority", max_batch=4)
        assert _served(runs) > 0
        # Class order, not arrival order, inside some run's batch.
        assert any(
            list(call.steps[0].decode_ids) != sorted(call.steps[0].decode_ids)
            for call in runs if call.steps
        )

    def test_worst_case_admission(self, runs):
        trace = get_trace_generator("chatbot").generate(30, 30.0, seed=8)
        _pinned(
            trace, policy="interleaved", max_batch=4, kv_budget=160 * PAGE_BYTES
        )
        assert _served(runs) > 0
        assert all(_granted(call) == 0 for call in runs)

    def test_non_exact_optimistic_admission(self, runs):
        # The integer pool with the _held column: grants inside runs, and
        # preemptions once the pool is tight.
        trace = get_trace_generator("chatbot").generate(30, 30.0, seed=8)
        simulator = _pinned(
            trace, policy="interleaved", max_batch=4, admission="optimistic",
            kv_budget=64 * PAGE_BYTES,
        )
        assert not simulator.last_run._exact_kv
        assert any(_granted(call) > 0 for call in runs)
        assert any(e.kind == "preempt" for e in simulator.events)

    def test_multi_model_with_a_non_resident_row_prefilling(self, runs):
        # gemma-1b arrives while gpt2-m decodes: its row waits, prefill
        # pending, outside the resident model's batch, which keeps running.
        gemma = get_model("gemma-1b")
        trace = (
            Request(0, 0.0, 30, 80),
            Request(1, 0.001, 30, 20, model=gemma.name),
        )
        _pinned(trace, policy="interleaved", models=(MODEL, gemma))
        assert any(call.prefilling and call.passes for call in runs)
