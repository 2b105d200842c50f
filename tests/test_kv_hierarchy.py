"""KV page hierarchy tests: refcounted prefix sharing + host-DRAM swap.

Three layers of evidence for PR 9's accountant extension:

* a hypothesis property suite drives random interleavings of
  reserve/share/grow/swap-out/swap-in/preempt/release/adopt/release-all
  against a transparent page model re-derived from first principles — the
  accountant's books must match after every single operation, its O(1)
  counters must equal the per-request holdings re-summed, refcounts
  never go negative, and draining everything always returns the pool to
  exactly zero reserved pages (a second suite holds the replay ledger's
  running total to the same re-sum);
* tampered-ledger oracles prove the *checker* catches forged shares and
  deleted swap events (an oracle nobody has tested is not an oracle);
* engine and trace pins: a ``prefix_share=0`` trace is identical to one
  generated without prefix arguments, the array engine's
  exact-accounting mode reproduces the object engine event-for-event
  under sharing and swap, and the vectorized burst bisect reproduces
  the object engine's per-request rows.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.costmodel import PassCost, make_cost_model
from repro.energy.model import EnergyBreakdown
from repro.models import GPT2_CONFIGS
from repro.models.workload import Stage
from repro.serving import (
    KvPageAccountant,
    Request,
    ServingSimulator,
    check_invariants,
    get_trace_generator,
)
from repro.serving.validate import _Ledger

MODEL = GPT2_CONFIGS["m"]

#: prefix_id -> prefix length in tokens (13 leaves a partial last page).
PREFIX_TOKENS = {0: 8, 1: 13}


class TinyCostModel:
    """Affine synthetic backend (no ``config``: fixed-budget KV fallback)."""

    name = "tiny-stub"

    def pass_cost(self, model, stage_pass) -> PassCost:
        if stage_pass.stage is Stage.SUMMARIZATION:
            latency = 400e-6 + 4e-6 * stage_pass.num_tokens
        else:
            latency = 150e-6 + 1e-7 * stage_pass.kv_length
        return PassCost(
            latency_s=latency,
            breakdown={"stub": latency},
            energy=EnergyBreakdown(
                normal_memory_j=latency * 0.5, pim_op_j=0.0, npu_cores_j=0.0
            ),
            flops=1e6 * max(stage_pass.num_tokens, 1),
        )

    def cache_stats(self) -> dict:
        return {}


# ----------------------------------------------------------------------
# Property suite: the accountant vs a transparent model
# ----------------------------------------------------------------------
class _PageModel:
    """First-principles mirror of what the accountant *should* hold."""

    def __init__(self, page_tokens: int) -> None:
        self.page_tokens = page_tokens
        #: rid -> [tokens, prefix_id, swapped]
        self.members: dict[int, list] = {}

    def pages_for(self, tokens: int) -> int:
        return -(-tokens // self.page_tokens)

    def shared(self, prefix_id: int) -> int:
        if prefix_id < 0:
            return 0
        return PREFIX_TOKENS[prefix_id] // self.page_tokens

    def private(self, rid: int) -> int:
        tokens, prefix_id, _ = self.members[rid]
        return self.pages_for(tokens) - self.shared(prefix_id)

    def refcount(self, prefix_id: int) -> int:
        return sum(1 for _, pid, _ in self.members.values() if pid == prefix_id)

    def reserved(self) -> int:
        resident = sum(
            self.private(rid)
            for rid, (_, _, swapped) in self.members.items()
            if not swapped
        )
        groups = sum(
            self.shared(pid)
            for pid in PREFIX_TOKENS
            if self.refcount(pid) > 0
        )
        return resident + groups

    def swapped_pages(self) -> int:
        return sum(
            self.private(rid)
            for rid, (_, _, swapped) in self.members.items()
            if swapped
        )


def _check_counters(accountant: KvPageAccountant, request_ids) -> None:
    """The O(1) counters equal the per-request holdings re-summed.

    ``request_ids`` must cover every id ever reserved or adopted, so a
    holding leaked into the books is summed (and caught) too.
    """
    resident = sum(accountant.held_pages(rid) for rid in request_ids)
    shared = sum(
        accountant.resident_prefix_pages(pid) for pid in PREFIX_TOKENS
    )
    swapped = sum(
        accountant.request_swapped_pages(rid) for rid in request_ids
    )
    assert accountant.reserved_pages == resident + shared
    assert accountant.swapped_pages == swapped
    assert accountant.free_pages == accountant.total_pages - resident - shared
    assert accountant.peak_reserved_pages >= accountant.reserved_pages


def _check_books(accountant: KvPageAccountant, model: _PageModel) -> None:
    assert accountant.reserved_pages == model.reserved()
    assert accountant.swapped_pages == model.swapped_pages()
    assert accountant.free_pages == accountant.total_pages - model.reserved()
    assert accountant.free_pages >= 0
    for prefix_id in PREFIX_TOKENS:
        refcount = model.refcount(prefix_id)
        assert refcount >= 0
        assert accountant.prefix_refcount(prefix_id) == refcount
        expected = model.shared(prefix_id) if refcount > 0 else 0
        assert accountant.resident_prefix_pages(prefix_id) == expected


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 2**20)),
        max_size=60,
    )
)
# A failure while a request sits in host DRAM, then an adoption and a
# failure with a shared prefix resident.
@example(ops=[(0, 0), (2, 0), (7, 0), (6, 5), (0, 4), (7, 0)])
@settings(max_examples=200, deadline=None)
def test_random_interleavings_balance_the_books(ops):
    accountant = KvPageAccountant(
        budget_bytes=30 * 4 * 64, token_bytes=64, page_tokens=4
    )
    model = _PageModel(page_tokens=4)
    next_rid = 0
    for op, value in ops:
        rids = sorted(model.members)
        if op == 0:  # reserve, possibly sharing a prefix
            tokens = 1 + value % 40
            prefix_id = value % 3 - 1
            prefix_tokens = PREFIX_TOKENS.get(prefix_id, 0)
            # A request always covers its own prefix (Request enforces
            # prefix_tokens <= input_tokens; the accountant rejects less).
            tokens = max(tokens, prefix_tokens)
            if accountant.can_reserve(tokens, prefix_id, prefix_tokens):
                before = accountant.reserved_pages
                charge = accountant.reserve(
                    next_rid, tokens, prefix_id, prefix_tokens
                )
                model.members[next_rid] = [tokens, prefix_id, False]
                assert charge == model.reserved() - before
                next_rid += 1
        elif op == 1 and rids:  # grow a resident reservation
            rid = rids[value % len(rids)]
            tokens, prefix_id, swapped = model.members[rid]
            if not swapped:
                target = tokens + 1 + value % 8
                if accountant.can_grow(rid, target):
                    need = accountant.grow_need(rid, target)
                    added = accountant.grow(rid, target)
                    assert added == max(0, need)
                    model.members[rid][0] = target
        elif op == 2 and rids:  # swap out (shared pages stay resident)
            rid = rids[value % len(rids)]
            if not model.members[rid][2]:
                freed = accountant.swap_out(rid)
                assert freed == model.private(rid)
                model.members[rid][2] = True
        elif op == 3 and rids:  # swap back in
            rid = rids[value % len(rids)]
            if model.members[rid][2] and accountant.can_swap_in(rid):
                restored = accountant.swap_in(rid)
                assert restored == model.private(rid)
                model.members[rid][2] = False
        elif op == 4 and rids:  # preempt a swapped request (host copy dies)
            swapped = [rid for rid in rids if model.members[rid][2]]
            if swapped:
                rid = swapped[value % len(swapped)]
                before = accountant.reserved_pages
                freed = accountant.release(rid)
                del model.members[rid]
                assert freed == before - model.reserved()
        elif op == 5 and rids:  # release any request
            rid = rids[value % len(rids)]
            before = accountant.reserved_pages
            freed = accountant.release(rid)
            del model.members[rid]
            assert freed == before - model.reserved()
        elif op == 6:  # take over a holding kept outside the accountant
            pages = value % (accountant.free_pages + 1)
            assert accountant.adopt(next_rid, pages) == pages
            model.members[next_rid] = [pages * model.page_tokens, -1, False]
            next_rid += 1
        elif op == 7:  # replica failure: every page and host copy dropped
            assert accountant.release_all() == model.reserved()
            model.members.clear()
        _check_books(accountant, model)
        _check_counters(accountant, range(next_rid))
    # Draining everything always returns the pool to exactly zero.
    for rid in sorted(model.members):
        accountant.release(rid)
        del model.members[rid]
        _check_books(accountant, model)
        _check_counters(accountant, range(next_rid))
    assert accountant.reserved_pages == 0
    assert accountant.swapped_pages == 0
    assert accountant.free_pages == accountant.total_pages
    for prefix_id in PREFIX_TOKENS:
        assert accountant.prefix_refcount(prefix_id) == 0


def test_shared_prefix_charges_once_and_frees_last():
    accountant = KvPageAccountant(
        budget_bytes=40 * 4 * 64, token_bytes=64, page_tokens=4
    )
    # First member pays prefix (2 pages) + private remainder.
    assert accountant.reserve(0, 16, prefix_id=7, prefix_tokens=8) == 4
    # Second member rides the resident prefix: private pages only.
    assert accountant.reserve(1, 16, prefix_id=7, prefix_tokens=8) == 2
    assert accountant.reserved_pages == 6
    assert accountant.prefix_refcount(7) == 2
    # First leaver frees only its private pages; the prefix stays.
    assert accountant.release(0) == 2
    assert accountant.resident_prefix_pages(7) == 2
    # The last member takes the shared pages down with it.
    assert accountant.release(1) == 4
    assert accountant.reserved_pages == 0
    assert accountant.prefix_refcount(7) == 0


def test_prefix_length_mismatch_rejected():
    accountant = KvPageAccountant(
        budget_bytes=40 * 4 * 64, token_bytes=64, page_tokens=4
    )
    accountant.reserve(0, 16, prefix_id=3, prefix_tokens=8)
    with pytest.raises(ValueError, match="prefix"):
        accountant.reserve(1, 16, prefix_id=3, prefix_tokens=12)


def test_swap_keeps_shared_pages_resident():
    accountant = KvPageAccountant(
        budget_bytes=40 * 4 * 64, token_bytes=64, page_tokens=4
    )
    accountant.reserve(0, 16, prefix_id=2, prefix_tokens=8)
    accountant.reserve(1, 16, prefix_id=2, prefix_tokens=8)
    # Swapping member 0 moves only its 2 private pages; the group's 2
    # shared pages stay resident (member 1 still decodes against them).
    assert accountant.swap_out(0) == 2
    assert accountant.resident_prefix_pages(2) == 2
    assert accountant.swapped_pages == 2
    assert accountant.can_swap_in(0)
    assert accountant.swap_in(0) == 2
    assert accountant.swapped_pages == 0


def test_adopt_takes_over_a_holding_and_guards_the_pool():
    accountant = KvPageAccountant(
        budget_bytes=10 * 4 * 64, token_bytes=64, page_tokens=4
    )
    assert accountant.adopt(0, 3) == 3
    assert accountant.held_pages(0) == 3
    assert accountant.reserved_pages == accountant.peak_reserved_pages == 3
    # An adopted holding grows and releases like any reservation.
    assert accountant.grow(0, 16) == 1
    with pytest.raises(ValueError, match="already holds"):
        accountant.adopt(0, 1)
    with pytest.raises(ValueError, match="over-subscription"):
        accountant.adopt(1, 7)
    assert accountant.release(0) == 4
    assert accountant.reserved_pages == 0
    assert accountant.peak_reserved_pages == 4


# ----------------------------------------------------------------------
# Property suite: the replay ledger's running total
# ----------------------------------------------------------------------
def _ledger_requests() -> "list[Request]":
    """Eight shapes: private and both prefix groups, short and long."""
    return [
        Request(
            request_id=rid,
            arrival_s=0.0,
            input_tokens=13 + 3 * rid,
            output_tokens=1 + 5 * rid,
            prefix_id=rid % 3 - 1,
            prefix_tokens=PREFIX_TOKENS.get(rid % 3 - 1, 0),
        )
        for rid in range(8)
    ]


@given(
    admission=st.sampled_from(("worst-case", "optimistic")),
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(1, 40)),
        max_size=80,
    ),
)
@settings(max_examples=200, deadline=None)
def test_ledger_reserved_matches_resum(admission, ops):
    # Any op order, legal or not: a forged log can drive the replay
    # through all of them, and the total must still be the re-sum.
    ledger = _Ledger(page_tokens=4, admission=admission)
    requests = _ledger_requests()
    for op, index, step in ops:
        request = requests[index]
        if op == 0:
            ledger.admit(request)
        elif op == 1:
            ledger.decode(request, step)
        elif op == 2:
            ledger.swap_out(request.request_id)
        elif op == 3:
            ledger.swap_in(request.request_id)
        elif op == 4:
            ledger.release(request.request_id)
        else:  # replica failure
            ledger.clear()
        assert ledger.reserved == sum(ledger.held.values()) + sum(
            pages for pages, _refcount in ledger.groups.values()
        )


# ----------------------------------------------------------------------
# Tampered-ledger oracles
# ----------------------------------------------------------------------
def _shared_swap_run():
    generator = get_trace_generator("chatbot")
    trace = generator.generate(
        24, 300.0, seed=4, prefix_share=0.6, prefix_tokens=32, prefix_groups=2
    )
    accountant = KvPageAccountant.for_backend(TinyCostModel(), MODEL)
    worst = accountant.token_bytes * max(
        w.total_tokens for w in generator.workloads
    )
    simulator = ServingSimulator(
        TinyCostModel(), MODEL, policy="interleaved", admission="optimistic",
        kv_budget=2 * worst, swap=True, link_gbps=8.0,
    )
    simulator.simulate(trace, record_events=True)
    return trace, simulator, list(simulator.events)


class TestTamperedLedgerOracles:
    @pytest.fixture(scope="class")
    def sound(self):
        trace, simulator, events = _shared_swap_run()
        assert any(e.kind == "swap_out" for e in events)
        assert any(e.kind == "swap_in" for e in events)
        assert check_invariants(
            events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        ) == []
        return trace, simulator, events

    def _replay(self, sound, events):
        trace, simulator, _ = sound
        return check_invariants(
            events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        )

    def test_forged_share_detected(self, sound):
        # A later group member claims it paid nothing for pages the
        # ledger says are private: the replayed reservation diverges.
        trace, _, events = sound
        shared_rids = {r.request_id for r in trace if r.prefix_id >= 0}
        index, admit = next(
            (i, e)
            for i, e in enumerate(events)
            if e.kind == "admit" and e.request_id in shared_rids
        )
        tampered = list(events)
        tampered[index] = dataclasses.replace(admit, tokens=0)
        assert self._replay(sound, tampered) != []

    def test_forged_refcount_detected(self, sound):
        # The opposite forgery: a sharing member reports a full worst-case
        # charge, inflating the books as if the prefix were never shared.
        trace, _, events = sound
        shared_rids = {r.request_id for r in trace if r.prefix_id >= 0}
        index, admit = next(
            (i, e)
            for i, e in enumerate(events)
            if e.kind == "admit" and e.request_id in shared_rids
        )
        tampered = list(events)
        tampered[index] = dataclasses.replace(
            admit,
            tokens=admit.tokens + 2,
            kv_reserved_pages=admit.kv_reserved_pages + 2,
        )
        assert self._replay(sound, tampered) != []

    def test_deleted_swap_out_detected(self, sound):
        _, _, events = sound
        index = next(i for i, e in enumerate(events) if e.kind == "swap_out")
        tampered = events[:index] + events[index + 1:]
        assert self._replay(sound, tampered) != []

    def test_deleted_swap_in_detected(self, sound):
        _, _, events = sound
        index = next(i for i, e in enumerate(events) if e.kind == "swap_in")
        tampered = events[:index] + events[index + 1:]
        violations = self._replay(sound, tampered)
        assert any("swapped out" in v for v in violations)


# ----------------------------------------------------------------------
# Byte-identity pins
# ----------------------------------------------------------------------
class TestByteIdentityPins:
    def test_share_zero_trace_identical_to_plain(self):
        generator = get_trace_generator("chatbot")
        plain = generator.generate(64, 8.0, seed=3)
        share_zero = generator.generate(
            64, 8.0, seed=3, prefix_share=0.0, prefix_tokens=48,
            prefix_groups=4,
        )
        assert share_zero == plain

    def test_prefix_draw_does_not_perturb_arrivals(self):
        generator = get_trace_generator("chatbot")
        plain = generator.generate(64, 8.0, seed=3)
        shared = generator.generate(
            64, 8.0, seed=3, prefix_share=0.5, prefix_tokens=48,
            prefix_groups=4,
        )
        assert [r.arrival_s for r in plain] == [r.arrival_s for r in shared]
        assert [r.input_tokens for r in plain] == [
            r.input_tokens for r in shared
        ]
        assert {r.prefix_id for r in plain} == {-1}
        assert any(r.prefix_id >= 0 for r in shared)

    @pytest.mark.parametrize("swap", (False, True))
    def test_array_engine_matches_object_engine(self, swap):
        cost_model = make_cost_model("ianus")
        model = GPT2_CONFIGS["xl"]
        trace = get_trace_generator("chatbot").generate(
            40, 6.0, seed=7, prefix_share=0.5, prefix_tokens=64,
            prefix_groups=2,
        )
        logs = {}
        for engine in ("object", "array"):
            simulator = ServingSimulator(
                cost_model, model, policy="interleaved", max_batch=8,
                kv_fraction=0.06, admission="optimistic", engine=engine,
                swap=swap, link_gbps=8.0,
            )
            metrics = simulator.simulate(trace, record_events=True)
            assert check_invariants(
                simulator.events, trace,
                page_tokens=simulator.page_tokens, admission="optimistic",
            ) == []
            logs[engine] = (simulator.events, metrics.to_dict())
        assert logs["object"][0] == logs["array"][0]
        assert logs["object"][1] == logs["array"][1]

    def test_vectorized_bisect_matches_object_engine(self):
        # The interleaved burst runner's arrival-budget cut (np.searchsorted
        # over the latency prefix sums for a lone request) is pinned
        # against the oracle: every per-request row of the array engine
        # matches the object engine's — integers and flags exactly, times
        # to the 1e-9 contract of the closed-form paths.  A cut one decode
        # step late would admit the next arrival a whole pass late.
        cost_model = make_cost_model("ianus")
        trace = get_trace_generator("chatbot").generate(300, 40.0, seed=5)
        rows = {}
        for engine in ("object", "array"):
            simulator = ServingSimulator(
                cost_model, MODEL, policy="interleaved", max_batch=4,
                engine=engine,
            )
            metrics = simulator.simulate(trace)
            rows[engine] = [m.to_dict() for m in metrics.per_request]
        assert len(rows["array"]) == len(rows["object"]) == len(trace)
        for expected, actual in zip(rows["object"], rows["array"]):
            assert expected.keys() == actual.keys()
            for key, value in expected.items():
                if isinstance(value, float):
                    assert actual[key] == pytest.approx(value, rel=1e-9), key
                else:
                    assert actual[key] == value, key
