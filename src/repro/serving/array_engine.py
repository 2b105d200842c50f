"""The vectorized serving-event core ("megatrace") behind ``engine="array"``.

:class:`ArraySimulationRun` exposes the exact surface of
:class:`~repro.serving.simulator.SimulationRun` (``offer`` /
``advance_until`` / ``finish`` / ``fail`` / ``recover`` / ``resubmit`` /
``catch_up`` / ``note_scale`` and the router-visible properties), so the
one-shot ``simulate``, the streaming ``simulate_stream`` and the whole
cluster layer run on it unchanged.  Three things make it two orders of
magnitude faster than the reference object engine:

**Columnar request state.**  Requests live as parallel columns
(arrival / prompt / output / generated / held-pages / ...) indexed by a
*row*; the queues hold row indices.  Rows are recycled through a free
list on completion, so resident state is O(outstanding requests) — a
streamed million-request day never materializes, and no per-request
Python object survives its own lifetime.

**Dense decode-cost tables.**  All decode pricing goes through a
:class:`~repro.serving.decode_table.DecodeCostTable` built once per
(model, backend, anchor grid) by the cost provider: the inner loop reads
plain Python floats out of dense lists and never touches the cost model.
Table entries are bit-identical to ``provider.decode``, so per-iteration
stepping reproduces the object engine's floating-point results *exactly*.

**Macro-stepping.**  When every active request is decoding, the batch
membership is provably stable until the next completion (admission caps
``len(active)`` at the policy's concurrency gate, so every policy's batch
is the whole active set), and the fused-batch floors provably never bind
(:attr:`~repro.serving.decode_table.DecodeCostTable.floor_free`).  The
engine then executes *k* decode iterations in O(B) arithmetic from the
table's prefix sums — clock, energy, FLOPs and KV growth all advance in
closed form — stopping exactly where the object engine's loop would have
changed behavior: the next completion, the next arrival that could be
admitted, the ``until`` horizon, the table edge, or a KV grant that no
longer fits (which falls back to one per-iteration step so preemption
runs the reference path).  Prefix-sum differences reorder float
additions, which is why macro-stepped aggregate metrics are pinned to
~1e-9 instead of bit-identical; ``record_events=True`` disables
macro-stepping, and passes then run one at a time — through decode runs
and ``_step`` — with an event log **bit-identical** to the object
engine's (the differential suite asserts exact equality).

**Decode runs.**  Wherever macro-stepping stands down (event logs,
exact accounting, model sets, tables whose fused floors can bind), a
batch whose eligible rows all decode, with the admission gate shut (a
full batch, or nothing queued or swapped), stays the same batch pass
after pass.  ``_decode_run`` picks it once and iterates it in one tight
loop: the same table entries and ``_fused_scalar`` in the same order as
``_step`` (so every float and every ``step`` event is bit-identical,
the run's events sharing one ``decode_ids`` tuple), KV pages granted
only where a row crosses a page boundary.  It stops before the pass at
which the next arrival or ``until`` is reached, after the pass that
completes a row, and before a page grant that does not fit — ``_step``
then runs the preempt/swap reference path.  On an event-logged
every-feature cluster it serves over 99% of the decode passes.

**Exact-accounting fallback.**  Shared-prefix requests (``prefix_id >=
0``) and the host-DRAM swap tier need the real reference-counted
:class:`~repro.serving.kv_memory.KvPageAccountant` — integer counters
cannot express "these pages are held once for many requests" or "these
pages are parked off-device".  The run then keeps the accountant as
``self.kv``; the closed-form fast paths (absorption, bursts,
macro-stepping) stand down and passes run one at a time, through decode
runs and a ``_step`` that mirrors the object engine operation for
operation, so event logs stay bit-identical there too.  Traces with no
sharing and no swap never pay for any of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import islice
from time import perf_counter

import numpy as np

from repro.energy.model import EnergyBreakdown
from repro.serving.request import Request, RequestMetrics
from repro.serving.simulator import (
    FcfsPolicy,
    PriorityPolicy,
    SimEvent,
    SrptPolicy,
    _RunBase,
)

__all__ = ["ArraySimulationRun"]


class _KvPool:
    """Integer-counter view of the KV page pool.

    The fast paths hold each row's pages in the ``_held`` column and keep
    no per-request dict, so they need none of
    :class:`~repro.serving.kv_memory.KvPageAccountant`'s per-request
    bookkeeping (prefix groups, swap tier, reservation checks) — only the
    pool-wide counters, kept here as plain ints that the vectorized paths
    update in bulk.  The attribute names match the accountant so metric
    finalization and the cluster's router snapshots read either
    interchangeably.
    """

    __slots__ = (
        "page_tokens",
        "total_pages",
        "budget_bytes",
        "reserved_pages",
        "peak_reserved_pages",
    )

    def __init__(self, page_tokens: int, total_pages: int, budget_bytes: int) -> None:
        self.page_tokens = page_tokens
        self.total_pages = total_pages
        self.budget_bytes = budget_bytes
        self.reserved_pages = 0
        self.peak_reserved_pages = 0

    @property
    def free_pages(self) -> int:
        return self.total_pages - self.reserved_pages

    def commit(self, pages: int) -> None:
        """Reserve ``pages`` and roll the high-water mark — the single
        commit hook (every fast path used to inline this pair)."""
        self.reserved_pages += pages
        if self.reserved_pages > self.peak_reserved_pages:
            self.peak_reserved_pages = self.reserved_pages

    def note_peak(self, pages: int) -> None:
        """Roll the high-water mark for work applied in closed form (the
        absorbers complete requests without ever holding their pages)."""
        if pages > self.peak_reserved_pages:
            self.peak_reserved_pages = pages

    def resident_prefix_pages(self, prefix_id: int) -> int:
        """Interface parity with the accountant: the integer pool only
        serves runs with no sharing, where no prefix is ever resident."""
        return 0


class ArraySimulationRun(_RunBase):
    """Columnar drop-in for :class:`~repro.serving.simulator.SimulationRun`."""

    #: Master switch for the arrival-batched underload fast path.  Class
    #: level so tests (and the differential harness) can pin the exact
    #: per-arrival reference path with a subclass or instance override.
    arrival_batching = True

    def __init__(
        self,
        sim,
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> None:
        self.sim = sim
        accountant = sim._new_accountant()
        #: Exact-accounting mode: with the swap tier (or once a
        #: shared-prefix request is offered) the run keeps the real
        #: reference-counting accountant and the vectorized fast paths
        #: stand down — the per-iteration loop then mirrors the object
        #: engine operation for operation (see the module docstring).
        self._exact_kv = bool(sim.swap)
        if self._exact_kv:
            self.kv = accountant
        else:
            self.kv = _KvPool(
                page_tokens=accountant.page_tokens,
                total_pages=accountant.total_pages,
                budget_bytes=accountant.budget_bytes,
            )
        self.events: "list[SimEvent] | None" = [] if record_events else None
        if kv_bounds is not None:
            for provider in sim.providers.values():
                provider.prepare(*kv_bounds)

        # Decode-cost table (dense lists + prefix sums); absent under
        # exact pricing or unknown KV bounds, in which case every decode
        # is priced through the provider (correct, per-iteration only).
        self._tbl_lo, self._tbl_hi = 1, 0
        self._lat = None
        self._lat_max = 0.0
        self._floor_free = False
        self._base: "tuple | None" = None
        self._np_prefix: "list | None" = None
        # Prefix-sum columns; absent on table-less runs (the absorbers
        # only index them for decode segments, which a table-less run
        # never prices in closed form — the ``plat is None`` guards).
        self._plat = self._pem = self._pep = self._pen = self._pfl = None
        if not sim.provider.exact and kv_bounds is not None:
            self._install_table(sim.provider.decode_table(*kv_bounds))

        # Request columns, indexed by row.  Rows recycle via _free.
        self._arr: list = []
        self._inp: list = []
        self._out: list = []
        self._cls: list = []
        self._rid: list = []
        self._prefilled: list = []
        self._generated: list = []
        self._first: list = []
        self._held: list = []
        self._pfx: list = []
        self._pft: list = []
        self._mdl: list = []
        self._free: list = []
        # Typed shadows of the immutable-per-row columns (arrival, prompt,
        # output).  They expose the buffer protocol, so the arrival
        # absorber reads a whole pending window through one zero-copy
        # ``np.frombuffer`` + fancy index instead of a Python loop.
        self._arr_t = array("d")
        self._inp_t = array("q")
        self._out_t = array("q")

        self.pending: "deque[int]" = deque()
        # A deque, not a list: under backlog (the regime megatrace
        # targets) arrival-order admission pops the head of a queue that
        # can hold most of the trace, and list.pop(0) there is O(n) per
        # admission — quadratic overall.
        self.waiting: "deque[int]" = deque()
        self.active: "list[int]" = []
        #: Swapped-out rows, oldest first; their private KV pages live in
        #: host DRAM and their progress survives until swap-in.
        self.swapped: "list[int]" = []
        #: Active rows still prefilling (generated == 0), maintained
        #: incrementally so the macro-eligibility test is O(1).
        self._num_prefilling = 0

        self._detail = sim.per_request_detail
        self.completed: list[RequestMetrics] = []
        # Pooled-only completion columns (no-detail mode): compact typed
        # arrays, converted to numpy once at finalization.
        self._done_arrival = array("d")
        self._done_first = array("d")
        self._done_completion = array("d")
        self._done_out = array("q")
        self._done_cls = array("q") if sim.slo_targets is not None else None
        # Pooled model indices (multi-model runs with SLO targets only):
        # feeds the per-(model, class) attainment table at finalization.
        self._done_mdl = (
            array("q")
            if sim.multi_model and sim.slo_targets is not None
            else None
        )
        # Bound append methods: _record_completion runs once per request.
        self._push_done = (
            self._done_arrival.append,
            self._done_first.append,
            self._done_completion.append,
            self._done_out.append,
            None if self._done_cls is None else self._done_cls.append,
        )

        self.clock = 0.0
        self.busy = 0.0
        self._energy_mem = 0.0
        self._energy_pim = 0.0
        self._energy_npu = 0.0
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
        self._outstanding = 0
        self.first_arrival: "float | None" = None
        self.finished = False
        self.dead = False
        self._last_until: "float | None" = None
        self.phase_s: dict[str, float] = {
            "admit": 0.0,
            "prefill": 0.0,
            "decode": 0.0,
            "absorb": 0.0,
            "metrics": 0.0,
        }
        self._step_kind = "decode"
        #: Decode passes by the engine path that served them, filled only
        #: when ``sim.profile`` is set (the counts sum to ``decode_passes``).
        self.path_passes: dict[str, int] = {
            "absorb": 0,
            "macro": 0,
            "run": 0,
            "step": 0,
        }

        policy = sim.policy
        self._ptype = type(policy)
        self._arrival_order = self._ptype is not SrptPolicy and (
            self._ptype is not PriorityPolicy
        )
        self._policy_cap = (
            1 if isinstance(policy, FcfsPolicy) else policy.max_batch
        )
        # Per-class admission reservations (tenant isolation); None keeps
        # the legacy admission order bit for bit.
        self._shares = (
            policy._reservations if self._ptype is PriorityPolicy else None
        )
        self._page_tokens = self.kv.page_tokens
        self._is_decoder = sim.model.is_decoder
        self._optimistic = sim.admission == "optimistic"
        self._batch_share = sim.batch_share
        # True when _step may take the monolithic-prefill shortcut: the
        # conditions are all fixed for the lifetime of the run.
        self._mono_fast = (
            sim.chunk_tokens == 0
            and self.events is None
            and self._arrival_order
            and not sim.multi_model
        )
        self._chunk_costs: dict = {}
        # Multi-model residency: the per-iteration loop restricts each
        # pass to the resident model's rows and pays a weight swap when
        # the active model changes (the row twin of the object engine's
        # sticky-resident scheduling).  The decode table prices the
        # default model only, so a non-default resident stands the table
        # down and prices through its own provider; the base and
        # chunk-cost caches swap with the weights.
        self._multi = sim.multi_model
        self.resident_model = sim.model.name
        self._provider = sim.provider
        self.model_swaps = 0
        self.model_swap_s = 0.0
        if self._multi:
            self._tbl_bounds = (self._tbl_lo, self._tbl_hi)
            self._bases: dict = (
                {} if self._base is None else {sim.model.name: self._base}
            )
            self._chunks_by_model = {sim.model.name: self._chunk_costs}
            self._model_names = sim._model_names
            self._model_pos = {
                name: position
                for position, name in enumerate(self._model_names)
            }
        # Arrival-batched absorption gates (fixed for the run's lifetime).
        # _absorb_ok: whole idle-device arrival windows may be served in
        # closed form.  Requires monolithic prefill and no event log; a
        # table is only needed for decode runs, so table-less runs (e.g.
        # summarization, where every request decodes zero tokens past the
        # prefill) still qualify — coverage masking excludes any request
        # the table cannot price.  A non-floor-free table is excluded:
        # isolated requests never hit a floor, but the per-arrival
        # reference path would run per-iteration there and absorption
        # must not change which path produced the numbers.
        self._absorb_ok = (
            self.arrival_batching
            and self.events is None
            and sim.chunk_tokens == 0
            and not self._exact_kv
            and not sim.multi_model
            and (self._floor_free or self._lat is None)
        )
        # _fcfs_absorb: concurrency-1 arrival-order service is a Lindley
        # recursion — queued arrivals absorb too, no isolation test.
        self._fcfs_absorb = (
            self._absorb_ok and self._arrival_order and self._policy_cap == 1
        )
        # _burst_ok: clumps of overlapping arrivals run through the
        # scalar burst runner (a specialization of the generic loop),
        # valid under arrival-order admission with worst-case KV grants
        # and a floor-free table.
        self._burst_ok = (
            self._absorb_ok
            and self._floor_free
            and self._arrival_order
            and not self._optimistic
            and self._policy_cap > 1
        )

    # ------------------------------------------------------------------
    def _install_table(self, table) -> None:
        self._tbl_lo, self._tbl_hi = table.kv_lo, table.kv_hi
        (self._lat, self._em, self._ep, self._en, self._fl) = table.columns()
        (
            self._plat,
            self._pem,
            self._pep,
            self._pen,
            self._pfl,
        ) = table.prefix_sums()
        # Numpy twins of the prefix sums (same floats: prefix_sums() is a
        # tolist() of exactly this cumsum) for the vectorized arrival
        # absorber, which prices whole windows of decode runs at once.
        self._np_prefix = []
        for column in (
            table.latency,
            table.energy_memory,
            table.energy_pim,
            table.energy_npu,
            table.flops,
        ):
            prefix = np.empty(len(column) + 1, dtype=np.float64)
            prefix[0] = 0.0
            np.cumsum(column, out=prefix[1:])
            self._np_prefix.append(prefix)
        self._floor_free = table.floor_free
        self._base = table.base
        # Largest single-iteration latency on the table: a per-step cost
        # can never exceed batch * max - shared, so macro budget caps that
        # provably cannot bind are dismissed with one multiply.
        self._lat_max = max(self._lat)

    def _base_cost(self) -> tuple:
        if self._base is None:
            cost = self._provider.base()
            self._base = (
                cost.latency_s,
                cost.energy.normal_memory_j,
                cost.energy.pim_op_j,
                cost.energy.npu_cores_j,
                cost.flops,
            )
            if self._multi:
                self._bases[self.resident_model] = self._base
        return self._base

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def _new_row(self, request: Request) -> int:
        if self._free:
            row = self._free.pop()
            self._arr[row] = request.arrival_s
            self._inp[row] = request.input_tokens
            self._out[row] = request.output_tokens
            self._arr_t[row] = request.arrival_s
            self._inp_t[row] = request.input_tokens
            self._out_t[row] = request.output_tokens
            self._cls[row] = request.priority_class
            self._rid[row] = request.request_id
            self._prefilled[row] = 0
            self._generated[row] = 0
            self._first[row] = 0.0
            self._held[row] = 0
            self._pfx[row] = request.prefix_id
            self._pft[row] = request.prefix_tokens
            self._mdl[row] = request.model
            return row
        row = len(self._arr)
        self._arr.append(request.arrival_s)
        self._inp.append(request.input_tokens)
        self._out.append(request.output_tokens)
        self._arr_t.append(request.arrival_s)
        self._inp_t.append(request.input_tokens)
        self._out_t.append(request.output_tokens)
        self._cls.append(request.priority_class)
        self._rid.append(request.request_id)
        self._prefilled.append(0)
        self._generated.append(0)
        self._first.append(0.0)
        self._held.append(0)
        self._pfx.append(request.prefix_id)
        self._pft.append(request.prefix_tokens)
        self._mdl.append(request.model)
        return row

    def _request(self, row: int) -> Request:
        return Request(
            request_id=self._rid[row],
            arrival_s=self._arr[row],
            input_tokens=self._inp[row],
            output_tokens=self._out[row],
            priority_class=self._cls[row],
            prefix_id=self._pfx[row],
            prefix_tokens=self._pft[row],
            model=self._mdl[row],
        )

    def _pages_for(self, tokens: int) -> int:
        return -(-tokens // self._page_tokens)

    # ------------------------------------------------------------------
    # SimulationRun surface: offers and router-visible state
    # ------------------------------------------------------------------
    def offer(self, request: Request) -> None:
        """Inject one request; offers must come in ``(arrival, id)`` order."""
        if self.finished:
            raise ValueError("cannot offer a request to a finished run")
        if self.dead:
            raise ValueError("cannot offer a request to a failed replica")
        if request.model:
            config = self.sim._config_for(request)
            if not config.is_decoder and request.output_tokens > 1:
                raise ValueError(
                    f"{config.name} is not a decoder; serving traces for it "
                    "must be summarization-only (output_tokens == 1)"
                )
        elif not self._is_decoder and request.output_tokens > 1:
            raise ValueError(
                f"{self.sim.model.name} is not a decoder; serving traces for it "
                "must be summarization-only (output_tokens == 1)"
            )
        pending = self.pending
        if pending:
            last = pending[-1]
            if (request.arrival_s, request.request_id) < (
                self._arr[last],
                self._rid[last],
            ):
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
        if request.prefix_id >= 0 and not self._exact_kv:
            self._ensure_exact_kv()
        pending.append(self._new_row(request))
        self.offered += 1
        self._outstanding += request.input_tokens + request.output_tokens
        if self.first_arrival is None:
            self.first_arrival = request.arrival_s

    def offer_many(self, requests) -> None:
        """Bulk :meth:`offer`: same guards and ordering check, hoisted out
        of the per-request loop so streaming a megatrace does not pay a
        method call and four attribute lookups per arrival."""
        if not requests:
            return
        if self.finished:
            raise ValueError("cannot offer a request to a finished run")
        if self.dead:
            raise ValueError("cannot offer a request to a failed replica")
        pending = self.pending
        if (
            isinstance(requests, (list, tuple))
            and len(requests) >= 512
            and not self._free
        ):
            self._offer_bulk(requests)
            return
        push = pending.append
        arr = self._arr
        inp = self._inp
        out = self._out
        arr_t = self._arr_t
        inp_t = self._inp_t
        out_t = self._out_t
        cls = self._cls
        rid = self._rid
        prefilled = self._prefilled
        generated = self._generated
        first = self._first
        held = self._held
        pfx = self._pfx
        pft = self._pft
        mdl = self._mdl
        free = self._free
        pop = free.pop
        is_decoder = self._is_decoder
        if pending:
            last = pending[-1]
            last_key = (arr[last], rid[last])
        else:
            last_key = None
        added = 0
        outstanding = 0
        for request in requests:
            arrival = request.arrival_s
            request_id = request.request_id
            output_tokens = request.output_tokens
            if request.model:
                config = self.sim._config_for(request)
                if not config.is_decoder and output_tokens > 1:
                    raise ValueError(
                        f"{config.name} is not a decoder; serving traces "
                        "for it must be summarization-only (output_tokens == 1)"
                    )
            elif not is_decoder and output_tokens > 1:
                raise ValueError(
                    f"{self.sim.model.name} is not a decoder; serving traces "
                    "for it must be summarization-only (output_tokens == 1)"
                )
            key = (arrival, request_id)
            if last_key is not None and key < last_key:
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
            last_key = key
            if request.prefix_id >= 0 and not self._exact_kv:
                self._ensure_exact_kv()
            input_tokens = request.input_tokens
            if free:
                row = pop()
                arr[row] = arrival
                inp[row] = input_tokens
                out[row] = output_tokens
                arr_t[row] = arrival
                inp_t[row] = input_tokens
                out_t[row] = output_tokens
                cls[row] = request.priority_class
                rid[row] = request_id
                prefilled[row] = 0
                generated[row] = 0
                first[row] = 0.0
                held[row] = 0
                pfx[row] = request.prefix_id
                pft[row] = request.prefix_tokens
                mdl[row] = request.model
            else:
                row = len(arr)
                arr.append(arrival)
                inp.append(input_tokens)
                out.append(output_tokens)
                arr_t.append(arrival)
                inp_t.append(input_tokens)
                out_t.append(output_tokens)
                cls.append(request.priority_class)
                rid.append(request_id)
                prefilled.append(0)
                generated.append(0)
                first.append(0.0)
                held.append(0)
                pfx.append(request.prefix_id)
                pft.append(request.prefix_tokens)
                mdl.append(request.model)
            push(row)
            added += 1
            outstanding += input_tokens + output_tokens
            if self.first_arrival is None:
                self.first_arrival = arrival
        self.offered += added
        self._outstanding += outstanding

    def _offer_bulk(self, requests) -> None:
        """Columnar append for large sorted batches: one list comprehension
        per column plus a vectorized ordering check, instead of a Python
        branch-and-append chain per request.  Only entered when the free
        list is empty, so every new row lands at the tail and the typed
        shadows can be extended wholesale."""
        arrs = [r.arrival_s for r in requests]
        rids = [r.request_id for r in requests]
        np_arr = np.array(arrs, dtype=np.float64)
        diffs = np.diff(np_arr)
        if len(requests) > 1 and not np.all(diffs >= 0.0):
            raise ValueError(
                "requests must be offered in (arrival_s, request_id) order"
            )
        ties = np.nonzero(diffs == 0.0)[0] if len(requests) > 1 else ()
        for i in ties:
            if rids[i + 1] < rids[i]:
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
        pending = self.pending
        if pending:
            last = pending[-1]
            if (arrs[0], rids[0]) < (self._arr[last], self._rid[last]):
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
        outs = [r.output_tokens for r in requests]
        mdls = [r.model for r in requests]
        if any(mdls):
            sim = self.sim
            for r in requests:
                config = sim._config_for(r)
                if not config.is_decoder and r.output_tokens > 1:
                    raise ValueError(
                        f"{config.name} is not a decoder; serving traces "
                        "for it must be summarization-only (output_tokens == 1)"
                    )
        elif not self._is_decoder and max(outs) > 1:
            raise ValueError(
                f"{self.sim.model.name} is not a decoder; serving traces "
                "for it must be summarization-only (output_tokens == 1)"
            )
        inps = [r.input_tokens for r in requests]
        pfxs = [r.prefix_id for r in requests]
        if not self._exact_kv and max(pfxs) >= 0:
            self._ensure_exact_kv()
        n = len(requests)
        row0 = len(self._arr)
        self._arr += arrs
        self._inp += inps
        self._out += outs
        self._cls += [r.priority_class for r in requests]
        self._rid += rids
        self._prefilled += [0] * n
        self._generated += [0] * n
        self._first += [0.0] * n
        self._held += [0] * n
        self._pfx += pfxs
        self._pft += [r.prefix_tokens for r in requests]
        self._mdl += mdls
        self._arr_t.frombytes(np_arr.tobytes())
        np_inp = np.array(inps, dtype=np.int64)
        np_out = np.array(outs, dtype=np.int64)
        self._inp_t.frombytes(np_inp.tobytes())
        self._out_t.frombytes(np_out.tobytes())
        pending.extend(range(row0, row0 + n))
        self.offered += n
        self._outstanding += int(np_inp.sum() + np_out.sum())
        if self.first_arrival is None:
            self.first_arrival = arrs[0]

    def _ensure_exact_kv(self) -> None:
        """Switch to the reference-counting accountant (first shared-prefix
        request seen).  Current holdings carry over: the accountant adopts
        every active row's private pages — the fast paths maintained
        ``reserved_pages == sum(active holdings)``, so the pool-wide count
        is unchanged — and the high-water mark survives.
        """
        if self._exact_kv:
            return
        accountant = self.sim._new_accountant()
        rid, held = self._rid, self._held
        for row in self.active:
            accountant.adopt(rid[row], held[row])
        accountant.peak_reserved_pages = self.kv.peak_reserved_pages
        self.kv = accountant
        self._exact_kv = True

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
        """Prompt + output tokens not yet computed across live requests.

        Maintained incrementally (offer/chunk/decode/preempt/fail), so it
        is O(1) here yet integer-identical to the object engine's O(n)
        sums — the cluster's routers see the same numbers either way.
        """
        return self._outstanding

    @property
    def energy(self) -> EnergyBreakdown:
        return EnergyBreakdown(
            normal_memory_j=self._energy_mem,
            pim_op_j=self._energy_pim,
            npu_cores_j=self._energy_npu,
        )

    # ------------------------------------------------------------------
    # Policy decisions, re-derived over columns (bit-equal: integer keys)
    # ------------------------------------------------------------------
    def _admit_index(self, waiting: "deque[int]") -> int:
        # Iterates values rather than indexing: waiting is a deque, where
        # positional access is O(n).  First minimum wins, as in the
        # object policies' (key, index) tie-break.
        ptype = self._ptype
        if ptype is SrptPolicy:
            inp, out = self._inp, self._out
            best, best_key = 0, None
            for i, row in enumerate(waiting):
                key = inp[row] + out[row]
                if best_key is None or key < best_key:
                    best, best_key = i, key
            return best
        if ptype is PriorityPolicy:
            cls = self._cls
            best, best_key = 0, None
            for i, row in enumerate(waiting):
                key = cls[row]
                if best_key is None or key < best_key:
                    best, best_key = i, key
            return best
        return 0

    def _admit_allowed(self) -> "list[int]":
        """Waiting indices admissible under the per-class reservations —
        the row twin of ``PriorityPolicy.admit_filter`` (integer logic,
        so the admitted order is bit-equal to the object engine's)."""
        reserved = self._shares
        cls = self._cls
        active_by_class: "dict[int, int]" = {}
        for row in self.active:
            c = cls[row]
            active_by_class[c] = active_by_class.get(c, 0) + 1
        waiting_classes = {cls[row] for row in self.waiting}
        total = len(self.active)
        max_batch = self._policy_cap
        allowed: "list[int]" = []
        for index, row in enumerate(self.waiting):
            c = cls[row]
            quota = reserved[c] if c < len(reserved) else 0
            if active_by_class.get(c, 0) < quota:
                allowed.append(index)
                continue
            pending = sum(
                max(
                    0,
                    (reserved[other] if other < len(reserved) else 0)
                    - active_by_class.get(other, 0),
                )
                for other in waiting_classes
                if other != c
            )
            if total + pending < max_batch:
                allowed.append(index)
        return allowed

    def _remaining(self, row: int) -> int:
        return (self._inp[row] - self._prefilled[row]) + (
            self._out[row] - self._generated[row]
        )

    def _prefill_index(self, prefilling: "list[int]") -> int:
        ptype = self._ptype
        if ptype is SrptPolicy:
            return min(
                range(len(prefilling)),
                key=lambda i: (self._remaining(prefilling[i]), i),
            )
        if ptype is PriorityPolicy:
            cls = self._cls
            return min(
                range(len(prefilling)), key=lambda i: (cls[prefilling[i]], i)
            )
        return 0

    def _decode_batch(self, decodable: "list[int]") -> "list[int]":
        ptype = self._ptype
        cap = self._policy_cap
        if ptype is SrptPolicy:
            order = sorted(
                range(len(decodable)),
                key=lambda i: (self._remaining(decodable[i]), i),
            )
            return [decodable[i] for i in order[:cap]]
        if ptype is PriorityPolicy:
            cls = self._cls
            order = sorted(
                range(len(decodable)), key=lambda i: (cls[decodable[i]], i)
            )
            return [decodable[i] for i in order[:cap]]
        return decodable[:cap]

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def _decode_cost(self, kv: int) -> tuple:
        """(latency, mem_j, pim_j, npu_j, flops) — bit-equal to decode()."""
        if self._tbl_lo <= kv <= self._tbl_hi:
            index = kv - self._tbl_lo
            return (
                self._lat[index],
                self._em[index],
                self._ep[index],
                self._en[index],
                self._fl[index],
            )
        cost = self._provider.decode(kv)
        return (
            cost.latency_s,
            cost.energy.normal_memory_j,
            cost.energy.pim_op_j,
            cost.energy.npu_cores_j,
            cost.flops,
        )

    def _chunk_cost(self, prefix: int, chunk: int) -> tuple:
        key = (prefix, chunk)
        cached = self._chunk_costs.get(key)
        if cached is None:
            cost = self._provider.prefill_chunk(prefix, chunk)
            cached = (
                cost.latency_s,
                cost.energy.normal_memory_j,
                cost.energy.pim_op_j,
                cost.energy.npu_cores_j,
                cost.flops,
            )
            self._chunk_costs[key] = cached
        return cached

    def _fused_scalar(
        self, carrier: "tuple | None", costs: "list[tuple]"
    ) -> tuple:
        """Scalar twin of ``ServingSimulator._fused_iteration``.

        Same operations in the same order on the same values (table
        entries are bit-equal to provider costs), so the result is
        bit-identical to the object engine's.
        """
        if carrier is None and len(costs) == 1:
            return costs[0]
        if carrier is not None and not costs:
            return carrier
        base = self._base_cost()
        if carrier is None:
            parts = costs
            shared = self.sim.batch_share * (len(costs) - 1)
        else:
            parts = [carrier, *costs]
            shared = self.sim.batch_share * len(costs)
        latency = sum(cost[0] for cost in parts) - shared * base[0]
        floor = max(cost[0] for cost in parts)
        if floor > latency:
            latency = floor
        out = [latency, 0.0, 0.0, 0.0, 0.0]
        for component in (1, 2, 3):
            saved = shared * base[component]
            total = sum(cost[component] for cost in parts)
            peak = max(cost[component] for cost in parts)
            value = total - saved
            out[component] = peak if peak > value else value
        out[4] = sum(cost[4] for cost in parts)
        return tuple(out)

    # ------------------------------------------------------------------
    # The discrete-event loop
    # ------------------------------------------------------------------
    def advance_until(self, until: "float | None") -> None:
        """Run every pass *starting* before ``until`` (all work if ``None``)."""
        if self.finished:
            raise ValueError("cannot advance a finished run")
        if until is not None:
            if self._last_until is not None and until < self._last_until:
                raise ValueError(
                    f"advance_until moved backwards: target {until:.6f}s is "
                    f"before the previous target {self._last_until:.6f}s"
                )
            self._last_until = until
        profile = self.sim.profile
        arr = self._arr
        waiting = self.waiting
        active = self.active
        swapped = self.swapped
        pending = self.pending
        cap = self._policy_cap
        # Exact mode (sharing/swap) may have been entered by an offer since
        # the last advance; the fast paths stand down from then on.
        macro_ok = (
            self.events is None
            and self._floor_free
            and not self._exact_kv
            and not self._multi
        )
        absorb_ok = self._absorb_ok and not self._exact_kv
        while True:
            while pending and arr[pending[0]] <= self.clock:
                waiting.append(pending.popleft())
            if not waiting and not active and not swapped:
                # Idle device, future arrivals only: the underload fast
                # path serves whole arrival windows in closed form and
                # falls back here the moment a window element needs the
                # exact per-arrival machinery.
                if absorb_ok and pending:
                    if profile:
                        progressed = self._profiled(
                            "absorb", "absorb", self._absorb_arrivals, until
                        )
                    else:
                        progressed = self._absorb_arrivals(until)
                    if progressed:
                        continue
                if pending and (until is None or arr[pending[0]] <= until):
                    self.clock = arr[pending[0]]
                    self._emit("idle")
                    continue
                return
            if until is not None and self.clock >= until:
                return
            # _admit's own loop condition, checked inline: with a full
            # batch or an empty (waiting + swapped) queue the call would
            # be a no-op, and this loop runs once per pass.
            if (waiting or swapped) and len(active) < cap:
                if profile:
                    self._profiled("admit", None, self._admit)
                else:
                    self._admit()
            if not active:
                raise RuntimeError(
                    f"policy {self.sim.policy.name!r} left the device idle with "
                    f"{len(self.waiting)} admissible request(s) waiting"
                )  # pragma: no cover - defensive, no shipped policy does this
            # Macro-stepping: all-decode batches with an event-free run and
            # a floor-free table advance many iterations in O(B).
            if macro_ok and not self._num_prefilling:
                if profile:
                    stepped = self._profiled(
                        "decode", "macro", self._macro_step, until
                    )
                else:
                    stepped = self._macro_step(until)
                if stepped:
                    continue
            # Decode runs: a fixed all-decode batch iterated pass by pass
            # (the per-iteration twin of the macro step, for runs where
            # closed-form stepping stands down), taken while the admission
            # gate above stays shut: a full batch or nothing to admit.
            if not macro_ok and (
                len(active) >= cap or not (waiting or swapped)
            ):
                if profile:
                    stepped = self._profiled(
                        "decode", "run", self._decode_run, until
                    )
                else:
                    stepped = self._decode_run(until)
                if stepped:
                    continue
            if profile:
                self._profiled(None, "step", self._step)
            else:
                self._step()

    def _profiled(
        self, phase: "str | None", path: "str | None", method, *args
    ):
        """Call ``method`` for ``--profile``: charge its wall time to
        ``phase_s[phase]`` (the step's own kind when ``phase`` is None)
        and the decode passes it served to ``path_passes[path]``."""
        start = perf_counter()
        passes = self.decode_passes
        result = method(*args)
        self.phase_s[phase or self._step_kind] += perf_counter() - start
        if path is not None:
            self.path_passes[path] += self.decode_passes - passes
        return result

    # ------------------------------------------------------------------
    def _admit(self) -> None:
        if self._exact_kv:
            # Mirror of the object engine's _admit: swapped requests come
            # back first (they hold completed work a recompute would
            # repay), then new admissions; when the device is idle with
            # the pool pinned by resident shared-prefix pages, sacrifice
            # the youngest swapped request for recompute until the oldest
            # fits again (each round shrinks the swap set, and a lone
            # swapped request always fits — fits_alone held at admission).
            self._swap_in_ready()
            self._admit_exact()
            while not self.active and self.swapped:
                if self.kv.can_swap_in(self._rid[self.swapped[0]]):
                    self._swap_in_head()
                else:
                    self._preempt_swapped(len(self.swapped) - 1)
                self._admit_exact()
            return
        kv = self.kv
        waiting, active = self.waiting, self.active
        optimistic = self._optimistic
        cap = self._policy_cap
        arrival_order = self._arrival_order
        page_tokens = self._page_tokens
        shares = self._shares
        while waiting and len(active) < cap:
            if shares is None:
                index = 0 if arrival_order else self._admit_index(waiting)
            else:
                allowed = self._admit_allowed()
                if not allowed:
                    break
                index = allowed[
                    self._admit_index([waiting[i] for i in allowed])
                ]
            row = waiting[index]
            total = self._inp[row] + self._out[row]
            total_pages = -(-total // page_tokens)
            if total_pages > kv.total_pages:
                raise ValueError(
                    f"request {self._rid[row]} needs "
                    f"{total_pages} KV pages but the "
                    f"pool holds {kv.total_pages}; it can never be served "
                    f"(raise kv_fraction or the budget)"
                )
            pages = (
                -(-self._inp[row] // page_tokens) if optimistic else total_pages
            )
            if pages > kv.free_pages:
                break
            kv.commit(pages)
            self._held[row] = pages
            if index == 0:
                waiting.popleft()
            else:
                del waiting[index]
            active.append(row)
            self._num_prefilling += 1
            self.admissions += 1
            if len(active) > self.peak_active:
                self.peak_active = len(active)
            if self.events is not None:
                self._emit("admit", request_id=self._rid[row], tokens=pages)

    def _admit_exact(self) -> None:
        """Admission through the reference-counting accountant — the row
        twin of the object engine's ``_admit_waiting`` (shared-prefix
        requests charge only their unique new pages)."""
        kv = self.kv
        waiting, active = self.waiting, self.active
        optimistic = self._optimistic
        cap = self._policy_cap
        arrival_order = self._arrival_order
        shares = self._shares
        while waiting and len(active) < cap:
            if shares is None:
                index = 0 if arrival_order else self._admit_index(waiting)
            else:
                allowed = self._admit_allowed()
                if not allowed:
                    break
                index = allowed[
                    self._admit_index([waiting[i] for i in allowed])
                ]
            row = waiting[index]
            total = self._inp[row] + self._out[row]
            if not kv.fits_alone(total):
                raise ValueError(
                    f"request {self._rid[row]} needs "
                    f"{kv.pages_for(total)} KV pages but the "
                    f"pool holds {kv.total_pages}; it can never be served "
                    f"(raise kv_fraction or the budget)"
                )
            commit_tokens = self._inp[row] if optimistic else total
            if not kv.can_reserve(commit_tokens, self._pfx[row], self._pft[row]):
                break
            pages = kv.reserve(
                self._rid[row], commit_tokens, self._pfx[row], self._pft[row]
            )
            if index == 0:
                waiting.popleft()
            else:
                del waiting[index]
            active.append(row)
            self._num_prefilling += 1
            self.admissions += 1
            if len(active) > self.peak_active:
                self.peak_active = len(active)
            self._emit("admit", request_id=self._rid[row], tokens=pages)

    def _swap_in_ready(self) -> None:
        """Restore swapped-out rows, oldest first, while they fit."""
        cap = self._policy_cap
        while self.swapped and len(self.active) < cap:
            if not self.kv.can_swap_in(self._rid[self.swapped[0]]):
                break
            self._swap_in_head()

    def _swap_in_head(self) -> None:
        """Pay the link transfer and re-activate the oldest swapped row."""
        row = self.swapped.pop(0)
        request_id = self._rid[row]
        pages = self.kv.swap_in(request_id)
        latency = self._swap_latency(pages)
        self.clock += latency
        self.busy += latency
        self.active.append(row)
        if self._generated[row] == 0:
            self._num_prefilling += 1
        self.swap_ins += 1
        self.swapped_pages += pages
        if len(self.active) > self.peak_active:
            self.peak_active = len(self.active)
        self._emit("swap_in", latency=latency, request_id=request_id, tokens=pages)

    def _swap_out(self, victim: int) -> None:
        """Move a victim row's private pages to host DRAM over the link
        (its prefill/decode progress survives; it resumes via swap-in)."""
        request_id = self._rid[victim]
        pages = self.kv.swap_out(request_id)
        self.active.remove(victim)
        if self._generated[victim] == 0:
            self._num_prefilling -= 1
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
            "swap_out", latency=latency, request_id=request_id, tokens=pages
        )

    def _preempt_swapped(self, index: int) -> None:
        """Preempt a swapped-out row: discard its host copy, recompute.

        The last-resort path when resident shared-prefix pages pin the
        pool — releasing the row drops its prefix reference, freeing the
        shared pages once the last member leaves.
        """
        victim = self.swapped.pop(index)
        request_id = self._rid[victim]
        pages = self.kv.release(request_id)
        self._held[victim] = 0
        self.preemptions += 1
        lost = self._prefilled[victim] + self._generated[victim]
        self.recomputed_tokens += lost
        self._outstanding += lost
        if self.preemptions > 50 * max(self.offered, 1):  # pragma: no cover
            raise RuntimeError(
                f"preemption livelock: {self.preemptions} preemptions over "
                f"{self.offered} offered request(s)"
            )
        self._prefilled[victim] = 0
        self._generated[victim] = 0
        self._first[victim] = 0.0
        self._requeue(victim)
        self._emit("preempt", request_id=request_id, tokens=pages)

    def _release_pages(self, row: int) -> None:
        """Return a completed/failed row's pages to the pool (both modes)."""
        if self._exact_kv:
            self.kv.release(self._rid[row])
        else:
            self.kv.reserved_pages -= self._held[row]
        self._held[row] = 0

    # ------------------------------------------------------------------
    # Multi-model residency (mirror of the object engine's sticky-resident
    # scheduling; only reached when the simulator hosts a model set)
    # ------------------------------------------------------------------
    def _sync_model(self) -> None:
        """Swap weights when no resident-model work is runnable."""
        resident = self.resident_model
        mdl = self._mdl
        default = self.sim.model.name
        for row in self.active:
            if (mdl[row] or default) == resident:
                return
        generated = self._generated
        prefilling = [row for row in self.active if generated[row] == 0]
        if prefilling:
            target = prefilling[self._prefill_index(prefilling)]
        else:
            decodable = [row for row in self.active if generated[row] > 0]
            batch = self._decode_batch(decodable)
            target = batch[0] if batch else decodable[0]
        self._swap_model(mdl[target] or default)

    def _swap_model(self, target: str) -> None:
        """Stream ``target``'s weights in over the host link (weight swap).

        Beyond the object engine's bookkeeping, the row engine re-points
        its cost caches: the decode table prices the default model only,
        so a non-default resident stands it down and prices through its
        own provider, and the base/chunk caches follow the weights.
        """
        super()._swap_model(target)
        if target == self.sim.model.name:
            self._tbl_lo, self._tbl_hi = self._tbl_bounds
        else:
            self._tbl_lo, self._tbl_hi = 1, 0
        self._base = self._bases.get(target)
        self._chunk_costs = self._chunks_by_model.setdefault(target, {})

    def _step(self) -> None:
        """One device iteration — the per-iteration (bit-exact) path."""
        generated = self._generated
        if self._num_prefilling and self._mono_fast:
            # Monolithic prefill with no piggyback batch under an
            # arrival-order policy: the head prefilling row runs alone and
            # the pass IS the carrier.  Pick it by direct scan and apply
            # it without the generic fused/emit machinery — at one such
            # pass per served request this is a first-order term of the
            # million-request budget.
            for row in self.active:
                if generated[row] == 0:
                    chunk = self._inp[row] - self._prefilled[row]
                    self._prefill_only_step(
                        row, chunk, self._chunk_cost(self._prefilled[row], chunk)
                    )
                    return
        sim = self.sim
        if self._multi:
            # Sticky-resident scheduling: restrict the pass to the
            # resident model's rows, paying a weight swap first when the
            # resident model has nothing runnable (object-engine mirror).
            self._sync_model()
            resident = self.resident_model
            mdl = self._mdl
            default = sim.model.name
            eligible = [
                row
                for row in self.active
                if (mdl[row] or default) == resident
            ]
            prefilling = [row for row in eligible if generated[row] == 0]
            decodable = [row for row in eligible if generated[row] > 0]
        elif self._num_prefilling == 0:
            prefilling: list[int] = []
            decodable = self.active
        else:
            prefilling = [row for row in self.active if generated[row] == 0]
            decodable = [row for row in self.active if generated[row] > 0]
        row: "int | None" = None
        carrier: "tuple | None" = None
        chunk = 0
        batch: list[int] = []
        if prefilling:
            row = prefilling[self._prefill_index(prefilling)]
            remaining = self._inp[row] - self._prefilled[row]
            chunk = (
                remaining
                if sim.chunk_tokens == 0
                else min(sim.chunk_tokens, remaining)
            )
            carrier = self._chunk_cost(self._prefilled[row], chunk)
            if sim.chunk_tokens and decodable:
                batch = self._decode_batch(decodable)
            elif sim.chunk_tokens == 0 and self.events is None:
                self._prefill_only_step(row, chunk, carrier)
                return
        else:
            batch = self._decode_batch(decodable)

        if self._optimistic and batch:
            requested = batch
            batch = self._grow_batch(batch, row)
            if carrier is None and not batch:
                head = requested[0]
                kv = self.kv
                if self._exact_kv:
                    held = kv.held_pages(self._rid[head])
                    need = kv.grow_need(
                        self._rid[head], self._inp[head] + generated[head]
                    )
                else:
                    held = self._held[head]
                    need = (
                        self._pages_for(self._inp[head] + generated[head]) - held
                    )
                raise RuntimeError(
                    "KV pool exhausted with preemption disabled: request "
                    f"{self._rid[head]} holds {held} page(s) and "
                    f"needs {need} more for its next decode, but only "
                    f"{kv.free_pages} of {kv.total_pages} pool page(s) are "
                    "free and no prefill can run (enable preempt or raise "
                    "the KV budget)"
                )

        inp = self._inp
        costs = [self._decode_cost(inp[r] + generated[r]) for r in batch]
        self._step_kind = "prefill" if carrier is not None else "decode"
        latency, e_mem, e_pim, e_npu, pass_flops = self._fused_scalar(
            carrier, costs
        )
        self.clock += latency
        self.busy += latency
        self._energy_mem += e_mem
        self._energy_pim += e_pim
        self._energy_npu += e_npu
        self.flops += pass_flops
        if carrier is not None:
            self.prefill_passes += 1
        if batch:
            self.decode_passes += 1
            self.decode_tokens += len(batch)
            self._outstanding -= len(batch)
        self._emit(
            "step",
            latency=latency,
            request_id=None if row is None else self._rid[row],
            tokens=chunk,
            decode_ids=tuple(self._rid[r] for r in batch),
        )

        finished: list[int] = []
        if row is not None:
            self._prefilled[row] += chunk
            self._outstanding -= chunk
            if self._prefilled[row] >= inp[row]:
                generated[row] = 1
                self._num_prefilling -= 1
                self._outstanding -= 1
                self._first[row] = self.clock
                if generated[row] >= self._out[row]:
                    finished.append(row)
        for r in batch:
            generated[r] += 1
            if generated[r] >= self._out[r]:
                finished.append(r)
        for r in finished:
            self.active.remove(r)
            self._release_pages(r)
            self._record_completion(r)
            self._emit("complete", request_id=self._rid[r])

    def _prefill_only_step(self, row: int, chunk: int, carrier: tuple) -> None:
        """Apply one monolithic-prefill pass (no decode batch, no events).

        A monolithic chunk always covers the whole remaining prompt, so
        the pass both runs and completes the prefill.
        """
        self._step_kind = "prefill"
        clock = self.clock + carrier[0]
        self.clock = clock
        self.busy += carrier[0]
        self._energy_mem += carrier[1]
        self._energy_pim += carrier[2]
        self._energy_npu += carrier[3]
        self.flops += carrier[4]
        self.prefill_passes += 1
        self._prefilled[row] += chunk
        self._generated[row] = 1
        self._num_prefilling -= 1
        self._outstanding -= chunk + 1
        self._first[row] = clock
        if self._out[row] <= 1:
            self.active.remove(row)
            self._release_pages(row)
            self._record_completion(row)

    # ------------------------------------------------------------------
    def _decode_run(self, until: "float | None") -> bool:
        """Iterate one fixed all-decode batch pass by pass.

        With the admission gate shut (a full batch, or nothing queued or
        swapped) and every eligible row decoding, ``_step`` picks the same
        batch pass after pass until a row completes, an arrival lands or
        a KV grant fails.  This loop picks it once and repeats ``_step``'s
        float operations in the same order (the same table entries, the
        same ``_fused_scalar``), so clock, energies and the ``step``
        events are bit-identical.  Each row keeps the tokens its held
        pages cover, so pages are granted only at page boundaries.

        Returns ``True`` after the pass that completes a row or before the
        pass at which the next arrival or ``until`` is reached (the
        caller's loop then re-examines the queues), ``False`` when the
        next pass must run through ``_step``: a prefilling or missing
        eligible row, an ``srpt`` batch over the cap, or a grant that does
        not fit (``_step`` runs the preempt/swap reference path).
        """
        active = self.active
        generated = self._generated
        if self._multi:
            resident = self.resident_model
            mdl = self._mdl
            default = self.sim.model.name
            eligible = [
                row for row in active if (mdl[row] or default) == resident
            ]
            if not eligible or 0 in [generated[row] for row in eligible]:
                return False
        elif self._num_prefilling:
            return False
        else:
            eligible = active
        if self._ptype is SrptPolicy and len(eligible) > self._policy_cap:
            return False
        batch = self._decode_batch(eligible)
        kv = self.kv
        inp, out, rid = self._inp, self._out, self._rid
        page_tokens = self._page_tokens
        size = len(batch)
        base = [inp[row] + generated[row] for row in batch]
        # Passes until the first completion: the run's last pass.
        left = min(out[row] - generated[row] for row in batch)
        # First pass index at which some row outgrows its held pages.
        grant_at = left
        optimistic = self._optimistic
        if optimistic:
            if self._exact_kv:
                covered = [
                    (kv.held_pages(rid[row]) + kv.shared_held_pages(rid[row]))
                    * page_tokens
                    for row in batch
                ]
            else:
                held = self._held
                covered = [held[row] * page_tokens for row in batch]
            grant_at = min(c - b for c, b in zip(covered, base)) + 1
        lo, hi = self._tbl_lo, self._tbl_hi
        span = hi - lo + 1
        if span > 0:
            lat, em, ep, en = self._lat, self._em, self._ep, self._en
            fl = self._fl
        decode_cost = self._decode_cost
        events = self.events
        decode_ids = tuple(rid[row] for row in batch)
        num_active, num_waiting = len(active), len(self.waiting)
        reserved, total_pages = kv.reserved_pages, kv.total_pages
        stop = float("inf") if until is None else until
        if self.pending and self._arr[self.pending[0]] < stop:
            stop = self._arr[self.pending[0]]
        clock, busy = self.clock, self.busy
        energy_mem, energy_pim = self._energy_mem, self._energy_pim
        energy_npu, flops = self._energy_npu, self.flops
        k = 0
        while True:
            if k >= grant_at:
                need = 0
                for c, b in zip(covered, base):
                    if b + k > c:
                        need += -(-(b + k) // page_tokens) - c // page_tokens
                if need > kv.free_pages:
                    break
                for i, row in enumerate(batch):
                    tokens = base[i] + k
                    if tokens > covered[i]:
                        pages = -(-tokens // page_tokens)
                        if self._exact_kv:
                            kv.grow(rid[row], tokens)
                        else:
                            kv.commit(pages - held[row])
                            held[row] = pages
                        covered[i] = pages * page_tokens
                reserved = kv.reserved_pages
                grant_at = min(c - b for c, b in zip(covered, base)) + 1
            if size == 1:
                index = base[0] + k - lo
                if 0 <= index < span:
                    latency = lat[index]
                    e_mem, e_pim, e_npu = em[index], ep[index], en[index]
                    pass_flops = fl[index]
                else:
                    latency, e_mem, e_pim, e_npu, pass_flops = decode_cost(
                        base[0] + k
                    )
            else:
                costs = []
                for b in base:
                    index = b + k - lo
                    if 0 <= index < span:
                        costs.append((
                            lat[index], em[index], ep[index], en[index],
                            fl[index],
                        ))
                    else:
                        costs.append(decode_cost(b + k))
                latency, e_mem, e_pim, e_npu, pass_flops = self._fused_scalar(
                    None, costs
                )
            clock += latency
            busy += latency
            energy_mem += e_mem
            energy_pim += e_pim
            energy_npu += e_npu
            flops += pass_flops
            k += 1
            if events is not None:
                events.append(
                    SimEvent(
                        "step", clock, latency, None, 0, decode_ids,
                        num_active, num_waiting, reserved, total_pages,
                    )
                )
            if k == left or clock >= stop:
                break
        self.clock, self.busy = clock, busy
        self._energy_mem, self._energy_pim = energy_mem, energy_pim
        self._energy_npu, self.flops = energy_npu, flops
        self.decode_passes += k
        self.decode_tokens += k * size
        self._outstanding -= k * size
        for row in batch:
            generated[row] += k
        if k == left:
            for row in batch:
                if generated[row] >= out[row]:
                    active.remove(row)
                    self._release_pages(row)
                    self._record_completion(row)
                    self._emit("complete", request_id=rid[row])
            return True
        # Short of the stop, the loop only breaks on a grant that did not fit.
        return clock >= stop

    # ------------------------------------------------------------------
    def _macro_step(self, until: "float | None") -> bool:
        """Advance up to the next behavior boundary in O(B) per probe.

        Returns ``False`` when this boundary cannot be macro-stepped (KV
        out of table range, or an optimistic grant that needs preemption)
        — the caller then runs one per-iteration step.
        """
        active = self.active
        batch_size = len(active)
        lo, hi = self._tbl_lo, self._tbl_hi
        inp, out, generated = self._inp, self._out, self._generated
        offsets = []
        append = offsets.append
        span = hi - lo + 1
        steps = span
        off_max = 0
        for row in active:
            offset = inp[row] + generated[row] - lo
            if offset < 0:
                return False
            append(offset)
            if offset > off_max:
                off_max = offset
            remaining = out[row] - generated[row]
            if remaining < steps:
                steps = remaining
        if steps > span - off_max:
            steps = span - off_max
        if steps < 1:
            return False

        optimistic = self._optimistic
        kvs = None
        if optimistic:
            # Largest k whose total page growth fits the free pool
            # (monotone in k).  k=0 means the grant needs preemption:
            # fall back to the per-iteration path, which runs it exactly.
            held = self._held
            free = self.kv.free_pages
            page_tokens = self._page_tokens
            kvs = [offset + lo for offset in offsets]

            def growth(j: int) -> int:
                need = 0
                for position, row in enumerate(active):
                    pages = -(-(kvs[position] + j - 1) // page_tokens)
                    delta = pages - held[row]
                    if delta > 0:
                        need += delta
                return need

            if growth(steps) > free:
                low, high = 0, steps  # growth(low) fits, growth(high) doesn't
                while high - low > 1:
                    mid = (low + high) // 2
                    if growth(mid) > free:
                        high = mid
                    else:
                        low = mid
                steps = low
                if steps < 1:
                    return False

        base = self._base  # a table is installed whenever macros run
        shared = self._batch_share * (batch_size - 1)
        prefix_lat = self._plat
        shared_lat = shared * base[0]

        # Budget caps: stop at `until` and, while the admission gate is
        # open, at the next pending arrival (at a full batch arrivals
        # merely queue — bulk-moved at the loop top after this macro
        # ends).  elapsed(j) is monotone in j, so capping by each budget
        # in turn equals one cap by the smallest budget.
        budget = None if until is None else until - self.clock
        if self.pending and batch_size < self._policy_cap:
            arrival_budget = self._arr[self.pending[0]] - self.clock
            if budget is None or arrival_budget < budget:
                budget = arrival_budget
        # Conservative dismissal: elapsed(steps) can never exceed
        # steps * batch * lat_max, so a budget above that bound cannot
        # bind and the exact O(B) scans are skipped.  The inflation
        # factor absorbs summation rounding (~n*eps << 1e-9) so the
        # dismissal is sound even when the bound is nearly tight.
        if budget is not None and (
            steps * batch_size * self._lat_max * 1.000000001 >= budget
        ):
            lat_start = 0.0
            total = 0.0
            for offset in offsets:
                lat_start += prefix_lat[offset]
                total += prefix_lat[offset + steps]
            if total - lat_start - steps * shared_lat >= budget:
                # Smallest j in [1, steps] with elapsed(j) >= budget.
                low, high = 0, steps  # elapsed(low) < budget <= elapsed(high)
                while high - low > 1:
                    mid = (low + high) // 2
                    elapsed = 0.0
                    for offset in offsets:
                        elapsed += prefix_lat[offset + mid]
                    elapsed = elapsed - lat_start - mid * shared_lat
                    if elapsed < budget:
                        low = mid
                    else:
                        high = mid
                steps = high

        j = steps
        prefix_em, prefix_ep = self._pem, self._pep
        prefix_en, prefix_fl = self._pen, self._pfl
        sum_lat = 0.0
        sum_em = 0.0
        sum_ep = 0.0
        sum_en = 0.0
        sum_fl = 0.0
        finished = None
        for offset, row in zip(offsets, active):
            offset_j = offset + j
            sum_lat += prefix_lat[offset_j] - prefix_lat[offset]
            sum_em += prefix_em[offset_j] - prefix_em[offset]
            sum_ep += prefix_ep[offset_j] - prefix_ep[offset]
            sum_en += prefix_en[offset_j] - prefix_en[offset]
            sum_fl += prefix_fl[offset_j] - prefix_fl[offset]
            new_generated = generated[row] + j
            generated[row] = new_generated
            if new_generated >= out[row]:
                if finished is None:
                    finished = [row]
                else:
                    finished.append(row)
        delta = sum_lat - j * shared_lat
        self.clock += delta
        self.busy += delta
        self._energy_mem += sum_em - j * shared * base[1]
        self._energy_pim += sum_ep - j * shared * base[2]
        self._energy_npu += sum_en - j * shared * base[3]
        self.flops += sum_fl
        self.decode_passes += j
        self.decode_tokens += j * batch_size
        self._outstanding -= j * batch_size

        kv = self.kv
        if optimistic:
            held = self._held
            page_tokens = self._page_tokens
            grown = 0
            for kv_now, row in zip(kvs, active):
                pages = -(-(kv_now + j - 1) // page_tokens)
                if pages > held[row]:
                    grown += pages - held[row]
                    held[row] = pages
            if grown:
                kv.commit(grown)
        if finished is not None:
            for row in finished:
                active.remove(row)
                kv.reserved_pages -= self._held[row]
                self._held[row] = 0
                self._record_completion(row)
        return True

    # ------------------------------------------------------------------
    # Underload fast path: arrival-batched absorption
    # ------------------------------------------------------------------
    #: Pending arrivals priced per columnar window.  Large enough to
    #: amortize the numpy fixed costs, small enough that a window build
    #: stays cache-resident.
    _ABSORB_WINDOW = 4096

    def _absorb_arrivals(self, until: "float | None") -> bool:
        """Serve arrivals straight off the pending queue while the device
        is idle, without running the discrete-event loop per pass.

        Preconditions (established by the caller): ``waiting`` and
        ``active`` are empty and the pending head arrives strictly after
        ``self.clock``.  Returns True when any work was applied; either
        way the caller re-enters the generic loop, which handles whatever
        the absorber refused (KV-blocked, off-table, preempting, or
        past-``until`` requests) on the exact per-arrival path.
        """
        if self._detail:
            progressed = False
            pending = self.pending
            while pending:
                if self._absorb_scalar(until):
                    progressed = True
                    continue
                if self._burst_ok:
                    status = self._run_burst(until)
                    if status:
                        progressed = True
                    if status == 1:
                        continue
                break
            return progressed
        progressed = False
        while self.pending:
            did, keep = self._absorb_window(until)
            progressed = progressed or did
            if not keep:
                break
        return progressed

    def _absorb_window(self, until: "float | None") -> "tuple[bool, bool]":
        """Absorb one columnar window of pending arrivals (pooled mode).

        Prices every request's whole lifetime (monolithic prefill + full
        decode run) from the table prefix sums in one vectorized shot,
        then walks the window: stretches of *isolated* requests (each one
        completing before the next arrives) are applied in closed form,
        overlapping clumps run through the scalar burst runner, and under
        concurrency-1 arrival-order policies queued stretches absorb via
        a vectorized Lindley recursion.  Returns ``(progressed,
        keep_going)``; ``keep_going`` means the whole window was consumed
        and another window may follow.
        """
        pending = self.pending
        arr = self._arr
        # Scalar pre-check of the head request: when the head itself
        # cannot absorb (and the burst runner cannot take it either),
        # skip the columnar window build entirely, keeping the absorber
        # O(1) on paths that retry it once per idle gap.
        head = pending[0]
        i_tok = self._inp[head]
        o = self._out[head]
        page_tokens = self._page_tokens
        head_pages = -(-(i_tok + o) // page_tokens)
        head_ok = head_pages <= self.kv.total_pages
        dec = 0.0
        if head_ok and o > 1:
            if self._np_prefix is None:
                head_ok = False
            else:
                beg = i_tok + 1 - self._tbl_lo
                if beg < 0 or beg + o - 1 > self._tbl_hi - self._tbl_lo + 1:
                    head_ok = False
                else:
                    dec = self._plat[beg + o - 1] - self._plat[beg]
        if head_ok:
            pre_head = self._chunk_costs.get((0, i_tok))
            if pre_head is None:
                pre_head = self._chunk_cost(0, i_tok)
            # Under a queued (concurrency-1 arrival-order) policy the head
            # may arrive while the previous window's tail is still being
            # served: service starts at the clock, not the arrival.  On
            # isolated-stretch policies an earlier-than-clock head is an
            # overlapping clump — the burst runner's regime.
            start = arr[head]
            if start < self.clock:
                if self._fcfs_absorb:
                    start = self.clock
                else:
                    head_ok = False
            completion = start + pre_head[0] + dec
            if until is not None and completion > until:
                head_ok = False
            elif not self._fcfs_absorb and len(pending) > 1:
                if arr[pending[1]] < completion:
                    head_ok = False
        if not head_ok:
            if self._burst_ok:
                status = self._run_burst(until)
                if status == 0:
                    return False, False
                return True, status == 1 and bool(pending)
            return False, False

        count = len(pending)
        window = self._ABSORB_WINDOW
        take = count if count < window else window
        rows_list = list(islice(pending, take + 1))
        peek = rows_list[take] if len(rows_list) > take else -1
        del rows_list[take:]
        rows = np.array(rows_list, dtype=np.int64)
        a = np.frombuffer(self._arr_t, dtype=np.float64)[rows]
        inp = np.frombuffer(self._inp_t, dtype=np.int64)[rows]
        out = np.frombuffer(self._out_t, dtype=np.int64)[rows]
        total_pages = -((inp + out) // -page_tokens)
        eligible = total_pages <= self.kv.total_pages
        steps = out - 1
        single = steps == 0
        prefix = self._np_prefix
        if prefix is not None:
            lo = self._tbl_lo
            span = self._tbl_hi - lo + 1
            beg_v = inp + 1 - lo
            run = ~single & (beg_v >= 0) & (beg_v + steps <= span)
            eligible &= single | run
            b = np.where(run, beg_v, 0)
            e = np.where(run, beg_v + steps, 0)
            dec_lat = prefix[0][e] - prefix[0][b]
            dec_em = prefix[1][e] - prefix[1][b]
            dec_ep = prefix[2][e] - prefix[2][b]
            dec_en = prefix[3][e] - prefix[3][b]
            dec_fl = prefix[4][e] - prefix[4][b]
        else:
            eligible &= single
            dec_lat = np.zeros(take, dtype=np.float64)
            dec_em = dec_ep = dec_en = dec_fl = dec_lat
        uniq, inverse = np.unique(inp, return_inverse=True)
        chunk_cost = self._chunk_cost
        pre = np.array(
            [chunk_cost(0, int(v)) for v in uniq], dtype=np.float64
        )[inverse]
        service = pre[:, 0] + dec_lat
        fcfs = self._fcfs_absorb
        if fcfs:
            # Lindley recursion, vectorized: completion_i =
            # max(arrival_i, completion_{i-1}) + service_i, with the
            # cumulative-max rewrite c = t + cummax(a - t_prev) over the
            # service prefix sums t.  The recursion seeds from the clock
            # (completion_{-1} = self.clock): across window boundaries
            # the previous window's tail may still be in service when
            # this window's head arrived.
            totals = np.cumsum(service)
            slack = a - totals
            slack += service
            if slack[0] < self.clock:
                slack[0] = self.clock
            completion = totals + np.maximum.accumulate(slack)
            first = completion - dec_lat
            if until is not None:
                eligible &= completion <= until
        else:
            first = a + pre[:, 0]
            completion = first + dec_lat
            if until is not None:
                eligible &= completion <= until
            # Isolation: the request must complete before the next
            # arrival lands (ties allowed — an arrival exactly at the
            # completion instant never joins the batch).
            nxt = np.empty(take, dtype=np.float64)
            nxt[: take - 1] = a[1:]
            nxt[take - 1] = arr[peek] if peek >= 0 else np.inf
            eligible &= completion <= nxt
        bad = np.flatnonzero(~eligible).tolist()
        mask = np.zeros(take, dtype=bool)
        burst_ok = self._burst_ok
        i = 0
        aborted = False
        while i < take:
            if eligible[i]:
                cut = bisect_left(bad, i)
                j = take if cut == len(bad) else bad[cut]
                mask[i:j] = True
                for _ in range(j - i):
                    pending.popleft()
                self.clock = float(completion[j - 1])
                i = j
                continue
            if burst_ok:
                before = len(pending)
                status = self._run_burst(until)
                consumed = before - len(pending)
                i += consumed
                if status == 1 and consumed:
                    continue
            aborted = True
            break
        k = int(np.count_nonzero(mask))
        if k:
            kv = self.kv
            idx = np.flatnonzero(mask)
            if self._optimistic:
                peak_pages = np.where(
                    single[idx],
                    -(inp[idx] // -page_tokens),
                    -((inp[idx] + out[idx] - 1) // -page_tokens),
                )
            else:
                peak_pages = total_pages[idx]
            kv.note_peak(int(peak_pages.max()))
            dsum = int(steps[idx].sum())
            self.decode_passes += dsum
            self.decode_tokens += dsum
            self.prefill_passes += k
            self.admissions += k
            self._outstanding -= int((inp[idx] + out[idx]).sum())
            if not self.peak_active:
                self.peak_active = 1
            self.busy += float(service[idx].sum())
            self._energy_mem += float(pre[idx, 1].sum() + dec_em[idx].sum())
            self._energy_pim += float(pre[idx, 2].sum() + dec_ep[idx].sum())
            self._energy_npu += float(pre[idx, 3].sum() + dec_en[idx].sum())
            self.flops += float(pre[idx, 4].sum() + dec_fl[idx].sum())
            self._done_arrival.frombytes(a[idx].tobytes())
            self._done_first.frombytes(first[idx].tobytes())
            self._done_completion.frombytes(completion[idx].tobytes())
            self._done_out.frombytes(out[idx].tobytes())
            if self._done_cls is not None:
                cls_col = self._cls
                self._done_cls.extend([cls_col[r] for r in rows[idx]])
            self._free.extend(rows[idx].tolist())
        keep = (not aborted) and i >= take and bool(pending)
        return (k > 0 or i > 0), keep

    def _absorb_scalar(self, until: "float | None") -> int:
        """Absorb the maximal stretch of head arrivals, one scalar closed
        form per request (detail mode).

        Every float operation matches the per-arrival path's operation
        sequence on the same values, so recorded per-request metrics are
        byte-identical to the generic loop's.
        """
        pending = self.pending
        arr, inp_col, out_col = self._arr, self._inp, self._out
        plat = self._plat
        pem, pep, pen, pfl = self._pem, self._pep, self._pen, self._pfl
        lo = self._tbl_lo
        span = self._tbl_hi - lo + 1
        kv = self.kv
        page_tokens = self._page_tokens
        pool_pages = kv.total_pages
        optimistic = self._optimistic
        fcfs = self._fcfs_absorb
        chunk_costs = self._chunk_costs
        chunk_cost = self._chunk_cost
        clock = self.clock
        count = 0
        while pending:
            row = pending[0]
            a = arr[row]
            if not fcfs and a < clock:
                break  # overlapping clump: the burst runner's regime
            i_tok = inp_col[row]
            o = out_col[row]
            total_pages = -(-(i_tok + o) // page_tokens)
            if total_pages > pool_pages:
                break  # the generic path raises the diagnostic
            if o > 1:
                beg = i_tok + 1 - lo
                end = beg + o - 1
                if plat is None or beg < 0 or end > span:
                    break
                dec_lat = plat[end] - plat[beg]
            else:
                dec_lat = 0.0
            pre = chunk_costs.get((0, i_tok))
            if pre is None:
                pre = chunk_cost(0, i_tok)
            start = a if a > clock else clock
            first = start + pre[0]
            completion = first + dec_lat
            if until is not None and completion > until:
                break
            if not fcfs and len(pending) > 1 and arr[pending[1]] < completion:
                break
            pending.popleft()
            self.busy += pre[0]
            self._energy_mem += pre[1]
            self._energy_pim += pre[2]
            self._energy_npu += pre[3]
            self.flops += pre[4]
            self.prefill_passes += 1
            self._outstanding -= i_tok + 1
            if o > 1:
                self.busy += dec_lat
                self._energy_mem += pem[end] - pem[beg]
                self._energy_pim += pep[end] - pep[beg]
                self._energy_npu += pen[end] - pen[beg]
                self.flops += pfl[end] - pfl[beg]
                self.decode_passes += o - 1
                self.decode_tokens += o - 1
                self._outstanding -= o - 1
                peak_pages = (
                    -(-(i_tok + o - 1) // page_tokens)
                    if optimistic
                    else total_pages
                )
            else:
                peak_pages = (
                    -(-i_tok // page_tokens) if optimistic else total_pages
                )
            kv.note_peak(peak_pages)
            self.admissions += 1
            if not self.peak_active:
                self.peak_active = 1
            clock = completion
            self.clock = completion
            self._first[row] = first
            self._record_completion(row)
            count += 1
        return count

    def _run_burst(self, until: "float | None") -> int:
        """Drain one busy period with a scalar specialization of the
        generic loop (arrival-order policy, worst-case grants, monolithic
        prefill, floor-free table, no events).

        Returns 0 (no state change), 1 (period drained, device idle
        again), or 2 (progressed, then hit a condition the generic loop
        must handle: the ``until`` horizon, a KV block, an off-table or
        oversized request).  Every float operation matches the generic
        path's, so detail-mode results stay byte-identical.
        """
        pending = self.pending
        arr, inp_col, out_col = self._arr, self._inp, self._out
        generated = self._generated
        held = self._held
        active = self.active
        kv = self.kv
        page_tokens = self._page_tokens
        cap = self._policy_cap
        lo = self._tbl_lo
        span = self._tbl_hi - lo + 1
        plat = self._plat
        pem, pep, pen, pfl = self._pem, self._pep, self._pen, self._pfl
        lat_max = self._lat_max * 1.000000001
        base = self._base
        share_unit = self._batch_share
        base_lat = base[0]
        chunk_costs = self._chunk_costs
        chunk_cost = self._chunk_cost
        clock = self.clock
        busy = self.busy
        e_mem = self._energy_mem
        e_pim = self._energy_pim
        e_npu = self._energy_npu
        flops = self.flops
        prefill_passes = 0
        decode_passes = 0
        decode_tokens = 0
        admissions = 0
        outstanding = 0
        num_pref = 0
        progressed = False
        result = 1

        nxt_a = arr[pending[0]]
        if until is not None and nxt_a >= until:
            return 0
        if nxt_a > clock:
            clock = nxt_a  # the generic loop's idle jump
        while True:
            if until is not None and clock >= until:
                result = 2
                break
            # Admit every due arrival up to the cap (worst-case grants),
            # exactly as the generic loop-top + _admit would.
            bail = False
            while pending and len(active) < cap:
                row = pending[0]
                if arr[row] > clock:
                    break
                o = out_col[row]
                i_tok = inp_col[row]
                total_pages = -(-(i_tok + o) // page_tokens)
                if total_pages > kv.total_pages:
                    bail = True  # generic path raises the diagnostic
                    break
                if o > 1:
                    beg = i_tok + 1 - lo
                    if beg < 0 or beg + o - 1 > span:
                        bail = True  # off-table: per-iteration pricing
                        break
                if total_pages > kv.total_pages - kv.reserved_pages:
                    bail = True  # KV-blocked: generic loop stalls it
                    break
                pending.popleft()
                kv.commit(total_pages)
                held[row] = total_pages
                active.append(row)
                num_pref += 1
                admissions += 1
                progressed = True
                if len(active) > self.peak_active:
                    self.peak_active = len(active)
            if bail:
                result = 2 if progressed else 0
                break
            if num_pref:
                # Head prefilling row: arrival-order, so first in active.
                row = -1
                for r in active:
                    if generated[r] == 0:
                        row = r
                        break
                i_tok = inp_col[row]
                pre = chunk_costs.get((0, i_tok))
                if pre is None:
                    pre = chunk_cost(0, i_tok)
                clock += pre[0]
                busy += pre[0]
                e_mem += pre[1]
                e_pim += pre[2]
                e_npu += pre[3]
                flops += pre[4]
                prefill_passes += 1
                generated[row] = 1
                num_pref -= 1
                outstanding += i_tok + 1
                self._first[row] = clock
                if out_col[row] <= 1:
                    active.remove(row)
                    kv.reserved_pages -= held[row]
                    held[row] = 0
                    self.clock = clock
                    self._record_completion(row)
                continue
            if not active:
                break  # busy period drained; result stays 1
            # All-decode macro segment: same expressions, same order as
            # _macro_step's worst-case branch.
            batch_size = len(active)
            steps = span
            off_max = 0
            offsets = []
            oappend = offsets.append
            for r in active:
                off = inp_col[r] + generated[r] - lo
                oappend(off)
                if off > off_max:
                    off_max = off
                rem = out_col[r] - generated[r]
                if rem < steps:
                    steps = rem
            if steps > span - off_max:
                steps = span - off_max
            if steps < 1:
                result = 2
                break
            shared = share_unit * (batch_size - 1)
            shared_lat = shared * base_lat
            budget = None if until is None else until - clock
            if pending and batch_size < cap:
                arrival_budget = arr[pending[0]] - clock
                if budget is None or arrival_budget < budget:
                    budget = arrival_budget
            if budget is not None and steps * batch_size * lat_max >= budget:
                if batch_size == 1:
                    # Lone request: shared_lat is exactly 0.0, so
                    # elapsed(j) is the plain prefix-sum difference
                    # plat[off + j] - plat[off] and the scalar bisect's
                    # answer — the smallest j with elapsed(j) >= budget —
                    # is one vectorized subtract + searchsorted away.
                    # Same IEEE ops on the same floats (the numpy prefix
                    # twins hold the cumsum prefix_sums() listified), so
                    # the cut lands on the same step: byte-identical.
                    off = offsets[0]
                    lat_start = plat[off]
                    if plat[off + steps] - lat_start >= budget:
                        diffs = (
                            self._np_prefix[0][off : off + steps + 1]
                            - lat_start
                        )
                        steps = int(
                            np.searchsorted(diffs, budget, side="left")
                        )
                else:
                    lat_start = 0.0
                    total = 0.0
                    for off in offsets:
                        lat_start += plat[off]
                        total += plat[off + steps]
                    if total - lat_start - steps * shared_lat >= budget:
                        low, high = 0, steps
                        while high - low > 1:
                            mid = (low + high) // 2
                            elapsed = 0.0
                            for off in offsets:
                                elapsed += plat[off + mid]
                            elapsed = elapsed - lat_start - mid * shared_lat
                            if elapsed < budget:
                                low = mid
                            else:
                                high = mid
                        steps = high
            j = steps
            sum_lat = 0.0
            sum_em = 0.0
            sum_ep = 0.0
            sum_en = 0.0
            sum_fl = 0.0
            finished = None
            for off, r in zip(offsets, active):
                off_j = off + j
                sum_lat += plat[off_j] - plat[off]
                sum_em += pem[off_j] - pem[off]
                sum_ep += pep[off_j] - pep[off]
                sum_en += pen[off_j] - pen[off]
                sum_fl += pfl[off_j] - pfl[off]
                new_generated = generated[r] + j
                generated[r] = new_generated
                if new_generated >= out_col[r]:
                    if finished is None:
                        finished = [r]
                    else:
                        finished.append(r)
            delta = sum_lat - j * shared_lat
            clock += delta
            busy += delta
            e_mem += sum_em - j * shared * base[1]
            e_pim += sum_ep - j * shared * base[2]
            e_npu += sum_en - j * shared * base[3]
            flops += sum_fl
            decode_passes += j
            decode_tokens += j * batch_size
            outstanding += j * batch_size
            progressed = True
            if finished is not None:
                self.clock = clock
                for r in finished:
                    active.remove(r)
                    kv.reserved_pages -= held[r]
                    held[r] = 0
                    self._record_completion(r)

        if not progressed:
            return 0
        self.clock = clock
        self.busy = busy
        self._energy_mem = e_mem
        self._energy_pim = e_pim
        self._energy_npu = e_npu
        self.flops = flops
        self.prefill_passes += prefill_passes
        self.decode_passes += decode_passes
        self.decode_tokens += decode_tokens
        self.admissions += admissions
        self._outstanding -= outstanding
        self._num_prefilling = num_pref
        return result

    # ------------------------------------------------------------------
    # Optimistic admission: growth and preempt-and-recompute
    # ------------------------------------------------------------------
    def _grow_batch(
        self, batch: "list[int]", carrier_row: "int | None"
    ) -> "list[int]":
        if self._exact_kv:
            return self._grow_batch_exact(batch, carrier_row)
        kv = self.kv
        granted: list[int] = []
        protected: set[int] = set()
        if carrier_row is not None:
            protected.add(carrier_row)
        for row in batch:
            if row not in self.active:
                continue  # preempted by an earlier member's growth
            need = (
                self._pages_for(self._inp[row] + self._generated[row])
                - self._held[row]
            )
            if need > 0 and need > kv.free_pages and self.sim.preempt:
                protected.add(row)
                while need > kv.free_pages:
                    victim = self._choose_victim(protected)
                    if victim is None:
                        break  # everyone left is protected: stall, not deadlock
                    self._preempt(victim)
            if need <= kv.free_pages:
                if need > 0:
                    kv.commit(need)
                    self._held[row] += need
                granted.append(row)
                protected.add(row)
        return granted

    def _grow_batch_exact(
        self, batch: "list[int]", carrier_row: "int | None"
    ) -> "list[int]":
        """Row twin of the object engine's ``_grow_batch``: grants route
        through the accountant (shared pages never grow), and with the
        swap tier a victim's pages move to host DRAM instead of being
        thrown away — preempting a swapped row stays the last resort when
        resident shared-prefix pages pin the pool."""
        kv = self.kv
        sim = self.sim
        rid = self._rid
        granted: list[int] = []
        protected: set[int] = set()
        if carrier_row is not None:
            protected.add(carrier_row)
        for row in batch:
            if row not in self.active:
                continue  # evicted by an earlier member's growth
            tokens = self._inp[row] + self._generated[row]
            need = kv.grow_need(rid[row], tokens)
            if need <= 0:
                # No page boundary crossed: only one decode step in
                # ``page_tokens`` needs a page, so most grants end here.
                granted.append(row)
                protected.add(row)
                continue
            if need > kv.free_pages and (sim.swap or sim.preempt):
                protected.add(row)
                while need > kv.free_pages:
                    victim = self._choose_victim(protected)
                    if victim is not None:
                        if sim.swap:
                            self._swap_out(victim)
                        else:
                            self._preempt(victim)
                        continue
                    if sim.swap and self.swapped:
                        self._preempt_swapped(len(self.swapped) - 1)
                        continue
                    break  # everyone left is protected: stall, not deadlock
            if need <= kv.free_pages:
                kv.grow(rid[row], tokens)
                granted.append(row)
                protected.add(row)
        return granted

    def _choose_victim(self, protected: "set[int]") -> "int | None":
        candidates = [row for row in self.active if row not in protected]
        if not candidates:
            return None
        generated, prefilled = self._generated, self._prefilled
        arr, rid = self._arr, self._rid
        return min(
            candidates,
            key=lambda row: (
                generated[row],
                prefilled[row],
                -arr[row],
                -rid[row],
            ),
        )

    def _preempt(self, victim: int) -> None:
        if self._exact_kv:
            pages = self.kv.release(self._rid[victim])
        else:
            pages = self._held[victim]
            self.kv.reserved_pages -= pages
        self._held[victim] = 0
        self.active.remove(victim)
        if self._generated[victim] == 0:
            self._num_prefilling -= 1
        self.preemptions += 1
        lost = self._prefilled[victim] + self._generated[victim]
        self.recomputed_tokens += lost
        self._outstanding += lost
        if self.preemptions > 50 * max(self.offered, 1):  # pragma: no cover
            raise RuntimeError(
                f"preemption livelock: {self.preemptions} preemptions over "
                f"{self.offered} offered request(s)"
            )
        # The object engine builds a fresh _InFlight at re-admission;
        # rows persist here, so reset the progress columns now.
        self._prefilled[victim] = 0
        self._generated[victim] = 0
        self._first[victim] = 0.0
        self._requeue(victim)
        self._emit("preempt", request_id=self._rid[victim], tokens=pages)

    def _requeue(self, row: int) -> None:
        arr, rid = self._arr, self._rid
        keys = [(arr[r], rid[r]) for r in self.waiting]
        index = bisect_left(keys, (arr[row], rid[row]))
        self.waiting.insert(index, row)

    # ------------------------------------------------------------------
    # Completion recording and finalization
    # ------------------------------------------------------------------
    def _record_completion(self, row: int) -> None:
        if self._detail:
            sim = self.sim
            slo_s = 0.0
            if sim.slo_targets:
                index = min(self._cls[row], len(sim.slo_targets) - 1)
                slo_s = sim.slo_targets[index]
            self.completed.append(
                RequestMetrics(
                    request_id=self._rid[row],
                    arrival_s=self._arr[row],
                    first_token_s=self._first[row],
                    completion_s=self.clock,
                    input_tokens=self._inp[row],
                    output_tokens=self._out[row],
                    priority_class=self._cls[row],
                    slo_s=slo_s,
                    model=self._mdl[row],
                )
            )
        else:
            push_arr, push_first, push_done, push_out, push_cls = self._push_done
            push_arr(self._arr[row])
            push_first(self._first[row])
            push_done(self.clock)
            push_out(self._out[row])
            if push_cls is not None:
                push_cls(self._cls[row])
            if self._done_mdl is not None:
                self._done_mdl.append(
                    self._model_pos[self._mdl[row] or self.sim.model.name]
                )
        self._free.append(row)

    def completion_columns(self) -> dict:
        """Completion columns of the finished requests (metric pooling).

        Pooled-only runs hand over their typed completion columns, so no
        :class:`RequestMetrics` is ever built per request — at 1e6
        requests that object churn costs more than the simulation.
        """
        if self._detail:
            return super().completion_columns()
        columns = dict(
            arrival=self._done_arrival,
            first=self._done_first,
            completion=self._done_completion,
            out=self._done_out,
        )
        if self._done_cls is not None:
            classes = np.asarray(self._done_cls)
            targets = np.asarray(self.sim.slo_targets, dtype=np.float64)
            columns.update(
                classes=classes,
                slo=targets[np.minimum(classes, len(targets) - 1)],
            )
        if self._done_mdl is not None:
            columns.update(model=self._done_mdl, model_names=self._model_names)
        return columns

    # ------------------------------------------------------------------
    # Failure injection and failover (driven by the cluster layer)
    # ------------------------------------------------------------------
    def fail(self, now: float) -> "tuple[list[Request], int]":
        """Kill this replica at instant ``now`` (see the object engine)."""
        if self.finished:
            raise ValueError("cannot fail a finished run")
        if self.dead:
            raise ValueError("replica is already dead")
        dropped_ids = tuple(
            sorted(self._rid[row] for row in (*self.active, *self.swapped))
        )
        lost_rows = (
            list(self.active)
            + list(self.swapped)
            + list(self.waiting)
            + list(self.pending)
        )
        lost = [self._request(row) for row in lost_rows]
        lost.sort(key=lambda request: (request.arrival_s, request.request_id))
        if self._exact_kv:
            pages = self.kv.release_all()
        else:
            pages = self.kv.reserved_pages
            self.kv.reserved_pages = 0
        for row in lost_rows:
            self._held[row] = 0
            self._free.append(row)
        self.active.clear()
        self.swapped.clear()
        self.waiting.clear()
        self.pending.clear()
        self._num_prefilling = 0
        self._outstanding = 0
        if now > self.clock:
            self.clock = now
        self.dead = True
        self._emit("fail", tokens=pages, decode_ids=dropped_ids)
        return lost, pages

    def resubmit(self, request: Request) -> None:
        """Re-inject a failed-over request for recompute from scratch."""
        if self.finished:
            raise ValueError("cannot resubmit a request to a finished run")
        if self.dead:
            raise ValueError("cannot resubmit a request to a failed replica")
        if request.prefix_id >= 0 and not self._exact_kv:
            self._ensure_exact_kv()
        self._requeue(self._new_row(request))
        self.offered += 1
        self._outstanding += request.input_tokens + request.output_tokens
        if self.first_arrival is None or request.arrival_s < self.first_arrival:
            self.first_arrival = request.arrival_s
