"""Scheduling-invariant checks over the serving simulator's event log.

The simulator can record a :class:`SimEvent` per scheduling decision
(``simulate(..., record_events=True)``).  :func:`check_invariants` replays
that log against the trace and returns a list of human-readable violation
strings — empty when the run was sound.  ``repro serve --validate`` exits
nonzero on violations, so benches and CI can use the checker as a cheap
oracle next to any serving experiment.

The invariants checked (the scheduler's contract):

no KV over-subscription
    At every event, committed KV pages never exceed the pool
    (``kv_reserved_pages <= kv_total_pages``).  When the page geometry is
    supplied (``page_tokens`` plus the ``admission`` mode), the checker
    additionally replays the page *ledger* itself — commit at admission,
    on-demand growth per decode step under optimistic admission, release at
    preemption/completion — and requires every event's reported reservation
    to equal the replayed one.  A forged event (say, a ``preempt`` that
    claims to release pages the request never held) breaks the ledger and
    is reported, so the log proves no over-subscription *at any instant
    even with growth*.
work conservation
    The device never idles while an admitted request has a runnable pass:
    an ``idle`` clock jump is only legal when nothing is in flight, and
    every ``step`` must start exactly where the previous event left the
    clock whenever work was in flight.
token conservation (across preemption)
    Per in-flight *episode* (admit → complete/preempt), prefill chunk
    tokens never exceed the prompt and decodes never start before the
    episode's own prefill finished.  The completing episode must have
    prefilled exactly the prompt and decoded exactly ``output_tokens - 1``
    passes — preempted work is re-done exactly, from scratch.
completion
    Every request of the trace is completed exactly once, every admission
    beyond the first is preceded by a preemption (``admits == preempts +
    1``), and nothing is left in flight at the end of the log.
monotone time
    Event clocks never move backwards; ``admit``, ``preempt`` and
    ``complete`` consume no device time.

Production-ops events (``fail``, ``recover``, ``scale``) extend the
contract across a cluster: :func:`check_cluster_invariants` replays every
replica's log independently (a failure must drop exactly the pages and
requests the replica held, a dead replica must stay silent until its
recovery, an autoscaled replica's log must open with its scale-up marker)
and then checks the *global* books — every request of the trace completes
exactly once across all replicas, and every admission is explained by a
preemption or a failure drop (``admits == preempts + drops + 1``).  A
forged or deleted failure event breaks either the per-replica ledger or
the global accounting and is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.serving.request import Request

__all__ = ["SimEvent", "check_invariants", "check_cluster_invariants"]

#: Relative slack for floating-point clock comparisons.
_CLOCK_EPS = 1e-9


@dataclass(frozen=True)
class SimEvent:
    """One scheduling event of a simulated trace.

    Kinds
    -----
    ``idle``
        The device had nothing admitted and jumped the clock to the next
        arrival.  ``latency_s`` is 0; legal only with nothing in flight.
    ``admit``
        A request was admitted: its KV pages were committed (``tokens`` is
        the page count — the worst-case ``input + output`` pages under
        worst-case admission, the prompt pages under optimistic
        admission).  Instantaneous.
    ``step``
        One device iteration: a prefill chunk of ``request_id``
        (``tokens`` chunk tokens; ``request_id`` is ``None`` for a pure
        decode iteration) fused with one decode token for each request in
        ``decode_ids``.  ``latency_s`` is the iteration's device time.
    ``preempt``
        ``request_id`` was evicted to free KV pages (``tokens`` is the
        page count released) and re-enqueued for recompute from scratch.
        Instantaneous; emitted only under optimistic admission.
    ``swap_out``
        ``request_id``'s private KV pages (``tokens``) were moved to host
        DRAM over the modeled link; ``latency_s`` is the transfer time
        (it advances the clock).  The request keeps its progress and its
        shared-prefix reference; it must not prefill, decode or complete
        until its ``swap_in``.
    ``swap_in``
        ``request_id``'s private pages (``tokens``) were restored to the
        pool; ``latency_s`` is the transfer time.  The request resumes
        exactly where it was swapped out — nothing is recomputed.
    ``complete``
        ``request_id`` finished and released its KV pages.  Instantaneous.
    ``fail``
        The replica died: every KV page was dropped (``tokens`` is the
        page count) and every request vanished (``decode_ids`` lists the
        *admitted* ones — queued victims left no device state behind).
        The replica is dead until a ``recover`` event.
    ``recover``
        A failed replica came back, empty.
    ``model_swap``
        The replica swapped its *active model*: the weights of ``model``
        were streamed in over the host link (``tokens`` is the byte count
        moved, ``latency_s`` the transfer time — it advances the clock).
        Only emitted by multi-model replicas; until the next
        ``model_swap`` every prefill/decode must belong to ``model``.
    ``scale``
        An autoscaling decision: ``tokens`` is +1 (this replica was
        spawned — must be its log's first event) or -1 (this replica was
        marked draining: it finishes its work but takes no new routes).

    ``clock_s`` is the simulation time *after* the event; ``active`` and
    ``waiting`` are the in-flight/queued request counts after it.
    """

    kind: str
    clock_s: float
    latency_s: float = 0.0
    request_id: "int | None" = None
    tokens: int = 0
    decode_ids: tuple[int, ...] = ()
    active: int = 0
    waiting: int = 0
    kv_reserved_pages: int = 0
    kv_total_pages: int = 0
    #: Target model of a ``model_swap`` event; "" on every other kind (so
    #: single-model event logs keep their pre-multi-model shape).
    model: str = ""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _CLOCK_EPS * max(1.0, abs(a), abs(b))


def _pages_for(tokens: int, page_tokens: int) -> int:
    return -(-tokens // page_tokens)


class _Ledger:
    """Replays the page accounting the events claim, when geometry is known.

    Mirrors :class:`~repro.serving.kv_memory.KvPageAccountant` exactly:
    ``held`` is each request's *private* resident pages, shared-prefix
    groups are reference-counted and their whole pages counted once, and
    ``swapped`` parks private pages in host DRAM between ``swap_out`` /
    ``swap_in`` events.  Every quantity is re-derived from the trace's
    request shapes — a forged refcount, an invented share, or a deleted
    swap event makes the replayed reservation diverge from the reported
    one and is caught.

    ``reserved`` (resident pages: ``held`` plus each group's pages once)
    is a running total that every method keeps, since the replay compares
    it against almost every event.
    """

    def __init__(self, page_tokens: int, admission: str) -> None:
        if page_tokens < 1:
            raise ValueError("page_tokens must be at least 1")
        if admission not in ("worst-case", "optimistic"):
            raise ValueError(
                f"admission must be 'worst-case' or 'optimistic', got {admission!r}"
            )
        self.page_tokens = page_tokens
        self.optimistic = admission == "optimistic"
        self.held: dict[int, int] = {}
        #: Private pages per request parked in host DRAM.
        self.swapped: dict[int, int] = {}
        #: prefix_id -> [shared pages, refcount] of resident groups.
        self.groups: dict[int, list[int]] = {}
        self.request_group: dict[int, int] = {}
        self.reserved = 0

    def _shared_pages(self, request: Request) -> int:
        if request.prefix_id < 0 or request.prefix_tokens <= 0:
            return 0
        # Only the whole pages of the prefix are shareable; the partial
        # last page stays private (same split as the accountant).
        return request.prefix_tokens // self.page_tokens

    def commit_pages(self, request: Request) -> int:
        """Unique new pages the request's admission charges."""
        tokens = (
            request.input_tokens if self.optimistic else request.total_tokens
        )
        pages = _pages_for(tokens, self.page_tokens)
        shared = self._shared_pages(request)
        if shared == 0:
            return pages
        first = request.prefix_id not in self.groups
        return (pages - shared) + (shared if first else 0)

    def admit(self, request: Request) -> None:
        tokens = (
            request.input_tokens if self.optimistic else request.total_tokens
        )
        pages = _pages_for(tokens, self.page_tokens)
        shared = self._shared_pages(request)
        rid = request.request_id
        self.reserved += pages - shared - self.held.get(rid, 0)
        self.held[rid] = pages - shared
        if shared > 0:
            group = self.groups.get(request.prefix_id)
            if group is None:
                group = self.groups[request.prefix_id] = [shared, 0]
                self.reserved += shared
            group[1] += 1
            self.request_group[rid] = request.prefix_id

    def decode(self, request: Request, decode_steps: int) -> None:
        """Grow for decode pass number ``decode_steps`` (1-indexed)."""
        if not self.optimistic:
            return
        # Decode pass k reads KV length input + k and appends its token's
        # entry, so the request must hold pages for input + k tokens —
        # minus its shared-prefix pages, which are held by the group.
        required = _pages_for(
            request.input_tokens + decode_steps, self.page_tokens
        ) - self._shared_pages(request)
        held = self.held.get(request.request_id, 0)
        if required > held:
            self.held[request.request_id] = required
            self.reserved += required - held

    def release(self, request_id: int) -> int:
        """Drop a reservation; returns the resident pages freed."""
        freed = self.held.pop(request_id, 0)
        self.swapped.pop(request_id, None)
        gid = self.request_group.pop(request_id, None)
        if gid is not None and gid in self.groups:
            group = self.groups[gid]
            group[1] -= 1
            if group[1] <= 0:
                freed += group[0]
                del self.groups[gid]
        self.reserved -= freed
        return freed

    def swap_out(self, request_id: int) -> int:
        """Move private pages to the host side; returns pages moved."""
        pages = self.held.pop(request_id, 0)
        self.swapped[request_id] = pages
        self.reserved -= pages
        return pages

    def swap_in(self, request_id: int) -> int:
        """Restore private pages from the host side; returns pages moved."""
        pages = self.swapped.pop(request_id, 0)
        self.reserved += pages - self.held.get(request_id, 0)
        self.held[request_id] = pages
        return pages

    def clear(self) -> None:
        """Drop everything (replica failure)."""
        self.held.clear()
        self.swapped.clear()
        self.groups.clear()
        self.request_group.clear()
        self.reserved = 0


def _replay(
    events: Sequence[SimEvent],
    by_id: "dict[int, Request]",
    ledger: "_Ledger | None",
    default_model: "str | None" = None,
) -> "tuple[list[str], dict]":
    """Replay one event log; returns (violations, end-of-log accounting).

    The accounting dict carries what the cross-log checks need: the
    requests still in flight, the per-request admit/preempt/failure-drop
    counts, the completed set, and whether the log opened with a scale-up
    marker.

    ``default_model`` (the simulator's default model name) enables the
    *resident-model* replay for multi-model logs: every prefill/decode
    must belong to the model most recently swapped in, and a
    ``model_swap`` to the already-resident model is a violation (a forged
    insertion; a deleted swap is caught by the step-model mismatch).  The
    replay also auto-enables when the log contains any ``model_swap``
    event, so forged swaps in a single-model log are caught too.
    """
    violations: list[str] = []
    track_models = default_model is not None or any(
        event.kind == "model_swap" for event in events
    )
    resident = default_model or ""

    def _model_of(request: "Request | None") -> str:
        if request is None:
            return resident
        return request.model or default_model or ""
    in_flight: set[int] = set()
    #: In-flight requests whose private pages sit in host DRAM; they keep
    #: their episode progress but must not run until swapped back in.
    swapped: set[int] = set()
    completed: set[int] = set()
    #: Per-episode counters, reset by admit, discarded by preempt.
    prefill_tokens: dict[int, int] = {}
    decode_steps: dict[int, int] = {}
    admit_count: dict[int, int] = {}
    preempt_count: dict[int, int] = {}
    fail_drops: dict[int, int] = {}
    prev_clock = 0.0
    prev_active = 0
    dead = False
    scale_up_first = False

    def where() -> str:
        # Formatted only when a violation is reported.
        return f"event {index} ({event.kind} @ {event.clock_s:.6f}s)"

    for index, event in enumerate(events):
        if event.clock_s < prev_clock - _CLOCK_EPS:
            violations.append(
                f"{where()}: clock moved backwards from {prev_clock:.6f}s"
            )
        if event.kv_reserved_pages > event.kv_total_pages:
            violations.append(
                f"{where()}: KV over-subscription — {event.kv_reserved_pages} "
                f"pages committed of {event.kv_total_pages}"
            )
        if dead and event.kind != "recover":
            violations.append(
                f"{where()}: event on a failed replica before its recovery"
            )

        if event.kind == "idle":
            if prev_active > 0:
                violations.append(
                    f"{where()}: device idled while {prev_active} admitted "
                    "request(s) had runnable passes"
                )
        elif event.kind == "admit":
            if not _close(event.clock_s, prev_clock):
                violations.append(f"{where()}: admission consumed device time")
            if event.request_id in in_flight:
                violations.append(
                    f"{where()}: request {event.request_id} admitted twice"
                )
            elif event.request_id in completed:
                violations.append(
                    f"{where()}: request {event.request_id} admitted after completion"
                )
            elif event.request_id not in by_id:
                violations.append(
                    f"{where()}: admitted unknown request {event.request_id}"
                )
            else:
                in_flight.add(event.request_id)
                prefill_tokens[event.request_id] = 0
                decode_steps[event.request_id] = 0
                admit_count[event.request_id] = (
                    admit_count.get(event.request_id, 0) + 1
                )
                if ledger is not None:
                    request = by_id[event.request_id]
                    expected = ledger.commit_pages(request)
                    if event.tokens != expected:
                        violations.append(
                            f"{where()}: request {event.request_id} committed "
                            f"{event.tokens} page(s), expected {expected}"
                        )
                    ledger.admit(request)
        elif event.kind == "step":
            if event.latency_s <= 0.0:
                violations.append(f"{where()}: step with non-positive latency")
            if event.request_id is None and not event.decode_ids:
                violations.append(f"{where()}: step scheduled no work")
            start = event.clock_s - event.latency_s
            if prev_active > 0 and not _close(start, prev_clock):
                violations.append(
                    f"{where()}: idle gap of {start - prev_clock:.9f}s while "
                    f"{prev_active} request(s) were in flight"
                )
            if event.request_id is not None:
                if event.request_id not in in_flight:
                    violations.append(
                        f"{where()}: prefilled request {event.request_id} "
                        "before admission"
                    )
                elif event.request_id in swapped:
                    violations.append(
                        f"{where()}: prefilled request {event.request_id} "
                        "while its pages were swapped out"
                    )
                elif event.tokens < 1:
                    violations.append(
                        f"{where()}: prefill chunk of {event.tokens} tokens"
                    )
                else:
                    prefill_tokens[event.request_id] += event.tokens
                    request = by_id.get(event.request_id)
                    if (
                        request is not None
                        and prefill_tokens[event.request_id] > request.input_tokens
                    ):
                        violations.append(
                            f"{where()}: request {event.request_id} prefilled "
                            f"{prefill_tokens[event.request_id]} tokens of a "
                            f"{request.input_tokens}-token prompt"
                        )
            for decode_id in event.decode_ids:
                if decode_id not in in_flight:
                    violations.append(
                        f"{where()}: decoded request {decode_id} before admission"
                    )
                    continue
                if decode_id in swapped:
                    violations.append(
                        f"{where()}: decoded request {decode_id} while its "
                        "pages were swapped out"
                    )
                    continue
                request = by_id.get(decode_id)
                if (
                    request is not None
                    and prefill_tokens.get(decode_id, 0) < request.input_tokens
                ):
                    violations.append(
                        f"{where()}: decoded request {decode_id} before its "
                        "prefill completed"
                    )
                decode_steps[decode_id] = decode_steps.get(decode_id, 0) + 1
                if ledger is not None and request is not None:
                    ledger.decode(request, decode_steps[decode_id])
            if event.request_id is not None and event.request_id in event.decode_ids:
                violations.append(
                    f"{where()}: request {event.request_id} prefilled and "
                    "decoded in the same step"
                )
            if track_models:
                ran = (
                    () if event.request_id is None else (event.request_id,)
                ) + tuple(event.decode_ids)
                for rid in ran:
                    request = by_id.get(rid)
                    model = _model_of(request)
                    if request is not None and model != resident:
                        violations.append(
                            f"{where()}: request {rid} targets model "
                            f"{model!r} but {resident!r} was resident"
                        )
        elif event.kind == "preempt":
            if not _close(event.clock_s, prev_clock):
                violations.append(f"{where()}: preemption consumed device time")
            if event.request_id not in in_flight:
                violations.append(
                    f"{where()}: preempted request {event.request_id} that was "
                    "not in flight"
                )
            else:
                in_flight.discard(event.request_id)
                swapped.discard(event.request_id)
                preempt_count[event.request_id] = (
                    preempt_count.get(event.request_id, 0) + 1
                )
                # The episode's work is discarded: it must be re-done from
                # scratch by a later episode (checked at its completion).
                prefill_tokens.pop(event.request_id, None)
                decode_steps.pop(event.request_id, None)
                if ledger is not None:
                    released = ledger.release(event.request_id)
                    if event.tokens != released:
                        violations.append(
                            f"{where()}: preemption of request "
                            f"{event.request_id} released {event.tokens} "
                            f"page(s) but it held {released}"
                        )
        elif event.kind == "swap_out":
            if event.latency_s < 0.0:
                violations.append(f"{where()}: swap-out with negative latency")
            start = event.clock_s - event.latency_s
            if prev_active > 0 and not _close(start, prev_clock):
                violations.append(
                    f"{where()}: idle gap of {start - prev_clock:.9f}s while "
                    f"{prev_active} request(s) were in flight"
                )
            if event.request_id not in in_flight:
                violations.append(
                    f"{where()}: swapped out request {event.request_id} that "
                    "was not in flight"
                )
            elif event.request_id in swapped:
                violations.append(
                    f"{where()}: request {event.request_id} swapped out twice"
                )
            else:
                swapped.add(event.request_id)
                # Unlike preemption the episode's progress survives: the
                # prefill/decode counters are deliberately NOT discarded.
                if ledger is not None:
                    moved = ledger.swap_out(event.request_id)
                    if event.tokens != moved:
                        violations.append(
                            f"{where()}: swap-out of request "
                            f"{event.request_id} moved {event.tokens} "
                            f"page(s) but it held {moved}"
                        )
        elif event.kind == "swap_in":
            if event.latency_s < 0.0:
                violations.append(f"{where()}: swap-in with negative latency")
            start = event.clock_s - event.latency_s
            if prev_active > 0 and not _close(start, prev_clock):
                violations.append(
                    f"{where()}: idle gap of {start - prev_clock:.9f}s while "
                    f"{prev_active} request(s) were in flight"
                )
            if event.request_id not in swapped:
                violations.append(
                    f"{where()}: swapped in request {event.request_id} that "
                    "was not swapped out"
                )
            else:
                swapped.discard(event.request_id)
                if ledger is not None:
                    moved = ledger.swap_in(event.request_id)
                    if event.tokens != moved:
                        violations.append(
                            f"{where()}: swap-in of request "
                            f"{event.request_id} restored {event.tokens} "
                            f"page(s) but its host copy held {moved}"
                        )
        elif event.kind == "complete":
            if not _close(event.clock_s, prev_clock):
                violations.append(f"{where()}: completion consumed device time")
            if event.request_id in completed:
                violations.append(
                    f"{where()}: request {event.request_id} completed twice"
                )
            elif event.request_id not in in_flight:
                violations.append(
                    f"{where()}: request {event.request_id} completed without admission"
                )
            elif event.request_id in swapped:
                violations.append(
                    f"{where()}: request {event.request_id} completed while "
                    "its pages were swapped out"
                )
            else:
                in_flight.discard(event.request_id)
                completed.add(event.request_id)
                request = by_id.get(event.request_id)
                if request is not None:
                    done = prefill_tokens.get(event.request_id, 0)
                    if done != request.input_tokens:
                        violations.append(
                            f"request {event.request_id}: prefill chunks sum "
                            f"to {done} tokens, prompt is "
                            f"{request.input_tokens}"
                        )
                    expected = request.output_tokens - 1
                    steps = decode_steps.get(event.request_id, 0)
                    if steps != expected:
                        violations.append(
                            f"request {event.request_id}: {steps} decode "
                            f"steps, expected {expected}"
                        )
                if ledger is not None:
                    ledger.release(event.request_id)
        elif event.kind == "model_swap":
            if event.latency_s < 0.0:
                violations.append(f"{where()}: model swap with negative latency")
            start = event.clock_s - event.latency_s
            if prev_active > 0 and not _close(start, prev_clock):
                violations.append(
                    f"{where()}: idle gap of {start - prev_clock:.9f}s while "
                    f"{prev_active} request(s) were in flight"
                )
            if event.tokens <= 0:
                violations.append(
                    f"{where()}: model swap streamed {event.tokens} weight byte(s)"
                )
            if not event.model:
                violations.append(f"{where()}: model swap names no model")
            elif event.model == resident:
                violations.append(
                    f"{where()}: model swap to the already-resident model "
                    f"{event.model!r} (a swap must change the active model)"
                )
            else:
                resident = event.model
        elif event.kind == "fail":
            dropped = set(event.decode_ids)
            if dropped != in_flight:
                claimed = ", ".join(str(rid) for rid in sorted(dropped)) or "-"
                held = ", ".join(str(rid) for rid in sorted(in_flight)) or "-"
                violations.append(
                    f"{where()}: failure dropped request(s) {claimed} but "
                    f"{held} were in flight"
                )
            if ledger is not None and event.tokens != ledger.reserved:
                violations.append(
                    f"{where()}: failure dropped {event.tokens} page(s) but "
                    f"the replica held {ledger.reserved}"
                )
            for rid in in_flight:
                fail_drops[rid] = fail_drops.get(rid, 0) + 1
            in_flight.clear()
            swapped.clear()
            prefill_tokens.clear()
            decode_steps.clear()
            if ledger is not None:
                ledger.clear()
            dead = True
        elif event.kind == "recover":
            if not dead:
                violations.append(
                    f"{where()}: recovery without a preceding failure"
                )
            dead = False
        elif event.kind == "scale":
            if event.tokens == 1:
                if index != 0:
                    violations.append(
                        f"{where()}: scale-up marker must be the replica's "
                        "first event"
                    )
                else:
                    scale_up_first = True
            elif event.tokens != -1:
                violations.append(
                    f"{where()}: scale event must carry +1 (spawn) or "
                    f"-1 (drain), got {event.tokens}"
                )
        else:
            violations.append(f"{where()}: unknown event kind {event.kind!r}")

        # The ledger must agree with every reported reservation.  Preempt
        # and swap-out events are exempt from the *equality* check only
        # because growth for earlier batch members interleaves with
        # evictions inside one iteration; the released/moved page count is
        # still verified above, and the very next step event re-pins the
        # full ledger.
        if (
            ledger is not None
            and event.kind not in ("preempt", "swap_out")
            and event.kv_reserved_pages != ledger.reserved
        ):
            violations.append(
                f"{where()}: page ledger mismatch — event reports "
                f"{event.kv_reserved_pages} reserved page(s), replay holds "
                f"{ledger.reserved}"
            )
        prev_clock = event.clock_s
        prev_active = event.active

    stats = {
        "in_flight": in_flight,
        "completed": completed,
        "admit_count": admit_count,
        "preempt_count": preempt_count,
        "fail_drops": fail_drops,
        "scale_up_first": scale_up_first,
    }
    return violations, stats


def check_invariants(
    events: Sequence[SimEvent],
    requests: Sequence[Request],
    page_tokens: "int | None" = None,
    admission: "str | None" = None,
    default_model: "str | None" = None,
) -> list[str]:
    """Check the scheduler's invariants; returns violations (empty = sound).

    ``page_tokens`` and ``admission`` (both or neither) additionally enable
    the exact page-ledger replay — pass the simulator's ``page_tokens`` and
    ``admission`` so every reported reservation is re-derived from the
    trace and compared against the log.

    ``default_model`` (the simulator's default model name) enables the
    resident-model replay of multi-model logs; it also auto-enables when
    the log contains a ``model_swap`` event (see :func:`_replay`).
    """
    if (page_tokens is None) != (admission is None):
        raise ValueError("pass page_tokens and admission together (or neither)")
    ledger: "_Ledger | None" = None
    if page_tokens is not None and admission is not None:
        ledger = _Ledger(page_tokens, admission)
    violations: list[str] = []
    by_id = {request.request_id: request for request in requests}
    if len(by_id) != len(requests):
        violations.append("trace contains duplicate request ids")

    replay_violations, stats = _replay(
        events, by_id, ledger, default_model=default_model
    )
    violations.extend(replay_violations)
    completed = stats["completed"]

    for request in requests:
        rid = request.request_id
        if rid not in completed:
            violations.append(f"request {rid} never completed")
            continue
        admits = stats["admit_count"].get(rid, 0)
        preempts = stats["preempt_count"].get(rid, 0)
        if admits != preempts + 1:
            violations.append(
                f"request {rid}: {admits} admission(s) but {preempts} "
                "preemption(s) — every re-admission needs a preemption"
            )
    if stats["in_flight"]:
        leftovers = ", ".join(str(rid) for rid in sorted(stats["in_flight"]))
        violations.append(
            f"request(s) {leftovers} still in flight at the end of the log"
        )
    if len(completed) != len(requests):
        violations.append(
            f"{len(completed)} requests completed, trace has {len(requests)}"
        )
    return violations


def check_cluster_invariants(
    event_logs: "Sequence[Sequence[SimEvent]]",
    requests: Sequence[Request],
    page_tokens: "int | None" = None,
    admission: "str | None" = None,
    initial_replicas: "int | None" = None,
    default_model: "str | None" = None,
) -> list[str]:
    """Check a cluster run with failures/failover/autoscaling; empty = sound.

    Every replica's log is replayed independently against the *full* trace
    (failover legitimately moves a request between replicas, so assignment
    is not fixed), then the global books are balanced:

    - every request of the trace completes **exactly once** across all
      replicas (failover loses nothing, recomputes duplicate nothing);
    - every admission is explained — globally, ``admits == preempts +
      failure drops + 1`` per request, the token-conservation argument
      extended across replica death;
    - a dead replica emits nothing until its ``recover`` event, and a
      failure drops exactly the pages and in-flight requests the replica's
      replayed ledger holds;
    - replicas beyond ``initial_replicas`` (default: all of them) were
      autoscaled into existence and must open their log with the ``scale``
      +1 marker.
    """
    if (page_tokens is None) != (admission is None):
        raise ValueError("pass page_tokens and admission together (or neither)")
    if initial_replicas is None:
        initial_replicas = len(event_logs)
    violations: list[str] = []
    by_id = {request.request_id: request for request in requests}
    if len(by_id) != len(requests):
        violations.append("trace contains duplicate request ids")

    admit_total: dict[int, int] = {}
    preempt_total: dict[int, int] = {}
    drop_total: dict[int, int] = {}
    completions: dict[int, int] = {}
    for replica, events in enumerate(event_logs):
        ledger: "_Ledger | None" = None
        if page_tokens is not None and admission is not None:
            ledger = _Ledger(page_tokens, admission)
        replay_violations, stats = _replay(
            events, by_id, ledger, default_model=default_model
        )
        violations.extend(
            f"replica {replica}: {violation}" for violation in replay_violations
        )
        if stats["in_flight"]:
            leftovers = ", ".join(str(rid) for rid in sorted(stats["in_flight"]))
            violations.append(
                f"replica {replica}: request(s) {leftovers} still in flight "
                "at the end of the log"
            )
        if replica >= initial_replicas and not stats["scale_up_first"]:
            violations.append(
                f"replica {replica}: autoscaled replica's log does not open "
                "with its scale-up marker"
            )
        for rid, count in stats["admit_count"].items():
            admit_total[rid] = admit_total.get(rid, 0) + count
        for rid, count in stats["preempt_count"].items():
            preempt_total[rid] = preempt_total.get(rid, 0) + count
        for rid, count in stats["fail_drops"].items():
            drop_total[rid] = drop_total.get(rid, 0) + count
        for rid in stats["completed"]:
            completions[rid] = completions.get(rid, 0) + 1

    for request in requests:
        rid = request.request_id
        done = completions.get(rid, 0)
        if done == 0:
            violations.append(f"request {rid} never completed")
            continue
        if done > 1:
            violations.append(
                f"request {rid} completed {done} times across replicas"
            )
        admits = admit_total.get(rid, 0)
        preempts = preempt_total.get(rid, 0)
        drops = drop_total.get(rid, 0)
        if admits != preempts + drops + 1:
            violations.append(
                f"request {rid}: {admits} admission(s) but {preempts} "
                f"preemption(s) and {drops} failure drop(s) — every "
                "re-admission needs a preemption or a failure"
            )
    return violations
