"""Paged KV-cache memory accounting for the serving simulator.

The paper's central constraint is the memory system: model weights and the
KV cache of every in-flight request share the same capacity (the unified
PIM/NPU memory on IANUS, HBM on the A100/DFX baselines).  PR 3's serving
simulator ignored that — admission was a fixed ``max_batch`` head count —
so its load curves said nothing about the regime the design targets.

This module supplies the missing accounting, vLLM-style:

* the KV cache is allocated in fixed-size **pages** of ``page_tokens``
  tokens each (a page holds the K and V vectors of every block for those
  tokens, i.e. ``page_tokens * model.num_blocks *
  model.kv_bytes_per_token_per_block`` bytes);
* the page pool's byte **budget** is derived from the backend itself:
  whatever the backend's memory system holds beyond the model weights,
  scaled by a ``fraction`` knob so experiments can sweep memory pressure
  without inventing hardware (:func:`kv_budget_bytes`);
* under **worst-case-commit** admission a request's worst-case page count
  (its full ``input + output`` tokens) is committed up front and released
  at completion.  Committing the maximum is deliberately conservative: it
  is deadlock-free by construction (an admitted request can always grow to
  its last token), which is what makes the scheduler's *no
  over-subscription at any event time* invariant checkable — and cheap to
  check — in :mod:`repro.serving.validate`;
* under **optimistic** admission only the prompt pages are committed up
  front and decode **grows** the reservation on demand
  (:meth:`KvPageAccountant.grow`), one page boundary at a time.  Growth can
  fail when the pool is exhausted; the scheduler then preempts a victim and
  recomputes it (:mod:`repro.serving.simulator`), so optimism admits more
  concurrent requests in exchange for occasional wasted work.

Shared-prefix reference counting
--------------------------------
At production scale most prompts share a system prefix, and vLLM-style
prefix caching stores those pages **once**.  A request may declare a
*prefix group* (``prefix_id >= 0``) and a prefix length in tokens; only the
**whole** pages of the prefix (``prefix_tokens // page_tokens``) are
shareable — the partial last page, if any, stays private, exactly as a
radix-tree block cache would split it.  The first member of a group to
arrive pays for the shared pages and every later member reuses them for
free; a per-group **reference count** keeps the pages resident until the
last member releases.  Admission therefore charges only the *unique new*
pages of a request, which is what lets a shared-prefix trace admit more
concurrent requests at the same ``kv_fraction``.

Host-DRAM swap tier
-------------------
Preempt-and-recompute throws a victim's KV state away and pays the prefill
again.  The alternative the paper's memory hierarchy invites is to **swap**
the victim's pages out to host DRAM over the PCIe/interconnect link and
restore them on resume — trading link transfer time for recompute time.
:meth:`KvPageAccountant.swap_out` moves a request's *private* pages off the
device (its shared-prefix pages stay resident — other members still decode
against them, so evicting them would corrupt the pool) and
:meth:`KvPageAccountant.swap_in` moves them back, failing loudly if the
pool no longer has room.  The scheduler prices the transfer from the page
size and a ``link_gbps`` knob; which side of the swap-vs-recompute frontier
a configuration lands on is exactly what the ``kv_hierarchy`` sweep
measures.

Backends expose their capacity differently, so the derivation dispatches on
what the cost model's ``config`` carries: the simulator backends
(:class:`~repro.core.system.IanusSystem` and its NPU-MEM variant) expose
``npu_visible_capacity_bytes`` (per device, so it scales with
``num_devices``); the analytical baselines expose ``memory_capacity_bytes``
(the A100's 80 GiB, DFX's aggregate HBM).  Cost models exposing neither —
test doubles, future backends — fall back to a fixed
:data:`DEFAULT_KV_BUDGET_BYTES` budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import GiB
from repro.core.costmodel import CostModel
from repro.models.transformer import ModelConfig

__all__ = [
    "DEFAULT_PAGE_TOKENS",
    "DEFAULT_KV_BUDGET_BYTES",
    "backend_memory_capacity_bytes",
    "kv_budget_bytes",
    "KvPageAccountant",
]

#: Tokens per KV page (vLLM's default block size).
DEFAULT_PAGE_TOKENS = 16

#: Fixed-budget fallback for cost models that expose no memory capacity.
DEFAULT_KV_BUDGET_BYTES = 16 * GiB


def backend_memory_capacity_bytes(cost_model: CostModel) -> "int | None":
    """Total model-visible memory of a backend, or ``None`` if unknown.

    Simulator backends report the NPU-visible slice of the PIM memory
    (times the device count); analytical baselines report their HBM
    capacity.  ``None`` means the caller should fall back to
    :data:`DEFAULT_KV_BUDGET_BYTES`.
    """
    config = getattr(cost_model, "config", None)
    if config is None:
        return None
    capacity = getattr(config, "npu_visible_capacity_bytes", None)
    if capacity is not None:
        return int(capacity) * int(getattr(cost_model, "num_devices", 1))
    capacity = getattr(config, "memory_capacity_bytes", None)
    if capacity is not None:
        return int(capacity)
    return None


def kv_budget_bytes(
    cost_model: CostModel,
    model: ModelConfig,
    fraction: float = 1.0,
    models=None,
) -> int:
    """Bytes of the backend's memory available to the KV page pool.

    The budget is ``fraction`` of whatever the backend's capacity holds
    beyond the model weights.  ``fraction`` sweeps memory pressure: 1.0
    grants the whole remainder, smaller values model co-tenancy or smaller
    memory parts without touching the latency model.

    ``models`` (a co-hosted model set containing ``model``) sizes the pool
    once, conservatively, for the **largest** member: the replica holds one
    resident model at a time, but the pool must never shrink mid-run when
    a weight swap brings in a bigger model.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    heaviest = model
    if models:
        heaviest = max(models, key=lambda member: member.param_bytes)
    capacity = backend_memory_capacity_bytes(cost_model)
    if capacity is None:
        free = DEFAULT_KV_BUDGET_BYTES
    else:
        free = capacity - heaviest.param_bytes
        if free <= 0:
            raise ValueError(
                f"{heaviest.name} weights ({heaviest.param_bytes / GiB:.2f} "
                f"GiB) do not fit the {cost_model.name} memory system "
                f"({capacity / GiB:.2f} GiB); no room for any KV cache"
            )
    return int(free * fraction)


@dataclass
class _PrefixGroup:
    """One resident shared prefix: whole pages held once for many requests."""

    prefix_tokens: int
    pages: int
    refcount: int = 0


@dataclass
class KvPageAccountant:
    """Tracks committed KV pages of the in-flight requests against a budget.

    ``reserve``/``release`` bracket a request's lifetime; ``can_reserve``
    is the admission test.  Reserving more pages than the pool holds raises
    — the scheduler must never over-subscribe, and the accountant enforcing
    it here is what the invariant suite leans on.

    Requests that declare a shared prefix (``prefix_id >= 0``) charge the
    prefix's whole pages only on the group's first reservation; later
    members bump the group's reference count and pay only their private
    pages.  ``swap_out``/``swap_in`` move a request's private pages between
    the device pool and host DRAM (shared pages never move — other group
    members still use them).

    ``reserved_pages``, ``free_pages`` and ``swapped_pages`` are O(1): the
    pool-wide totals are running counters that every page-moving method
    updates, since the schedulers read them on every admission, growth
    and event.
    """

    budget_bytes: int
    token_bytes: int
    page_tokens: int = DEFAULT_PAGE_TOKENS
    #: Private (unshared) resident pages per request.
    _reserved: dict[int, int] = field(default_factory=dict, repr=False)
    #: Private pages per request currently swapped out to host DRAM.
    _swapped: dict[int, int] = field(default_factory=dict, repr=False)
    #: Resident shared-prefix groups, by prefix id.
    _groups: dict[int, _PrefixGroup] = field(default_factory=dict, repr=False)
    #: Prefix group of each sharing request (absent for private requests).
    _request_group: dict[int, int] = field(default_factory=dict, repr=False)
    #: High-water mark of committed pages over the accountant's lifetime.
    peak_reserved_pages: int = 0
    #: Pool size in pages, fixed at construction.
    total_pages: int = field(default=0, init=False, repr=False)
    #: Running totals behind ``reserved_pages`` and ``swapped_pages``,
    #: kept by every method that moves pages.
    _reserved_pages: int = field(default=0, init=False, repr=False)
    _swapped_pages: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        if self.token_bytes <= 0:
            raise ValueError("token_bytes must be positive")
        if self.page_tokens < 1:
            raise ValueError("page_tokens must be at least 1")
        self.total_pages = self.budget_bytes // self.page_bytes
        if self.total_pages < 1:
            raise ValueError(
                f"KV budget of {self.budget_bytes} bytes is smaller than one "
                f"{self.page_tokens}-token page ({self.page_bytes} bytes)"
            )

    @classmethod
    def for_backend(
        cls,
        cost_model: CostModel,
        model: ModelConfig,
        fraction: float = 1.0,
        page_tokens: int = DEFAULT_PAGE_TOKENS,
        budget_bytes: "int | None" = None,
        models=None,
    ) -> "KvPageAccountant":
        """Accountant sized from a backend's memory system (or an override).

        With a co-hosted ``models`` set, the pool is sized once for the
        worst case over the set — the largest weight footprint shrinks the
        budget and the largest per-token KV bytes set the page geometry —
        so pages stay comparable across weight swaps and the pool never
        resizes mid-run.
        """
        budget = (
            budget_bytes
            if budget_bytes is not None
            else kv_budget_bytes(cost_model, model, fraction, models=models)
        )
        token_bytes = model.num_blocks * model.kv_bytes_per_token_per_block
        if models:
            token_bytes = max(
                member.num_blocks * member.kv_bytes_per_token_per_block
                for member in models
            )
        return cls(
            budget_bytes=budget, token_bytes=token_bytes, page_tokens=page_tokens
        )

    # ------------------------------------------------------------------
    @property
    def page_bytes(self) -> int:
        return self.page_tokens * self.token_bytes

    @property
    def reserved_pages(self) -> int:
        """Resident pages: every request's private pages plus each shared
        group's pages counted **once**."""
        return self._reserved_pages

    @property
    def free_pages(self) -> int:
        return self.total_pages - self._reserved_pages

    @property
    def swapped_pages(self) -> int:
        """Private pages currently parked in host DRAM (not in the pool)."""
        return self._swapped_pages

    def pages_for(self, tokens: int) -> int:
        """Pages needed to hold ``tokens`` tokens of KV cache (ceiling)."""
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        return -(-tokens // self.page_tokens)

    def shared_pages_for(self, prefix_tokens: int) -> int:
        """Whole pages of a shared prefix — the shareable part.

        The partial last page (``prefix_tokens % page_tokens`` tokens)
        stays private to each request, radix-tree style.
        """
        if prefix_tokens < 0:
            raise ValueError("prefix_tokens must be non-negative")
        return prefix_tokens // self.page_tokens

    def fits_alone(self, tokens: int) -> bool:
        """Whether a request of ``tokens`` tokens can ever be served."""
        return self.pages_for(tokens) <= self.total_pages

    def resident_prefix_pages(self, prefix_id: int) -> int:
        """Pages of a shared prefix already resident (0 when absent).

        The kv-aware router uses this to steer a request toward the
        replica where its prefix is already cached — those pages cost it
        nothing there.
        """
        group = self._groups.get(prefix_id)
        return group.pages if group is not None else 0

    def prefix_refcount(self, prefix_id: int) -> int:
        """Reference count of a resident shared prefix (0 when absent)."""
        group = self._groups.get(prefix_id)
        return group.refcount if group is not None else 0

    # ------------------------------------------------------------------
    def _charge_pages(
        self, tokens: int, prefix_id: int, prefix_tokens: int
    ) -> int:
        """Unique new pages a reservation of ``tokens`` tokens would charge."""
        pages = self.pages_for(tokens)
        if prefix_id < 0 or prefix_tokens <= 0:
            return pages
        shared = self.shared_pages_for(prefix_tokens)
        group = self._groups.get(prefix_id)
        if group is not None and group.prefix_tokens != prefix_tokens:
            raise ValueError(
                f"prefix group {prefix_id} holds a {group.prefix_tokens}-token "
                f"prefix; request declares {prefix_tokens} tokens (all members "
                f"of a group must share one prefix length)"
            )
        if pages < shared:
            raise ValueError(
                f"reservation of {tokens} tokens ({pages} pages) cannot carry "
                f"a {prefix_tokens}-token shared prefix ({shared} pages)"
            )
        private = pages - shared
        return private + (shared if group is None else 0)

    def can_reserve(
        self, tokens: int, prefix_id: int = -1, prefix_tokens: int = 0
    ) -> bool:
        return self._charge_pages(tokens, prefix_id, prefix_tokens) <= self.free_pages

    def held_pages(self, request_id: int) -> int:
        """Private resident pages of one request (0 when none)."""
        return self._reserved.get(request_id, 0)

    def request_swapped_pages(self, request_id: int) -> int:
        """Private pages of one request parked in host DRAM (0 when none)."""
        return self._swapped.get(request_id, 0)

    def shared_held_pages(self, request_id: int) -> int:
        """Shared pages backing one request (0 for private requests)."""
        gid = self._request_group.get(request_id)
        if gid is None:
            return 0
        return self._groups[gid].pages

    def grow_need(self, request_id: int, tokens: int) -> int:
        """Pages a reservation still lacks to cover ``tokens`` tokens."""
        held = self.held_pages(request_id) + self.shared_held_pages(request_id)
        return self.pages_for(tokens) - held

    def can_grow(self, request_id: int, tokens: int) -> bool:
        """Whether a reservation can grow to cover ``tokens`` tokens."""
        return self.grow_need(request_id, tokens) <= self.free_pages

    def grow(self, request_id: int, tokens: int) -> int:
        """Grow a reservation to cover ``tokens`` tokens; returns added pages.

        On-demand page growth of optimistic admission: a no-op (returns 0)
        while the tokens still fit the held pages (private plus the shared
        prefix, which never grows), raises on over-subscription — the
        scheduler must preempt first.
        """
        private = self._reserved.get(request_id)
        if private is None:
            raise ValueError(f"request {request_id} holds no reservation")
        held = private + self.shared_held_pages(request_id)
        need = self.pages_for(tokens) - held
        if need <= 0:
            return 0
        if need > self.free_pages:
            raise ValueError(
                f"KV over-subscription: request {request_id} needs {need} more "
                f"page(s) but only {self.free_pages} of {self.total_pages} are free"
            )
        self._commit(request_id, private + need, need)
        return need

    def reserve(
        self,
        request_id: int,
        tokens: int,
        prefix_id: int = -1,
        prefix_tokens: int = 0,
    ) -> int:
        """Commit the pages of one request; returns the pages *charged*.

        With no prefix group that is the full page count.  With a shared
        prefix it is the private pages plus — only when this request is
        the group's first resident member — the shared pages; either way
        the return value is exactly what ``reserved_pages`` went up by,
        which is what the admit event reports.
        """
        if request_id in self._reserved or request_id in self._swapped:
            raise ValueError(f"request {request_id} already holds a reservation")
        charge = self._charge_pages(tokens, prefix_id, prefix_tokens)
        if charge > self.free_pages:
            raise ValueError(
                f"KV over-subscription: request {request_id} needs {charge} "
                f"page(s) but only {self.free_pages} of {self.total_pages} are free"
            )
        private = self.pages_for(tokens)
        if prefix_id >= 0 and prefix_tokens > 0:
            shared = self.shared_pages_for(prefix_tokens)
            group = self._groups.get(prefix_id)
            if group is None:
                group = _PrefixGroup(prefix_tokens=prefix_tokens, pages=shared)
                self._groups[prefix_id] = group
            group.refcount += 1
            private -= shared
            self._request_group[request_id] = prefix_id
        self._commit(request_id, private, charge)
        return charge

    def adopt(self, request_id: int, pages: int) -> int:
        """Take over ``pages`` private pages a request already holds.

        The array engine's integer pool keeps its rows' pages in a column;
        when a run switches to this accountant (its first shared-prefix
        request), every active row's holding moves over through here, so
        the pool-wide count is unchanged.  Returns the pages adopted.
        """
        if request_id in self._reserved or request_id in self._swapped:
            raise ValueError(f"request {request_id} already holds a reservation")
        if pages > self.free_pages:
            raise ValueError(
                f"KV over-subscription: request {request_id} needs {pages} "
                f"page(s) but only {self.free_pages} of {self.total_pages} are free"
            )
        self._commit(request_id, pages, pages)
        return pages

    def _commit(self, request_id: int, private: int, added: int) -> None:
        """Set a request's private resident pages after ``added`` more
        pages entered the pool, and roll the high-water mark."""
        self._reserved[request_id] = private
        self._reserved_pages += added
        if self._reserved_pages > self.peak_reserved_pages:
            self.peak_reserved_pages = self._reserved_pages

    def release(self, request_id: int) -> int:
        """Drop one request's reservation; returns the resident pages freed.

        Frees the request's private pages and drops its reference on the
        shared prefix; the shared pages themselves are freed only when the
        last member leaves.  A swapped-out request may also be released
        (its host copy is simply discarded); only the resident pages it
        still held come back to the pool.
        """
        if request_id in self._reserved:
            freed = self._reserved.pop(request_id)
        elif request_id in self._swapped:
            self._swapped_pages -= self._swapped.pop(request_id)
            freed = 0
        else:
            raise ValueError(f"request {request_id} holds no reservation")
        gid = self._request_group.pop(request_id, None)
        if gid is not None:
            group = self._groups[gid]
            group.refcount -= 1
            if group.refcount <= 0:
                freed += group.pages
                del self._groups[gid]
        self._reserved_pages -= freed
        return freed

    # ------------------------------------------------------------------
    def swap_out(self, request_id: int) -> int:
        """Move a request's private pages to host DRAM; returns pages freed.

        The shared-prefix pages stay resident (other members of the group
        still decode against them) and the reference count stays held, so
        the prefix cannot be evicted from under a swapped request.
        """
        if request_id not in self._reserved:
            raise ValueError(f"request {request_id} holds no reservation")
        if request_id in self._swapped:
            raise ValueError(f"request {request_id} is already swapped out")
        pages = self._reserved.pop(request_id)
        self._swapped[request_id] = pages
        self._reserved_pages -= pages
        self._swapped_pages += pages
        return pages

    def can_swap_in(self, request_id: int) -> bool:
        """Whether a swapped request's private pages fit the pool again."""
        return self._swapped.get(request_id, 0) <= self.free_pages

    def swap_in(self, request_id: int) -> int:
        """Restore a swapped request's private pages; returns pages restored."""
        if request_id not in self._swapped:
            raise ValueError(f"request {request_id} is not swapped out")
        pages = self._swapped[request_id]
        if pages > self.free_pages:
            raise ValueError(
                f"KV over-subscription: swapping request {request_id} back in "
                f"needs {pages} page(s) but only {self.free_pages} of "
                f"{self.total_pages} are free"
            )
        del self._swapped[request_id]
        self._swapped_pages -= pages
        self._commit(request_id, pages, pages)
        return pages

    def release_all(self) -> int:
        """Drop every reservation at once (replica failure); returns pages freed.

        The cache contents are gone with the replica — resident pages,
        shared prefixes and the host-DRAM copies alike — so the victims
        must recompute from scratch wherever they land next.
        """
        pages = self._reserved_pages
        self._reserved.clear()
        self._swapped.clear()
        self._groups.clear()
        self._request_group.clear()
        self._reserved_pages = 0
        self._swapped_pages = 0
        return pages
