"""Span tracer for the traced run.

The wrappers live here, in the benchmark's own files, and are installed
only in the traced run: the program under test is never edited.  Each
recorded span has a name, a start, an end and a parent, kept in compact
arrays in memory and written out once when the run ends.  Hot, tiny calls
(the KV page accountant) are *counted* spans: they are timed and charged to
their parent like any other span, but not stored one by one.

A span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum over the spans named after it
(``layer.what``).  The tracer's own cost per span is measured on an empty
function (``Tracer.calibrate``) and taken out of every self time, so that
a layer's figure is the program's time and not the wrappers'.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        # Per span name: its direct children that were recorded, those that
        # were counted, and same-layer calls folded into it.
        self.children: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        self.counted_names: set[str] = set()
        # The tracer's own cost per span, from calibrate().
        self.cost = SpanCost()
        self._cost_samples: dict[str, list] = defaultdict(list)
        # Open spans: [name, start, child seconds, recorded index or -1,
        # recorded children, counted children, folded calls].
        self._stack: list[list] = []
        self._recorded_parent = -1

    # ------------------------------------------------------------------
    def open(self, name: str, record: bool = True) -> None:
        index = -1
        if record:
            index = len(self.start)
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.name_id.append(name_id)
            self.parent.append(self._recorded_parent)
            self.start.append(0.0)
            self.end.append(0.0)
            self._recorded_parent = index
        frame = [name, 0.0, 0.0, index, 0, 0, 0]
        self._stack.append(frame)
        frame[1] = now = perf_counter()
        if index >= 0:
            self.start[index] = now

    def close(self) -> None:
        now = perf_counter()
        frame = self._stack.pop()
        name, began, child_s, index = frame[:4]
        duration = now - began
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if frame[4] or frame[5] or frame[6]:
            children = self.children[name]
            children[0] += frame[4]
            children[1] += frame[5]
            children[2] += frame[6]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[5 if index < 0 else 4] += 1
        if index >= 0:
            self.end[index] = now
            self._recorded_parent = self.parent[index]

    # ------------------------------------------------------------------
    def wrap(self, name: str, function, record: bool = True):
        """``function`` timed as a span named ``name``.

        A call made while the innermost open span belongs to the same
        layer is folded into that span (``finish`` draining through
        ``advance_until`` stays ``finish``), so counts are calls into the
        layer from outside it.
        """
        tracer = self
        stack = self._stack
        layer = name.split(".", 1)[0] + "."
        if not record:
            self.counted_names.add(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if stack and stack[-1][0].startswith(layer):
                stack[-1][6] += 1
                return function(*args, **kwargs)
            tracer.open(name, record)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close()

        return traced

    def wrap_iterator(self, name: str, function):
        """``function`` returns an iterator; each ``next`` is a span."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                iterator = iter(function(*args, **kwargs))
            finally:
                tracer.close()
            return _TracedIterator(tracer, name, iterator)

        return traced

    # ------------------------------------------------------------------
    def self_time(self, name: str) -> float:
        """Self time of the spans named ``name``, less the tracer's cost.

        Each span's own timing window holds part of the tracer's work
        (``inner``); the rest (``outer``) and every folded call land in the
        parent's self time.  Both are taken out at the calibrated cost.
        """
        cost = self.cost
        recorded, counted, folded = self.children.get(name, (0, 0, 0))
        inner = (
            cost.counted_inner if name in self.counted_names else cost.recorded_inner
        )
        return (
            self.self_s[name]
            - self.calls[name] * inner
            - recorded * cost.recorded_outer
            - counted * cost.counted_outer
            - folded * cost.folded
        )

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            self.self_time(name) for name in self.self_s if name.startswith(prefix)
        )

    def counts(self) -> tuple[dict, int]:
        """Spans closed and calls folded so far, per :meth:`overhead_s`."""
        folded = sum(children[2] for children in self.children.values())
        folded += sum(frame[6] for frame in self._stack)
        return dict(self.calls), folded

    def overhead_s(self, since: "tuple[dict, int] | None" = None) -> float:
        """The tracer's estimated cost, over every span it timed (after the
        :meth:`counts` snapshot ``since``, if given)."""
        cost = self.cost
        calls, folded = self.counts()
        if since is not None:
            calls = {
                name: count - since[0].get(name, 0) for name, count in calls.items()
            }
            folded -= since[1]
        total = cost.folded * folded
        for name, count in calls.items():
            if name in self.counted_names:
                total += count * (cost.counted_inner + cost.counted_outer)
            else:
                total += count * (cost.recorded_inner + cost.recorded_outer)
        return total

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> None:
        """Measure the tracer's own cost per span on an empty method.

        Each figure is the median over every round of every call, so that
        a short slow spell of the host does not set it: call it before and
        after the traced work.
        """
        for _ in range(rounds):
            for key, value in _measure_cost(calls).items():
                self._cost_samples[key].append(value)
        self.cost = SpanCost(
            **{
                key: statistics.median(values)
                for key, values in self._cost_samples.items()
            }
        )

    def write(self, path) -> None:
        """Write every recorded span as ``name,start_s,end_s,parent``."""
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            origin = self.start[0] if self.start else 0.0
            names = self.names
            for index in range(len(self.start)):
                handle.write(
                    f"{index},{names[self.name_id[index]]},"
                    f"{self.start[index] - origin:.9f},"
                    f"{self.end[index] - origin:.9f},{self.parent[index]}\n"
                )


@dataclass(frozen=True)
class SpanCost:
    """Seconds the tracer adds per span, split by where they are charged."""

    recorded_inner: float = 0.0
    recorded_outer: float = 0.0
    counted_inner: float = 0.0
    counted_outer: float = 0.0
    folded: float = 0.0


class _Empty:
    """Calibration target: a method that does nothing, called with one
    argument as the wrapped entry points are."""

    def method(self, value) -> None:
        return None


def _measure_cost(calls: int) -> dict:
    """One round of :meth:`Tracer.calibrate`."""
    loop = range(calls)
    target = _Empty()
    start = perf_counter()
    for _ in loop:
        target.method(1)
    bare = (perf_counter() - start) / calls
    probe = Tracer()
    cost = {}
    for record, kind in ((True, "recorded"), (False, "counted"), (False, "folded")):
        name = f"calibrate.{kind}"
        method = probe.wrap(name, _Empty.method, record)
        wrapped = type("Wrapped", (), {"method": method})()
        # A same-layer parent folds every call; another layer's does not.
        probe.open("calibrate.parent" if kind == "folded" else "parent.span")
        start = perf_counter()
        for _ in loop:
            wrapped.method(1)
        total = (perf_counter() - start) / calls - bare
        probe.close()
        if kind == "folded":
            cost["folded"] = total
        else:
            inner = probe.self_s[name] / calls - bare
            cost[f"{kind}_inner"] = inner
            cost[f"{kind}_outer"] = total - inner
    return cost


class _TracedIterator:
    __slots__ = ("tracer", "name", "iterator")

    def __init__(self, tracer: Tracer, name: str, iterator) -> None:
        self.tracer = tracer
        self.name = name
        self.iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        self.tracer.open(self.name)
        try:
            return next(self.iterator)
        finally:
            self.tracer.close()


#: KvPageAccountant members timed as counted spans.
_KV_METHODS = (
    "can_reserve", "reserve", "release", "grow", "grow_need", "can_grow",
    "swap_out", "swap_in", "can_swap_in", "release_all", "held_pages",
    "shared_held_pages", "request_swapped_pages", "resident_prefix_pages",
    "prefix_refcount", "fits_alone", "pages_for", "shared_pages_for",
)
_KV_PROPERTIES = ("reserved_pages", "free_pages", "swapped_pages")


def install(tracer: Tracer) -> None:
    """Wrap the package's public entry points in spans.

    Call after importing :mod:`repro` and before building anything.  The
    cost model's ``pass_cost`` is wrapped per instance by the caller
    (:func:`wrap_cost_model`), since the backend is built during set-up.
    """
    from repro.serving import (
        ClusterSimulator,
        KvPageAccountant,
        TraceGenerator,
        decode_table,
    )
    from repro.serving.array_engine import ArraySimulationRun

    decode_table.build_decode_table = tracer.wrap(
        "decode_table.build", decode_table.build_decode_table
    )
    TraceGenerator.generate = tracer.wrap(
        "trace.generate", TraceGenerator.generate
    )
    TraceGenerator.generate_stream = tracer.wrap_iterator(
        "trace.generate", TraceGenerator.generate_stream
    )
    for method, span in (
        ("offer", "array_engine.offer"),
        ("offer_many", "array_engine.offer"),
        ("advance_until", "array_engine.advance"),
        ("finish", "array_engine.finish"),
    ):
        setattr(
            ArraySimulationRun,
            method,
            tracer.wrap(span, getattr(ArraySimulationRun, method)),
        )
    ClusterSimulator.simulate = tracer.wrap(
        "cluster.simulate", ClusterSimulator.simulate
    )
    ClusterSimulator.validate_invariants = tracer.wrap(
        "validate.replay", ClusterSimulator.validate_invariants
    )
    for method in _KV_METHODS:
        setattr(
            KvPageAccountant,
            method,
            tracer.wrap(
                "kv_memory.call", getattr(KvPageAccountant, method), record=False
            ),
        )
    for prop in _KV_PROPERTIES:
        getter = getattr(KvPageAccountant, prop).fget
        setattr(
            KvPageAccountant,
            prop,
            property(tracer.wrap("kv_memory.call", getter, record=False)),
        )


def wrap_cost_model(tracer: Tracer, backend) -> None:
    """Time every ``pass_cost`` call of ``backend`` as a span."""
    backend.pass_cost = tracer.wrap("costmodel.pass_cost", backend.pass_cost)
