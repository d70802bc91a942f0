"""In-memory span recorder and the delegating wrappers that feed it.

The traced run wraps each layer's public entry points from the outside:
a wrapper holds the real object or function, times the call, and hands
everything else through untouched.  Nothing is subclassed, so calls a
layer makes to itself (``MemoryHierarchy._access_batch_general`` calling
``self.access``) reach the real method and are never timed twice.

A span is ``[name, start, end, parent, seconds, calls]``.  Calls made
once or a few times per run (``optimize``, ``simulate``, ``collect``)
get one span each.  Calls made per batch or per trace item (the cache
walk, the sampler, the interpreter's ``next()``) are *tallied*: one span
per (parent, name) whose ``seconds`` sums the calls' durations and whose
``calls`` counts them, so memory stays bounded however long the trace.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from types import MethodType, SimpleNamespace
from typing import Callable, Dict, Iterator, List

from repro.core import pipeline
from repro.experiments import sensitivity
from repro.profiler import monitor
from repro.program.batch import AccessBatch
from repro.program.trace import MemoryAccess

NAME, START, END, PARENT, SECONDS, CALLS = range(6)

#: RunMetrics fields of every ``simulate`` call summed into counts.
SIMULATE_COUNTS = ("l1_misses", "l2_misses", "l3_misses", "dram_accesses", "invalidations")


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [-1]
        self._tallies: Dict[tuple, list] = {}

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], 0.0, 1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[SECONDS] = span[END] - span[START]
        self._stack.pop()

    def tally(self, name: str, start: float, end: float) -> None:
        key = (self._stack[-1], name)
        span = self._tallies.get(key)
        if span is None:
            span = [name, start, end, key[0], 0.0, 0]
            self._tallies[key] = span
            self.spans.append(span)
        span[END] = end
        span[SECONDS] += end - start
        span[CALLS] += 1

    def spanned(self, name: str, fn: Callable) -> Callable:
        """``fn`` with each call recorded as its own span."""

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def self_seconds(self) -> Counter:
        """Self time per span name: duration minus the children's."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[SECONDS]
        out: Counter = Counter()
        for span, covered in zip(self.spans, child):
            out[span[NAME]] += span[SECONDS] - covered
        return out

    def export(self) -> Dict[str, object]:
        fields = ("name", "start", "end", "parent", "seconds", "calls")
        return {
            "spans": [dict(zip(fields, span)) for span in self.spans],
            "counts": dict(self.counts),
        }


class TracedIterator:
    """A trace item stream whose ``next()`` time is tallied."""

    def __init__(self, rec: Recorder, items: Iterator) -> None:
        self._rec = rec
        self._items = items

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            item = next(self._items)
        finally:
            self._rec.tally("program.next", start, time.perf_counter())
        kind = type(item)
        if kind is AccessBatch:
            self._rec.counts["program.batched_accesses"] += item.length
        elif kind is MemoryAccess:
            self._rec.counts["program.scalar_accesses"] += 1
        return item


class TallyProxy:
    """An object whose named methods are tallied under one span name;
    everything else is the real object's.

    ``counters`` maps each method to a function of the call's arguments
    returning the counts to add.  The methods are bound to the proxy, so
    ``simulate`` finds ``observe_batch`` through ``observe.__self__`` as
    it does on the sampler itself.
    """

    def __init__(self, inner, rec: Recorder, span: str, counters: Dict[str, Callable]) -> None:
        self._inner = inner
        for method, count in counters.items():
            setattr(self, method, MethodType(_tallied(rec, span, getattr(inner, method), count), self))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _tallied(rec: Recorder, span: str, fn: Callable, count: Callable) -> Callable:
    def method(proxy, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            rec.tally(span, start, time.perf_counter())
            rec.counts.update(count(*args))

    return method


def traced_hierarchy(inner, rec: Recorder) -> TallyProxy:
    """A :class:`MemoryHierarchy` whose ``access``/``access_batch`` calls
    are tallied as the cache walk."""
    return TallyProxy(inner, rec, "memsim.walk", {
        "access": lambda *args: {"memsim.accesses": 1},
        "access_batch": lambda address, *args: {
            "memsim.accesses": len(address), "memsim.batches": 1,
        },
    })


def traced_sampler(inner, rec: Recorder) -> TallyProxy:
    """A sampling engine whose ``observe``/``observe_batch`` calls are
    tallied."""
    return TallyProxy(inner, rec, "sampling.observe", {
        "observe": lambda access, latency: {"sampling.observed": 1},
        "observe_batch": lambda batch, latencies: {"sampling.observed": batch.length},
    })


class TracedProxy:
    """Any object with the named methods recorded as spans."""

    def __init__(self, inner, rec: Recorder, methods: Dict[str, str]) -> None:
        self._inner = inner
        for method, span_name in methods.items():
            setattr(self, method, rec.spanned(span_name, getattr(inner, method)))

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def patched(*replacements):
    """Temporarily rebind ``(module, name, value)`` module globals."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def layer_wrappers(rec: Recorder):
    """The module-global rebindings that trace the layers a
    :class:`~repro.profiler.monitor.Monitor` run calls into."""
    real_hierarchy = monitor.MemoryHierarchy
    real_interpreter = monitor.Interpreter
    real_collector = monitor.ProfileCollector

    def hierarchy(config, cores):
        return traced_hierarchy(real_hierarchy(config, cores), rec)

    def interpreter(bound, **kwargs):
        interp = real_interpreter(bound, **kwargs)
        run_batched = interp.run_batched
        interp.run_batched = lambda: TracedIterator(rec, run_batched())
        return interp

    def collector(*args, **kwargs):
        return TracedProxy(
            real_collector(*args, **kwargs), rec, {"collect": "profiler.collect"}
        )

    registry = SimpleNamespace(
        from_address_space=rec.spanned(
            "binary.registry", monitor.DataObjectRegistry.from_address_space
        )
    )
    simulate = rec.spanned("memsim.simulate", monitor.simulate)

    def counted_simulate(*args, **kwargs):
        metrics = simulate(*args, **kwargs)
        for field in SIMULATE_COUNTS:
            rec.counts[f"memsim.{field}"] += getattr(metrics, field)
        return metrics

    derive_plans = rec.spanned("layout.derive_plans", pipeline.derive_plans)
    return patched(
        (monitor, "simulate", counted_simulate),
        (monitor, "MemoryHierarchy", hierarchy),
        (monitor, "Interpreter", interpreter),
        (monitor, "LoopMap", rec.spanned("binary.loop_map", monitor.LoopMap)),
        (monitor, "LineMap", rec.spanned("binary.line_map", monitor.LineMap)),
        (monitor, "DataObjectRegistry", registry),
        (monitor, "ProfileCollector", collector),
        (monitor, "reduction_tree_merge",
         rec.spanned("profiler.merge", monitor.reduction_tree_merge)),
        (pipeline, "derive_plans", derive_plans),
        (sensitivity, "derive_plans", derive_plans),
    )


def traced_monitor(rec: Recorder, mon: monitor.Monitor) -> monitor.Monitor:
    """``mon`` with its runs and samplers traced."""
    make_sampler = mon.make_sampler
    mon.make_sampler = lambda: traced_sampler(make_sampler(), rec)
    mon.run = rec.spanned("profiler.run", mon.run)
    mon.run_unmonitored = rec.spanned("profiler.run_unmonitored", mon.run_unmonitored)
    return mon
