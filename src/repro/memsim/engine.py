"""The simulation driver: trace in, RunMetrics out.

Consumes a trace (from :mod:`repro.program.interp`) and drives the
memory hierarchy, applying a simple out-of-order cost model. A caller
may attach an *observer* — the PMU sampler, or an instrumentation-based
baseline profiler — which sees each access together with the latency
the hierarchy assigned to it, exactly the pairing PEBS-LL exposes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from .._compat import slotted_dataclass

from ..program.batch import AccessBatch
from ..program.trace import ComputeBurst, MemoryAccess, TraceItem
from ..telemetry import events
from .hierarchy import HierarchyConfig, MemoryHierarchy
from .stats import RunMetrics

#: An observer receives (access, latency_cycles) for every access.
Observer = Callable[[MemoryAccess, float], None]

#: Accesses between ``stage-progress`` publications when a live event
#: bus is attached; coarse enough that the hot loop never feels it.
PROGRESS_EVERY = 1 << 17


@slotted_dataclass(frozen=True)
class CostModel:
    """Translates simulated events to cycles.

    ``issue_cycles`` is the issue cost of any memory instruction;
    ``mlp`` is the average number of outstanding misses an out-of-order
    core overlaps, so only ``(latency - l1_latency) / mlp`` of each
    miss becomes stall time. The defaults are calibrated so the seven
    Table 3 workloads land in the paper's speedup range.
    """

    issue_cycles: float = 1.0
    mlp: float = 2.0

    def stall(self, latency: float, l1_latency: float) -> float:
        extra = latency - l1_latency
        return extra / self.mlp if extra > 0 else 0.0


def simulate(
    trace: Iterable[TraceItem],
    *,
    hierarchy: Optional[MemoryHierarchy] = None,
    config: Optional[HierarchyConfig] = None,
    num_cores: int = 1,
    cost: Optional[CostModel] = None,
    observer: Optional[Observer] = None,
    name: str = "",
    variant: str = "original",
) -> RunMetrics:
    """Run ``trace`` through the hierarchy and return its metrics.

    Threads are mapped to cores modulo ``num_cores``; pass a prebuilt
    ``hierarchy`` to share cache state across traces (not usual).

    The trace may mix scalar items with :class:`AccessBatch` columns
    (from ``Interpreter.run_batched``). A batch is simulated in one
    :meth:`~MemoryHierarchy.access_batch` call, and the observer's
    ``observe_batch`` hook (if its owner defines one) sees the whole
    column. The metrics are bitwise identical to the scalar trace's:
    latencies accumulate in trace order, or order-free where every
    partial sum is exact.
    """
    hier = hierarchy or MemoryHierarchy(config or HierarchyConfig(), num_cores)
    cost = cost or CostModel()
    l1_latency = hier.config.l1.latency
    mod_cores = hier.num_cores

    accesses = 0
    compute = 0.0
    total_latency = 0.0
    stalls = 0.0
    max_thread = 0

    hier_access = hier.access  # local binding for the hot loop
    bus = events.bus()
    # 0 disables the per-item progress check with a single falsy test.
    progress_mark = PROGRESS_EVERY if bus.active else 0
    mlp = cost.mlp
    # The vector walk returns a float64 ndarray; its sums may be taken
    # order-free iff every partial result is exact: integer-valued
    # latencies (magnitudes stay far below 2**53) and a stall divisor
    # that is a power of two. Otherwise the column is walked in trace
    # order like a list, which is bitwise the scalar accumulation.
    hcfg = hier.config
    exact_column_sums = (
        mlp > 0.0
        and math.frexp(mlp)[0] == 0.5
        and float(l1_latency).is_integer()
        and float(hcfg.l2.latency).is_integer()
        and float(hcfg.l3.latency).is_integer()
        and float(hcfg.dram_latency).is_integer()
    )
    observe_batch = None
    if observer is not None:
        owner = getattr(observer, "__self__", None)
        if owner is not None:
            observe_batch = getattr(owner, "observe_batch", None)

    for item in trace:
        if isinstance(item, MemoryAccess):
            latency = hier_access(
                item.thread % mod_cores, item.address, item.size, item.is_write
            )
            accesses += 1
            total_latency += latency
            stalls += cost.stall(latency, l1_latency)
            if item.thread > max_thread:
                max_thread = item.thread
            if observer is not None:
                observer(item, latency)
        elif isinstance(item, ComputeBurst):
            compute += item.cycles
            continue
        elif isinstance(item, AccessBatch):
            latencies = hier.access_batch(
                item.address, item.size, item.is_write, item.thread
            )
            accesses += item.length
            if item.max_thread > max_thread:
                max_thread = item.max_thread
            if type(latencies) is list:
                column = latencies
            elif exact_column_sums:
                # ndarray from the vector walk: order-free exact sums.
                total_latency += float(latencies.sum())
                extra = latencies - l1_latency
                stalled = extra > 0.0
                if stalled.any():
                    stalls += float(extra[stalled].sum()) / mlp
                column = None
            else:
                column = latencies.tolist()
            if column is not None:
                # CostModel.stall, inlined per latency.
                for latency in column:
                    total_latency += latency
                    extra = latency - l1_latency
                    if extra > 0:
                        stalls += extra / mlp
            if observe_batch is not None:
                observe_batch(item, latencies)
            elif observer is not None:
                if column is None:
                    column = latencies.tolist()
                for access, latency in zip(item, column):
                    observer(access, latency)
        else:
            raise TypeError(f"unexpected trace item {type(item).__name__}")
        if progress_mark and accesses >= progress_mark:
            progress_mark = accesses + PROGRESS_EVERY
            bus.publish("stage-progress", stage="simulate",
                        done=accesses, unit="accesses")

    cycles = compute + accesses * cost.issue_cycles + stalls
    return RunMetrics(
        name=name,
        variant=variant,
        num_threads=max_thread + 1,
        accesses=accesses,
        compute_cycles=compute,
        total_latency=total_latency,
        stall_cycles=stalls,
        cycles=cycles,
        l1_misses=hier.l1_misses(),
        l2_misses=hier.l2_misses(),
        l3_misses=hier.l3_misses(),
        dram_accesses=hier.dram_accesses,
        invalidations=hier.invalidations,
    )
