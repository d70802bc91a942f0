"""Ablation studies for the design choices DESIGN.md calls out.

1. *Collection cost* — StructSlim's sampling vs the instrumentation
   comparators the paper cites (reuse-distance 153x, ASLOP 4.2x, bursty
   3-5x) on the same workload.
2. *Latency vs frequency affinity* — a workload where the two metrics
   give different advice, reproducing the paper's P/U argument (§4.3).
3. *Affinity-guided vs maximal splitting* — the Wang et al. [32]
   comparison: splitting every field apart breaks co-accessed field
   groups (TSP's {x, y, next}) and costs performance.
4. *Prefetcher sensitivity* — how much of splitting's benefit an ideal
   L2 streamer would absorb (why Table 4's L2 signal matters).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..baselines import (
    AslopProfiler,
    BaselineResult,
    BurstySamplingProfiler,
    FrequencyAffinityProfiler,
    ReuseDistanceProfiler,
)
from ..binary.loopmap import LoopMap
from ..core.analyzer import OfflineAnalyzer
from ..core.pipeline import derive_plans
from ..layout.splitting import SplitPlan, maximal_plan
from ..layout.struct import StructType
from ..layout.types import DOUBLE
from ..memsim.engine import simulate
from ..memsim.hierarchy import HierarchyConfig
from ..memsim.stats import speedup
from ..profiler.allocation import DataObjectRegistry
from ..profiler.monitor import Monitor
from ..program.builder import WorkloadBuilder
from ..program.interp import Interpreter
from ..program.ir import Function
from ..workloads.art import ArtWorkload
from ..workloads.base import LoopSpec, PaperWorkload
from ..workloads.common import field_sweep
from ..workloads.tsp import TspWorkload
from .report import Table


# ---------------------------------------------------------------------------
# 1. Collection-cost ablation
# ---------------------------------------------------------------------------


def run_collection_cost(*, scale: float = 0.25) -> Table:
    """All five collectors on ART: advice quality and collection cost."""
    workload = ArtWorkload(scale=scale)
    bound = workload.build_original()
    structs = {"f1_layer": workload.target_structs()["f1_layer"]}

    # StructSlim: sampled collection.
    monitor = Monitor(sampling_period=workload.recommended_period)
    run = monitor.run(bound)
    report = OfflineAnalyzer().analyze(run)
    structslim_plans = derive_plans(report, workload.target_structs())

    # Instrumentation baselines: they watch the full trace.
    loop_map = LoopMap(bound.program)
    registry = DataObjectRegistry.from_address_space(bound.space)
    frequency = FrequencyAffinityProfiler(registry, loop_map, structs)
    aslop = AslopProfiler(registry, loop_map, structs)
    reuse = ReuseDistanceProfiler(registry, loop_map, structs)
    bursty = BurstySamplingProfiler(
        FrequencyAffinityProfiler(registry, loop_map, structs)
    )
    observers = [frequency, aslop, reuse, bursty]

    def fan_out(access, latency):
        for obs in observers:
            obs.observe(access, latency)

    plain = simulate(
        Interpreter(bound).run(),
        config=HierarchyConfig(),
        observer=fan_out,
        name=bound.name,
    )

    paper_groups = _group_count(workload.paper_plans()["f1_layer"])
    table = Table(
        "Ablation: collection cost vs advice (ART)",
        ["collector", "cost", "splits f1_neuron?", "groups (paper: %d)" % paper_groups],
        note="cost: StructSlim as overhead %, baselines as slowdown x",
    )
    table.add_row(
        "StructSlim (PEBS-LL)",
        f"{run.overhead_percent:.2f}%",
        "yes" if "f1_layer" in structslim_plans else "no",
        _group_count(structslim_plans.get("f1_layer")),
    )
    for profiler in observers:
        result: BaselineResult = profiler.result(plain)
        table.add_row(
            result.name,
            f"{result.slowdown:.1f}x",
            "yes" if "f1_layer" in result.plans else "no",
            _group_count(result.plans.get("f1_layer")),
        )
    return table


def _group_count(plan: Optional[SplitPlan]) -> int:
    return len(plan.groups) if plan is not None else 1


# ---------------------------------------------------------------------------
# 2. Latency vs frequency affinity
# ---------------------------------------------------------------------------

HOTPAIR = StructType(
    "hotpair",
    [("P", DOUBLE), ("U", DOUBLE)]
    + [(f"c{i}", DOUBLE) for i in range(6)],
)


class AffinityMetricWorkload(PaperWorkload):
    """A workload where count- and latency-affinity disagree.

    Loop A co-accesses P and U over a tiny cache-resident prefix with
    enormous *frequency* but near-zero latency; loop B sweeps P alone
    across the whole array with real misses. Frequency affinity glues
    P to U (loop A dominates counts); latency affinity separates them
    (loop B dominates latency) — the paper's §4.3 argument.
    """

    name = "affinity-ablation"
    num_threads = 1
    recommended_period = 257

    BASE_ELEMS = 8192
    HOT_PREFIX = 256  # 16KB of struct: L1-resident

    def target_structs(self) -> Dict[str, StructType]:
        return {"pairs": HOTPAIR}

    def paper_plans(self) -> Dict[str, SplitPlan]:
        return {
            "pairs": SplitPlan(
                HOTPAIR.name,
                (("P",), ("U",), tuple(f"c{i}" for i in range(6))),
            )
        }

    def _populate(self, builder: WorkloadBuilder, plans) -> List[Function]:
        n = self.scaled(self.BASE_ELEMS, minimum=512)
        prefix = min(self.HOT_PREFIX, n)
        self.register_struct_array(
            builder, HOTPAIR, n, "pairs", plans, call_path=("main",)
        )
        body = [
            # Loop B first: the latency-dominant sweep of P alone.
            field_sweep(
                LoopSpec(lines=(20, 21), fields=("P",), repetitions=12,
                         compute_cycles=8.0),
                "pairs",
                n,
            ),
            # Loop A: cache-resident co-access of P and U, huge counts.
            field_sweep(
                LoopSpec(lines=(10, 12), fields=("P", "U"), repetitions=220,
                         compute_cycles=16.0),
                "pairs",
                prefix,
                stagger=False,
            ),
        ]
        return [Function("main", body, line=1)]


def run_affinity_metric_ablation(*, scale: float = 1.0) -> Table:
    """Advice and resulting speedup under each affinity metric."""
    workload = AffinityMetricWorkload(scale=scale)
    bound = workload.build_original()
    structs = workload.target_structs()

    monitor = Monitor(sampling_period=workload.recommended_period)
    run = monitor.run(bound)
    latency_plans = derive_plans(
        OfflineAnalyzer().analyze(run), structs
    )

    loop_map = LoopMap(bound.program)
    registry = DataObjectRegistry.from_address_space(bound.space)
    frequency = FrequencyAffinityProfiler(registry, loop_map, structs)
    simulate(
        Interpreter(bound).run(),
        config=HierarchyConfig(),
        observer=frequency.observe,
        name=bound.name,
    )
    frequency_plans = frequency.advise()

    table = Table(
        "Ablation: latency-based vs frequency-based affinity",
        ["metric", "P grouped with U?", "plan", "speedup"],
        note="latency affinity separates the hot-but-cheap pair; "
        "frequency affinity cannot (paper SS4.3)",
    )
    for label, plans in (
        ("latency (StructSlim)", latency_plans),
        ("frequency (Chilimbi)", frequency_plans),
    ):
        plan = plans.get("pairs")
        grouped = _p_with_u(plan)
        sp = _plan_speedup(workload, run.metrics, plans)
        table.add_row(
            label,
            "yes" if grouped else "no",
            plan.describe() if plan else "(no split)",
            sp,
        )
    return table


def _p_with_u(plan: Optional[SplitPlan]) -> bool:
    if plan is None:
        return True  # unsplit structure keeps them together
    return plan.group_of("P") == plan.group_of("U")


def _plan_speedup(workload, original_metrics, plans: Dict[str, SplitPlan]) -> float:
    monitor = Monitor()
    optimized = monitor.run_unmonitored(
        workload.build_split(plans), num_threads=workload.num_threads
    )
    return speedup(original_metrics, optimized)


# ---------------------------------------------------------------------------
# 3. Affinity-guided vs maximal splitting
# ---------------------------------------------------------------------------


def run_maximal_split_ablation(*, scale: float = 1.0) -> Table:
    """TSP under no split, the advised split, and maximal splitting.

    Maximal splitting (every field its own array, Wang et al. [32])
    triples the lines a tour step touches; the affinity-guided split
    keeps {x, y, next} on one line.
    """
    workload = TspWorkload(scale=scale)
    monitor = Monitor(sampling_period=workload.recommended_period)
    run = monitor.run(workload.build_original(), num_threads=workload.num_threads)
    report = OfflineAnalyzer().analyze(run)
    advised = derive_plans(report, workload.target_structs())
    maximal = {"tree_nodes": maximal_plan(workload.target_structs()["tree_nodes"])}

    table = Table(
        "Ablation: affinity-guided vs maximal structure splitting (TSP)",
        ["layout", "groups", "speedup vs original"],
        note="maximal splitting breaks the co-accessed {x, y, next} group",
    )
    table.add_row("original", 1, 1.0)
    for label, plans in (("affinity-guided", advised), ("maximal", maximal)):
        table.add_row(
            label,
            _group_count(plans.get("tree_nodes")),
            _plan_speedup(workload, run.metrics, plans),
        )
    return table


# ---------------------------------------------------------------------------
# 4. Prefetcher sensitivity
# ---------------------------------------------------------------------------


def run_prefetch_ablation(*, scale: float = 1.0, degree: int = 2) -> Table:
    """ART speedup with the L2 streamer off vs on.

    An ideal (zero-latency) streamer hides part of the strided-miss cost
    splitting would otherwise save, shrinking the apparent speedup —
    quantifying how much of the paper's win survives ideal prefetching.
    """
    workload = ArtWorkload(scale=scale)
    rows = []
    for label, pf_degree in (("no prefetch", 0), (f"streamer degree {degree}", degree)):
        config = HierarchyConfig(prefetch_degree=pf_degree)
        monitor = Monitor(sampling_period=workload.recommended_period)
        original = monitor.run_unmonitored(workload.build_original(), config=config)
        optimized = monitor.run_unmonitored(workload.build_paper_split(), config=config)
        rows.append((label, speedup(original, optimized)))
    table = Table(
        "Ablation: split speedup vs L2 stream prefetching (ART)",
        ["configuration", "speedup"],
        note="an ideal streamer absorbs part of the locality win",
    )
    for label, value in rows:
        table.add_row(label, value)
    return table
