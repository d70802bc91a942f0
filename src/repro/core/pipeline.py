"""End-to-end optimization pipeline: the paper's full workflow.

Profile the original binary under sampling, analyze, apply the advised
split, re-run both layouts unmonitored, and report speedup (Table 3)
and per-level cache-miss reductions (Table 4). This is the function the
experiment harness and the examples call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from .. import telemetry
from ..layout.splitting import SplitPlan
from ..layout.struct import StructType
from ..memsim.hierarchy import HierarchyConfig
from ..memsim.stats import RunMetrics, miss_reduction, speedup
from ..profiler.monitor import Monitor, ProfiledRun
from ..program.builder import BoundProgram
from .analyzer import AnalysisReport, OfflineAnalyzer


class Workload(Protocol):
    """What the pipeline needs from a benchmark implementation."""

    name: str
    num_threads: int

    def build_original(self) -> BoundProgram: ...

    def build_split(self, plans: Dict[str, SplitPlan]) -> BoundProgram: ...

    def target_structs(self) -> Dict[str, StructType]: ...


@dataclass
class OptimizationResult:
    """Outcome of one full profile -> advise -> split -> re-run cycle."""

    workload: str
    report: AnalysisReport
    plans: Dict[str, SplitPlan]
    original: RunMetrics
    optimized: RunMetrics
    profiled: ProfiledRun

    @property
    def speedup(self) -> float:
        return speedup(self.original, self.optimized)

    @property
    def miss_reduction(self) -> Dict[str, float]:
        return miss_reduction(self.original, self.optimized)

    @property
    def overhead_percent(self) -> float:
        return self.profiled.overhead_percent

    def summary_row(self) -> Dict[str, object]:
        """One Table 3 row, with the overhead number's provenance.

        ``overhead_percent`` is meaningless without knowing what it was
        priced against, so each row carries the PMU model, the analysis
        sampling period, and the deployment period the overhead was
        priced at (plus the decomposed account when available).
        """
        row: Dict[str, object] = {
            "benchmark": self.workload,
            "speedup": self.speedup,
            "overhead_percent": self.overhead_percent,
            "original_cycles": self.original.cycles,
            "optimized_cycles": self.optimized.cycles,
            "pmu": self.profiled.pmu,
            "sampling_period": self.profiled.sampling_period,
            "deployment_period": self.profiled.deployment_period,
        }
        if self.profiled.overhead_account is not None:
            row["overhead_components_percent"] = (
                self.profiled.overhead_account.components_percent()
            )
        return row


def derive_plans(
    report: AnalysisReport, structs: Dict[str, StructType]
) -> Dict[str, SplitPlan]:
    """Turn the analyzer's advice into split plans for known structs.

    ``structs`` maps logical array names (the data objects the workload
    declares) to their source structure definitions; only advised
    objects whose advice actually separates fields produce a plan.
    """
    plans: Dict[str, SplitPlan] = {}
    for array_name, struct in structs.items():
        analysis = report.object_by_name(array_name)
        if analysis is None or analysis.advice is None:
            continue
        plan = analysis.advice.split_plan(struct)
        if not plan.is_identity():
            plans[array_name] = plan
    return plans


def optimize(
    workload: Workload,
    *,
    monitor: Optional[Monitor] = None,
    analyzer: Optional[OfflineAnalyzer] = None,
    config: Optional[HierarchyConfig] = None,
    num_threads: Optional[int] = None,
) -> OptimizationResult:
    """Run the complete StructSlim workflow on one workload."""
    monitor = monitor or Monitor()
    analyzer = analyzer or OfflineAnalyzer()
    threads = num_threads if num_threads is not None else workload.num_threads
    tracer = telemetry.tracer()

    with tracer.span(
        "optimize", workload=workload.name, threads=threads
    ) as optimize_span:
        original_bound = workload.build_original()
        profiled = monitor.run(
            original_bound, num_threads=threads, config=config
        )
        report = analyzer.analyze(profiled)

        with tracer.span("split", workload=workload.name) as span:
            plans = derive_plans(report, workload.target_structs())
            optimized_bound = workload.build_split(plans)
            span.set(
                plans=len(plans),
                split_structs=sorted(plans),
            )

        with tracer.span("re-run", workload=workload.name) as span:
            optimized = monitor.run_unmonitored(
                optimized_bound, num_threads=threads, config=config
            )
            span.set(cycles=optimized.cycles)

        optimize_span.set(
            speedup=speedup(profiled.metrics, optimized),
            overhead_percent=profiled.overhead_percent,
        )
    return OptimizationResult(
        workload=workload.name,
        report=report,
        plans=plans,
        original=profiled.metrics,
        optimized=optimized,
        profiled=profiled,
    )
