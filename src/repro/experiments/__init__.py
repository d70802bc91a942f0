"""Regenerators for every table and figure in the paper's evaluation.

| Paper artifact | Function |
|---|---|
| Table 3 | :func:`run_all` + :func:`table3` |
| Table 4 | :func:`run_all` + :func:`table4` |
| Table 5 | :func:`run_art_analysis` + :func:`table5` |
| Table 6 | :func:`run_art_analysis` (``.loop_rows``) |
| Figure 4 | :func:`run_suite_overheads` ('rodinia') |
| Figure 5 | :func:`run_suite_overheads` ('spec') |
| Figure 6 | :func:`run_art_analysis` + :func:`figure6` |
| Eq 4 | :func:`run_accuracy_sweep` |
| Ablations | :func:`run_collection_cost`, :func:`run_affinity_metric_ablation`, :func:`run_maximal_split_ablation`, :func:`run_prefetch_ablation` |
"""

from .accuracy import run_accuracy_sweep, samples_needed
from .everything import EvaluationReport, run_complete_evaluation
from .ablations import (
    AffinityMetricWorkload,
    run_affinity_metric_ablation,
    run_collection_cost,
    run_maximal_split_ablation,
    run_prefetch_ablation,
)
from .art_analysis import (
    PAPER_AFFINITIES,
    PAPER_TABLE5,
    PAPER_TABLE6,
    ArtAnalysis,
    figure6,
    run_art_analysis,
    table5,
)
from .optimization import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    BenchmarkRecord,
    benchmark_record,
    run_all,
    run_benchmark,
    table3,
    table4,
)
from .overhead_suite import (
    PAPER_AVERAGES,
    SuiteOverheads,
    kernel_overhead,
    run_suite_overheads,
)
from .report import Table, bar_chart
from .sensitivity import (
    PeriodPoint,
    measure_period_point,
    sensitivity_table,
    stable_period_range,
    sweep_sampling_period,
)

__all__ = [
    "AffinityMetricWorkload",
    "ArtAnalysis",
    "PAPER_AFFINITIES",
    "PAPER_AVERAGES",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_TABLE6",
    "BenchmarkRecord",
    "SuiteOverheads",
    "Table",
    "bar_chart",
    "benchmark_record",
    "figure6",
    "kernel_overhead",
    "measure_period_point",
    "run_accuracy_sweep",
    "EvaluationReport",
    "run_complete_evaluation",
    "run_affinity_metric_ablation",
    "run_all",
    "run_art_analysis",
    "run_benchmark",
    "run_collection_cost",
    "run_maximal_split_ablation",
    "run_prefetch_ablation",
    "run_suite_overheads",
    "samples_needed",
    "sensitivity_table",
    "stable_period_range",
    "sweep_sampling_period",
    "PeriodPoint",
    "table3",
    "table4",
    "table5",
]
