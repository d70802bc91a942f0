"""Shared runner: the full optimize() cycle over the Table 2 benchmarks.

Tables 3 and 4 are two views of the same seven runs, so the runner
executes each benchmark once and both table builders render from the
shared results.

The seven cycles are independent tasks, and :func:`run_all` runs them
through :mod:`repro.runner`: inline by default, or fanned out over a
``multiprocessing`` pool and memoized in a content-addressed cache as
its :class:`~repro.runner.Runner` says.  Benchmark ``rank`` samples
with seed ``rank`` (the rank-offset derivation ``profile_processes``
uses), so results are a pure function of the task list: serial,
parallel, and cached runs all agree byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.analyzer import OfflineAnalyzer
from ..core.pipeline import OptimizationResult, optimize
from ..profiler.monitor import Monitor
from ..workloads import TABLE2_WORKLOADS
from .report import Table

if TYPE_CHECKING:
    from ..runner import Runner

#: Paper values for side-by-side reporting: name -> (speedup, overhead %).
PAPER_TABLE3 = {
    "179.ART": (1.37, 2.05),
    "462.libquantum": (1.09, 2.79),
    "TSP": (1.09, 2.42),
    "Mser": (1.03, 2.95),
    "CLOMP 1.2": (1.25, 16.1),
    "Health": (1.12, 18.3),
    "NN": (1.33, 5.21),
}

#: Paper Table 4: name -> (L1, L2, L3) miss reduction percentages.
PAPER_TABLE4 = {
    "179.ART": (46.5, 51.1, 5.5),
    "462.libquantum": (49.0, 82.6, -637.9),
    "TSP": (13.3, 19.9, 30.7),
    "Mser": (8.3, 8.4, 36.7),
    "CLOMP 1.2": (15.5, 26.4, -2.3),
    "Health": (66.7, 90.8, -35.8),
    "NN": (87.2, 98.0, 9.3),
}


def run_benchmark(
    name: str,
    *,
    scale: float = 1.0,
    analyzer: Optional[OfflineAnalyzer] = None,
    seed: int = 0,
) -> OptimizationResult:
    """One benchmark through the full profile->advise->split cycle."""
    workload = TABLE2_WORKLOADS[name](scale=scale)
    monitor = Monitor(sampling_period=workload.recommended_period, seed=seed)
    return optimize(workload, monitor=monitor, analyzer=analyzer)


def benchmark_record(result: OptimizationResult) -> Dict[str, object]:
    """An :class:`OptimizationResult` as a JSON-encodable runner record:
    exactly what the table builders and :func:`results_json` consume."""
    from ..telemetry import to_jsonable

    return to_jsonable(
        {
            "summary_row": result.summary_row(),
            "miss_reduction_percent": result.miss_reduction,
        }
    )


class BenchmarkRecord:
    """One benchmark's runner record, duck-typed for the builders.

    Exposes the same ``speedup`` / ``overhead_percent`` /
    ``miss_reduction`` / ``summary_row()`` surface as
    :class:`OptimizationResult`, reconstructed from the runner record —
    no live profiles or reports cross process or cache boundaries.
    """

    def __init__(self, record: Dict[str, object]) -> None:
        self._row: Dict[str, object] = dict(record["summary_row"])
        self._miss: Dict[str, float] = dict(record["miss_reduction_percent"])

    @property
    def workload(self) -> str:
        return self._row["benchmark"]

    @property
    def speedup(self) -> float:
        return self._row["speedup"]

    @property
    def overhead_percent(self) -> float:
        return self._row["overhead_percent"]

    @property
    def miss_reduction(self) -> Dict[str, float]:
        return dict(self._miss)

    def summary_row(self) -> Dict[str, object]:
        return dict(self._row)


def run_all(
    *,
    scale: float = 1.0,
    names: Optional[List[str]] = None,
    runner: Optional["Runner"] = None,
) -> Dict[str, BenchmarkRecord]:
    """All (or the named subset of) Table 2 benchmarks, as
    :class:`BenchmarkRecord` values.

    Each benchmark is one :func:`repro.runner.run_tasks` task; benchmark
    ``rank`` samples with seed ``rank``.  ``runner`` sets the worker
    count and the result cache (default: inline, uncached).
    """
    from ..runner import TaskSpec, run_tasks

    chosen = names if names is not None else list(TABLE2_WORKLOADS)
    specs = [
        TaskSpec(
            kind="optimize",
            name=name,
            params={"scale": scale},
            seed=rank,
        )
        for rank, name in enumerate(chosen)
    ]
    records = run_tasks(specs, runner=runner)
    return {
        name: BenchmarkRecord(record)
        for name, record in zip(chosen, records)
    }


def table3(results: Dict[str, OptimizationResult]) -> Table:
    """Table 3: speedups and measurement overhead, with paper columns."""
    table = Table(
        "Table 3: speedups after structure splitting + monitoring overhead",
        ["benchmark", "speedup", "paper speedup", "overhead %", "paper overhead %"],
        note="simulated cycles; paper values from Roy & Liu, CGO'16",
    )
    speedups: List[float] = []
    overheads: List[float] = []
    for name, result in results.items():
        p_speedup, p_overhead = PAPER_TABLE3.get(name, (float("nan"),) * 2)
        table.add_row(
            name, result.speedup, p_speedup, result.overhead_percent, p_overhead
        )
        speedups.append(result.speedup)
        overheads.append(result.overhead_percent)
    if speedups:
        table.add_row(
            "average",
            sum(speedups) / len(speedups),
            1.18,
            sum(overheads) / len(overheads),
            7.1,
        )
    return table


def results_json(results: Dict[str, OptimizationResult]) -> Dict[str, object]:
    """Machine-readable Tables 3+4: per-benchmark rows with provenance.

    Each row is ``OptimizationResult.summary_row()`` (speedup, overhead
    and its decomposition, PMU, periods) plus the per-level miss
    reductions and the paper's published numbers for comparison.
    """
    rows = []
    for name, result in results.items():
        row = result.summary_row()
        row["miss_reduction_percent"] = result.miss_reduction
        p_speedup, p_overhead = PAPER_TABLE3.get(name, (float("nan"),) * 2)
        paper_l1, paper_l2, paper_l3 = PAPER_TABLE4.get(
            name, (float("nan"),) * 3
        )
        row["paper"] = {
            "speedup": p_speedup,
            "overhead_percent": p_overhead,
            "miss_reduction_percent": {
                "L1": paper_l1,
                "L2": paper_l2,
                "L3": paper_l3,
            },
        }
        rows.append(row)
    speedups = [r.speedup for r in results.values()]
    overheads = [r.overhead_percent for r in results.values()]
    summary = {}
    if speedups:
        summary = {
            "mean_speedup": sum(speedups) / len(speedups),
            "mean_overhead_percent": sum(overheads) / len(overheads),
            "paper_mean_speedup": 1.18,
            "paper_mean_overhead_percent": 7.1,
        }
    return {"benchmarks": rows, "summary": summary}


def table4(results: Dict[str, OptimizationResult]) -> Table:
    """Table 4: per-level cache-miss reductions, with paper columns."""
    table = Table(
        "Table 4: cache-miss reduction after structure splitting",
        ["benchmark", "L1 %", "L2 %", "L3 %", "paper L1", "paper L2", "paper L3"],
        note="negative = more misses (noise on near-zero baselines)",
    )
    for name, result in results.items():
        reductions = result.miss_reduction
        paper = PAPER_TABLE4.get(name, (float("nan"),) * 3)
        table.add_row(
            name,
            reductions["L1"],
            reductions["L2"],
            reductions["L3"],
            paper[0],
            paper[1],
            paper[2],
        )
    return table
