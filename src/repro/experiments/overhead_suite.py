"""Figures 4 and 5: monitoring overhead across Rodinia and SPEC CPU 2006.

Each suite kernel runs twice conceptually — plain and monitored — but
since sampling does not perturb the simulation, one simulated run plus
the overhead cost model gives both, like the paper's three-run averages
give its percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..profiler.monitor import Monitor
from ..workloads.suites import KernelSpec, suite_by_name
from .report import Table, bar_chart

if TYPE_CHECKING:
    from ..runner import Runner

#: Paper-reported suite averages.
PAPER_AVERAGES = {"rodinia": 8.2, "spec": 4.2}


@dataclass
class SuiteOverheads:
    """Per-benchmark overhead results for one suite."""

    suite: str
    rows: List[Tuple[str, float]]

    @property
    def average(self) -> float:
        if not self.rows:
            return 0.0
        return sum(v for _, v in self.rows) / len(self.rows)

    def table(self) -> Table:
        table = Table(
            f"Figure {'4' if self.suite == 'rodinia' else '5'}: "
            f"StructSlim overhead on {self.suite}",
            ["benchmark", "overhead %"],
            note=f"paper average {PAPER_AVERAGES[self.suite]}%",
        )
        for name, value in self.rows:
            table.add_row(name, value)
        table.add_row("average", self.average)
        return table

    def chart(self) -> str:
        labels = [name for name, _ in self.rows] + ["AVERAGE"]
        values = [v for _, v in self.rows] + [self.average]
        return bar_chart(
            f"monitoring overhead: {self.suite}",
            labels,
            values,
            reference=PAPER_AVERAGES[self.suite],
        )


def run_suite_overheads(
    suite: str,
    *,
    limit: int = 0,
    runner: Optional["Runner"] = None,
) -> SuiteOverheads:
    """Monitor every kernel in ``suite`` and collect its overhead.

    ``limit`` > 0 monitors only the first N kernels (for quick tests).
    Each kernel is one :func:`repro.runner.run_tasks` task at the
    paper's period 499; kernel ``rank`` samples with seed ``rank``.
    ``runner`` sets the worker count and the result cache (default:
    inline, uncached).
    """
    from ..runner import TaskSpec, run_tasks

    kernels = suite_by_name(suite)
    if limit:
        kernels = kernels[:limit]
    specs = [
        TaskSpec(
            kind="kernel-overhead",
            name=kernel.name,
            params={"suite": suite, "sampling_period": 499},
            seed=rank,
        )
        for rank, kernel in enumerate(kernels)
    ]
    records = run_tasks(specs, runner=runner)
    rows = [
        (kernel.name, record["overhead_percent"])
        for kernel, record in zip(kernels, records)
    ]
    return SuiteOverheads(suite=suite, rows=rows)


def kernel_overhead(
    spec: KernelSpec, sampling_period: int = 499, *, seed: int = 0
) -> float:
    """Modelled monitoring overhead (%) for one suite kernel."""
    monitor = Monitor(sampling_period=sampling_period, seed=seed)
    run = monitor.run(spec.build(), num_threads=spec.threads)
    return run.overhead_percent
