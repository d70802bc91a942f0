"""The complete evaluation in one call.

``run_complete_evaluation`` regenerates every paper artifact plus the
methodology studies and returns them as one ordered report — what you
run once after changing anything load-bearing, and what
``python -m repro summary`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .accuracy import run_accuracy_sweep
from .art_analysis import figure6, run_art_analysis, table5
from .optimization import run_all, table3, table4
from .overhead_suite import run_suite_overheads
from .report import Table

if TYPE_CHECKING:
    from ..runner import Runner


@dataclass
class EvaluationReport:
    """Every artifact, in the paper's order."""

    sections: List[str] = field(default_factory=list)
    tables: Dict[str, Table] = field(default_factory=dict)

    def add(self, name: str, table: Table) -> None:
        self.sections.append(name)
        self.tables[name] = table

    def render(self) -> str:
        blocks = []
        for name in self.sections:
            blocks.append(self.tables[name].render())
        return "\n\n".join(blocks)


def run_complete_evaluation(
    *,
    scale: float = 1.0,
    include_suites: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    runner: Optional["Runner"] = None,
) -> EvaluationReport:
    """Regenerate Tables 3-6, Figures 4-6, and the Eq 4 study.

    ``progress`` (if given) receives a line per stage, for CLI feedback
    during the multi-minute full-scale run.  The independent pieces —
    the seven optimization cycles and the suite kernels — run through
    :mod:`repro.runner` under ``runner`` (default: inline, uncached),
    whose counts accumulate across all of them.
    """
    say = progress or (lambda message: None)
    report = EvaluationReport()

    say("running the seven optimization cycles (Tables 3-4)...")
    results = run_all(scale=scale, runner=runner)
    report.add("table3", table3(results))
    report.add("table4", table4(results))

    say("ART deep dive (Tables 5-6, Figure 6)...")
    art = run_art_analysis(scale=scale)
    report.add("table5", table5(art))
    report.add("table6", art.loop_rows)
    affinities, _ = figure6(art)
    report.add("figure6", affinities)

    if include_suites:
        say("suite overheads (Figures 4-5)...")
        for section, suite in (("figure4", "rodinia"), ("figure5", "spec")):
            overheads = run_suite_overheads(suite, runner=runner)
            report.add(section, overheads.table())

    say("Eq 4 accuracy sweep...")
    report.add("eq4", run_accuracy_sweep(trials=500))
    return report
