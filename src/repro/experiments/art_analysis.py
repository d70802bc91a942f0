"""ART deep-dive: Tables 5 and 6 and the Figure 6 affinity graph.

One monitored ART run feeds all three artifacts, exactly as in §6.1:
the per-field latency decomposition (Table 5), the per-loop latency and
field attribution (Table 6), and the field-affinity graph whose
clusters become Figure 7's split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.analyzer import AnalysisReport, ObjectAnalysis, OfflineAnalyzer
from ..core.attribution import loop_share_rows
from ..profiler.monitor import Monitor
from ..workloads.art import ArtWorkload, F1_NEURON
from .report import Table

#: Table 5 of the paper: field -> latency share (%) of f1_neuron.
PAPER_TABLE5 = {
    "I": 5.5, "W": 2.0, "X": 3.7, "V": 3.7,
    "U": 7.1, "P": 73.3, "Q": 4.7, "R": 0.0,
}

#: Table 6 of the paper: loop label -> (latency %, fields).
PAPER_TABLE6 = {
    "131-138": (1.59, "U,P"),
    "559-570": (8.42, "X,Q"),
    "553-554": (1.98, "W"),
    "545-548": (10.83, "U,I"),
    "615-616": (56.57, "P"),
    "607-608": (14.40, "P"),
    "589-592": (2.25, "U,P"),
    "575-576": (3.72, "V"),
    "1015-1016": (0.24, "I"),
}

#: Figure 6's headline affinities.
PAPER_AFFINITIES = {("I", "U"): 0.86, ("P", "U"): 0.05}


@dataclass
class ArtAnalysis:
    """All ART artifacts from one monitored run."""

    report: AnalysisReport
    analysis: ObjectAnalysis
    field_shares: Dict[str, float]
    loop_rows: Table
    affinity_dot: str

    def affinity(self, field_a: str, field_b: str) -> float:
        a = F1_NEURON.offset_of(field_a)
        b = F1_NEURON.offset_of(field_b)
        assert self.analysis.affinity is not None
        return self.analysis.affinity.affinity(a, b)


def _field_name(offset: int) -> str:
    field = F1_NEURON.field_at_offset(offset % F1_NEURON.size)
    return field.name if field else f"@{offset}"


def run_art_analysis(*, scale: float = 1.0) -> ArtAnalysis:
    """Monitor ART once and build Tables 5/6 and the Figure 6 graph."""
    workload = ArtWorkload(scale=scale)
    monitor = Monitor(sampling_period=workload.recommended_period)
    run = monitor.run(workload.build_original())
    report = OfflineAnalyzer().analyze(run)
    analysis = report.object_by_name("f1_layer")
    if analysis is None or analysis.recovered is None:
        raise RuntimeError("ART analysis did not recover f1_neuron")

    shares: Dict[str, float] = {name: 0.0 for name in F1_NEURON.field_names}
    for offset in analysis.recovered.offsets:
        shares[_field_name(offset)] = analysis.recovered.latency_share(offset)

    loops = Table(
        "Table 6: f1_neuron latency per loop (ART)",
        ["loop (lines)", "latency %", "fields", "paper %", "paper fields"],
    )
    for label, share, offsets in loop_share_rows(analysis.loop_table):
        fields = ",".join(_field_name(o) for o in offsets)
        paper_share, paper_fields = PAPER_TABLE6.get(
            label, PAPER_TABLE6.get(_widen(label), (float("nan"), "?"))
        )
        loops.add_row(label, 100.0 * share, fields, paper_share, paper_fields)

    assert analysis.advice is not None
    return ArtAnalysis(
        report=report,
        analysis=analysis,
        field_shares=shares,
        loop_rows=loops,
        affinity_dot=analysis.advice.to_dot(),
    )


def _widen(label: str) -> str:
    """Map single-line labels ('615') to the paper's range ('615-616')."""
    for key in PAPER_TABLE6:
        if key.split("-")[0] == label:
            return key
    return label


def table5(analysis: ArtAnalysis) -> Table:
    """Table 5: per-field latency shares next to the paper's values."""
    table = Table(
        "Table 5: f1_neuron per-field latency shares (ART)",
        ["field", "latency %", "paper %"],
        note="0% = never captured by address sampling",
    )
    for name in F1_NEURON.field_names:
        table.add_row(name, 100.0 * analysis.field_shares[name], PAPER_TABLE5[name])
    return table


def figure6(analysis: ArtAnalysis) -> Tuple[Table, str]:
    """Key affinity values plus the dot graph the analyzer emits."""
    table = Table(
        "Figure 6: f1_neuron field affinities (ART)",
        ["pair", "affinity", "paper"],
    )
    for (a, b), paper in PAPER_AFFINITIES.items():
        table.add_row(f"{a}-{b}", analysis.affinity(a, b), paper)
    table.add_row("X-Q", analysis.affinity("X", "Q"), "high")
    return table, analysis.affinity_dot
