"""Structure-splitting advice: the analyzer's user-facing output.

Packages everything recovered about one data object — size, field
offsets, affinities, clusters — and renders it two ways: the dot graph
the paper's analyzer emits (nodes are field offsets, weighted edges are
affinities, clusters become subgraphs), and a concrete
:class:`~repro.layout.splitting.SplitPlan` once the user supplies the
source structure definition (the role ``-g`` debug info plays in the
paper's workflow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..layout.splitting import SplitPlan
from ..layout.struct import StructType
from ..profiler.profile import DataIdentity
from .affinity import AffinityMatrix
from .attribution import LoopAccessEntry
from .clustering import DEFAULT_THRESHOLD, cluster_offsets
from .structsize import RecoveredStruct


@dataclass
class StructureAdvice:
    """Splitting guidance for one data object."""

    identity: DataIdentity
    recovered: RecoveredStruct
    affinity: AffinityMatrix
    clusters: List[List[int]]
    threshold: float = DEFAULT_THRESHOLD

    @property
    def name(self) -> str:
        return self.identity[-1]

    def should_split(self) -> bool:
        """Splitting helps only if the advice separates something."""
        return len(self.clusters) > 1

    # -- dot output --------------------------------------------------------

    def to_dot(self) -> str:
        """The paper's affinity graph: offset nodes, weighted edges,
        one subgraph (cluster) per recommended structure."""
        lines = [f'graph "{self.name}" {{']
        for gi, group in enumerate(self.clusters):
            lines.append(f"  subgraph cluster_{gi} {{")
            lines.append(f'    label="struct {self.name}_{gi}";')
            for offset in group:
                share = self.recovered.latency_share(offset)
                lines.append(
                    f'    o{offset} [label="offset {offset}\\n{share:.1%}"];'
                )
            lines.append("  }")
        for i, j, value in self.affinity.pairs():
            if value > 0.0:
                style = "bold" if value >= self.threshold else "dashed"
                lines.append(
                    f'  o{i} -- o{j} [label="{value:.2f}", weight={value:.2f}, '
                    f"style={style}];"
                )
        lines.append("}")
        return "\n".join(lines)

    # -- mapping back to source --------------------------------------------

    def split_plan(self, struct: StructType) -> SplitPlan:
        """Turn offset clusters into a field-name partition of ``struct``.

        Offsets map to fields through the declared layout (debug info).
        Fields the profiler never sampled go together into one cold
        leftover structure — the rule every §6 split follows (ART's lone
        R in Figure 7, TSP's {sz, left, right, prev} in Figure 9,
        CLOMP's _ZoneHeader in Figure 11). If the recovered size
        disagrees with the declaration (it can be a multiple under
        extreme sample sparsity), offsets are reduced modulo the
        declared size first.
        """
        groups: List[List[str]] = []
        assigned: set = set()
        for cluster in self.clusters:
            names: List[str] = []
            for offset in cluster:
                field = struct.field_at_offset(offset % struct.size)
                if field is None or field.name in assigned:
                    continue
                names.append(field.name)
                assigned.add(field.name)
            if names:
                groups.append(names)
        cold = [f.name for f in struct.fields if f.name not in assigned]
        if cold:
            groups.append(cold)
        return SplitPlan(struct.name, tuple(tuple(g) for g in groups))

    def describe(self, struct: Optional[StructType] = None) -> str:
        """Human-readable advice block."""
        lines = [
            f"data object: {self.name}",
            f"recovered element size: {self.recovered.size} bytes",
            "field latency shares:",
        ]
        for offset in self.recovered.offsets:
            share = self.recovered.latency_share(offset)
            label = f"offset {offset}"
            if struct is not None:
                field = struct.field_at_offset(offset % struct.size)
                if field is not None:
                    label += f" ({field.name})"
            lines.append(f"  {label}: {share:.1%}")
        lines.append(f"recommended grouping (threshold {self.threshold}):")
        for gi, group in enumerate(self.clusters):
            labels = []
            for offset in group:
                if struct is not None:
                    field = struct.field_at_offset(offset % struct.size)
                    labels.append(field.name if field else f"@{offset}")
                else:
                    labels.append(f"@{offset}")
            lines.append(f"  struct #{gi}: {{{', '.join(labels)}}}")
        return "\n".join(lines)


def build_advice(
    identity: DataIdentity,
    recovered: RecoveredStruct,
    affinity: AffinityMatrix,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> StructureAdvice:
    """Cluster the affinity graph and package the splitting advice."""
    clusters = cluster_offsets(affinity, threshold=threshold)
    # Offsets that carried latency but formed no affinity pairs (e.g.
    # the only sampled offset) still deserve a cluster.
    clustered = {o for g in clusters for o in g}
    for offset in recovered.offsets:
        if offset not in clustered:
            clusters.append([offset])
    return StructureAdvice(
        identity=identity,
        recovered=recovered,
        affinity=affinity,
        clusters=clusters,
        threshold=threshold,
    )
