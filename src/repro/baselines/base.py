"""Common scaffolding for the instrumentation-based comparators (§3).

Every baseline observes the *full* access stream (that is what makes
them expensive: the paper quotes 153x for reuse-distance collection,
4.2x for ASLOP, 3-5x for bursty sampling) and produces the same
artifact StructSlim does — a split plan per structure — so the ablation
benchmarks can compare both the advice and its collection cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..binary.loopmap import LoopMap
from ..core.advice import build_advice
from ..core.affinity import compute_affinities
from ..core.attribution import LoopAccessEntry
from ..core.structsize import RecoveredField, RecoveredStruct
from ..layout.splitting import SplitPlan
from ..layout.struct import StructType
from ..memsim.stats import RunMetrics
from ..profiler.allocation import DataObjectRegistry
from ..program.trace import MemoryAccess
from ..sampling.overhead import InstrumentationModel


@dataclass
class BaselineResult:
    """What one baseline run produced."""

    name: str
    plans: Dict[str, SplitPlan]
    slowdown: float  # collection cost as a multiple of plain runtime
    details: Dict[str, object] = field(default_factory=dict)


class InstrumentingProfiler:
    """Base class: full-trace observation with ground-truth attribution.

    Instrumentation-based tools know the structure layout (they rewrote
    the code), so unlike StructSlim they are handed the declared struct
    per array; their job is only the affinity policy.
    """

    #: Human-readable tool name; subclasses override.
    tool_name = "instrumentation"

    def __init__(
        self,
        registry: DataObjectRegistry,
        loop_map: LoopMap,
        structs: Dict[str, StructType],
        *,
        instrumentation: InstrumentationModel,
        l1_latency: float = 4.0,
    ) -> None:
        self.registry = registry
        self.loop_map = loop_map
        self.structs = structs
        self.instrumentation = instrumentation
        self.l1_latency = l1_latency
        # (array_name) -> loop_id -> LoopAccessEntry holding this
        # baseline's weights in the ``latency`` slots.
        self.tables: Dict[str, Dict[int, LoopAccessEntry]] = {}

    # -- trace observation -------------------------------------------------

    def observe(self, access: MemoryAccess, latency: float) -> None:
        """Observer hook (same protocol as the sampling engine)."""
        located = self._locate(access)
        if located is None:
            return
        array_name, struct, offset = located
        weight = self.weight(access, latency)
        if weight <= 0:
            return
        loop = self.loop_map.loop_of_ip(access.ip)
        loop_id = loop.id if loop is not None else -1
        table = self.tables.setdefault(array_name, {})
        entry = table.get(loop_id)
        if entry is None:
            label = loop.label if loop is not None else "<no loop>"
            lines = loop.line_range if loop is not None else (0, 0)
            entry = LoopAccessEntry(loop_id, label, lines)
            table[loop_id] = entry
        entry.add(offset, weight)

    def _locate(
        self, access: MemoryAccess
    ) -> Optional[Tuple[str, StructType, int]]:
        obj = self.registry.find(access.address)
        if obj is None:
            return None
        struct = self.structs.get(obj.name)
        if struct is None:
            return None
        offset = (access.address - obj.base) % struct.size
        f = struct.field_at_offset(offset)
        if f is None:
            return None
        return obj.name, struct, f.offset

    # -- policy ---------------------------------------------------------------

    def weight(self, access: MemoryAccess, latency: float) -> float:
        """The metric this tool accumulates per access (subclass hook)."""
        raise NotImplementedError

    # -- results -----------------------------------------------------------------

    def advise(self, *, threshold: float = 0.5) -> Dict[str, SplitPlan]:
        """Cluster each structure's fields under this tool's metric."""
        plans: Dict[str, SplitPlan] = {}
        for array_name, table in self.tables.items():
            struct = self.structs[array_name]
            affinity = compute_affinities(table)
            recovered = self._recovered_struct(array_name, struct, table)
            advice = build_advice(
                ("heap", array_name), recovered, affinity, threshold=threshold
            )
            plan = advice.split_plan(struct)
            if not plan.is_identity():
                plans[array_name] = plan
        return plans

    def _recovered_struct(
        self,
        array_name: str,
        struct: StructType,
        table: Dict[int, LoopAccessEntry],
    ) -> RecoveredStruct:
        fields: Dict[int, RecoveredField] = {}
        total = 0.0
        for entry in table.values():
            for offset, weight in entry.offset_latency.items():
                rf = fields.setdefault(offset, RecoveredField(offset=offset))
                rf.latency += weight
                total += weight
        return RecoveredStruct(
            identity=("heap", array_name),
            size=struct.size,
            fields=fields,
            total_latency=total,
        )

    def result(self, plain: RunMetrics) -> BaselineResult:
        return BaselineResult(
            name=self.tool_name,
            plans=self.advise(),
            slowdown=self.instrumentation.slowdown(plain),
        )
