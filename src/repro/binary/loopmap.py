"""Program-wide loop discovery and IP-to-loop attribution.

Combines the lowering (IR -> CFG) with Havlak's analysis into the thing
StructSlim's profiler actually consumes: for a sampled instruction
pointer, which loop (if any) was it executing in, and what source-line
range does that loop span? This mirrors hpcstruct's role in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..program.ir import Program
from .cfg import ControlFlowGraph
from .havlak import LoopNest, find_loops
from .lower import lower_program


@dataclass(frozen=True)
class LoopDescriptor:
    """One loop as the analyzer sees it."""

    id: int
    function: str
    line_range: Tuple[int, int]
    depth: int
    parent: Optional[int]
    irreducible: bool

    @property
    def label(self) -> str:
        lo, hi = self.line_range
        return f"{lo}-{hi}" if hi != lo else str(lo)

    def __repr__(self) -> str:
        return f"LoopDescriptor({self.id}, {self.function}:{self.label}, depth={self.depth})"


class LoopMap:
    """Maps instruction pointers to the innermost enclosing loop."""

    def __init__(self, program: Program) -> None:
        program.require_finalized()
        self.program_name = program.name
        self._descriptors: List[LoopDescriptor] = []
        self._ip_to_loop: Dict[int, int] = {}
        for fname, cfg in lower_program(program).items():
            self._ingest(fname, cfg, find_loops(cfg))

    def _ingest(self, fname: str, cfg: ControlFlowGraph, nest: LoopNest) -> None:
        local_to_global: Dict[int, int] = {}
        # First pass: create descriptors (parents resolved in a second pass
        # because Havlak discovers inner loops before outer ones).
        pending: List[Tuple[int, Optional[int]]] = []
        for loop in nest.loops:
            block_ids = nest.all_block_ids(loop)
            lines = [
                line
                for bid in block_ids
                for line in cfg.block(bid).lines
                if line > 0
            ]
            line_range = (min(lines), max(lines)) if lines else (0, 0)
            global_id = len(self._descriptors)
            local_to_global[loop.id] = global_id
            self._descriptors.append(
                LoopDescriptor(
                    id=global_id,
                    function=fname,
                    line_range=line_range,
                    depth=loop.depth,
                    parent=None,  # patched below
                    irreducible=loop.irreducible,
                )
            )
            pending.append((global_id, loop.parent))
        for global_id, local_parent in pending:
            if local_parent is not None:
                desc = self._descriptors[global_id]
                patched = LoopDescriptor(
                    id=desc.id,
                    function=desc.function,
                    line_range=desc.line_range,
                    depth=desc.depth,
                    parent=local_to_global[local_parent],
                    irreducible=desc.irreducible,
                )
                self._descriptors[global_id] = patched

        innermost = nest.innermost_by_block()
        for bid, local_loop in innermost.items():
            for ip in cfg.block(bid).ips:
                self._ip_to_loop[ip] = local_to_global[local_loop]

    # -- queries --------------------------------------------------------------

    @property
    def loops(self) -> Tuple[LoopDescriptor, ...]:
        return tuple(self._descriptors)

    def loop_of_ip(self, ip: int) -> Optional[LoopDescriptor]:
        loop_id = self._ip_to_loop.get(ip)
        return self._descriptors[loop_id] if loop_id is not None else None

    def loop(self, loop_id: int) -> LoopDescriptor:
        return self._descriptors[loop_id]

    def ancestors(self, loop_id: int) -> Tuple[LoopDescriptor, ...]:
        """The loop-nest chain for ``loop_id``, outermost first.

        Includes the loop itself as the last element; this is the query
        static analyses use to reconstruct the full nest a sampled (or
        abstract) access executes under, from the lowered CFG alone.
        """
        chain: List[LoopDescriptor] = []
        cursor: Optional[int] = loop_id
        while cursor is not None:
            desc = self._descriptors[cursor]
            chain.append(desc)
            cursor = desc.parent
        chain.reverse()
        return tuple(chain)

    def innermost_at_line(self, function: str, line: int) -> Optional[LoopDescriptor]:
        """The deepest loop of ``function`` whose line range covers ``line``."""
        best: Optional[LoopDescriptor] = None
        for desc in self._descriptors:
            if desc.function != function:
                continue
            lo, hi = desc.line_range
            if lo <= line <= hi and (best is None or desc.depth > best.depth):
                best = desc
        return best

    def __len__(self) -> int:
        return len(self._descriptors)
