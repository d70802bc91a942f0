"""Control-flow graphs over synthetic basic blocks.

StructSlim discovers loop boundaries by running interval analysis on
the *binary's* CFG (via hpcstruct), not by trusting source structure.
We reproduce that split: the workload IR is lowered to a CFG
(``lower.py``) and loops are recovered from the graph alone
(``havlak.py``); tests confirm the recovered loops match the IR's
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple


@dataclass
class BasicBlock:
    """A straight-line run of instructions.

    ``ips`` are the statement IPs the block covers; ``lines`` the source
    lines, used later to report loop line ranges the way the paper does
    (e.g. "loop at line 615-616").
    """

    id: int
    ips: Tuple[int, ...] = ()
    lines: Tuple[int, ...] = ()
    label: str = ""

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BasicBlock) and other.id == self.id

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"BB{self.id}{tag}"


class ControlFlowGraph:
    """A directed graph of :class:`BasicBlock` with one entry block."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._blocks: List[BasicBlock] = []
        self._succs: Dict[int, List[int]] = {}
        self._preds: Dict[int, List[int]] = {}
        self.entry: Optional[BasicBlock] = None

    # -- construction -------------------------------------------------------

    def new_block(
        self,
        *,
        ips: Sequence[int] = (),
        lines: Sequence[int] = (),
        label: str = "",
    ) -> BasicBlock:
        block = BasicBlock(len(self._blocks), tuple(ips), tuple(lines), label)
        self._blocks.append(block)
        self._succs[block.id] = []
        self._preds[block.id] = []
        if self.entry is None:
            self.entry = block
        return block

    def add_edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        self._check(src)
        self._check(dst)
        if dst.id not in self._succs[src.id]:
            self._succs[src.id].append(dst.id)
            self._preds[dst.id].append(src.id)

    def _check(self, block: BasicBlock) -> None:
        if block.id >= len(self._blocks) or self._blocks[block.id] is not block:
            raise ValueError(f"block {block!r} does not belong to this CFG")

    # -- queries --------------------------------------------------------------

    @property
    def blocks(self) -> Tuple[BasicBlock, ...]:
        return tuple(self._blocks)

    def block(self, block_id: int) -> BasicBlock:
        return self._blocks[block_id]

    def successors(self, block: BasicBlock) -> List[BasicBlock]:
        return [self._blocks[i] for i in self._succs[block.id]]

    def predecessors(self, block: BasicBlock) -> List[BasicBlock]:
        return [self._blocks[i] for i in self._preds[block.id]]

    def edges(self) -> Iterator[Tuple[BasicBlock, BasicBlock]]:
        for src_id, dsts in self._succs.items():
            for dst_id in dsts:
                yield self._blocks[src_id], self._blocks[dst_id]

    def __len__(self) -> int:
        return len(self._blocks)

    # -- traversal ------------------------------------------------------------

    def reachable(self) -> Set[int]:
        """Ids of blocks reachable from the entry."""
        if self.entry is None:
            return set()
        seen = {self.entry.id}
        stack = [self.entry.id]
        while stack:
            node = stack.pop()
            for succ in self._succs[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def to_dot(self) -> str:
        """Render as graphviz dot, for debugging and documentation."""
        lines = [f'digraph "{self.name or "cfg"}" {{']
        for b in self._blocks:
            label = b.label or f"BB{b.id}"
            lines.append(f'  n{b.id} [label="{label}"];')
        for src, dst in self.edges():
            lines.append(f"  n{src.id} -> n{dst.id};")
        lines.append("}")
        return "\n".join(lines)
