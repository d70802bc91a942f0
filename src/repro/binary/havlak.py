"""Havlak loop-nesting analysis (interval analysis).

This is the algorithm StructSlim's structure recovery uses (via
hpcstruct) to find loop boundaries in a stripped binary: Paul Havlak,
"Nesting of Reducible and Irreducible Loops", TOPLAS 19(4), 1997 —
reference [11] in the paper. It discovers loops purely from the CFG's
edge structure, handles irreducible regions, and produces a loop
nesting forest.

The implementation follows Havlak's formulation: a depth-first
numbering, classification of predecessors into back and non-back edges,
and a reverse-preorder sweep that grows each loop body with a
union-find over already-discovered inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .cfg import BasicBlock, ControlFlowGraph


@dataclass
class LoopInfo:
    """One discovered loop.

    ``block_ids`` are the loop's *direct* members (nested loops appear
    via ``children``, not by re-listing their blocks);
    ``all_block_ids()`` flattens the subtree.
    """

    id: int
    header: BasicBlock
    block_ids: Set[int] = field(default_factory=set)
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)
    irreducible: bool = False
    depth: int = 0

    def __repr__(self) -> str:
        kind = "irreducible" if self.irreducible else "loop"
        return f"LoopInfo({self.id}, header=BB{self.header.id}, {kind}, depth={self.depth})"


class LoopNest:
    """The loop nesting forest for one CFG."""

    def __init__(self, cfg: ControlFlowGraph, loops: List[LoopInfo]) -> None:
        self.cfg = cfg
        self.loops = loops
        self._by_id = {l.id: l for l in loops}
        self._compute_depths()

    def _compute_depths(self) -> None:
        for loop in self.loops:
            depth = 1
            cursor = loop.parent
            while cursor is not None:
                depth += 1
                cursor = self._by_id[cursor].parent
            loop.depth = depth

    def loop(self, loop_id: int) -> LoopInfo:
        return self._by_id[loop_id]

    def roots(self) -> List[LoopInfo]:
        return [l for l in self.loops if l.parent is None]

    def all_block_ids(self, loop: LoopInfo) -> Set[int]:
        """Every block in ``loop`` including nested loops' blocks."""
        blocks = set(loop.block_ids)
        blocks.add(loop.header.id)
        for child_id in loop.children:
            blocks |= self.all_block_ids(self._by_id[child_id])
        return blocks

    def innermost_by_block(self) -> Dict[int, int]:
        """Map block id -> id of the innermost loop containing it."""
        result: Dict[int, int] = {}
        # Visit loops shallow-to-deep so deeper loops overwrite.
        for loop in sorted(self.loops, key=lambda l: l.depth):
            for bid in self.all_block_ids(loop):
                result[bid] = loop.id
        return result

    def __len__(self) -> int:
        return len(self.loops)


class _UnionFind:
    """Union-find over DFS preorder numbers, with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, child: int, parent: int) -> None:
        self.parent[self.find(child)] = self.find(parent)


def find_loops(cfg: ControlFlowGraph) -> LoopNest:
    """Run Havlak's analysis on ``cfg`` and return its loop forest."""
    if cfg.entry is None or len(cfg) == 0:
        return LoopNest(cfg, [])

    # --- Step a: DFS numbering -------------------------------------------
    # number[block_id] = preorder index; last[preorder] = highest preorder
    # index in the DFS subtree (for the ancestor test).
    number: Dict[int, int] = {}
    nodes: List[BasicBlock] = []  # preorder index -> block
    last: List[int] = []
    # Iterative DFS to avoid recursion limits on long loop chains.
    _iterative_dfs(cfg, number, nodes, last)
    n = len(nodes)

    def is_ancestor(w: int, v: int) -> bool:
        return w <= v <= last[w]

    # --- Step b: classify predecessor edges --------------------------------
    back_preds: List[List[int]] = [[] for _ in range(n)]
    non_back_preds: List[Set[int]] = [set() for _ in range(n)]
    for w_pre in range(n):
        block = nodes[w_pre]
        for pred in cfg.predecessors(block):
            if pred.id not in number:
                continue  # unreachable predecessor
            v_pre = number[pred.id]
            if is_ancestor(w_pre, v_pre):
                back_preds[w_pre].append(v_pre)
            else:
                non_back_preds[w_pre].add(v_pre)

    # --- Step c: reverse-preorder sweep -------------------------------------
    uf = _UnionFind(n)
    loops: List[LoopInfo] = []
    # loop_of[preorder] = loop id whose header is that node, if any.
    loop_of: Dict[int, int] = {}
    header_of: Dict[int, int] = {}  # node -> header preorder it was absorbed by

    for w in range(n - 1, -1, -1):
        node_pool: List[int] = []
        self_loop = False
        for v in back_preds[w]:
            if v != w:
                node_pool.append(uf.find(v))
            else:
                self_loop = True

        if not node_pool and not self_loop:
            continue

        irreducible = False
        work_list = list(node_pool)
        while work_list:
            x = work_list.pop()
            for y in non_back_preds[x]:
                y_rep = uf.find(y)
                if not is_ancestor(w, y_rep):
                    # A predecessor from outside w's DFS subtree: the
                    # region is irreducible (multiple-entry).
                    irreducible = True
                    non_back_preds[w].add(y_rep)
                elif y_rep != w and y_rep not in node_pool:
                    node_pool.append(y_rep)
                    work_list.append(y_rep)

        loop = LoopInfo(
            id=len(loops),
            header=nodes[w],
            irreducible=irreducible,
        )
        for x in node_pool:
            header_of[x] = w
            uf.union(x, w)
            child = loop_of.get(x)
            if child is not None:
                loops[child].parent = loop.id
                loop.children.append(child)
            else:
                loop.block_ids.add(nodes[x].id)
        loop_of[w] = loop.id
        loops.append(loop)

    return LoopNest(cfg, loops)


def _iterative_dfs(
    cfg: ControlFlowGraph,
    number: Dict[int, int],
    nodes: List[BasicBlock],
    last: List[int],
) -> None:
    """Preorder numbering + subtree-extent computation without recursion."""
    assert cfg.entry is not None
    stack: List[Tuple[BasicBlock, int]] = [(cfg.entry, 0)]
    number[cfg.entry.id] = 0
    nodes.append(cfg.entry)
    last.append(0)
    path: List[int] = []  # preorder numbers of the current DFS path

    # Classic explicit-stack DFS: (block, next successor index).
    while stack:
        block, succ_idx = stack[-1]
        if succ_idx == 0:
            path.append(number[block.id])
        succs = cfg.successors(block)
        advanced = False
        while succ_idx < len(succs):
            succ = succs[succ_idx]
            succ_idx += 1
            if succ.id not in number:
                stack[-1] = (block, succ_idx)
                pre = len(nodes)
                number[succ.id] = pre
                nodes.append(succ)
                last.append(pre)
                stack.append((succ, 0))
                advanced = True
                break
        else:
            stack[-1] = (block, succ_idx)
        if advanced:
            continue
        # Finished this node: propagate subtree extent to the parent.
        stack.pop()
        me = path.pop()
        if path:
            parent = path[-1]
            last[parent] = max(last[parent], last[me])
