"""Dominator analysis and natural-loop detection.

A second, independent loop finder, the test oracle for the Havlak
implementation (the two must agree on every reducible CFG — a property
the test suite checks on randomly generated programs).

Dominators are computed with the Cooper-Harvey-Kennedy iterative
algorithm ("A Simple, Fast Dominance Algorithm"); back edges are edges
whose target dominates their source; each back edge's natural loop is
grown backwards from the latch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.binary.cfg import BasicBlock, ControlFlowGraph


def immediate_dominators(cfg: ControlFlowGraph) -> Dict[int, Optional[int]]:
    """idom for every reachable block (entry's idom is None)."""
    if cfg.entry is None:
        return {}
    # Reverse postorder numbering.
    postorder: List[BasicBlock] = []
    seen: Set[int] = set()
    stack: List[Tuple[BasicBlock, int]] = [(cfg.entry, 0)]
    seen.add(cfg.entry.id)
    while stack:
        block, idx = stack[-1]
        succs = cfg.successors(block)
        if idx < len(succs):
            stack[-1] = (block, idx + 1)
            succ = succs[idx]
            if succ.id not in seen:
                seen.add(succ.id)
                stack.append((succ, 0))
        else:
            postorder.append(block)
            stack.pop()
    rpo = list(reversed(postorder))
    order = {block.id: i for i, block in enumerate(rpo)}

    idom: Dict[int, Optional[int]] = {cfg.entry.id: cfg.entry.id}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while order[a] > order[b]:
                a = idom[a]  # type: ignore[assignment]
            while order[b] > order[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block in rpo:
            if block is cfg.entry:
                continue
            preds = [p for p in cfg.predecessors(block) if p.id in order]
            processed = [p.id for p in preds if p.id in idom]
            if not processed:
                continue
            new_idom = processed[0]
            for pred_id in processed[1:]:
                new_idom = intersect(new_idom, pred_id)
            if idom.get(block.id) != new_idom:
                idom[block.id] = new_idom
                changed = True
    result: Dict[int, Optional[int]] = dict(idom)
    result[cfg.entry.id] = None
    return result


def dominates(idom: Dict[int, Optional[int]], a: int, b: int) -> bool:
    """True when block ``a`` dominates block ``b``."""
    cursor: Optional[int] = b
    while cursor is not None:
        if cursor == a:
            return True
        cursor = idom.get(cursor)
    return False


def back_edges(cfg: ControlFlowGraph) -> List[Tuple[BasicBlock, BasicBlock]]:
    """Edges (latch -> header) whose target dominates their source."""
    idom = immediate_dominators(cfg)
    result = []
    for src, dst in cfg.edges():
        if src.id in idom and dst.id in idom and dominates(idom, dst.id, src.id):
            result.append((src, dst))
    return result


def natural_loops(cfg: ControlFlowGraph) -> Dict[int, Set[int]]:
    """header block id -> set of member block ids (including header).

    Natural loops of back edges sharing a header are unioned, the
    textbook convention — which matches what Havlak produces for
    reducible graphs.
    """
    loops: Dict[int, Set[int]] = {}
    for latch, header in back_edges(cfg):
        members = loops.setdefault(header.id, {header.id})
        # Grow backwards from the latch until the header bounds it.
        stack = [latch.id]
        while stack:
            node = stack.pop()
            if node in members:
                continue
            members.add(node)
            for pred in cfg.predecessors(cfg.block(node)):
                stack.append(pred.id)
    return loops


def is_reducible(cfg: ControlFlowGraph) -> bool:
    """A CFG is reducible iff removing all back edges leaves a DAG."""
    removed = {(s.id, d.id) for s, d in back_edges(cfg)}
    reachable = cfg.reachable()
    # Detect a cycle among the remaining edges with a DFS coloring.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {bid: WHITE for bid in reachable}

    for start in reachable:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            succs = [
                s.id
                for s in cfg.successors(cfg.block(node))
                if s.id in reachable and (node, s.id) not in removed
            ]
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                succ = succs[idx]
                if color[succ] == GRAY:
                    return False  # cycle without a dominating header
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    stack.append((succ, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return True
