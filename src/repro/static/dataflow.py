"""Forward-dataflow framework over the lowered binary CFGs.

The one-shot abstract interpreter in ``absint.py`` walks the IR's loop
nests directly; that works for stride/offset derivation but not for
analyses that need *flow* facts — which pointer a variable holds at a
program point, for example, depends on the path taken through the CFG.
This module supplies the classic machinery those analyses share:

* :func:`solve_forward` — an iterative worklist solver over the CFGs
  produced by ``binary/lower.py``, processing blocks in reverse
  postorder and propagating facts until a fixed point;
* :class:`ForwardAnalysis` — the lattice interface (boundary fact,
  join, per-block transfer) a client pass implements;
* :class:`StatementAnalysis` — a convenience base that folds a
  per-statement transfer function over a block's instructions, the
  form every IR-level pass here takes;
* :class:`AnalysisContext` — lazily computed shared artifacts (CFGs,
  loop map, the absint report) so the analyses run on one program
  never lower or re-analyze it twice.

Facts use a ``None``-as-bottom convention: a block whose fact is still
``None`` has not been reached, and joins skip it — so client lattices
never need an explicit bottom element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from ..binary.cfg import BasicBlock, ControlFlowGraph
from ..binary.loopmap import LoopMap
from ..binary.lower import lower_function
from ..program.builder import BoundProgram
from ..program.ir import Program, Stmt

F = TypeVar("F")

#: Iteration safety valve: a monotone framework over these CFGs
#: converges in O(blocks * lattice height); anything past this bound is
#: a non-monotone client bug, and looping forever would mask it.
MAX_ITERATIONS = 1 << 20


class ForwardAnalysis(Generic[F]):
    """The lattice a forward dataflow client implements.

    ``F`` is the fact type. Facts must be treated as immutable: a
    transfer function returns a new fact (or the same object when
    nothing changed) and never mutates its input, since the solver
    caches facts across iterations.
    """

    def boundary(self, cfg: ControlFlowGraph) -> F:
        """The fact entering the function (at the entry block)."""
        raise NotImplementedError

    def join(self, a: F, b: F) -> F:
        """Least upper bound of two facts (control-flow merge)."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, fact: F) -> F:
        """Fact after executing ``block`` given ``fact`` on entry."""
        raise NotImplementedError

    def equal(self, a: F, b: F) -> bool:
        """Fixed-point test; override when ``==`` is wrong or slow."""
        return a == b


class StatementAnalysis(ForwardAnalysis[F]):
    """A forward analysis whose transfer folds over block instructions.

    Subclasses implement :meth:`transfer_stmt`; the block transfer
    looks each IP up in the program and folds. Loop-header blocks hold
    the ``Loop`` statement's IP (the compare-and-branch) — a statement
    transfer that only reacts to specific statement types treats it as
    identity for free.
    """

    def __init__(self, program: Program) -> None:
        program.require_finalized()
        self.program = program

    def transfer(self, block: BasicBlock, fact: F) -> F:
        for ip in block.ips:
            fact = self.transfer_stmt(self.program.stmt_at(ip), fact)
        return fact

    def transfer_stmt(self, stmt: Stmt, fact: F) -> F:
        raise NotImplementedError


@dataclass
class DataflowResult(Generic[F]):
    """Solved facts: what holds on entry to and exit from each block."""

    cfg: ControlFlowGraph
    in_facts: Dict[int, F]
    out_facts: Dict[int, F]
    iterations: int

    def in_of(self, block: BasicBlock) -> Optional[F]:
        return self.in_facts.get(block.id)


def reverse_postorder(cfg: ControlFlowGraph) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable dropped).

    The canonical iteration order for forward problems: every block
    appears before its successors except along back edges, so acyclic
    regions converge in one sweep.
    """
    if cfg.entry is None:
        return []
    postorder: List[BasicBlock] = []
    seen = {cfg.entry.id}
    # Iterative DFS with an explicit successor cursor per frame.
    stack: List[Tuple[BasicBlock, int]] = [(cfg.entry, 0)]
    while stack:
        block, cursor = stack[-1]
        succs = cfg.successors(block)
        while cursor < len(succs) and succs[cursor].id in seen:
            cursor += 1
        if cursor < len(succs):
            stack[-1] = (block, cursor + 1)
            nxt = succs[cursor]
            seen.add(nxt.id)
            stack.append((nxt, 0))
        else:
            stack.pop()
            postorder.append(block)
    postorder.reverse()
    return postorder


def solve_forward(
    cfg: ControlFlowGraph, analysis: ForwardAnalysis[F]
) -> DataflowResult[F]:
    """Iterate ``analysis`` over ``cfg`` to a fixed point."""
    order = reverse_postorder(cfg)
    position = {block.id: i for i, block in enumerate(order)}
    in_facts: Dict[int, F] = {}
    out_facts: Dict[int, F] = {}
    pending = set(position)
    iterations = 0
    while pending:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise RuntimeError(
                f"dataflow did not converge on {cfg.name!r}: "
                f"non-monotone transfer or join?"
            )
        block_id = min(pending, key=position.__getitem__)
        pending.discard(block_id)
        block = cfg.block(block_id)

        fact: Optional[F] = None
        if cfg.entry is not None and block_id == cfg.entry.id:
            fact = analysis.boundary(cfg)
        for pred in cfg.predecessors(block):
            pred_out = out_facts.get(pred.id)
            if pred_out is None:
                continue  # unreached predecessor: bottom, skip
            fact = pred_out if fact is None else analysis.join(fact, pred_out)
        if fact is None:
            continue  # block itself unreached so far

        in_facts[block_id] = fact
        out = analysis.transfer(block, fact)
        old = out_facts.get(block_id)
        if old is None or not analysis.equal(old, out):
            out_facts[block_id] = out
            for succ in cfg.successors(block):
                if succ.id in position:
                    pending.add(succ.id)
    return DataflowResult(cfg, in_facts, out_facts, iterations)


# ---------------------------------------------------------------------------
# Shared pass context and registry
# ---------------------------------------------------------------------------


class AnalysisContext:
    """Lazily computed artifacts shared by every pass over one program.

    Lowered CFGs, the Havlak loop map, and the absint report are each
    computed at most once per context, however many passes consume
    them — the property that makes running the whole pass pipeline no
    more expensive than running its most demanding member.
    """

    def __init__(
        self, bound: BoundProgram, *, num_threads: int = 1, static_report=None
    ) -> None:
        bound.program.require_finalized()
        self.bound = bound
        self.num_threads = num_threads
        self._cfgs: Dict[str, ControlFlowGraph] = {}
        self._loop_map: Optional[LoopMap] = None
        self._static_report = static_report

    @property
    def program(self) -> Program:
        return self.bound.program

    def cfg(self, function: str) -> ControlFlowGraph:
        cached = self._cfgs.get(function)
        if cached is None:
            cached = lower_function(self.program, function)
            self._cfgs[function] = cached
        return cached

    @property
    def loop_map(self) -> LoopMap:
        if self._loop_map is None:
            self._loop_map = LoopMap(self.program)
        return self._loop_map

    @property
    def static_report(self):
        if self._static_report is None:
            from .absint import StaticAnalysis

            self._static_report = StaticAnalysis().analyze(
                self.bound, loop_map=self.loop_map
            )
        return self._static_report
