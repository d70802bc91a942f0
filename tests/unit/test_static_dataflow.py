"""Unit tests for the forward-dataflow framework (static/dataflow.py)."""

import pytest

from repro.binary.cfg import ControlFlowGraph
from repro.layout import INT, StructType
from repro.program import (
    AddrOf,
    Call,
    Const,
    Function,
    Loop,
    PtrAccess,
    WorkloadBuilder,
    affine,
)
from repro.static import (
    AnalysisContext,
    ForwardAnalysis,
    reverse_postorder,
    solve_forward,
)
from repro.static.safety import PointsToAnalysis

PAIR = StructType("pair", [("a", INT), ("b", INT)])


def diamond():
    """entry -> (left | right) -> merge."""
    cfg = ControlFlowGraph("diamond")
    entry = cfg.new_block(label="entry")
    left = cfg.new_block(label="left")
    right = cfg.new_block(label="right")
    merge = cfg.new_block(label="merge")
    cfg.add_edge(entry, left)
    cfg.add_edge(entry, right)
    cfg.add_edge(left, merge)
    cfg.add_edge(right, merge)
    return cfg, (entry, left, right, merge)


class LabelUnion(ForwardAnalysis):
    """Toy lattice: the set of block labels on some path to the block."""

    def boundary(self, cfg):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, block, fact):
        return fact | {block.label}


class TestReversePostorder:
    def test_diamond_orders_entry_first_merge_last(self):
        cfg, (entry, left, right, merge) = diamond()
        order = reverse_postorder(cfg)
        assert order[0] is entry
        assert order[-1] is merge
        assert {b.id for b in order} == {0, 1, 2, 3}

    def test_unreachable_blocks_dropped(self):
        cfg, _ = diamond()
        cfg.new_block(label="island")
        assert len(reverse_postorder(cfg)) == 4

    def test_empty_cfg(self):
        assert reverse_postorder(ControlFlowGraph("empty")) == []


class TestSolveForward:
    def test_diamond_merge_joins_both_paths(self):
        cfg, (entry, left, right, merge) = diamond()
        result = solve_forward(cfg, LabelUnion())
        assert result.in_of(merge) == {"entry", "left", "right"}
        assert result.out_facts[merge.id] == {
            "entry", "left", "right", "merge",
        }
        assert result.in_of(left) == {"entry"}

    def test_loop_reaches_fixed_point(self):
        cfg = ControlFlowGraph("loop")
        entry = cfg.new_block(label="entry")
        head = cfg.new_block(label="head")
        body = cfg.new_block(label="body")
        exit_ = cfg.new_block(label="exit")
        cfg.add_edge(entry, head)
        cfg.add_edge(head, body)
        cfg.add_edge(body, head)  # back edge
        cfg.add_edge(head, exit_)
        result = solve_forward(cfg, LabelUnion())
        # The body's label flows around the back edge into the header.
        assert result.in_of(head) == {"entry", "head", "body"}
        assert result.in_of(exit_) == {"entry", "head", "body"}
        assert result.iterations >= len(cfg)

    def test_unreachable_block_has_no_facts(self):
        cfg, _ = diamond()
        island = cfg.new_block(label="island")
        result = solve_forward(cfg, LabelUnion())
        assert result.in_of(island) is None
        assert island.id not in result.out_facts


def bound_with_pointer():
    builder = WorkloadBuilder("df")
    builder.add_aos(PAIR, 8, name="A")
    body = [
        Loop(line=2, var="i", start=0, stop=4, body=[
            AddrOf(line=3, dest="p", array="A", field="a", index=affine("i")),
            PtrAccess(line=4, ptr="p"),
        ]),
        Call(line=6, callee="helper", args=("p",)),
    ]
    helper = Function("helper", [PtrAccess(line=11, ptr="p")], line=10)
    return builder.build([Function("main", body, line=1), helper])


class TestPointsToOverLoweredCfg:
    def test_pointer_defined_inside_loop_reaches_exit(self):
        bound = bound_with_pointer()
        ctx = AnalysisContext(bound)
        cfg = ctx.cfg("main")
        result = solve_forward(cfg, PointsToAnalysis(bound.program))
        # At the function's last block, p may hold &A[...].a (bound in
        # the loop) or be undefined (zero-trip path joins in).
        last = max(
            (b for b in cfg.blocks if b.id in result.out_facts),
            key=lambda b: max(b.ips) if b.ips else -1,
        )
        targets = result.out_facts[last.id]["p"]
        assert ("A", "a") in targets


class TestAnalysisContext:
    def test_artifacts_are_cached(self):
        ctx = AnalysisContext(bound_with_pointer())
        assert ctx.cfg("main") is ctx.cfg("main")
        assert ctx.loop_map is ctx.loop_map
        assert ctx.static_report is ctx.static_report

    def test_num_threads_default(self):
        ctx = AnalysisContext(bound_with_pointer())
        assert ctx.num_threads == 1
