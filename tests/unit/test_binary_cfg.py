"""Unit tests for the CFG data structure and the IR lowering."""

import pytest

from repro.binary import ControlFlowGraph, ip_extent, lower_function, lower_program
from repro.layout import INT, StructType
from repro.program import Access, Compute, Function, Loop, Program, WorkloadBuilder, affine


class TestControlFlowGraph:
    def test_first_block_becomes_entry(self):
        cfg = ControlFlowGraph("f")
        first = cfg.new_block()
        assert cfg.entry is first

    def test_edges_and_neighbours(self):
        cfg = ControlFlowGraph()
        a, b, c = (cfg.new_block() for _ in range(3))
        cfg.add_edge(a, b)
        cfg.add_edge(a, c)
        cfg.add_edge(b, c)
        assert cfg.successors(a) == [b, c]
        assert cfg.predecessors(c) == [a, b]
        assert len(list(cfg.edges())) == 3

    def test_duplicate_edges_collapse(self):
        cfg = ControlFlowGraph()
        a, b = cfg.new_block(), cfg.new_block()
        cfg.add_edge(a, b)
        cfg.add_edge(a, b)
        assert cfg.successors(a) == [b]

    def test_foreign_block_rejected(self):
        cfg1, cfg2 = ControlFlowGraph(), ControlFlowGraph()
        a = cfg1.new_block()
        b = cfg2.new_block()
        with pytest.raises(ValueError):
            cfg1.add_edge(a, b)

    def test_reachable_excludes_orphans(self):
        cfg = ControlFlowGraph()
        a, b, orphan = (cfg.new_block() for _ in range(3))
        cfg.add_edge(a, b)
        assert cfg.reachable() == {a.id, b.id}
        assert orphan.id not in cfg.reachable()

    def test_to_dot_renders_nodes_and_edges(self):
        cfg = ControlFlowGraph("g")
        a, b = cfg.new_block(label="hdr"), cfg.new_block()
        cfg.add_edge(a, b)
        dot = cfg.to_dot()
        assert "digraph" in dot and "hdr" in dot and "n0 -> n1" in dot


def loop_program():
    st = StructType("s", [("x", INT)])
    builder = WorkloadBuilder("t")
    builder.add_aos(st, 8, name="A")
    inner = Loop(line=3, var="j", start=0, stop=2, body=[
        Access(line=4, array="A", field="x", index=affine("j")),
    ], end_line=4)
    outer = Loop(line=2, var="i", start=0, stop=2, body=[
        Compute(line=2, cycles=1.0),
        inner,
        Compute(line=5, cycles=1.0),
    ], end_line=5)
    return builder.build([Function("main", [Compute(line=1, cycles=1.0), outer])])


class TestLowering:
    def test_nested_loops_produce_back_edges(self):
        bound = loop_program()
        cfg = lower_function(bound.program, "main")
        back_edges = 0
        # A back edge here: an edge into a loop-header block from a
        # later block (block ids follow creation order, which matches
        # lowering order, so src.id > dst.id identifies the latch edge).
        for src, dst in cfg.edges():
            if dst.label.startswith("loop@") and src.id > dst.id:
                back_edges += 1
        assert back_edges == 2  # one per loop

    def test_every_statement_ip_lands_in_exactly_one_block(self):
        bound = loop_program()
        cfg = lower_function(bound.program, "main")
        ips = [ip for blk in cfg.blocks for ip in blk.ips]
        assert len(ips) == len(set(ips))
        stmt_ips = {s.ip for _, s in bound.program.walk()}
        assert set(ips) == stmt_ips

    def test_lower_program_covers_all_functions(self):
        bound = loop_program()
        cfgs = lower_program(bound.program)
        assert set(cfgs) == {"main"}

    def test_ip_extent(self):
        bound = loop_program()
        cfg = lower_function(bound.program, "main")
        lo, hi = ip_extent(cfg)
        assert lo < hi
        assert ip_extent(ControlFlowGraph()) == (0, 0)

    def test_header_blocks_carry_loop_lines(self):
        bound = loop_program()
        cfg = lower_function(bound.program, "main")
        header_lines = {blk.lines[0] for blk in cfg.blocks
                        if blk.label.startswith("loop@")}
        assert header_lines == {2, 3}
