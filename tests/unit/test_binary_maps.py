"""Unit tests for SymbolTable, LineMap, and LoopMap."""

import pytest

from repro.binary import LineMap, LoopMap, Symbol, SymbolTable
from repro.layout import AddressSpace, INT, StructType
from repro.program import Access, Compute, Function, Loop, WorkloadBuilder, affine


class TestSymbolTable:
    def test_from_address_space_keeps_only_static(self):
        space = AddressSpace()
        space.allocate("heap_obj", 64)
        space.allocate("global_arr", 128, segment="static")
        table = SymbolTable.from_address_space(space)
        assert len(table) == 1
        assert table.lookup("global_arr") is not None
        assert table.lookup("heap_obj") is None

    def test_find_by_address(self):
        table = SymbolTable((Symbol("a", 100, 10), Symbol("b", 200, 10)))
        assert table.find(105).name == "a"
        assert table.find(199) is None
        assert table.find(200).name == "b"
        assert table.find(50) is None

    def test_add_keeps_sorted_order(self):
        table = SymbolTable((Symbol("b", 200, 10),))
        table.add(Symbol("a", 100, 10))
        assert [s.name for s in table] == ["a", "b"]
        assert table.find(101).name == "a"


def build_sample():
    st = StructType("s", [("x", INT)])
    builder = WorkloadBuilder("t")
    builder.add_aos(st, 8, name="A")
    inner = Loop(line=20, var="j", start=0, stop=2, end_line=22, body=[
        Access(line=21, array="A", field="x", index=affine("j")),
    ])
    outer = Loop(line=10, var="i", start=0, stop=2, end_line=23, body=[
        Compute(line=11, cycles=1.0),
        inner,
    ])
    return builder.build([Function("main", [Compute(line=1, cycles=1.0), outer])])


class TestLineMap:
    def test_ip_to_line_and_function(self):
        bound = build_sample()
        lines = LineMap(bound.program)
        for fname, stmt in bound.program.walk():
            assert lines.location(stmt.ip) == (fname, stmt.line)
        assert lines.location(0x1) == (None, None)

    def test_len_counts_statements(self):
        bound = build_sample()
        assert len(LineMap(bound.program)) == len(list(bound.program.walk()))


class TestLoopMap:
    def test_access_attributed_to_innermost_loop(self):
        bound = build_sample()
        loop_map = LoopMap(bound.program)
        access = bound.program.accesses()[0]
        loop = loop_map.loop_of_ip(access.ip)
        assert loop is not None
        assert loop.line_range == (20, 22)
        assert loop.depth == 2

    def test_toplevel_code_is_outside_loops(self):
        bound = build_sample()
        loop_map = LoopMap(bound.program)
        top = bound.program.functions["main"].body[0]
        assert loop_map.loop_of_ip(top.ip) is None

    def test_nesting_parent_links(self):
        bound = build_sample()
        loop_map = LoopMap(bound.program)
        access = bound.program.accesses()[0]
        inner = loop_map.loop_of_ip(access.ip)
        assert inner.parent is not None
        outer = loop_map.loop(inner.parent)
        assert outer.line_range[0] == 10
        assert outer.depth == 1

    def test_label_format(self):
        bound = build_sample()
        loop_map = LoopMap(bound.program)
        labels = {d.label for d in loop_map.loops}
        assert "20-22" in labels

    def test_loop_count_matches_ir(self):
        bound = build_sample()
        assert len(LoopMap(bound.program)) == len(bound.program.loops())
