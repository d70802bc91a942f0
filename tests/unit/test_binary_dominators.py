"""Unit tests for dominator analysis and natural-loop detection."""

import pytest

from repro.binary import ControlFlowGraph
from tests.dominators import (
    back_edges,
    dominates,
    immediate_dominators,
    is_reducible,
    natural_loops,
)


def diamond():
    """entry -> a, b -> join."""
    cfg = ControlFlowGraph()
    entry, a, b, join = (cfg.new_block() for _ in range(4))
    cfg.add_edge(entry, a)
    cfg.add_edge(entry, b)
    cfg.add_edge(a, join)
    cfg.add_edge(b, join)
    return cfg, entry, a, b, join


def single_loop():
    cfg = ControlFlowGraph()
    entry, header, body, exit_ = (cfg.new_block() for _ in range(4))
    cfg.add_edge(entry, header)
    cfg.add_edge(header, body)
    cfg.add_edge(body, header)
    cfg.add_edge(header, exit_)
    return cfg, entry, header, body, exit_


class TestImmediateDominators:
    def test_entry_has_no_idom(self):
        cfg, entry, *_ = diamond()
        idom = immediate_dominators(cfg)
        assert idom[entry.id] is None

    def test_join_is_dominated_by_entry_not_branches(self):
        cfg, entry, a, b, join = diamond()
        idom = immediate_dominators(cfg)
        assert idom[join.id] == entry.id
        assert idom[a.id] == entry.id
        assert idom[b.id] == entry.id

    def test_dominates_is_reflexive_and_transitive(self):
        cfg, entry, header, body, _ = single_loop()
        idom = immediate_dominators(cfg)
        assert dominates(idom, header.id, header.id)
        assert dominates(idom, entry.id, body.id)
        assert not dominates(idom, body.id, header.id)

    def test_straight_line_chain(self):
        cfg = ControlFlowGraph()
        blocks = [cfg.new_block() for _ in range(4)]
        for a, b in zip(blocks, blocks[1:]):
            cfg.add_edge(a, b)
        idom = immediate_dominators(cfg)
        for prev, cur in zip(blocks, blocks[1:]):
            assert idom[cur.id] == prev.id

    def test_empty_graph(self):
        assert immediate_dominators(ControlFlowGraph()) == {}


class TestBackEdgesAndLoops:
    def test_single_back_edge_found(self):
        cfg, _, header, body, _ = single_loop()
        edges = back_edges(cfg)
        assert [(s.id, d.id) for s, d in edges] == [(body.id, header.id)]

    def test_natural_loop_members(self):
        cfg, _, header, body, exit_ = single_loop()
        loops = natural_loops(cfg)
        assert loops == {header.id: {header.id, body.id}}
        assert exit_.id not in loops[header.id]

    def test_shared_header_loops_are_unioned(self):
        cfg = ControlFlowGraph()
        entry, header, b1, b2, exit_ = (cfg.new_block() for _ in range(5))
        cfg.add_edge(entry, header)
        cfg.add_edge(header, b1)
        cfg.add_edge(header, b2)
        cfg.add_edge(b1, header)
        cfg.add_edge(b2, header)
        cfg.add_edge(header, exit_)
        loops = natural_loops(cfg)
        assert loops[header.id] == {header.id, b1.id, b2.id}

    def test_diamond_has_no_loops(self):
        cfg, *_ = diamond()
        assert natural_loops(cfg) == {}


class TestReducibility:
    def test_structured_graphs_are_reducible(self):
        for cfg in (diamond()[0], single_loop()[0]):
            assert is_reducible(cfg)

    def test_two_entry_cycle_is_irreducible(self):
        cfg = ControlFlowGraph()
        entry, b, c, exit_ = (cfg.new_block() for _ in range(4))
        cfg.add_edge(entry, b)
        cfg.add_edge(entry, c)
        cfg.add_edge(b, c)
        cfg.add_edge(c, b)
        cfg.add_edge(c, exit_)
        assert not is_reducible(cfg)
