"""Property-based tests: Havlak recovers random nested-loop structures."""

from hypothesis import given, settings

from repro.binary import LoopMap, find_loops, lower_function

from .strategies import build, count_loops, loop_trees, max_depth


class TestHavlakOnRandomIR:
    @given(loop_trees())
    @settings(deadline=None, max_examples=60)
    def test_loop_count_matches_ir(self, body):
        bound = build(body)
        nest = find_loops(lower_function(bound.program, "main"))
        assert len(nest) == count_loops(body) + 1  # +1 for the wrapper

    @given(loop_trees())
    @settings(deadline=None, max_examples=60)
    def test_no_random_reducible_ir_is_flagged_irreducible(self, body):
        bound = build(body)
        nest = find_loops(lower_function(bound.program, "main"))
        assert not any(l.irreducible for l in nest.loops)

    @given(loop_trees())
    @settings(deadline=None, max_examples=60)
    def test_max_nesting_depth_matches_ir(self, body):
        bound = build(body)
        nest = find_loops(lower_function(bound.program, "main"))
        assert max(l.depth for l in nest.loops) == max_depth(body) + 1

    @given(loop_trees())
    @settings(deadline=None, max_examples=40)
    def test_every_loop_ip_is_attributed_to_a_loop(self, body):
        bound = build(body)
        loop_map = LoopMap(bound.program)
        for loop in bound.program.loops():
            for stmt in loop.body:
                desc = loop_map.loop_of_ip(stmt.ip)
                assert desc is not None


class TestHavlakAgainstDominators:
    """Two independent loop finders must agree on reducible CFGs."""

    @given(loop_trees())
    @settings(deadline=None, max_examples=50)
    def test_same_headers_and_members(self, body):
        from tests.dominators import is_reducible, natural_loops

        bound = build(body)
        cfg = lower_function(bound.program, "main")
        assert is_reducible(cfg)

        havlak = find_loops(cfg)
        dominator_loops = natural_loops(cfg)

        assert {l.header.id for l in havlak.loops} == set(dominator_loops)
        for loop in havlak.loops:
            assert havlak.all_block_ids(loop) == dominator_loops[loop.header.id]
