"""Unit tests for the workload loop-pattern helpers (common.py)."""

import pytest

from repro.layout import DOUBLE, INT, StructType
from repro.program import (
    Compute,
    Loop,
    WorkloadBuilder,
    Function,
    memory_accesses,
    run,
)
from repro.workloads import LoopSpec
from repro.workloads.common import chase_pass, field_sweep, scalar_sweep

PAIR = StructType("pair", [("a", DOUBLE), ("b", DOUBLE)])


def build_with(loop, *, count=64):
    builder = WorkloadBuilder("t")
    builder.add_aos(PAIR, count, name="P")
    builder.add_scalar("S", DOUBLE, count * 8)
    return builder.build([Function("main", [loop])]), builder


class TestFieldSweep:
    def test_repetitions_multiply_accesses(self):
        spec = LoopSpec(lines=(10, 12), fields=("a",), repetitions=3)
        bound, _ = build_with(field_sweep(spec, "P", 64))
        assert len(list(memory_accesses(run(bound)))) == 3 * 64

    def test_stagger_separates_field_phases(self):
        spec = LoopSpec(lines=(10, 12), fields=("a", "b"), repetitions=1)
        bound, builder = build_with(field_sweep(spec, "P", 64, stagger=True))
        aos = builder.bindings.resolve("P", "a")[0]
        events = list(memory_accesses(run(bound)))
        first_a, first_b = events[0], events[1]
        idx_a = (first_a.address - aos.base) // aos.stride
        idx_b = (first_b.address - aos.base) // aos.stride
        assert idx_b - idx_a == 32  # half the array apart

    def test_unstaggered_accesses_same_element(self):
        spec = LoopSpec(lines=(10, 12), fields=("a", "b"), repetitions=1)
        bound, builder = build_with(field_sweep(spec, "P", 64, stagger=False))
        events = list(memory_accesses(run(bound)))
        assert events[1].address - events[0].address == 8  # same element

    def test_compute_burst_emitted_per_repetition(self):
        spec = LoopSpec(lines=(10, 12), fields=("a",), repetitions=2,
                        compute_cycles=3.0)
        bound, _ = build_with(field_sweep(spec, "P", 64))
        from repro.program import trace_stats

        _, compute = trace_stats(bound)
        assert compute == 2 * 3.0 * 64

    def test_writes_marked(self):
        spec = LoopSpec(lines=(10, 12), fields=("a", "b"), repetitions=1)
        bound, _ = build_with(field_sweep(spec, "P", 64, writes=("b",)))
        writes = {e.is_write for e in memory_accesses(run(bound))}
        assert writes == {True, False}

    def test_parallel_flag_propagates(self):
        spec = LoopSpec(lines=(10, 12), fields=("a",), repetitions=1)
        loop = field_sweep(spec, "P", 64, parallel=True)
        inner = next(s for s in loop.body if isinstance(s, Loop))
        assert inner.parallel


class TestChasePass:
    def test_visits_follow_the_order_table(self):
        order = (5, 2, 7, 0)
        spec = LoopSpec(lines=(96, 96), fields=("a",), repetitions=1)
        bound, builder = build_with(chase_pass(spec, "P", order))
        aos = builder.bindings.resolve("P", "a")[0]
        indices = [
            (e.address - aos.base) // aos.stride
            for e in memory_accesses(run(bound))
        ]
        assert indices == list(order)

    def test_all_fields_read_from_same_node(self):
        order = tuple(range(16))
        spec = LoopSpec(lines=(96, 97), fields=("a", "b"), repetitions=1)
        bound, _ = build_with(chase_pass(spec, "P", order))
        events = list(memory_accesses(run(bound)))
        for a, b in zip(events[::2], events[1::2]):
            assert b.address - a.address == 8  # b of the same element


class TestScalarSweep:
    def test_stride_in_elements(self):
        loop = scalar_sweep(100, "S", 32, 1, stride=8)
        bound, builder = build_with(loop)
        aos = builder.bindings.resolve("S", None)[0]
        addrs = [e.address for e in memory_accesses(run(bound))]
        assert addrs[1] - addrs[0] == 8 * 8  # 8 doubles apart

    def test_write_sweep(self):
        loop = scalar_sweep(100, "S", 16, 1, is_write=True)
        bound, _ = build_with(loop)
        assert all(e.is_write for e in memory_accesses(run(bound)))

