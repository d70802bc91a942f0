"""Unit tests for array-of-struct addressing and the address space."""

import pytest

from repro.layout import (
    HEAP_BASE,
    INT,
    AddressSpace,
    ArrayOfStructs,
    StructType,
)

PAIR = StructType("pair", [("a", INT), ("b", INT)])


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture
def arr(space):
    return ArrayOfStructs.allocate(space, PAIR, 100, name="pairs")


class TestAddressing:
    def test_element_addresses_are_strided_by_struct_size(self, arr):
        assert arr.stride == PAIR.size == 8
        assert arr.size_bytes == 100 * 8


class TestAllocation:
    def test_allocation_too_small_rejected(self, space):
        alloc = space.allocate("tiny", 8)
        with pytest.raises(ValueError, match="needs"):
            ArrayOfStructs(PAIR, 100, alloc)

    def test_nonpositive_count_rejected(self, space):
        alloc = space.allocate("x", 64)
        with pytest.raises(ValueError):
            ArrayOfStructs(PAIR, 0, alloc)

    def test_default_alignment_is_cache_line(self, arr):
        assert arr.base % 64 == 0


class TestAddressSpace:
    def test_allocations_do_not_overlap(self, space):
        a = space.allocate("a", 100)
        b = space.allocate("b", 100)
        assert a.end <= b.base

    def test_heap_starts_at_heap_base(self, space):
        a = space.allocate("a", 10)
        assert a.base >= HEAP_BASE

    def test_static_segment_is_distinct(self, space):
        s = space.allocate("sym", 10, segment="static")
        h = space.allocate("heap", 10)
        assert s.segment == "static"
        assert s.base < h.base  # static segment sits below the heap

    def test_find_hits_and_misses(self, space):
        a = space.allocate("a", 64)
        assert space.find(a.base) is a
        assert space.find(a.base + 63) is a
        assert space.find(a.base + 64) is None
        assert space.find(0) is None

    def test_unknown_segment_rejected(self, space):
        with pytest.raises(ValueError):
            space.allocate("x", 8, segment="stack")

    def test_nonpositive_size_rejected(self, space):
        with pytest.raises(ValueError):
            space.allocate("x", 0)

    def test_call_path_is_recorded(self, space):
        a = space.allocate("a", 8, call_path=("main", "init"))
        assert a.call_path == ("main", "init")
