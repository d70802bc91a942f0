"""Unit tests for stream state (online GCD), registry, and profiles."""

import pytest

from repro.layout import AddressSpace
from repro.profiler import (
    DataObjectRegistry,
    StreamState,
    ThreadProfile,
)


def stream(key=(0x400000, 0, ("heap", "A"))):
    return StreamState(key=key)


def named(registry, name):
    """The first of ``registry``'s objects called ``name``."""
    return next(o for o in registry.objects if o.name == name)


class TestStreamStateGCD:
    def test_stride_from_two_unique_addresses(self):
        s = stream()
        s.update(1000, 10.0)
        s.update(1064, 10.0)
        assert s.stride == 64
        assert s.unique_addresses == 2

    def test_gcd_refines_with_more_samples(self):
        s = stream()
        for addr in (0, 192, 320):  # diffs 192, 128 -> gcd 64
            s.update(addr, 1.0)
        assert s.stride == 64

    def test_duplicates_do_not_perturb(self):
        s = stream()
        s.update(0, 1.0)
        s.update(128, 1.0)
        s.update(0, 1.0)  # repeat: no new stride info
        assert s.stride == 128
        assert s.unique_addresses == 2
        assert s.sample_count == 3

    def test_latency_and_writes_accumulate(self):
        s = stream()
        s.update(0, 5.0)
        s.update(64, 7.0, is_write=True)
        assert s.total_latency == 12.0
        assert s.write_samples == 1

    def test_min_address_tracked(self):
        s = stream()
        for addr in (300, 100, 200):
            s.update(addr, 1.0)
        assert s.min_address == 100

    def test_single_sample_has_no_stride(self):
        s = stream()
        s.update(42, 1.0)
        assert s.stride == 0


class TestStreamMerge:
    def test_merge_takes_gcd_of_strides_and_cross_diff(self):
        a = stream()
        for addr in (0, 128):
            a.update(addr, 1.0)
        b = stream()
        for addr in (64, 256):  # stride 192
            b.update(addr, 2.0)
        merged = a.merged_with(b)
        # gcd(128, 192, |0-64|) = 64
        assert merged.stride == 64
        assert merged.total_latency == 6.0
        assert merged.sample_count == 4
        assert merged.min_address == 0

    def test_merge_requires_same_key(self):
        a = stream(key=(1, 0, ("heap", "A")))
        b = stream(key=(2, 0, ("heap", "A")))
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_merge_preserves_attribution_metadata(self):
        a = stream()
        a.line, a.loop_id, a.data_base = 10, 3, 0x1000
        b = stream()
        merged = a.merged_with(b)
        assert (merged.line, merged.loop_id, merged.data_base) == (10, 3, 0x1000)


class TestDataObjectRegistry:
    def _space(self):
        space = AddressSpace()
        space.allocate("heap_a", 256, call_path=("main", "init"))
        space.allocate("heap_b", 256, call_path=("main", "other"))
        space.allocate("globals", 128, segment="static")
        return space

    def test_find_maps_addresses_to_objects(self):
        registry = DataObjectRegistry.from_address_space(self._space())
        obj = named(registry, "heap_a")
        assert registry.find(obj.base + 100).name == "heap_a"
        assert registry.find(obj.base - 1) is None or registry.find(obj.base - 1).name != "heap_a"

    def test_identity_distinguishes_static_and_heap(self):
        registry = DataObjectRegistry.from_address_space(self._space())
        heap = named(registry, "heap_a")
        static = named(registry, "globals")
        assert heap.identity[0] == "heap"
        assert "main" in heap.identity
        assert static.identity == ("static", "globals")

    def test_objects_sorted_and_ids_consistent(self):
        registry = DataObjectRegistry.from_address_space(self._space())
        bases = [o.base for o in registry.objects]
        assert bases == sorted(bases)
        for i, obj in enumerate(registry.objects):
            assert registry.object(i) is obj

    def test_miss_outside_all_objects(self):
        registry = DataObjectRegistry.from_address_space(self._space())
        assert registry.find(0x1) is None


class TestThreadProfile:
    def test_stream_created_lazily_and_cached(self):
        profile = ThreadProfile(thread=0)
        s1 = profile.stream(0x400000, 0, ("heap", "A"))
        s2 = profile.stream(0x400000, 0, ("heap", "A"))
        assert s1 is s2
        assert len(profile.streams) == 1

    def test_data_latency_accumulates(self):
        profile = ThreadProfile(thread=0)
        profile.add_data_latency(("heap", "A"), 5.0)
        profile.add_data_latency(("heap", "A"), 3.0)
        assert profile.data_latency[("heap", "A")] == 8.0

    def test_roundtrip_through_dict(self):
        profile = ThreadProfile(thread=2, program="t", total_latency=9.0,
                                sample_count=3)
        s = profile.stream(0x400010, 1, ("heap", "A"))
        s.update(100, 4.0)
        s.update(164, 5.0)
        s.line, s.loop_id, s.data_base = 7, 0, 64
        profile.add_data_latency(("heap", "A"), 9.0)

        clone = ThreadProfile.from_dict(profile.to_dict())
        assert clone.thread == 2
        assert clone.total_latency == 9.0
        key = (0x400010, 1, ("heap", "A"))
        assert key in clone.streams
        restored = clone.streams[key]
        assert restored.stride == 64
        assert restored.min_address == 100
        assert restored.loop_id == 0
        assert clone.data_latency[("heap", "A")] == 9.0

    def test_save_load_file(self, tmp_path):
        profile = ThreadProfile(thread=0, program="x")
        profile.stream(1, 0, ("heap", "A")).update(10, 1.0)
        path = tmp_path / "p.json"
        profile.save(path)
        loaded = ThreadProfile.load(path)
        assert loaded.program == "x"
        assert len(loaded.streams) == 1

    def test_streams_for_filters_by_identity(self):
        profile = ThreadProfile(thread=0)
        profile.stream(1, 0, ("heap", "A"))
        profile.stream(2, 0, ("heap", "B"))
        assert len(profile.streams_for(("heap", "A"))) == 1
