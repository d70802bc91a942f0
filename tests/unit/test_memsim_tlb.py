"""Unit tests for the optional TLB model."""

import pytest

from repro.memsim import DataTLB, HierarchyConfig, MemoryHierarchy, TLBConfig
from repro.memsim.tlb import _TLBLevel


class TestTLBLevel:
    def test_hit_after_fill(self):
        level = _TLBLevel(entries=8, ways=4)
        assert level.access(5) is False
        assert level.access(5) is True

    def test_lru_within_set(self):
        level = _TLBLevel(entries=2, ways=2)  # one set
        level.access(0)
        level.access(1)
        level.access(2)  # evicts 0
        assert level.access(1) is True
        assert level.access(0) is False

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            _TLBLevel(entries=10, ways=4)
        with pytest.raises(ValueError):
            _TLBLevel(entries=12, ways=4)  # 3 sets


class TestDataTLB:
    def test_same_page_translates_free_after_first(self):
        tlb = DataTLB()
        assert tlb.translate(0x1000) == tlb.config.walk_latency
        assert tlb.translate(0x1FF8) == 0.0  # same 4KB page

    def test_l2_catches_l1_victims(self):
        config = TLBConfig(l1_entries=4, l1_ways=4, l2_entries=64, l2_ways=4)
        tlb = DataTLB(config)
        for page in range(8):
            tlb.translate(page * 4096)
        # Pages 0..3 were evicted from the tiny L1 but live in the STLB.
        assert tlb.translate(0) == config.l2_latency

    def test_walk_counter(self):
        tlb = DataTLB()
        for page in range(10):
            tlb.translate(page * 4096)
        assert tlb.walks == 10
        assert tlb.l1_misses == 10


class TestHierarchyIntegration:
    def test_disabled_by_default(self):
        hier = MemoryHierarchy(HierarchyConfig())
        assert "dtlb_misses" not in hier.miss_summary()

    def test_walk_latency_added_to_access(self):
        config = HierarchyConfig(tlb=TLBConfig())
        with_tlb = MemoryHierarchy(config)
        without = MemoryHierarchy(HierarchyConfig())
        a = with_tlb.access(0, 0x5000, 8, False)
        b = without.access(0, 0x5000, 8, False)
        assert a == b + config.tlb.walk_latency

    def test_summary_reports_walks(self):
        hier = MemoryHierarchy(HierarchyConfig(tlb=TLBConfig()))
        for page in range(20):
            hier.access(0, page * 4096, 8, False)
        summary = hier.miss_summary()
        assert summary["page_walks"] == 20

    def test_page_crossing_access_translates_both_pages(self):
        # An 8-byte access at page_size-4 touches two pages: both must
        # be translated (two walks when cold), but the latency penalty
        # is the max of the two — the walks overlap like the two line
        # fetches of a split access.
        tlb_cfg = TLBConfig()
        config = HierarchyConfig(tlb=tlb_cfg)
        with_tlb = MemoryHierarchy(config)
        without = MemoryHierarchy(HierarchyConfig())
        boundary = tlb_cfg.page_size - 4
        a = with_tlb.access(0, boundary, 8, False)
        b = without.access(0, boundary, 8, False)
        assert with_tlb.cores[0].dtlb.walks == 2
        assert a == b + tlb_cfg.walk_latency

    def test_same_page_access_translates_once(self):
        config = HierarchyConfig(tlb=TLBConfig())
        hier = MemoryHierarchy(config)
        hier.access(0, 0x1000, 8, False)
        assert hier.cores[0].dtlb.walks == 1

    def test_splitting_reduces_page_walks(self):
        """The extension's point: a dense hot array spans fewer pages.

        Walk one 8-byte field of a 64-byte struct over 4MB (1024 pages,
        overflowing a 64+512-entry TLB) vs the split 512KB (128 pages,
        fits the STLB after the first pass).
        """
        config = HierarchyConfig(tlb=TLBConfig())

        def walks(stride, elements, passes=3):
            hier = MemoryHierarchy(config)
            for _ in range(passes):
                for i in range(elements):
                    hier.access(0, i * stride, 8, False)
            return hier.miss_summary()["page_walks"]

        aos_walks = walks(stride=64, elements=65536)   # 4MB footprint
        split_walks = walks(stride=8, elements=65536)  # 512KB footprint
        assert split_walks < aos_walks / 4
