"""Property-based tests for cache simulator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import HierarchyConfig, MemoryHierarchy, SetAssociativeCache

lines = st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                 max_size=300)


def small_cache():
    return SetAssociativeCache("t", size_bytes=4 * 4 * 64, ways=4)  # 4 sets


class TestCacheInvariants:
    @given(lines)
    def test_hits_plus_misses_equals_accesses(self, seq):
        cache = small_cache()
        for line in seq:
            cache.access(line)
        assert cache.hits + cache.misses == len(seq)

    @given(lines)
    def test_occupancy_never_exceeds_capacity(self, seq):
        cache = small_cache()
        for line in seq:
            cache.access(line)
            resident = sum(len(tags) for tags in cache._sets)
            assert resident <= cache.num_sets * cache.ways

    @given(lines)
    def test_misses_at_least_cold_misses_of_working_set(self, seq):
        cache = small_cache()
        for line in seq:
            cache.access(line)
        assert cache.misses >= len(set(seq))  # every first touch misses

    @given(lines)
    def test_immediate_reaccess_always_hits(self, seq):
        cache = small_cache()
        for line in seq:
            cache.access(line)
            assert cache.access(line) is True

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=50))
    def test_working_set_within_one_set_associativity_never_re_misses(self, seq):
        # 4 distinct lines mapping to 4 different sets: capacity is never
        # exceeded, so each line misses exactly once.
        cache = small_cache()
        for line in seq:
            cache.access(line)
        assert cache.misses == len(set(seq))

    @given(lines)
    def test_lru_stack_property(self, seq):
        """A larger cache (same sets, more ways) never misses more."""
        small = SetAssociativeCache("s", 4 * 2 * 64, ways=2)
        large = SetAssociativeCache("l", 4 * 8 * 64, ways=8)
        for line in seq:
            small.access(line)
            large.access(line)
        assert large.misses <= small.misses


class TestHierarchyInvariants:
    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.integers(0, 2**16),
                              st.booleans()),
                    min_size=1, max_size=200))
    @settings(deadline=None)
    def test_latency_is_a_level_plus_coherence_cost(self, accesses):
        cfg = HierarchyConfig.small()
        hier = MemoryHierarchy(cfg, num_cores=2)
        levels = {cfg.l1.latency, cfg.l2.latency, cfg.l3.latency,
                  cfg.dram_latency}
        extras = {0.0}
        if hier.directory is not None:
            extras |= {hier.directory.upgrade_latency,
                       hier.directory.c2c_latency}
        valid = {level + extra for level in levels for extra in extras}
        for core, addr, write in accesses:
            latency = hier.access(core, addr * 8, 8, write)
            assert latency in valid

    @given(st.lists(st.integers(0, 2**12), min_size=1, max_size=200))
    @settings(deadline=None)
    def test_miss_counts_are_monotone_down_the_hierarchy(self, addrs):
        hier = MemoryHierarchy(HierarchyConfig.small())
        for addr in addrs:
            hier.access(0, addr * 8, 8, False)
        l1 = hier.cores[0].l1
        assert l1.hits + l1.misses == len(addrs) >= hier.l1_misses()
        assert hier.l1_misses() >= hier.l2_misses() >= hier.l3_misses()
        assert hier.l3_misses() == hier.dram_accesses
