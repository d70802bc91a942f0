"""Unit tests for the set-associative cache and the prefetcher."""

import pytest

from repro.memsim import SetAssociativeCache, StreamPrefetcher


def tiny_cache(ways=2, sets=4):
    return SetAssociativeCache("t", size_bytes=ways * sets * 64, ways=ways)


class TestCacheBasics:
    def test_first_access_misses_second_hits(self):
        cache = tiny_cache()
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_sets_do_not_conflict(self):
        cache = tiny_cache(ways=1, sets=4)
        for line in range(4):
            assert cache.access(line) is False
        for line in range(4):
            assert cache.access(line) is True

    def test_lru_evicts_least_recent(self):
        cache = tiny_cache(ways=2, sets=1)
        cache.access(0)
        cache.access(1)
        cache.access(0)       # 0 becomes most recent
        cache.access(2)       # evicts 1
        assert cache.access(0) is True
        assert cache.access(1) is False

    def test_associativity_conflict(self):
        cache = tiny_cache(ways=2, sets=4)
        # lines 0, 4, 8 all map to set 0; 2 ways -> the third evicts.
        cache.access(0)
        cache.access(4)
        cache.access(8)
        assert cache.access(0) is False


class TestFillAndInvalidate:
    def test_fill_does_not_count_stats(self):
        cache = tiny_cache()
        cache.fill(9)
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.access(9) is True

    def test_fill_returns_eviction(self):
        cache = tiny_cache(ways=1, sets=1)
        assert cache.fill(0) is None
        assert cache.fill(1) == 0

    def test_fill_existing_line_is_noop(self):
        cache = tiny_cache()
        cache.access(3)
        assert cache.fill(3) is None

    def test_contains_does_not_touch_lru(self):
        cache = tiny_cache(ways=2, sets=1)
        cache.access(0)
        cache.access(1)
        assert cache.contains(0)
        cache.access(2)  # should evict 0 (LRU), since contains didn't promote
        assert not cache.contains(0)

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(7)
        assert cache.invalidate(7) is True
        assert cache.invalidate(7) is False
        assert cache.access(7) is False


class TestGeometryValidation:
    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("t", 1024, 2, line_size=48)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("t", 1000, 3)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("t", 3 * 64 * 2, 2)  # 3 sets


class TestStreamPrefetcher:
    def test_stream_confirmed_after_threshold(self):
        pf = StreamPrefetcher(degree=2, threshold=2)
        assert pf.observe_miss(10) == []
        assert pf.observe_miss(11) == [12, 13]

    def test_non_consecutive_misses_never_confirm(self):
        pf = StreamPrefetcher(degree=2, threshold=2)
        assert pf.observe_miss(10) == []
        assert pf.observe_miss(20) == []
        assert pf.observe_miss(30) == []

    def test_confirmed_stream_keeps_prefetching(self):
        pf = StreamPrefetcher(degree=1, threshold=2)
        pf.observe_miss(0)
        assert pf.observe_miss(1) == [2]
        # Line 2 was just prefetched, so the stream's next demand miss
        # is line 3 — the head must have re-armed past the prefetches.
        assert pf.observe_miss(3) == [4]
        assert pf.observe_miss(5) == [6]
        assert pf.issued == 3

    def test_confirmed_stream_survives_many_bursts(self):
        pf = StreamPrefetcher(degree=2, threshold=2)
        assert pf.observe_miss(0) == []
        assert pf.observe_miss(1) == [2, 3]
        # Lines 2 and 3 hit; the stream's demand misses continue at 4.
        assert pf.observe_miss(4) == [5, 6]
        assert pf.observe_miss(7) == [8, 9]
        assert pf.issued == 6

    def test_table_bounded(self):
        pf = StreamPrefetcher(degree=1, threshold=2, table_size=2)
        for line in range(0, 100, 10):
            pf.observe_miss(line)
        assert len(pf._table) <= 2

    def test_table_bounded_on_confirmed_inserts(self):
        # threshold=1 confirms every miss, so insertions all take the
        # confirmed branch — the LRU bound must apply there too.
        pf = StreamPrefetcher(degree=2, threshold=1, table_size=4)
        for line in range(0, 1000, 10):
            pf.observe_miss(line)
        assert len(pf._table) <= 4

    def test_degree_zero_prefetches_nothing(self):
        pf = StreamPrefetcher(degree=0, threshold=1)
        assert pf.observe_miss(5) == []

    def test_reset(self):
        pf = StreamPrefetcher(degree=1, threshold=1)
        pf.observe_miss(1)
        pf.reset()
        assert pf.issued == 0


class TestReplacementPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            SetAssociativeCache("t", 1024, 2, policy="plru")

    def test_fifo_does_not_promote_on_hit(self):
        cache = SetAssociativeCache("t", 2 * 64, 2, policy="fifo")
        cache.access(0)
        cache.access(1)
        cache.access(0)  # hit, but stays oldest under FIFO
        cache.access(2)  # evicts 0 (FIFO) where LRU would evict 1
        assert cache.access(1) is True
        assert cache.access(0) is False

    def test_random_policy_is_deterministic_by_seed(self):
        def misses(seed):
            cache = SetAssociativeCache("t", 2 * 64, 2, policy="random",
                                        seed=seed)
            for line in [0, 1, 2, 0, 1, 2, 0, 1, 2]:
                cache.access(line)
            return cache.misses

        assert misses(1) == misses(1)

    def test_all_policies_agree_on_compulsory_misses(self):
        for policy in ("lru", "fifo", "random"):
            cache = SetAssociativeCache("t", 4 * 4 * 64, 4, policy=policy)
            for line in range(8):
                assert cache.access(line) is False, policy
