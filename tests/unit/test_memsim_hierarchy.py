"""Unit tests for the 3-level hierarchy and the simulation engine."""

import pytest

from repro.memsim import (
    CostModel,
    HierarchyConfig,
    LevelConfig,
    MemoryHierarchy,
    RunMetrics,
    miss_reduction,
    overhead_percent,
    simulate,
    speedup,
)
from repro.program import ComputeBurst, MemoryAccess


def config():
    return HierarchyConfig.small()


class TestLatencyLevels:
    def test_cold_access_pays_dram(self):
        hier = MemoryHierarchy(config())
        assert hier.access(0, 0x1000, 8, False) == config().dram_latency

    def test_second_access_hits_l1(self):
        hier = MemoryHierarchy(config())
        hier.access(0, 0x1000, 8, False)
        assert hier.access(0, 0x1000, 8, False) == config().l1.latency

    def test_same_line_counts_as_hit(self):
        hier = MemoryHierarchy(config())
        hier.access(0, 0x1000, 8, False)
        assert hier.access(0, 0x1038, 8, False) == config().l1.latency

    def test_l1_victim_hits_l2(self):
        cfg = config()  # L1: 1KB 2-way = 8 sets
        hier = MemoryHierarchy(cfg)
        # Three lines in the same L1 set (set stride = 8 lines = 512B).
        for addr in (0x0, 0x200, 0x400):
            hier.access(0, addr, 8, False)
        assert hier.access(0, 0x0, 8, False) == cfg.l2.latency

    def test_split_access_touches_two_lines(self):
        hier = MemoryHierarchy(config())
        hier.access(0, 0x1000 + 60, 8, False)  # crosses the line boundary
        assert hier.l1_misses() == 2

    def test_miss_counters_aggregate(self):
        hier = MemoryHierarchy(config())
        hier.access(0, 0x0, 8, False)
        summary = hier.miss_summary()
        assert summary["l1_misses"] == 1
        assert summary["l2_misses"] == 1
        assert summary["l3_misses"] == 1
        assert summary["dram_accesses"] == 1


class TestMultiCore:
    def test_private_caches_are_independent(self):
        hier = MemoryHierarchy(config(), num_cores=2)
        hier.access(0, 0x1000, 8, False)
        # Core 1 misses its own L1/L2 but hits the shared L3.
        assert hier.access(1, 0x1000, 8, False) == config().l3.latency

    def test_write_invalidates_other_cores(self):
        hier = MemoryHierarchy(config(), num_cores=2)
        hier.access(0, 0x1000, 8, False)
        hier.access(1, 0x1000, 8, False)
        hier.access(1, 0x1000, 8, True)  # write on core 1
        assert hier.invalidations == 1
        # Core 0 must refetch past its private caches.
        assert hier.access(0, 0x1000, 8, False) > config().l1.latency

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(config(), num_cores=0)


class TestPrefetchAccounting:
    def test_long_stride_sustains_prefetching(self):
        # A demand stream over 30 consecutive lines. After the stream
        # confirms (two misses), every third line is a demand miss that
        # re-triggers a burst of two prefetches — the stream must stay
        # alive across bursts, not die after the first one.
        cfg = HierarchyConfig(prefetch_degree=2)
        hier = MemoryHierarchy(cfg, 1)
        core = hier.cores[0]
        for line in range(30):
            hier.access(0, line * cfg.line_size, 8, False)
        # Bursts fire at lines 1, 4, 7, ..., 28: ten in all.
        assert core.prefetcher.issued == 20
        # Every prefetched line except the final lookahead (line 30)
        # was later demanded.
        assert core.prefetch_useful == 19

    def test_prefetch_hides_l2_miss_latency(self):
        cfg = HierarchyConfig(prefetch_degree=2)
        hier = MemoryHierarchy(cfg, 1)
        for line in range(2):
            hier.access(0, line * cfg.line_size, 8, False)
        # Lines 2 and 3 were prefetched into L2 by the burst at line 1.
        assert hier.access(0, 2 * cfg.line_size, 8, False) == cfg.l2.latency


class TestCostModelAndSimulate:
    def _trace(self):
        yield MemoryAccess(0, 0x400000, 0x1000, 8, False, 1, 0)
        yield ComputeBurst(0, 10.0)
        yield MemoryAccess(0, 0x400010, 0x1000, 8, False, 1, 0)

    def test_cycles_combine_issue_stall_compute(self):
        cfg = config()
        metrics = simulate(self._trace(), config=cfg,
                           cost=CostModel(issue_cycles=1.0, mlp=2.0))
        expected_stall = (cfg.dram_latency - cfg.l1.latency) / 2.0
        assert metrics.accesses == 2
        assert metrics.compute_cycles == 10.0
        assert metrics.stall_cycles == pytest.approx(expected_stall)
        assert metrics.cycles == pytest.approx(10.0 + 2.0 + expected_stall)

    def test_observer_sees_every_access_with_latency(self):
        seen = []
        simulate(self._trace(), config=config(),
                 observer=lambda a, lat: seen.append((a.address, lat)))
        assert len(seen) == 2
        assert seen[0][1] == config().dram_latency
        assert seen[1][1] == config().l1.latency

    def test_thread_count_detected(self):
        trace = [MemoryAccess(t, 0x400000, 0x1000 + t * 64, 8, False, 1, 0)
                 for t in range(3)]
        metrics = simulate(iter(trace), config=config(), num_cores=4)
        assert metrics.num_threads == 3

    def test_rejects_unknown_items(self):
        with pytest.raises(TypeError):
            simulate(iter(["nope"]), config=config())

    def test_stall_never_negative(self):
        cost = CostModel()
        assert cost.stall(2.0, 4.0) == 0.0


class TestStats:
    def _metrics(self, cycles, l1=100, l2=50, l3=10):
        return RunMetrics(cycles=cycles, l1_misses=l1, l2_misses=l2,
                          l3_misses=l3, accesses=1000, num_threads=2)

    def test_speedup(self):
        assert speedup(self._metrics(200.0), self._metrics(100.0)) == 2.0
        with pytest.raises(ValueError):
            speedup(self._metrics(1.0), self._metrics(0.0))

    def test_miss_reduction_signs(self):
        better = miss_reduction(self._metrics(1, l1=100), self._metrics(1, l1=40))
        assert better["L1"] == pytest.approx(60.0)
        worse = miss_reduction(self._metrics(1, l3=10), self._metrics(1, l3=15))
        assert worse["L3"] == pytest.approx(-50.0)

    def test_miss_reduction_zero_baseline(self):
        r = miss_reduction(self._metrics(1, l3=0), self._metrics(1, l3=0))
        assert r["L3"] == 0.0
        r = miss_reduction(self._metrics(1, l3=0), self._metrics(1, l3=2))
        assert r["L3"] < 0

    def test_overhead_percent(self):
        plain = self._metrics(1000.0)
        assert overhead_percent(plain, 1070.0) == pytest.approx(7.0)

    def test_wall_cycles_and_seconds(self):
        m = self._metrics(2.6e9 * 2)  # 2 threads
        assert m.wall_cycles() == pytest.approx(2.6e9)
        assert m.seconds(ghz=2.6) == pytest.approx(1.0)
