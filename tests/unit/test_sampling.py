"""Unit tests for the sampling engine, PEBS/IBS models, overhead model."""

from collections import Counter

import pytest

from repro.memsim import RunMetrics
from repro.program import MemoryAccess
from repro.sampling import (
    ASLOP_INSTRUMENTATION,
    BURSTY_SAMPLING_INSTRUMENTATION,
    IBSSampler,
    InstrumentationModel,
    OverheadModel,
    PEBSLoadLatencySampler,
    REUSE_DISTANCE_INSTRUMENTATION,
    SamplingEngine,
    data_source,
)


def access(thread=0, addr=0x1000, write=False):
    return MemoryAccess(thread, 0x400000, addr, 8, write, 1, 0)


class TestSamplingEngine:
    def test_exact_period_without_jitter(self):
        engine = SamplingEngine(period=10, jitter=0.0, seed=1)
        for i in range(100):
            engine.observe(access(addr=0x1000 + i * 8), 10.0)
        # First sample fires within one period, then every 10 accesses.
        assert 9 <= engine.sample_count <= 11

    def test_rate_approximates_inverse_period(self):
        engine = SamplingEngine(period=50, seed=3)
        for i in range(5000):
            engine.observe(access(addr=i * 8), 10.0)
        rate = engine.sample_count / engine.eligible_accesses
        assert rate == pytest.approx(1 / 50, rel=0.2)

    def test_deterministic_for_seed(self):
        def collect(seed):
            engine = SamplingEngine(period=20, seed=seed)
            for i in range(500):
                engine.observe(access(addr=i * 64), float(i % 7))
            return [s.address for s in engine.samples]

        assert collect(42) == collect(42)
        assert collect(42) != collect(43)

    def test_threads_sampled_independently(self):
        engine = SamplingEngine(period=10, seed=0)
        for i in range(100):
            engine.observe(access(thread=0, addr=i * 8), 1.0)
            engine.observe(access(thread=1, addr=i * 8), 1.0)
        by_thread = Counter(s.thread for s in engine.samples)
        assert set(by_thread) == {0, 1}
        for count in by_thread.values():
            assert 7 <= count <= 13

    def test_samples_carry_pmu_payload(self):
        engine = SamplingEngine(period=1, jitter=0.0)
        engine.observe(access(addr=0xABC0), 37.5)
        (sample,) = engine.samples
        assert sample.address == 0xABC0
        assert sample.latency == 37.5
        assert sample.ip == 0x400000
        assert not sample.is_write

    def test_min_latency_filters_eligibility(self):
        engine = SamplingEngine(period=1, jitter=0.0, min_latency=5.0)
        engine.observe(access(), 4.0)
        engine.observe(access(), 6.0)
        assert engine.eligible_accesses == 1
        assert engine.sample_count == 1

    def test_reset_clears_state(self):
        engine = SamplingEngine(period=1, jitter=0.0)
        engine.observe(access(), 1.0)
        engine.reset()
        assert engine.sample_count == 0
        assert engine.total_accesses == 0

    def test_reset_restarts_the_rng(self):
        def run(engine):
            for i in range(1000):
                engine.observe(access(addr=i * 8), 10.0)
            return engine.samples, list(engine.periods_drawn)

        fresh = run(SamplingEngine(100, seed=1))
        engine = SamplingEngine(100, seed=1)
        run(engine)
        engine.reset()
        assert run(engine) == fresh

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SamplingEngine(period=0)
        with pytest.raises(ValueError):
            SamplingEngine(period=10, jitter=1.5)


class TestPEBSAndIBS:
    def test_pebs_ignores_stores(self):
        pebs = PEBSLoadLatencySampler(period=1, jitter=0.0)
        pebs.observe(access(write=True), 50.0)
        assert pebs.sample_count == 0
        pebs.observe(access(write=False), 50.0)
        assert pebs.sample_count == 1

    def test_pebs_ldlat_threshold(self):
        pebs = PEBSLoadLatencySampler(period=1, jitter=0.0, ldlat=10.0)
        pebs.observe(access(), 4.0)
        assert pebs.sample_count == 0

    def test_ibs_samples_stores_too(self):
        ibs = IBSSampler(period=1, jitter=0.0)
        ibs.observe(access(write=True), 50.0)
        assert ibs.sample_count == 1

    def test_data_source_classification(self):
        assert data_source(4.0) == "L1"
        assert data_source(12.0) == "L2"
        assert data_source(42.0) == "L3"
        assert data_source(220.0) == "DRAM"


class TestOverheadModel:
    def _plain(self, cycles=1e6, threads=1):
        return RunMetrics(cycles=cycles, accesses=100_000, num_threads=threads)

    def test_sequential_cost_is_per_sample(self):
        model = OverheadModel(interrupt_cycles=1000.0, analysis_cycles=500.0,
                              parallel_penalty_cycles=999.0, setup_cycles=0.0)
        assert model.monitored_cycles(self._plain(), 10) == 1e6 + 15_000

    def test_parallel_penalty_scales_with_extra_threads(self):
        model = OverheadModel(interrupt_cycles=1000.0, analysis_cycles=0.0,
                              parallel_penalty_cycles=100.0, setup_cycles=0.0)
        cycles = model.monitored_cycles(self._plain(threads=4), 10)
        assert cycles == 1e6 + 10 * (1000 + 300)

    def test_overhead_percent(self):
        model = OverheadModel(interrupt_cycles=1000.0, analysis_cycles=0.0,
                              setup_cycles=0.0)
        assert model.overhead_percent(self._plain(), 100) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            model.overhead_percent(RunMetrics(), 1)

    def test_instrumentation_slowdowns_match_paper_quotes(self):
        # On a memory-bound profile (~3 cycles/access) the published
        # comparators should land near their quoted slowdowns.
        plain = RunMetrics(cycles=300_000, accesses=100_000)
        assert REUSE_DISTANCE_INSTRUMENTATION.slowdown(plain) == pytest.approx(
            153, rel=0.01
        )
        assert ASLOP_INSTRUMENTATION.slowdown(plain) == pytest.approx(4.2, rel=0.01)
        assert 3.0 <= BURSTY_SAMPLING_INSTRUMENTATION.slowdown(plain) <= 5.0

    def test_instrumentation_rejects_empty_run(self):
        with pytest.raises(ValueError):
            InstrumentationModel(1.0).slowdown(RunMetrics())
