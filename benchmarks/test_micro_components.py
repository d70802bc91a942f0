"""Microbenchmarks of the substrates themselves (pytest-benchmark).

Unlike the table/figure regenerators these are true repeated-timing
benchmarks: they track the throughput of the components the simulation
pipeline is built from, so performance regressions in the simulator
show up as benchmark regressions rather than mysteriously slow tables.
"""

import random

from repro.binary import LoopMap, find_loops, lower_function
from repro.core import gcd_stride
from repro.memsim import HierarchyConfig, MemoryHierarchy, simulate
from repro.profiler import StreamState
from repro.program import AccessBatch, Interpreter, MemoryAccess
from repro.sampling import PEBSLoadLatencySampler
from repro.workloads import ArtWorkload

rng = random.Random(99)

ADDRESSES = [rng.randrange(0, 1 << 24) & ~7 for _ in range(20_000)]


def test_cache_hierarchy_throughput(benchmark):
    def run():
        hier = MemoryHierarchy(HierarchyConfig(), num_cores=1)
        access = hier.access
        for addr in ADDRESSES:
            access(0, addr, 8, False)
        return hier.l1_misses()

    misses = benchmark(run)
    assert misses > 0


def test_cache_hierarchy_batch_throughput(benchmark):
    sizes = [8] * len(ADDRESSES)

    def run():
        hier = MemoryHierarchy(HierarchyConfig(), num_cores=1)
        hier.access_batch(ADDRESSES, sizes)
        return hier.l1_misses()

    misses = benchmark(run)
    assert misses > 0


def test_interpreter_trace_generation(benchmark):
    workload = ArtWorkload(scale=0.05)
    bound = workload.build_original()

    def run():
        count = 0
        for item in Interpreter(bound).run_batched():
            count += len(item) if isinstance(item, AccessBatch) else 1
        return count

    count = benchmark(run)
    assert count > 10_000


def test_sampler_observe_throughput(benchmark):
    accesses = [MemoryAccess(0, 0x400000, addr, 8, False, 1, 0)
                for addr in ADDRESSES]

    def run():
        sampler = PEBSLoadLatencySampler(period=1000, seed=0)
        observe = sampler.observe
        for access in accesses:
            observe(access, 42.0)
        return sampler.sample_count

    count = benchmark(run)
    assert count > 0


def test_sampler_observe_batch_throughput(benchmark):
    bound = ArtWorkload(scale=0.05).build_original()
    hier = MemoryHierarchy(HierarchyConfig(), num_cores=1)
    pairs = [
        (item, hier.access_batch(item.address, item.size))
        for item in Interpreter(bound).run_batched()
        if isinstance(item, AccessBatch)
    ]
    assert pairs, "ART's hot loops should batch"

    def run():
        sampler = PEBSLoadLatencySampler(period=1000, seed=0)
        observe_batch = sampler.observe_batch
        for batch, latencies in pairs:
            observe_batch(batch, latencies)
        return sampler.sample_count

    count = benchmark(run)
    assert count > 0


def test_online_gcd_update_throughput(benchmark):
    def run():
        state = StreamState(key=(0, 0, ("heap", "x")))
        for addr in ADDRESSES:
            state.update(addr, 10.0)
        return state.stride

    benchmark(run)


def test_offline_gcd_stride(benchmark):
    addresses = [i * 64 for i in sorted(rng.sample(range(100_000), 5_000))]
    stride = benchmark(gcd_stride, addresses)
    assert stride % 64 == 0


def test_havlak_on_deep_workload(benchmark):
    bound = ArtWorkload(scale=0.02).build_original()

    def run():
        nest = find_loops(lower_function(bound.program, "main"))
        return len(nest)

    loops = benchmark(run)
    assert loops == len(bound.program.loops())


def test_loopmap_construction(benchmark):
    bound = ArtWorkload(scale=0.02).build_original()
    loop_map = benchmark(LoopMap, bound.program)
    assert len(loop_map) == len(bound.program.loops())


def test_end_to_end_simulation_rate(benchmark):
    workload = ArtWorkload(scale=0.05)
    bound = workload.build_original()

    def run():
        return simulate(Interpreter(bound).run_batched(),
                        config=HierarchyConfig(), name="art").accesses

    accesses = benchmark.pedantic(run, rounds=3, iterations=1)
    assert accesses > 10_000
