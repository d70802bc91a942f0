"""Tables 3 and 4: speedups, monitoring overhead, cache-miss reduction.

Both tables are views of the same seven optimization cycles, exactly as
in the paper, so the expensive runs happen once (inside the Table 3
benchmark) and Table 4 renders from the shared results.
"""

import statistics

import pytest

from repro.experiments import run_all, table3, table4

from .conftest import BENCH_SCALE, print_artifact

_RESULTS = {}


def _results():
    if not _RESULTS:
        _RESULTS.update(run_all(scale=BENCH_SCALE))
    return _RESULTS


#: Sequential benchmarks whose speedups should be modest; NN/ART large.
PAPER_ORDERING_CLAIMS = [
    ("179.ART", 1.2, 1.6),        # paper 1.37
    ("462.libquantum", 1.02, 1.25),  # paper 1.09
    ("TSP", 1.02, 1.25),          # paper 1.09
    ("Mser", 1.0, 1.15),          # paper 1.03
    ("CLOMP 1.2", 1.1, 1.45),     # paper 1.25
    ("Health", 1.05, 1.45),       # paper 1.12
    ("NN", 1.15, 1.6),            # paper 1.33
]


def test_table3_speedups_and_overhead(benchmark):
    results = benchmark.pedantic(_results, rounds=1, iterations=1)
    print_artifact(table3(results).render())

    speedups = {name: r.speedup for name, r in results.items()}
    overheads = {name: r.overhead_percent for name, r in results.items()}

    # Every benchmark must improve, inside a paper-like band.
    for name, low, high in PAPER_ORDERING_CLAIMS:
        assert low <= speedups[name] <= high, (name, speedups[name])

    # The headline claims: ~1.18x average speedup at single-digit
    # average overhead, ART the biggest winner, Mser the smallest.
    assert 1.1 <= statistics.mean(speedups.values()) <= 1.3
    assert statistics.mean(overheads.values()) < 10.0
    assert max(speedups, key=speedups.get) == "179.ART"
    assert min(speedups, key=speedups.get) == "Mser"

    # Parallel monitoring costs more (the paper's CLOMP/Health point).
    assert overheads["CLOMP 1.2"] > 3 * overheads["179.ART"]
    # Sequential benchmarks stay in the 2-3% band.
    for name in ("179.ART", "462.libquantum", "TSP", "Mser"):
        assert overheads[name] < 5.0


def test_table4_cache_miss_reduction(benchmark):
    results = _results()
    table = benchmark.pedantic(lambda: table4(results), rounds=1, iterations=1)
    print_artifact(table.render())

    reductions = {name: r.miss_reduction for name, r in results.items()}

    # NN and Health show the paper's near-total L1/L2 cleanups.
    assert reductions["NN"]["L1"] > 60      # paper 87.2
    assert reductions["NN"]["L2"] > 80      # paper 98.0
    assert reductions["Health"]["L2"] > 50  # paper 90.8
    # ART cuts L1/L2 hard but L3 only marginally (paper 46/51/5.5).
    assert reductions["179.ART"]["L1"] > 30
    assert reductions["179.ART"]["L2"] > 30
    assert reductions["179.ART"]["L3"] < 20
    # libquantum halves L1 misses (paper 49%).
    assert 30 < reductions["462.libquantum"]["L1"] < 70
    # Mser's whole-program reductions are the smallest (paper 8.3/8.4).
    assert reductions["Mser"]["L1"] < 25
    # No benchmark's L1/L2 misses get *worse*.
    for name, r in reductions.items():
        assert r["L1"] >= 0 and r["L2"] >= 0, name
