"""Run metrics and before/after comparisons.

:class:`RunMetrics` is what one simulated execution produces; the
comparison helpers compute the quantities the paper's tables carry —
speedup ratios (Table 3) and per-level cache-miss reductions (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class RunMetrics:
    """Aggregate outcome of simulating one trace."""

    name: str = ""
    variant: str = "original"
    num_threads: int = 1
    accesses: int = 0
    compute_cycles: float = 0.0
    total_latency: float = 0.0
    stall_cycles: float = 0.0
    cycles: float = 0.0
    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    dram_accesses: int = 0
    invalidations: int = 0

    def wall_cycles(self) -> float:
        """Approximate wall-clock cycles assuming perfect thread overlap."""
        return self.cycles / max(1, self.num_threads)

    def seconds(self, ghz: float = 2.6) -> float:
        """Wall-clock seconds at the testbed's clock (2.6 GHz Xeon)."""
        return self.wall_cycles() / (ghz * 1e9)

    def misses(self) -> Dict[str, int]:
        return {"L1": self.l1_misses, "L2": self.l2_misses, "L3": self.l3_misses}


def speedup(original: RunMetrics, optimized: RunMetrics) -> float:
    """Execution-time ratio, >1 when ``optimized`` is faster (Table 3)."""
    if optimized.cycles <= 0:
        raise ValueError("optimized run has no cycles")
    return original.cycles / optimized.cycles


def miss_reduction(original: RunMetrics, optimized: RunMetrics) -> Dict[str, float]:
    """Per-level miss reduction percentages (Table 4).

    Positive means fewer misses after splitting. Matches the paper's
    convention where a *negative* number (e.g. libquantum's L3) means
    misses went up — which the paper attributes to noise on near-zero
    baselines.
    """
    result: Dict[str, float] = {}
    for level, before in original.misses().items():
        after = optimized.misses()[level]
        if before == 0:
            result[level] = 0.0 if after == 0 else -100.0 * after
        else:
            result[level] = 100.0 * (before - after) / before
    return result


def overhead_percent(plain: RunMetrics, monitored_cycles: float) -> float:
    """Runtime overhead of monitoring, in percent of the plain run."""
    if plain.cycles <= 0:
        raise ValueError("plain run has no cycles")
    return 100.0 * (monitored_cycles - plain.cycles) / plain.cycles
