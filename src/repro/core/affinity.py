"""Latency-based field affinities (Eq 7).

The affinity between two fields is the fraction of their combined
latency that falls in loops referencing *both*:

    A_ij = sum(lc_ij) / sum(l_ij)

Unlike frequency-counting approaches, weighting by latency means two
fields co-resident in a rarely-missing loop get little credit — the
paper's ART example (P and U share two loops yet have affinity 0.05)
is exactly this effect, and our ablation benchmark reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .attribution import LoopAccessEntry


@dataclass
class AffinityMatrix:
    """Pairwise affinities between recovered field offsets."""

    offsets: Tuple[int, ...]
    values: Dict[FrozenSet[int], float]

    def affinity(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        return self.values.get(frozenset((i, j)), 0.0)

    def pairs(self) -> List[Tuple[int, int, float]]:
        """(i, j, affinity) for i < j, descending by affinity."""
        result = []
        for pair, value in self.values.items():
            i, j = sorted(pair)
            result.append((i, j, value))
        result.sort(key=lambda t: (-t[2], t[0], t[1]))
        return result


def compute_affinities(table: Dict[int, LoopAccessEntry]) -> AffinityMatrix:
    """Eq 7 over a loop-offset latency table.

    For each offset pair, the numerator sums both offsets' latency in
    their *common* loops; the denominator is the pair's whole-program
    latency (every loop, plus samples outside loops).
    """
    totals: Dict[int, float] = {}
    for entry in table.values():
        for offset, latency in entry.offset_latency.items():
            totals[offset] = totals.get(offset, 0.0) + latency
    offsets = tuple(sorted(totals))

    values: Dict[FrozenSet[int], float] = {}
    for idx, i in enumerate(offsets):
        for j in offsets[idx + 1 :]:
            common = 0.0
            for entry in table.values():
                li = entry.offset_latency.get(i, 0.0)
                lj = entry.offset_latency.get(j, 0.0)
                if li > 0.0 and lj > 0.0:
                    common += li + lj
            denom = totals[i] + totals[j]
            # Mathematically common <= denom; clamp float-summation dust
            # so A_ij stays a true probability-like ratio in [0, 1].
            value = common / denom if denom > 0 else 0.0
            values[frozenset((i, j))] = min(1.0, value)
    return AffinityMatrix(offsets=offsets, values=values)
