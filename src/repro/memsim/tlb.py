"""TLB modelling (optional extension to the hierarchy).

Structure splitting shrinks the page footprint of hot loops as well as
their line footprint: a loop touching one 8-byte field of a 64-byte
structure spans 8x the pages of its split counterpart. The paper's
testbed measures this implicitly inside its latencies; we model it
explicitly as a two-level TLB whose walk penalty is added to the
access latency when enabled.

Disabled by default so the Table 3/4 calibration is purely
cache-driven; the TLB ablation benchmark turns it on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of a two-level data TLB (Sandy Bridge-era defaults)."""

    page_size: int = 4096
    l1_entries: int = 64
    l1_ways: int = 4
    l2_entries: int = 512
    l2_ways: int = 4
    #: Cycles for a page walk that misses both levels. Real walks cost
    #: 20-100 cycles depending on paging-structure cache hits.
    walk_latency: float = 30.0
    #: Cycles for an L1-DTLB miss that hits the STLB.
    l2_latency: float = 7.0


class _TLBLevel:
    """A small set-associative translation cache over page numbers."""

    def __init__(self, entries: int, ways: int) -> None:
        if entries % ways != 0:
            raise ValueError("entries must divide evenly into ways")
        self.num_sets = entries // ways
        if self.num_sets & (self.num_sets - 1) != 0:
            raise ValueError("TLB set count must be a power of two")
        self.ways = ways
        self._mask = self.num_sets - 1
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, page: int) -> bool:
        entries = self._sets[page & self._mask]
        if page in entries:
            self.hits += 1
            if entries[-1] != page:
                entries.remove(page)
                entries.append(page)
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            del entries[0]
        entries.append(page)
        return False


class DataTLB:
    """Per-core two-level DTLB; returns the translation penalty."""

    def __init__(self, config: Optional[TLBConfig] = None) -> None:
        self.config = config or TLBConfig()
        self._page_bits = self.config.page_size.bit_length() - 1
        self.l1 = _TLBLevel(self.config.l1_entries, self.config.l1_ways)
        self.l2 = _TLBLevel(self.config.l2_entries, self.config.l2_ways)

    def translate(self, address: int) -> float:
        """Translation latency contribution for one access (0 on hit)."""
        page = address >> self._page_bits
        if self.l1.access(page):
            return 0.0
        if self.l2.access(page):
            return self.config.l2_latency
        return self.config.walk_latency

    @property
    def l1_misses(self) -> int:
        return self.l1.misses

    @property
    def walks(self) -> int:
        return self.l2.misses
