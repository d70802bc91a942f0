"""MESI cache-coherence directory.

Tracks, per cache line, which cores hold it and in which state
(Modified / Exclusive / Shared), and prices the protocol actions a
snooping implementation performs: invalidations on upgrades, dirty
writebacks, and cache-to-cache transfers when a reader pulls a line
another core has modified.

The paper's parallel benchmarks are read-mostly on their hot arrays, so
coherence barely shows in Table 3 — but a faithful multithreaded
simulator must price writes correctly or a user's own workloads (e.g.
producer/consumer zone updates) would be mis-modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

MODIFIED = "M"
EXCLUSIVE = "E"
SHARED = "S"


@dataclass
class CoherenceStats:
    invalidations: int = 0
    writebacks: int = 0
    cache_to_cache: int = 0
    upgrades: int = 0
    #: line -> invalidations that hit it; the static false-sharing
    #: detector's oracle compares its flagged line set against this.
    line_invalidations: Dict[int, int] = field(default_factory=dict)


class MESIDirectory:
    """Per-line owner/sharer tracking with MESI state semantics."""

    def __init__(self, *, c2c_latency: float = 40.0, upgrade_latency: float = 20.0):
        #: line -> {core: state}
        self._lines: Dict[int, Dict[int, str]] = {}
        self.c2c_latency = c2c_latency
        self.upgrade_latency = upgrade_latency
        self.stats = CoherenceStats()

    def state(self, core: int, line: int) -> Optional[str]:
        return self._lines.get(line, {}).get(core)

    # -- protocol actions ---------------------------------------------------

    def read(self, core: int, line: int) -> float:
        """Core fills ``line`` for reading; returns extra latency.

        Known deviation from textbook MESI: the requester ends Exclusive
        only when the directory knows no holder at all. If the only
        holder is the requester itself — a stale entry, since private
        evictions are not reported — it ends Shared, so its next write
        counts an upgrade and pays ``upgrade_latency``. Kept as is: the
        published oracle outputs were produced with it.
        """
        holders = self._lines.get(line)
        if not holders:
            self._lines[line] = {core: EXCLUSIVE}
            return 0.0
        extra = 0.0
        for other, state in holders.items():
            if other != core and state != SHARED:
                if state == MODIFIED:
                    # Dirty remote copy: forwarded cache-to-cache,
                    # written back, both end Shared.
                    self.stats.writebacks += 1
                    self.stats.cache_to_cache += 1
                    extra = self.c2c_latency
                holders[other] = SHARED
        holders[core] = SHARED
        return extra

    def write(self, core: int, line: int) -> float:
        """Core writes ``line``; returns extra latency."""
        holders = self._lines.setdefault(line, {})
        mine = holders.get(core)
        extra = 0.0
        if mine == MODIFIED:
            return 0.0
        for other, state in list(holders.items()):
            if other == core:
                continue
            if state == MODIFIED:
                self.stats.writebacks += 1
                self.stats.cache_to_cache += 1
                extra = max(extra, self.c2c_latency)
            self.stats.invalidations += 1
            self.stats.line_invalidations[line] = (
                self.stats.line_invalidations.get(line, 0) + 1
            )
            del holders[other]
        if mine == SHARED:
            # S -> M upgrade: bus transaction even on a cache hit.
            self.stats.upgrades += 1
            extra = max(extra, self.upgrade_latency)
        holders[core] = MODIFIED
        return extra

    def evict(self, core: int, line: int) -> None:
        """Core dropped ``line`` from its private caches."""
        holders = self._lines.get(line)
        if not holders:
            return
        state = holders.pop(core, None)
        if state == MODIFIED:
            self.stats.writebacks += 1
        if not holders:
            del self._lines[line]

    def invalidated_cores(self, line: int) -> Dict[int, str]:
        return dict(self._lines.get(line, {}))
