"""MESI cache-coherence directory.

Tracks, per cache line, which cores hold it and in which state
(Modified / Exclusive / Shared), and prices the protocol actions a
snooping implementation performs: invalidations on upgrades, dirty
writebacks, and cache-to-cache transfers when a reader pulls a line
another core has modified.

Each held line's state is one small int, its *word*: the holder
bitmask shifted left by :data:`HOLDER_SHIFT`, OR'd with a state code
(:data:`S_CODE`, :data:`E_CODE` or :data:`M_CODE`). Core ``c``'s bit
is ``1 << (c + HOLDER_SHIFT)``. A line no core holds has no entry, so
a present word is never 0. E and M always have exactly one holder, and
S at least one, so the word encodes every state the protocol can
reach. The batched walks in :mod:`repro.memsim.hierarchy` apply
:meth:`MESIDirectory.read`'s transition to these words inline, one
dict lookup per private read miss; ``write`` and ``evict`` stay
method calls.

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

#: Low bits of a directory word hold the state code; the holder
#: bitmask sits above them. S is 0, so a word with its code bits
#: cleared is its holders in Shared.
HOLDER_SHIFT = 2
CODE_MASK = (1 << HOLDER_SHIFT) - 1
S_CODE, E_CODE, M_CODE = 0, 1, 2
_STATES = {S_CODE: SHARED, E_CODE: EXCLUSIVE, M_CODE: MODIFIED}


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
        #: line -> word (holder bitmask << HOLDER_SHIFT | state code)
        self._lines: Dict[int, int] = {}
        self.c2c_latency = c2c_latency
        self.upgrade_latency = upgrade_latency
        self.stats = CoherenceStats()

    def state(self, core: int, line: int) -> Optional[str]:
        word = self._lines.get(line, 0)
        if word >> HOLDER_SHIFT >> core & 1:
            return _STATES[word & CODE_MASK]
        return None

    # -- protocol actions ---------------------------------------------------

    def read(self, core: int, line: int) -> float:
        """Core fills ``line`` for reading; returns extra latency.

        Known deviation from textbook MESI: the requester ends Exclusive
        only when the directory knows no holder at all. If the only
        holder is the requester itself — a stale entry, since private
        evictions are not reported — it ends Shared, so its next write
        counts an upgrade and pays ``upgrade_latency``. A stale Modified
        entry re-read by its own holder ends Shared with no writeback,
        so no later reader is forwarded the line. Kept as is: the
        published oracle outputs were produced with it.
        """
        bit = 1 << (core + HOLDER_SHIFT)
        word = self._lines.get(line, 0)
        if not word:
            self._lines[line] = bit | E_CODE
            return 0.0
        self._lines[line] = (word | bit) & ~CODE_MASK
        if word & CODE_MASK == M_CODE and word != bit | M_CODE:
            # Dirty remote copy: forwarded cache-to-cache, written
            # back, both end Shared.
            self.stats.writebacks += 1
            self.stats.cache_to_cache += 1
            return self.c2c_latency
        return 0.0

    def write(self, core: int, line: int) -> float:
        """Core writes ``line``; returns extra latency."""
        bit = 1 << (core + HOLDER_SHIFT)
        word = self._lines.get(line, 0)
        if word == bit | M_CODE:
            return 0.0
        stats = self.stats
        extra = 0.0
        remote = word & ~bit & ~CODE_MASK
        if remote:
            if word & CODE_MASK == M_CODE:
                stats.writebacks += 1
                stats.cache_to_cache += 1
                extra = max(extra, self.c2c_latency)
            purged = bin(remote).count("1")
            stats.invalidations += purged
            stats.line_invalidations[line] = (
                stats.line_invalidations.get(line, 0) + purged
            )
        if word & bit and word & CODE_MASK == S_CODE:
            # S -> M upgrade: bus transaction even on a cache hit.
            stats.upgrades += 1
            extra = max(extra, self.upgrade_latency)
        self._lines[line] = bit | M_CODE
        return extra

    def evict(self, core: int, line: int) -> None:
        """Core dropped ``line`` from its private caches."""
        bit = 1 << (core + HOLDER_SHIFT)
        word = self._lines.get(line, 0)
        if not word & bit:
            return
        if word & CODE_MASK == M_CODE:
            self.stats.writebacks += 1
        word &= ~bit
        if word >> HOLDER_SHIFT:
            self._lines[line] = word
        else:
            del self._lines[line]
