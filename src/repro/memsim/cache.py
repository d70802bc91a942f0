"""A set-associative cache with pluggable replacement.

The simulator works at cache-line granularity: callers pass line
addresses (byte address >> line_bits). Each set keeps its resident tags
in recency order (least recent first), which makes hit promotion and
eviction O(associativity) list operations — the fastest structure for
the small associativities real caches use.

Replacement policies:

- ``"lru"`` (default) — true LRU, what the experiments use;
- ``"fifo"`` — insertion order, no hit promotion;
- ``"random"`` — uniform victim choice (deterministic seeded RNG).

The policy ablation benchmark shows the paper-shape conclusions do not
depend on the idealized-LRU assumption.
"""

from __future__ import annotations

import random
from typing import List, Optional

REPLACEMENT_POLICIES = ("lru", "fifo", "random")


class SetAssociativeCache:
    """One cache level. Sizes are in bytes; lines are 64B by default."""

    __slots__ = (
        "policy",
        "_rng",
        "name",
        "size_bytes",
        "ways",
        "line_size",
        "num_sets",
        "_set_mask",
        "_sets",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int = 64,
        *,
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        if policy not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of "
                f"{REPLACEMENT_POLICIES}"
            )
        self.policy = policy
        self._rng = random.Random(seed) if policy == "random" else None
        if line_size <= 0 or (line_size & (line_size - 1)) != 0:
            raise ValueError("line_size must be a power of two")
        if size_bytes % (ways * line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line_size"
            )
        num_sets = size_bytes // (ways * line_size)
        if num_sets & (num_sets - 1) != 0:
            raise ValueError(f"{name}: set count {num_sets} must be a power of two")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _evict_index(self, tags: List[int]) -> int:
        if self._rng is not None:
            return self._rng.randrange(len(tags))
        return 0  # LRU and FIFO both evict the list head

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit. Misses allocate the line."""
        tags = self._sets[line & self._set_mask]
        if line in tags:
            self.hits += 1
            # Only LRU promotes on hit; FIFO/random leave order alone.
            if self.policy == "lru" and tags[-1] != line:
                tags.remove(line)
                tags.append(line)
            return True
        self.misses += 1
        if len(tags) >= self.ways:
            del tags[self._evict_index(tags)]
            self.evictions += 1
        tags.append(line)
        return False

    def fill(self, line: int) -> Optional[int]:
        """Install ``line`` without counting a hit/miss (prefetch path).

        Returns the evicted line, if any.
        """
        tags = self._sets[line & self._set_mask]
        if line in tags:
            return None
        evicted = None
        if len(tags) >= self.ways:
            victim = self._evict_index(tags)
            evicted = tags[victim]
            del tags[victim]
            self.evictions += 1
        tags.append(line)
        return evicted

    def contains(self, line: int) -> bool:
        """Non-destructive residency probe (does not touch LRU state)."""
        return line in self._sets[line & self._set_mask]

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; returns True if it was."""
        tags = self._sets[line & self._set_mask]
        if line in tags:
            tags.remove(line)
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name}, {self.size_bytes // 1024}KB, "
            f"{self.ways}-way, sets={self.num_sets})"
        )
