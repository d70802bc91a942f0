"""Online per-stream state: the incremental GCD stride computation.

The paper's profiler "performs the GCD algorithm online to compute the
stride for each stream" (§5.1). A stream is an (instruction, calling
context, data object) triple; each new sample with a previously unseen
address contributes one address difference to the running GCD (Eqs 2-3).

Keeping only the running GCD, the last unique address, and the seen-set
makes the per-interrupt work O(1) — the property that keeps the whole
profiler lightweight.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Dict, Optional, Set, Tuple

from .._compat import slotted_dataclass

#: A stream's identity: instruction pointer, calling context, data object.
StreamKey = Tuple[int, int, Tuple[str, ...]]


@slotted_dataclass()
class StreamState:
    """Mutable online state for one stream.

    Updated once per retained sample, so it is slotted (on 3.10+) via
    :func:`repro._compat.slotted_dataclass` to skip the per-instance
    ``__dict__``.
    """

    key: StreamKey
    line: int = 0
    loop_id: Optional[int] = None
    data_base: int = 0
    stride: int = 0  # gcd(0, d) == d, so 0 is the clean identity
    last_unique_address: Optional[int] = None
    min_address: Optional[int] = None
    unique_addresses: int = 0
    sample_count: int = 0
    total_latency: float = 0.0
    write_samples: int = 0
    #: Sample counts per serving level ("L1"/"L2"/"L3"/"DRAM"), the
    #: PEBS data-source breakdown; filled by the collector.
    source_counts: Dict[str, int] = field(default_factory=dict)
    _seen: Set[int] = field(default_factory=set, repr=False)

    def update(
        self,
        address: int,
        latency: float,
        *,
        is_write: bool = False,
        source: Optional[str] = None,
    ) -> None:
        """Fold one sample into the stream (Eq 2's adjacent difference)."""
        self.sample_count += 1
        self.total_latency += latency
        if is_write:
            self.write_samples += 1
        if source is not None:
            self.source_counts[source] = self.source_counts.get(source, 0) + 1
        if address in self._seen:
            return
        self._seen.add(address)
        self.unique_addresses += 1
        if self.min_address is None or address < self.min_address:
            self.min_address = address
        if self.last_unique_address is not None:
            diff = abs(address - self.last_unique_address)
            self.stride = math.gcd(self.stride, diff)
        self.last_unique_address = address

    @property
    def ip(self) -> int:
        return self.key[0]

    @property
    def context(self) -> int:
        return self.key[1]

    @property
    def data_identity(self) -> Tuple[str, ...]:
        return self.key[2]

    def merged_with(self, other: "StreamState") -> "StreamState":
        """Combine two profiles' states for the same stream (§4.4).

        Strides from different profiles combine by GCD (the adapted
        Eq 5). When the two profiles observed the *same* allocation
        (same data base — per-thread profiles of one process), the
        cross-profile min-address difference is folded in too, because
        it is itself an address difference of the same stream. Across
        *processes* the bases differ (separate address spaces), so only
        the strides combine, and the (address, base) pair is kept
        consistent from one side so Eq 6's offset stays meaningful.
        """
        if self.key != other.key:
            raise ValueError("cannot merge different streams")
        merged = StreamState(
            key=self.key,
            line=self.line or other.line,
            loop_id=self.loop_id if self.loop_id is not None else other.loop_id,
        )
        merged.stride = math.gcd(self.stride, other.stride)
        same_space = (
            self.data_base == other.data_base
            or self.min_address is None
            or other.min_address is None
        )
        if same_space:
            merged.data_base = self.data_base or other.data_base
            if self.min_address is not None and other.min_address is not None:
                cross = abs(self.min_address - other.min_address)
                merged.stride = math.gcd(merged.stride, cross)
            mins = [
                m for m in (self.min_address, other.min_address) if m is not None
            ]
            merged.min_address = min(mins) if mins else None
        else:
            # Different address spaces: keep the better-sampled side's
            # coherent (min_address, data_base) pair.
            keep = self if self.sample_count >= other.sample_count else other
            merged.data_base = keep.data_base
            merged.min_address = keep.min_address
        merged.last_unique_address = None  # no further online updates
        merged.unique_addresses = self.unique_addresses + other.unique_addresses
        merged.sample_count = self.sample_count + other.sample_count
        merged.total_latency = self.total_latency + other.total_latency
        merged.write_samples = self.write_samples + other.write_samples
        for sources in (self.source_counts, other.source_counts):
            for source, count in sources.items():
                merged.source_counts[source] = (
                    merged.source_counts.get(source, 0) + count
                )
        return merged
