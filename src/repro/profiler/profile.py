"""Per-thread profiles and their file format.

The paper's profiler "writes the analysis result to a profile file per
thread" (§5.1); the offline analyzer reads those files back. A
:class:`ThreadProfile` holds everything one thread learned: its stream
states (with online GCD strides) and per-data-object latency totals.
Profiles serialize to JSON so the profiler and analyzer stay decoupled,
like the real tool's on-disk handoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .online import StreamKey, StreamState

#: Identity of a data object across threads (see DataObject.identity).
DataIdentity = Tuple[str, ...]


@dataclass
class ThreadProfile:
    """Everything one thread's profiler instance recorded."""

    thread: int
    program: str = ""
    streams: Dict[StreamKey, StreamState] = field(default_factory=dict)
    data_latency: Dict[DataIdentity, float] = field(default_factory=dict)
    total_latency: float = 0.0
    unattributed_latency: float = 0.0
    sample_count: int = 0

    def stream(
        self,
        ip: int,
        context: int,
        data_identity: DataIdentity,
    ) -> StreamState:
        """The stream for this (ip, context, data) triple, created lazily."""
        key: StreamKey = (ip, context, data_identity)
        state = self.streams.get(key)
        if state is None:
            state = StreamState(key=key)
            self.streams[key] = state
        return state

    def add_data_latency(self, identity: DataIdentity, latency: float) -> None:
        self.data_latency[identity] = self.data_latency.get(identity, 0.0) + latency

    def streams_for(self, identity: DataIdentity) -> List[StreamState]:
        return [s for s in self.streams.values() if s.data_identity == identity]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "thread": self.thread,
            "program": self.program,
            "total_latency": self.total_latency,
            "unattributed_latency": self.unattributed_latency,
            "sample_count": self.sample_count,
            "data_latency": [
                {"identity": list(k), "latency": v}
                for k, v in sorted(self.data_latency.items())
            ],
            "streams": [
                {
                    "ip": s.ip,
                    "context": s.context,
                    "data": list(s.data_identity),
                    "line": s.line,
                    "loop_id": s.loop_id,
                    "data_base": s.data_base,
                    "stride": s.stride,
                    "min_address": s.min_address,
                    "unique_addresses": s.unique_addresses,
                    "sample_count": s.sample_count,
                    "total_latency": s.total_latency,
                    "write_samples": s.write_samples,
                    "source_counts": dict(s.source_counts),
                }
                for s in sorted(self.streams.values(), key=lambda s: s.key)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ThreadProfile":
        profile = cls(
            thread=data["thread"],
            program=data.get("program", ""),
            total_latency=data.get("total_latency", 0.0),
            unattributed_latency=data.get("unattributed_latency", 0.0),
            sample_count=data.get("sample_count", 0),
        )
        for entry in data.get("data_latency", []):
            profile.data_latency[tuple(entry["identity"])] = entry["latency"]
        for entry in data.get("streams", []):
            key: StreamKey = (entry["ip"], entry["context"], tuple(entry["data"]))
            state = StreamState(
                key=key,
                line=entry.get("line", 0),
                loop_id=entry.get("loop_id"),
                data_base=entry.get("data_base", 0),
            )
            state.stride = entry.get("stride", 0)
            state.min_address = entry.get("min_address")
            state.unique_addresses = entry.get("unique_addresses", 0)
            state.sample_count = entry.get("sample_count", 0)
            state.total_latency = entry.get("total_latency", 0.0)
            state.write_samples = entry.get("write_samples", 0)
            state.source_counts = dict(entry.get("source_counts", {}))
            profile.streams[key] = state
        return profile

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ThreadProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))
