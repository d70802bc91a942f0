"""Stream selection and grouping (§4.2.1).

A stream is the samples of one (instruction, calling context, data
object) triple; the collector already maintains them. This module
provides the queries the later analyses need: streams per data object,
per loop, and the stride-bearing subset that feeds structure-size
recovery.
"""

from __future__ import annotations

from typing import Dict, List

from ..profiler.online import StreamState
from ..profiler.profile import DataIdentity, ThreadProfile
from .stride import is_strided

#: Loop id used to bucket samples that fell outside any loop.
NO_LOOP = -1


def streams_of(profile: ThreadProfile, identity: DataIdentity) -> List[StreamState]:
    """All streams referencing one data object, deterministic order."""
    return sorted(
        (s for s in profile.streams.values() if s.data_identity == identity),
        key=lambda s: s.key,
    )


def strided_streams(
    profile: ThreadProfile,
    identity: DataIdentity,
    *,
    min_unique: int = 2,
) -> List[StreamState]:
    """Streams with a usable non-unit stride and enough unique samples.

    ``min_unique`` guards the GCD's accuracy: a stream with one unique
    address has no stride, and two give only a single difference. The
    accuracy experiments justify the default; callers raise it when
    samples are plentiful.
    """
    return [
        s
        for s in streams_of(profile, identity)
        if s.unique_addresses >= min_unique and is_strided(s.stride)
    ]


def streams_by_loop(
    profile: ThreadProfile, identity: DataIdentity
) -> Dict[int, List[StreamState]]:
    """Group a data object's streams by the innermost loop they run in."""
    groups: Dict[int, List[StreamState]] = {}
    for stream in streams_of(profile, identity):
        loop = stream.loop_id if stream.loop_id is not None else NO_LOOP
        groups.setdefault(loop, []).append(stream)
    return groups


def total_unique_samples(streams: List[StreamState]) -> int:
    """Sum of unique sampled addresses across ``streams``."""
    return sum(s.unique_addresses for s in streams)
