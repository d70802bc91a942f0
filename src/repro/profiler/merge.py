"""Reduction-tree merge of per-thread profiles.

The offline analyzer merges per-thread profiles pairwise along a
balanced binary tree (Tallent et al. [30]), which is how the paper
keeps merging fast when "the number of threads and processes is huge".
The merge is associative and commutative, so the tree shape cannot
change the result — a property the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .online import StreamState
from .profile import ThreadProfile

#: Thread id used for merged (whole-program) profiles.
MERGED_THREAD = -1


@dataclass
class MergeStats:
    """Shape of one reduction-tree merge, for telemetry.

    ``depth`` is the number of pairwise-merge levels executed,
    ``pair_merges`` the total number of two-profile merges, and
    ``fan_in`` the tree's branching factor (always 2 here — kept
    explicit so the metric stays meaningful if the tree generalizes).
    """

    leaves: int = 0
    depth: int = 0
    pair_merges: int = 0
    fan_in: int = 2


def _merged_program(a: str, b: str) -> str:
    """Deterministic ``program`` attribute for a merged profile.

    When both inputs carry a (different) program name, the
    lexicographically smallest one wins.  ``min`` is commutative and
    associative, so the merged program cannot depend on profile order
    or on the shape of the reduction tree — the same invariance the
    rest of the merge guarantees.  Empty names never win over real
    ones.
    """
    if a and b:
        return min(a, b)
    return a or b


def merge_pair(a: ThreadProfile, b: ThreadProfile) -> ThreadProfile:
    """Merge two profiles into a new whole-program profile.

    The merged profile's ``program`` follows :func:`_merged_program`:
    the lexicographically smallest non-empty program name of the two.
    """
    merged = ThreadProfile(
        thread=MERGED_THREAD, program=_merged_program(a.program, b.program)
    )
    merged.total_latency = a.total_latency + b.total_latency
    merged.unattributed_latency = a.unattributed_latency + b.unattributed_latency
    merged.sample_count = a.sample_count + b.sample_count

    for source in (a, b):
        for identity, latency in source.data_latency.items():
            merged.add_data_latency(identity, latency)

    keys = set(a.streams) | set(b.streams)
    for key in keys:
        in_a = a.streams.get(key)
        in_b = b.streams.get(key)
        if in_a is not None and in_b is not None:
            merged.streams[key] = in_a.merged_with(in_b)
        else:
            merged.streams[key] = _copy_stream(in_a or in_b)  # type: ignore[arg-type]
    return merged


def _copy_stream(state: StreamState) -> StreamState:
    copy = StreamState(
        key=state.key,
        line=state.line,
        loop_id=state.loop_id,
        data_base=state.data_base,
    )
    copy.stride = state.stride
    copy.min_address = state.min_address
    copy.last_unique_address = None
    copy.unique_addresses = state.unique_addresses
    copy.sample_count = state.sample_count
    copy.total_latency = state.total_latency
    copy.write_samples = state.write_samples
    copy.source_counts = dict(state.source_counts)
    return copy


def copy_profile(profile: ThreadProfile) -> ThreadProfile:
    """An independent copy of ``profile`` (streams and totals included).

    The copy carries the original thread id and program — copying is
    not a merge, so nothing is relabelled — and shares no mutable state
    with the source.
    """
    copy = ThreadProfile(thread=profile.thread, program=profile.program)
    copy.total_latency = profile.total_latency
    copy.unattributed_latency = profile.unattributed_latency
    copy.sample_count = profile.sample_count
    copy.data_latency = dict(profile.data_latency)
    for key, state in profile.streams.items():
        copy.streams[key] = _copy_stream(state)
    return copy


def reduction_tree_merge(
    profiles: Sequence[ThreadProfile],
    *,
    stats: Optional[MergeStats] = None,
) -> ThreadProfile:
    """Merge any number of profiles pairwise, level by level.

    Pass a :class:`MergeStats` to have the tree's depth and merge count
    recorded (the telemetry layer does; the result is unaffected).

    A single profile needs no merging: the result is a faithful copy
    (same thread id, same program) and the stats record a degenerate
    tree — ``depth=0, pair_merges=0`` — rather than fabricating a merge
    against an empty profile.
    """
    if not profiles:
        raise ValueError("no profiles to merge")
    if stats is not None:
        stats.leaves = len(profiles)
    level: List[ThreadProfile] = list(profiles)
    if len(level) == 1:
        if stats is not None:
            stats.depth = 0
            stats.pair_merges = 0
        return copy_profile(level[0])
    while len(level) > 1:
        next_level: List[ThreadProfile] = []
        for i in range(0, len(level) - 1, 2):
            next_level.append(merge_pair(level[i], level[i + 1]))
            if stats is not None:
                stats.pair_merges += 1
        if len(level) % 2 == 1:
            next_level.append(level[-1])
        level = next_level
        if stats is not None:
            stats.depth += 1
    return level[0]
