"""Array regrouping — the paper's stated future work (§7).

Structure splitting fixes AoS layouts whose fields are *not* used
together; array regrouping fixes the dual problem: separate arrays
(an SoA layout) whose elements *are* used together, where interleaving
them into one array-of-structs puts each loop iteration's operands on
one cache line. The paper names this as the next target for the same
machinery (citing ArrayTool [21]), and indeed everything reuses:
streams, the latency-weighted affinity of Eq 7, and threshold
clustering — only the unit changes from *field offset within one
object* to *whole data object*.

Two arrays are regrouping candidates when:

1. they have high latency-weighted affinity (co-accessed in the loops
   that matter), and
2. their recovered element strides match and their element counts are
   compatible, so an interleaved layout exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..profiler.profile import DataIdentity, ThreadProfile
from .clustering import DEFAULT_THRESHOLD
from .streams import streams_by_loop, streams_of


@dataclass
class ArrayUsage:
    """Per-array evidence extracted from the merged profile."""

    identity: DataIdentity
    total_latency: float
    element_stride: int  # gcd of the array's stream strides (0 unknown)
    loops: Dict[int, float]  # loop id -> latency in that loop

    @property
    def name(self) -> str:
        return self.identity[-1]


@dataclass
class ArrayAffinity:
    """Eq 7 applied at whole-array granularity."""

    pair: Tuple[DataIdentity, DataIdentity]
    affinity: float
    common_loops: Tuple[int, ...]


@dataclass
class RegroupingAdvice:
    """One recommended interleaving of two or more arrays."""

    members: Tuple[DataIdentity, ...]
    affinity: float
    element_stride: int

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(identity[-1] for identity in self.members)

    def describe(self) -> str:
        arrays = ", ".join(self.names)
        return (
            f"regroup [{arrays}] into one interleaved array "
            f"(affinity {self.affinity:.2f}, element stride "
            f"{self.element_stride} bytes)"
        )


def collect_array_usage(
    profile: ThreadProfile,
    *,
    min_share: float = 0.01,
) -> List[ArrayUsage]:
    """Summarize each significant data object's loops and stride."""
    import math

    if profile.total_latency <= 0:
        return []
    usages: List[ArrayUsage] = []
    for identity, latency in sorted(profile.data_latency.items()):
        if latency / profile.total_latency < min_share:
            continue
        stride = 0
        for stream in streams_of(profile, identity):
            stride = math.gcd(stride, stream.stride)
        loops: Dict[int, float] = {}
        for loop_id, streams in streams_by_loop(profile, identity).items():
            loops[loop_id] = sum(s.total_latency for s in streams)
        usages.append(
            ArrayUsage(
                identity=identity,
                total_latency=latency,
                element_stride=stride,
                loops=loops,
            )
        )
    return usages


def array_affinities(usages: Sequence[ArrayUsage]) -> List[ArrayAffinity]:
    """Eq 7 between arrays: common-loop latency over pair latency."""
    result: List[ArrayAffinity] = []
    for i, a in enumerate(usages):
        for b in usages[i + 1 :]:
            common = sorted(set(a.loops) & set(b.loops))
            lc = sum(a.loops[l] + b.loops[l] for l in common)
            denom = a.total_latency + b.total_latency
            result.append(
                ArrayAffinity(
                    pair=(a.identity, b.identity),
                    affinity=lc / denom if denom > 0 else 0.0,
                    common_loops=tuple(common),
                )
            )
    result.sort(key=lambda x: -x.affinity)
    return result


def _compatible(a: ArrayUsage, b: ArrayUsage) -> bool:
    """Interleaving requires matching recovered element strides.

    Arrays walked at different element sizes (or with no recovered
    stride at all) cannot be element-wise interleaved safely.
    """
    return a.element_stride > 0 and a.element_stride == b.element_stride


def recommend_regrouping(
    profile: ThreadProfile,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_share: float = 0.01,
) -> List[RegroupingAdvice]:
    """The full regrouping analysis over a merged profile.

    Returns one advice per connected group of mutually-compatible,
    high-affinity arrays (largest affinity first).
    """
    usages = collect_array_usage(profile, min_share=min_share)
    by_identity = {u.identity: u for u in usages}
    parent: Dict[DataIdentity, DataIdentity] = {u.identity: u.identity for u in usages}

    def find(x: DataIdentity) -> DataIdentity:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pair_affinity: Dict[FrozenSet[DataIdentity], float] = {}
    for link in array_affinities(usages):
        a, b = link.pair
        pair_affinity[frozenset(link.pair)] = link.affinity
        if link.affinity >= threshold and _compatible(by_identity[a], by_identity[b]):
            parent[find(a)] = find(b)

    groups: Dict[DataIdentity, List[ArrayUsage]] = {}
    for usage in usages:
        groups.setdefault(find(usage.identity), []).append(usage)

    advice: List[RegroupingAdvice] = []
    for members in groups.values():
        if len(members) < 2:
            continue
        members.sort(key=lambda u: u.identity)
        identities = tuple(u.identity for u in members)
        group_affinity = min(
            pair_affinity.get(frozenset((x, y)), 0.0)
            for i, x in enumerate(identities)
            for y in identities[i + 1 :]
        )
        advice.append(
            RegroupingAdvice(
                members=identities,
                affinity=group_affinity,
                element_stride=members[0].element_stride,
            )
        )
    advice.sort(key=lambda a: -a.affinity)
    return advice
