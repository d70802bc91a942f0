"""The three-level memory hierarchy of the paper's evaluation machine.

Defaults model one socket of the Intel Xeon E5-4650L testbed (§6):
private 32KB L1-D and 256KB L2 per core, a 20MB shared L3, and DRAM
behind it. ``access`` returns the load-to-use latency in cycles — the
quantity PEBS-LL reports per sampled load and the currency of every
StructSlim metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Set, Tuple

from ..telemetry.session import enabled as telemetry_enabled
from . import vectorwalk
from .cache import SetAssociativeCache
from .coherence import (
    CODE_MASK, E_CODE, HOLDER_SHIFT, M_CODE, S_CODE, MESIDirectory,
)
from .prefetch import StreamPrefetcher
from .tlb import DataTLB, TLBConfig


@dataclass(frozen=True)
class LevelConfig:
    """Geometry and hit latency for one cache level."""

    size_bytes: int
    ways: int
    latency: float


@dataclass(frozen=True)
class HierarchyConfig:
    """Full machine description. Latencies are cycles to *service* at
    that level (already including the lookup path below it)."""

    line_size: int = 64
    l1: LevelConfig = LevelConfig(32 * 1024, 8, 4.0)
    l2: LevelConfig = LevelConfig(256 * 1024, 8, 12.0)
    l3: LevelConfig = LevelConfig(20 * 1024 * 1024, 20, 42.0)
    dram_latency: float = 220.0
    #: The L2 streamer is modelled but off by default: without a
    #: timeliness model an always-on-time prefetcher erases the L2 miss
    #: signal the paper's Table 4 reports. The prefetch ablation bench
    #: turns it on explicitly.
    prefetch_degree: int = 0
    #: Optional per-core data TLB (see memsim.tlb); None keeps the
    #: Table 3/4 calibration purely cache-driven.
    tlb: Optional["TLBConfig"] = None
    #: Replacement policy for every level: "lru" (default), "fifo",
    #: or "random" (see the policy ablation benchmark).
    replacement: str = "lru"

    @classmethod
    def small(cls) -> "HierarchyConfig":
        """A scaled-down hierarchy for fast unit tests: 1KB/8KB/64KB."""
        return cls(
            l1=LevelConfig(1024, 2, 4.0),
            l2=LevelConfig(8 * 1024, 4, 12.0),
            l3=LevelConfig(64 * 1024, 8, 42.0),
        )


#: Private misses the per-core walk hands ``_shared_fills`` at a time,
#: so their Python ints never all exist at once.
_FILL_SLICE = 8192

#: Walk paths an access can take, as ``walk_accesses`` reports them:
#: the single-core vector walk and its memo replay, every machine's
#: list walk, the multi-core per-core walk, and per-access
#: :meth:`MemoryHierarchy.access`.
WALK_PATHS = ("vector", "memo", "list", "general_vector", "scalar")


class _Core:
    """Private per-core state: L1, L2, and the L2 stream prefetcher."""

    def __init__(self, core_id: int, config: HierarchyConfig) -> None:
        self.id = core_id
        self.l1 = SetAssociativeCache(
            f"L1#{core_id}", config.l1.size_bytes, config.l1.ways,
            config.line_size, policy=config.replacement, seed=2 * core_id,
        )
        self.l2 = SetAssociativeCache(
            f"L2#{core_id}", config.l2.size_bytes, config.l2.ways,
            config.line_size, policy=config.replacement, seed=2 * core_id + 1,
        )
        self.prefetcher = StreamPrefetcher(degree=config.prefetch_degree)
        self.dtlb = DataTLB(config.tlb) if config.tlb is not None else None
        # Prefetched-but-not-yet-demanded lines, for the issued/useful
        # accounting telemetry exports. Bounded by the prefetcher's
        # issue count; entries leave on first demand hit or eviction.
        self.prefetched: Set[int] = set()
        self.prefetch_useful = 0


class MemoryHierarchy:
    """Private L1/L2 per core, shared L3, simple invalidate-on-write
    coherence between the private caches."""

    def __init__(self, config: Optional[HierarchyConfig] = None, num_cores: int = 1):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.config = config or HierarchyConfig()
        self.num_cores = num_cores
        self._line_bits = self.config.line_size.bit_length() - 1
        self.cores = [_Core(c, self.config) for c in range(num_cores)]
        self.l3 = SetAssociativeCache(
            "L3",
            self.config.l3.size_bytes,
            self.config.l3.ways,
            self.config.line_size,
            policy=self.config.replacement,
            seed=997,
        )
        self.dram_accesses = 0
        # MESI directory, kept only when there is more than one core.
        # The directory is slightly conservative: silent LRU evictions
        # from private caches are not reported, so it may believe a copy
        # exists that is already gone (like a real imprecise snoop
        # filter); the resulting invalidations are no-ops on the SRAM
        # side.
        self.directory: Optional[MESIDirectory] = (
            MESIDirectory() if num_cores > 1 else None
        )
        # Batched-path bookkeeping (see _walk_batch). Once batches are
        # large enough an LRU/FIFO machine without prefetcher or TLB
        # promotes its caches to the numpy tag-array representation
        # (state 1); one core stays promoted for good. On a promoted
        # multi-core machine a core too dense for the chunked walk turns
        # its own L1/L2 back into list caches for good, and the other
        # cores stay promoted. State -1 means a multi-core machine went
        # to list caches for good (a line-crossing access or a write of
        # a line another core touches or holds after promotion; see
        # _walk_multicore).
        self._vector_state = 0
        # Steady-state walk memo, attached at single-core vector
        # promotion (see repro.memsim.memo); None until then.
        self._walk_memo = None
        # Accesses simulated per walk path (see walk_accesses), and
        # batches and host seconds (timed under telemetry only) per
        # batched path.
        self._walked = dict.fromkeys(WALK_PATHS[:-1], 0)
        self._scalar_walks = 0
        self._walk_batches = dict.fromkeys(WALK_PATHS[:-1], 0)
        self._walk_seconds = dict.fromkeys(WALK_PATHS[:-1], 0.0)

    # -- main access path ------------------------------------------------

    def access(self, core_id: int, address: int, size: int, is_write: bool) -> float:
        """Perform one access; returns its load-to-use latency in cycles."""
        self._scalar_walks += 1
        first = address >> self._line_bits
        last = (address + size - 1) >> self._line_bits
        latency = self._access_line(core_id, first, is_write)
        if last != first:
            # A split access touches the next line too; the observed
            # latency is the slower of the two halves.
            latency = max(latency, self._access_line(core_id, last, is_write))
        dtlb = self.cores[core_id].dtlb
        if dtlb is not None:
            penalty = dtlb.translate(address)
            if last != first:
                last_byte = address + size - 1
                if (last_byte >> dtlb._page_bits) != (
                    address >> dtlb._page_bits
                ):
                    # Page-crossing access: the last byte's page is
                    # translated too; like the two-line walk above, the
                    # slower translation bounds the observed latency.
                    penalty = max(penalty, dtlb.translate(last_byte))
            latency += penalty
        return latency

    def _access_line(self, core_id: int, line: int, is_write: bool) -> float:
        cfg = self.config
        core = self.cores[core_id]
        extra = 0.0
        if is_write and self.directory is not None:
            # Purge remote copies, then take ownership (S/I -> M).
            remote = (
                self.directory._lines.get(line, 0) >> HOLDER_SHIFT
                & ~(1 << core_id)
            )
            while remote:
                other = self.cores[(remote & -remote).bit_length() - 1]
                remote &= remote - 1
                other.l1.invalidate(line)
                other.l2.invalidate(line)
                other.prefetched.discard(line)
            extra = self.directory.write(core_id, line)

        if core.l1.access(line):
            return cfg.l1.latency + extra
        if core.l2.access(line):
            if core.prefetched and line in core.prefetched:
                core.prefetched.discard(line)
                core.prefetch_useful += 1
            core.l1.fill(line)
            return cfg.l2.latency + extra

        # L2 miss: consult the streamer before going to L3. At degree 0
        # it never issues and no one reads its table, so it is skipped
        # (the batched walks never call it either). A prefetched line
        # registers with the directory as a read by this core, so a
        # remote write invalidates it; the prefetch's cache-to-cache
        # extra is not charged to the demand access.
        if core.prefetcher.degree:
            for pf_line in core.prefetcher.observe_miss(line):
                if not self.l3.contains(pf_line):
                    self.dram_accesses += 1
                    self.l3.fill(pf_line)
                if self.directory is not None:
                    self.directory.read(core_id, pf_line)
                evicted_pf = core.l2.fill(pf_line)
                core.prefetched.add(pf_line)
                if evicted_pf is not None:
                    core.prefetched.discard(evicted_pf)
                    if self.directory is not None:
                        self.directory.evict(core.id, evicted_pf)

        if self.l3.access(line):
            latency = cfg.l3.latency
        else:
            self.dram_accesses += 1
            latency = cfg.dram_latency
        if self.directory is not None and not is_write:
            # Read fill: a dirty remote copy is forwarded cache-to-cache.
            extra += self.directory.read(core_id, line)
        evicted = core.l2.fill(line)
        if evicted is not None:
            core.prefetched.discard(evicted)
            if self.directory is not None:
                self.directory.evict(core.id, evicted)
        core.l1.fill(line)
        return latency + extra

    # -- batched access path -----------------------------------------------

    #: Smallest batch worth promoting the private caches to the numpy
    #: tag-array representation; below it the inlined list walk wins.
    #: Tests lower it (per instance) to force the vector paths onto
    #: tiny batches.
    VECTOR_MIN_BATCH = 256

    def access_batch(self, addresses, sizes, is_write=None, thread=None):
        """Latency column for a column of accesses (any machine).

        Exactly equivalent to calling :meth:`access` per element — same
        latencies, same hit/miss/eviction counters, same directory/
        prefetcher/TLB state. ``is_write`` and ``thread`` are the
        batch's 0/1 write column and thread column; they default to
        all-reads on thread 0, which is only observably different on
        machines with a coherence directory or several cores — exactly
        where the engine passes the real columns.

        The vector paths return a float64 ndarray, the list walk a
        list. Each batch's accesses are credited to the walk path that
        took them (:meth:`walk_accesses`); those a path hands to
        :meth:`access` (line-crossing accesses, and most of the
        prefetch, TLB and random-replacement machines' accesses) count
        as ``scalar``. The batch itself counts once for its path, and
        its host seconds too while a telemetry session is active.
        """
        scalar = self._scalar_walks
        start = time.perf_counter() if telemetry_enabled() else None
        path, latencies = self._walk_batch(addresses, sizes, is_write, thread)
        if start is not None:
            self._walk_seconds[path] += time.perf_counter() - start
        self._walked[path] += len(addresses) - (self._scalar_walks - scalar)
        self._walk_batches[path] += 1
        return latencies

    def walk_accesses(self) -> Dict[str, int]:
        """``{walk path: accesses it simulated}``, over :data:`WALK_PATHS`.

        Sums to every access this hierarchy simulated, batched or not.
        """
        counts = dict(self._walked)
        counts["scalar"] = self._scalar_walks
        return counts

    def _walk_batch(self, addresses, sizes, is_write, thread):
        """``(walk path, latencies)`` for one batch.

        With numpy and batches big enough, a machine with bare LRU/FIFO
        caches (no prefetcher, TLB or random replacement) vector-walks:
        one core through the walk memo, up to 61 cores each core's share
        of a batch whose written lines are private to one core
        (:meth:`_walk_multicore`), a dense core's share on its own list
        caches. Every other batch takes the inlined trace-ordered list
        walk (:meth:`_walk_lists`).
        """
        cfg = self.config
        single = self.num_cores == 1
        vector = (
            cfg.prefetch_degree == 0 and cfg.tlb is None
            and cfg.replacement != "random" and vectorwalk.HAVE_NUMPY
        )
        if vector and single:
            if (
                self._vector_state == 0
                and len(addresses) >= self.VECTOR_MIN_BATCH
            ):
                self._promote_to_vector()
            if self._vector_state == 1:
                memo = self._walk_memo
                if memo is None:
                    return "vector", vectorwalk.walk_batch(
                        self, addresses, sizes, is_write
                    )
                hits = memo.hits
                latencies = memo.walk(self, addresses, sizes, is_write)
                return ("memo" if memo.hits != hits else "vector"), latencies
        elif vector and self.num_cores + HOLDER_SHIFT < 64:
            # The per-core walk keeps directory words in int64 columns,
            # where a wider machine's holder bits would overflow.
            latencies = self._walk_multicore(
                addresses, sizes, is_write, thread
            )
            if latencies is not None:
                return "general_vector", latencies
        return "list", self._walk_lists(addresses, sizes, is_write, thread)

    def _walk_multicore(self, addresses, sizes, is_write, thread):
        """The multi-core machine's per-core walk, or None.

        The batch is routed before any cache state changes. It takes
        the per-core walk once batches are big enough (and every batch
        after promotion) if it has no line-crossing access and every
        line it writes is private to one core (:meth:`_private_writes`).
        Otherwise it returns None, for the list walk, and a promoted
        machine demotes to list caches for good: each run builds a
        fresh hierarchy, so waiting for a streak of such batches would
        cost a large part of the run.

        With every written line private, no write invalidates a remote
        copy, so a core's private L1/L2 state depends only on its own
        subsequence, and each core walks it alone, reads and writes
        alike, planned just before it walks. A core whose stream has
        chunk bounds (:func:`vectorwalk.plan`) walks its promoted caches
        with :func:`vectorwalk.cascade`. A core too dense for the
        chunked walk (pointer chasing) turns its own L1/L2 into list
        caches for good and walks them in :meth:`_walk_core_lists`, as
        every later batch of that core does. The private misses then go
        through the shared L3 and the directory's read fill in trace
        order (:meth:`_shared_fills`), the only state cores share
        besides the written lines' directory words, which
        :meth:`_apply_private_writes` then sets from the writers' own
        events.

        Returns a float64 ndarray, which ``simulate`` sums order-free.
        That is exact because every latency is an integer number of
        cycles: the level latencies (which ``simulate`` checks) plus the
        directory's cache-to-cache (40 cycles) and upgrade (20 cycles)
        extras.
        """
        n = len(addresses)
        state = self._vector_state
        if state < 0 or not n or (state == 0 and n < self.VECTOR_MIN_BATCH):
            return None
        np = vectorwalk._np
        line_bits = self._line_bits
        address = vectorwalk.as_column(addresses)
        lines = address >> line_bits
        last = address + vectorwalk.as_column(sizes)
        last -= 1
        last >>= line_bits
        routed = not (last != lines).any()
        del last
        if thread is None:
            core_of = np.zeros(n, dtype=np.int64)
        else:
            core_of = vectorwalk.as_column(thread)
            if core_of.min() < 0 or core_of.max() >= self.num_cores:
                core_of = core_of % self.num_cores
        private = None
        if routed and is_write is not None:
            writes = vectorwalk.as_column(is_write) != 0
            if writes.any():
                private = self._private_writes(lines, core_of, writes)
                routed = private is not None
        if not routed:
            if state == 1:
                self._demote_from_vector()
            return None
        if state == 0:
            self._promote_to_vector()
        # Per access: 0 = L1 hit, 1 = L2 hit, 2 = private miss.
        levels = np.zeros(n, dtype=np.int8)
        for core in self.cores:
            at = np.flatnonzero(core_of == core.id)
            if len(at):
                self._walk_core(core, lines[at], at, levels)
        missed = levels == 2
        positions = np.flatnonzero(missed)
        miss_lines = lines[positions]
        miss_bits = 1 << (core_of[positions] + HOLDER_SHIFT)
        del lines, core_of
        cfg = self.config
        lut = np.array([cfg.l1.latency, cfg.l2.latency, 0.0])
        latencies = lut[levels]
        for start in range(0, len(positions), _FILL_SLICE):
            end = start + _FILL_SLICE
            latencies[positions[start:end]] = self._shared_fills(
                miss_lines[start:end].tolist(), miss_bits[start:end].tolist()
            )
        if private is not None:
            self._apply_private_writes(private, writes, missed, latencies)
        return latencies

    def _walk_core(self, core, own, at, levels) -> None:
        """Walk one core's line column ``own`` through its L1/L2 and
        record each access's level at ``levels[at]``."""
        np = vectorwalk._np
        if isinstance(core.l1, vectorwalk.TagArrayCache):
            planned = vectorwalk.plan(own)
            if planned[2] is not None:
                own_levels = np.zeros(len(own), dtype=np.int8)
                vectorwalk.cascade((core.l1, core.l2), own, planned, own_levels)
                levels[at] = own_levels
                return
            # No chunk bounds: this core goes to list caches for good.
            core.l1 = core.l1.to_list_cache()
            core.l2 = core.l2.to_list_cache()
            positions, stream = planned[:2]
        else:
            positions, stream = vectorwalk.run_heads(own)
        levels[at[positions]] = self._walk_core_lists(core, stream, len(own))

    @staticmethod
    def _walk_core_lists(core, stream, accesses):
        """Levels (0 = L1 hit, 1 = L2 hit, 2 = miss) of one core's
        deduped ``stream`` walked through its list L1 and L2.

        ``stream`` holds the run heads of the core's ``accesses``
        accesses; the run tails are L1 hits whose promotion is a no-op.
        Each head walks as :meth:`_walk_lists` walks a read of one core
        down to its L2: a miss allocates at once. Hit, miss and eviction
        counts are added to the caches once, at the end; a level's
        evictions are its misses less the ways they filled.
        """
        np = vectorwalk._np
        l1, l2 = core.l1, core.l2
        l1_sets, l1_mask, l1_ways = l1._sets, l1._set_mask, l1.ways
        l2_sets, l2_mask, l2_ways = l2._sets, l2._set_mask, l2.ways
        promote = l1.policy == "lru"
        l1_filled = sum(map(len, l1_sets))
        l2_filled = sum(map(len, l2_sets))
        out = bytearray(len(stream))
        for i, line in enumerate(memoryview(stream)):
            tags = l1_sets[line & l1_mask]
            if line in tags:
                if promote and tags[-1] != line:
                    tags.remove(line)
                    tags.append(line)
                continue
            if len(tags) >= l1_ways:
                del tags[0]
            tags.append(line)
            tags = l2_sets[line & l2_mask]
            if line in tags:
                if promote and tags[-1] != line:
                    tags.remove(line)
                    tags.append(line)
                out[i] = 1
                continue
            if len(tags) >= l2_ways:
                del tags[0]
            tags.append(line)
            out[i] = 2
        levels = np.frombuffer(out, dtype=np.int8)
        l1_misses = int(np.count_nonzero(levels))
        l2_misses = int(np.count_nonzero(levels == 2))
        l1.hits += accesses - l1_misses
        l1.misses += l1_misses
        l1.evictions += l1_misses - (sum(map(len, l1_sets)) - l1_filled)
        l2.hits += l1_misses - l2_misses
        l2.misses += l2_misses
        l2.evictions += l2_misses - (sum(map(len, l2_sets)) - l2_filled)
        return levels

    def _private_writes(self, lines, core_of, writes):
        """``(written, at, touched, start, holder)`` for a batch's
        written lines, or None when one of them is not private to its
        writer.

        A written line is private when no other core touches it in the
        batch and the directory lists no other core as its holder at
        batch start. The directory lists a superset of the real holders,
        so then no write of the batch can purge another core's copy.
        ``written`` holds the distinct written lines; per access, ``at``
        is its line's index in ``written`` where ``touched`` says it has
        one; per written line, ``start`` is its directory word at batch
        start and ``holder`` its writer's holder bit.
        """
        np = vectorwalk._np
        written = np.sort(lines[writes])
        distinct = np.empty(len(written), dtype=bool)
        distinct[0] = True
        np.not_equal(written[1:], written[:-1], out=distinct[1:])
        written = written[distinct]
        at = np.searchsorted(written, lines)
        np.minimum(at, len(written) - 1, out=at)
        touched = written[at] == lines
        writer = np.empty(len(written), dtype=np.int64)
        writer[at[writes]] = core_of[writes]
        if ((writer[at] != core_of) & touched).any():
            return None  # a written line two cores touch
        start = np.fromiter(
            map(self.directory._lines.get, written.tolist(),
                repeat(0, len(written))),
            dtype=np.int64, count=len(written),
        )
        holder = 1 << (writer + HOLDER_SHIFT)
        if (start & ~(holder | CODE_MASK)).any():
            return None  # another core listed as a holder
        return written, at, touched, start, holder

    def _apply_private_writes(self, private, writes, missed, latencies):
        """Apply a vector-walked batch's writes to the directory.

        ``private`` is :meth:`_private_writes` of the batch. Only the
        writer touches a written line, so the line's word changes only
        at the writer's writes and private misses, in trace order, as
        :meth:`MESIDirectory.write` and ``read`` change it with no other
        holder: a write leaves M, and pays ``upgrade_latency`` when it
        finds the writer's S; a read miss leaves E when it finds no
        word, else S. So a core that re-reads a line only it holds ends
        S, and its next write upgrades. Each written line that changed
        gets the word its last event leaves. That replaces the read
        fill :meth:`_shared_fills` applied to the line's private misses,
        write misses included, which could not forward: no other core
        holds the line.
        """
        np = vectorwalk._np
        written, at, touched, start, holder = private
        events = np.flatnonzero(touched & (writes | missed))
        events = events[np.argsort(at[events], kind="stable")]
        line = at[events]  # grouped by line, trace order within
        wrote = writes[events]  # else a read miss
        first = np.empty(len(events), dtype=bool)
        first[0] = True
        np.not_equal(line[1:], line[:-1], out=first[1:])
        # The state code each event leaves; only a line's first event
        # can find no word.
        left = np.full(len(events), S_CODE, dtype=np.int8)
        left[first & (start == 0)[line]] = E_CODE
        left[wrote] = M_CODE
        # A write finds the writer's S: at its line's first event, a
        # held word in S; later, a previous event that left S.
        shared = np.roll(left, 1) == S_CODE
        shared[first] = ((start != 0) & (start & CODE_MASK == S_CODE))[
            line[first]
        ]
        upgrades = np.flatnonzero(wrote & shared)
        if len(upgrades):
            directory = self.directory
            latencies[events[upgrades]] += directory.upgrade_latency
            directory.stats.upgrades += len(upgrades)
        filled = np.zeros(len(written), dtype=bool)
        filled[line[missed[events]]] = True
        final = holder | left[np.append(first[1:], True)]
        changed = (final != start) | filled
        self.directory._lines.update(
            zip(written[changed].tolist(), final[changed].tolist())
        )

    def _shared_fills(self, lines, bits) -> List[float]:
        """Latencies of private misses, resolved in trace order through
        the shared (list) L3 and the directory's read fill (which
        :meth:`_apply_private_writes` replaces for written lines).

        ``bits`` holds each miss's core as its directory holder bit.
        The read fill is :meth:`MESIDirectory.read` applied inline to
        the line's word: a first reader takes E, any other read ends
        every holder S, and a dirty copy held by another core is
        forwarded cache-to-cache. Forwards (each also a writeback) are
        added to the directory's stats once, at the end.
        """
        cfg = self.config
        l3 = self.l3
        l3_sets, l3_mask, l3_ways = l3._sets, l3._set_mask, l3.ways
        l3_lat = cfg.l3.latency
        dram_lat = cfg.dram_latency
        promote = cfg.replacement == "lru"
        directory = self.directory
        words = directory._lines
        word_of = words.get
        c2c_lat = directory.c2c_latency
        holders_mask = ~CODE_MASK
        hits = misses = evicts = forwards = 0
        out: List[float] = []
        append = out.append
        for line, bit in zip(lines, bits):
            tags = l3_sets[line & l3_mask]
            if line in tags:
                hits += 1
                if promote and tags[-1] != line:
                    tags.remove(line)
                    tags.append(line)
                latency = l3_lat
            else:
                misses += 1
                if len(tags) >= l3_ways:
                    del tags[0]
                    evicts += 1
                tags.append(line)
                latency = dram_lat
            word = word_of(line, 0)
            if not word:
                words[line] = bit | E_CODE
            else:
                shared = (word | bit) & holders_mask
                if shared != word:
                    words[line] = shared
                    if word & CODE_MASK == M_CODE and word != bit | M_CODE:
                        forwards += 1
                        latency += c2c_lat
            append(latency)
        l3.hits += hits
        l3.misses += misses
        l3.evictions += evicts
        self.dram_accesses += misses
        directory.stats.writebacks += forwards
        directory.stats.cache_to_cache += forwards
        return out

    def _walk_lists(
        self, addresses, sizes, is_write, thread
    ) -> List[float]:
        """Inlined trace-ordered walk of the list caches, for every
        machine on any number of cores.

        Every access walks L1 → L2 → L3 on the list caches exactly as
        :meth:`_access_line` does at prefetch degree 0: a miss
        allocates at once (so the scalar path's follow-up ``fill``
        calls are no-ops and evict nothing, which is also why the
        directory never hears an eviction here). With a directory, a
        write first purges the line from the L1/L2 of every other core
        the directory lists as a holder and calls its ``write``, and a
        read that misses L2 applies its read transition inline (as
        :meth:`_shared_fills` does); without one the write bit is
        unobservable. A line-crossing access takes :meth:`access`.

        A machine with a prefetcher, a TLB or random replacement
        resolves only L1 hits here, adding the core's translation on a
        TLB machine; every L1 miss, and with a directory every write,
        takes :meth:`access`, so the streamer table, the TLB and the
        replacement RNG see the scalar event order.

        Hit/miss/eviction counters accumulate locally and are added to
        the caches once, at the end of the batch: they are plain sums
        that nothing reads mid-batch.
        """
        cfg = self.config
        cores = self.cores
        ncores = self.num_cores
        directory = self.directory
        line_bits = self._line_bits
        promote = cfg.replacement == "lru"
        dtlbs = [core.dtlb for core in cores] if cfg.tlb is not None else None
        hand_off = (
            cfg.prefetch_degree != 0 or dtlbs is not None
            or cfg.replacement == "random"
        )
        access = self.access
        l1_lat = cfg.l1.latency
        l2_lat = cfg.l2.latency
        l3_lat = cfg.l3.latency
        dram_lat = cfg.dram_latency
        l1_sets = [core.l1._sets for core in cores]
        l2_sets = [core.l2._sets for core in cores]
        l1_mask, l1_ways = cores[0].l1._set_mask, cores[0].l1.ways
        l2_mask, l2_ways = cores[0].l2._set_mask, cores[0].l2.ways
        l3 = self.l3
        l3_sets, l3_mask, l3_ways = l3._sets, l3._set_mask, l3.ways
        if directory is not None:
            words = directory._lines
            word_of = words.get
            dir_write = directory.write
            c2c_lat = directory.c2c_latency
            holders_mask = ~CODE_MASK
        forwards = 0
        # Per core: L1 hits/misses/evictions, L2 hits/misses/evictions.
        # A latency with no coherence extra is appended as the level's
        # own float (equal to ``latency + 0.0``) rather than a new one
        # per access, which keeps large batches' columns small.
        l1_hits, l1_misses, l1_evicts, l2_hits, l2_misses, l2_evicts = (
            [0] * ncores for _ in range(6)
        )
        l3_hits = l3_misses = l3_evicts = 0
        n = len(addresses)
        writes = is_write if is_write is not None else repeat(0, n)
        threads = thread if thread is not None else repeat(0, n)
        out: List[float] = []
        append = out.append
        prev_line = prev_core = -1
        for address, size, write, t in zip(addresses, sizes, writes, threads):
            core_id = t % ncores
            line = address >> line_bits
            if (address + size - 1) >> line_bits != line:
                append(access(core_id, address, size, write != 0))
                prev_line = -1
                continue
            extra = 0.0
            if write and directory is not None:
                if hand_off:
                    append(access(core_id, address, size, True))
                    prev_line = -1
                    continue
                remote = word_of(line, 0) >> HOLDER_SHIFT & ~(1 << core_id)
                while remote:
                    other = (remote & -remote).bit_length() - 1
                    remote &= remote - 1
                    tags = l1_sets[other][line & l1_mask]
                    if line in tags:
                        tags.remove(line)
                    tags = l2_sets[other][line & l2_mask]
                    if line in tags:
                        tags.remove(line)
                extra = dir_write(core_id, line)
            if line == prev_line and core_id == prev_core:
                # This core's last access touched the same line and
                # left it L1-MRU: a hit whose promotion is a no-op.
                l1_hits[core_id] += 1
                if dtlbs is not None:
                    # A TLB machine hands directory writes off, so
                    # there is no coherence extra to keep; a
                    # single-line access lies in one page.
                    extra = dtlbs[core_id].translate(address)
                append(l1_lat + extra if extra else l1_lat)
                continue
            prev_line = line
            prev_core = core_id
            tags = l1_sets[core_id][line & l1_mask]
            if line in tags:
                l1_hits[core_id] += 1
                if promote and tags[-1] != line:
                    tags.remove(line)
                    tags.append(line)
                if dtlbs is not None:
                    extra = dtlbs[core_id].translate(address)
                append(l1_lat + extra if extra else l1_lat)
                continue
            if hand_off:
                append(access(core_id, address, size, write != 0))
                continue
            l1_misses[core_id] += 1
            if len(tags) >= l1_ways:
                del tags[0]
                l1_evicts[core_id] += 1
            tags.append(line)
            tags = l2_sets[core_id][line & l2_mask]
            if line in tags:
                l2_hits[core_id] += 1
                if promote and tags[-1] != line:
                    tags.remove(line)
                    tags.append(line)
                append(l2_lat + extra if extra else l2_lat)
                continue
            l2_misses[core_id] += 1
            if len(tags) >= l2_ways:
                del tags[0]
                l2_evicts[core_id] += 1
            tags.append(line)
            tags = l3_sets[line & l3_mask]
            if line in tags:
                l3_hits += 1
                if promote and tags[-1] != line:
                    tags.remove(line)
                    tags.append(line)
                latency = l3_lat
            else:
                l3_misses += 1
                if len(tags) >= l3_ways:
                    del tags[0]
                    l3_evicts += 1
                tags.append(line)
                latency = dram_lat
            if directory is not None and not write:
                # MESIDirectory.read, inline (see _shared_fills).
                bit = 1 << (core_id + HOLDER_SHIFT)
                word = word_of(line, 0)
                if not word:
                    words[line] = bit | E_CODE
                else:
                    shared = (word | bit) & holders_mask
                    if shared != word:
                        words[line] = shared
                        if word & CODE_MASK == M_CODE and word != bit | M_CODE:
                            forwards += 1
                            extra = c2c_lat
            append(latency + extra if extra else latency)
        for c, core in enumerate(cores):
            core.l1.hits += l1_hits[c]
            core.l1.misses += l1_misses[c]
            core.l1.evictions += l1_evicts[c]
            core.l2.hits += l2_hits[c]
            core.l2.misses += l2_misses[c]
            core.l2.evictions += l2_evicts[c]
        l3.hits += l3_hits
        l3.misses += l3_misses
        l3.evictions += l3_evicts
        self.dram_accesses += l3_misses
        if forwards:
            directory.stats.writebacks += forwards
            directory.stats.cache_to_cache += forwards
        return out

    # -- vector-path state management ---------------------------------------

    def _promote_to_vector(self) -> None:
        """Convert the private caches to tag arrays, once, on a machine
        whose caches are all lists; a multi-core machine's core that
        turns out too dense for the chunked walk converts its own back
        (:meth:`_walk_core`).

        A single-core machine's L3 is its one core's too and joins
        them, with the walk memo. A shared L3 stays a list cache: as tag
        arrays the 20 MB L3 of a 4-core run raised peak RSS by a
        quarter, and only private misses reach it. Promoting it anyway
        and folding :meth:`_shared_fills`' read fill into numpy was
        measured a dead end: byte-identical, even though every shared-L3
        stream is one duplicate-free chunk, but no faster (CLOMP's shared
        fills took 0.14-0.17 s per cycle, against 0.08-0.13 s) and about
        22 MB more peak RSS on ``table3-coherent`` (docs/performance.md,
        "The shared L3 as tag arrays").
        """
        from . import memo

        for core in self.cores:
            core.l1 = vectorwalk.TagArrayCache(core.l1)
            core.l2 = vectorwalk.TagArrayCache(core.l2)
        if self.num_cores == 1:
            self.l3 = vectorwalk.TagArrayCache(self.l3)
            self._walk_memo = memo.WalkMemo()
        self._vector_state = 1

    def _demote_from_vector(self) -> None:
        """Send a promoted multi-core machine to list caches for good,
        converting the private caches of every core still promoted
        (a dense core's are lists already).

        The conversion preserves state exactly, so results do not
        change — only speed does.
        """
        for core in self.cores:
            if isinstance(core.l1, vectorwalk.TagArrayCache):
                core.l1 = core.l1.to_list_cache()
                core.l2 = core.l2.to_list_cache()
        self._vector_state = -1

    @property
    def invalidations(self) -> int:
        if self.directory is None:
            return 0
        return self.directory.stats.invalidations

    def line_invalidations(self) -> Dict[int, int]:
        """``{line: invalidation count}`` observed by the directory."""
        if self.directory is None:
            return {}
        return dict(self.directory.stats.line_invalidations)

    # -- telemetry ---------------------------------------------------------

    def export_metrics(self, registry) -> None:
        """Register this run's hardware-style counters with a
        :class:`repro.telemetry.MetricsRegistry` (or the no-op one).

        Counter totals accumulate across every run exported into the
        same registry — the pipeline-wide totals the telemetry session
        reports.  Names follow the ``repro_memsim_*`` convention in
        docs/observability.md.
        """
        per_level = {
            "L1": [(c.l1.hits, c.l1.misses, c.l1.evictions) for c in self.cores],
            "L2": [(c.l2.hits, c.l2.misses, c.l2.evictions) for c in self.cores],
            "L3": [(self.l3.hits, self.l3.misses, self.l3.evictions)],
        }
        for level, stats in per_level.items():
            registry.counter(
                "repro_memsim_cache_hits_total",
                help="cache hits by level", level=level,
            ).add(sum(s[0] for s in stats))
            registry.counter(
                "repro_memsim_cache_misses_total",
                help="cache misses by level", level=level,
            ).add(sum(s[1] for s in stats))
            registry.counter(
                "repro_memsim_cache_evictions_total",
                help="cache evictions by level", level=level,
            ).add(sum(s[2] for s in stats))
        registry.counter(
            "repro_memsim_dram_accesses_total", help="DRAM line fetches",
        ).add(self.dram_accesses)
        if self._walk_memo is not None:
            memo = self._walk_memo
            registry.counter(
                "repro_memsim_walk_memo_hits_total",
                help="batch walks replayed from the steady-state memo",
            ).add(memo.hits)
            registry.counter(
                "repro_memsim_walk_memo_misses_total",
                help="batch walks with no usable memo entry",
            ).add(memo.misses)
            registry.counter(
                "repro_memsim_walk_memo_stale_total",
                help="memo entries whose touched sets no longer match in "
                "tags, empty ways or recency order",
            ).add(memo.stale)
            registry.counter(
                "repro_memsim_walk_memo_trusted_total",
                help="memo hits applied without a fingerprint check: an "
                "immediate repeat of a fixed-point entry",
            ).add(memo.trusted)
            registry.gauge(
                "repro_memsim_walk_memo_bytes",
                help="array bytes held by the memo's entries",
            ).set(memo.nbytes())
        for path, count in self.walk_accesses().items():
            registry.counter(
                "repro_memsim_walk_accesses_total",
                help="accesses simulated per walk path", path=path,
            ).add(count)
        for path, count in self._walk_batches.items():
            registry.counter(
                "repro_memsim_walk_batches_total",
                help="access batches walked per walk path", path=path,
            ).add(count)
            registry.counter(
                "repro_memsim_walk_seconds_total",
                help="host seconds spent per batched walk path",
                path=path,
            ).add(self._walk_seconds[path])
        registry.counter(
            "repro_memsim_prefetch_issued_total",
            help="L2 streamer prefetches issued",
        ).add(sum(c.prefetcher.issued for c in self.cores))
        registry.counter(
            "repro_memsim_prefetch_useful_total",
            help="prefetched lines later hit by a demand access",
        ).add(sum(c.prefetch_useful for c in self.cores))
        registry.counter(
            "repro_memsim_coherence_invalidations_total",
            help="MESI invalidations sent to remote private caches",
        ).add(self.invalidations)
        if self.directory is not None:
            registry.counter(
                "repro_memsim_coherence_writebacks_total",
                help="dirty lines written back on remote request",
            ).add(self.directory.stats.writebacks)
            registry.counter(
                "repro_memsim_coherence_cache_to_cache_total",
                help="dirty lines forwarded cache-to-cache",
            ).add(self.directory.stats.cache_to_cache)

    # -- statistics --------------------------------------------------------

    def l1_misses(self) -> int:
        return sum(c.l1.misses for c in self.cores)

    def l2_misses(self) -> int:
        return sum(c.l2.misses for c in self.cores)

    def l3_misses(self) -> int:
        return self.l3.misses

    def miss_summary(self) -> Dict[str, int]:
        summary = {
            "l1_misses": self.l1_misses(),
            "l2_misses": self.l2_misses(),
            "l3_misses": self.l3_misses(),
            "dram_accesses": self.dram_accesses,
            "invalidations": self.invalidations,
        }
        if self.directory is not None:
            summary["writebacks"] = self.directory.stats.writebacks
            summary["cache_to_cache"] = self.directory.stats.cache_to_cache
            summary["upgrades"] = self.directory.stats.upgrades
        if self.config.tlb is not None:
            summary["dtlb_misses"] = sum(
                c.dtlb.l1_misses for c in self.cores if c.dtlb is not None
            )
            summary["page_walks"] = sum(
                c.dtlb.walks for c in self.cores if c.dtlb is not None
            )
        return summary
