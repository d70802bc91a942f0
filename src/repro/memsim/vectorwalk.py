"""Vectorized set-associative walk over whole access batches.

The columnar engine (PR 4) left ``MemoryHierarchy.access_batch`` as a
tight Python loop — ~1.2us per access, ~96% of end-to-end time on the
paper-scale runs. This module moves the L1→L2→L3 LRU/FIFO walk onto
numpy arrays so a whole :class:`repro.program.batch.AccessBatch` is
simulated with a handful of array operations per level instead of a
Python iteration per access.

Representation
--------------
:class:`TagArrayCache` mirrors :class:`~repro.memsim.cache.
SetAssociativeCache` with two ``(num_sets, ways)`` int64 matrices:

- ``tags`` — resident line per way, ``-1`` for an empty way;
- ``stamps`` — a monotone recency clock, ``0`` for an empty way.

Recency order inside a set is exactly the stamp order, so the list
cache's "least recent first" invariant maps to ``argmin(stamps)`` as
the victim (empty ways, stamp 0, are chosen before any resident line —
the same "append until full" behaviour as the list). LRU restamps on
hit; FIFO does not; ``random`` stays on the list representation because
its victim choice must replay the RNG draw sequence exactly.

The batch walk
--------------
Per batch (after splitting at line-crossing accesses):

1. **Run-length dedup**: an access to the line touched immediately
   before it is a guaranteed L1 MRU hit (the head of the run left it
   most recent and nothing intervened), so only run heads walk the
   hierarchy; tails just bump the L1 hit counter.
2. **Level by level**: the L1 walks the deduped stream, and each
   lower level the misses of the level above, in trace order; a
   level's state depends on its own stream alone.
3. **Duplicate chunks**: a level's stream is cut before every access
   whose line already appeared in the current chunk, so each chunk
   touches pairwise-distinct lines. A stream that needs more than
   ``CUT_CAP`` chunks (short re-use distances) takes the **row walk**
   at that level: its touched rows come out once as Python lists and
   the stream walks them access by access (:func:`_row_walk`). Below
   a level that chunks every level chunks (a subsequence of a
   chunkable stream is chunkable), and a dense stream's misses mostly
   chunk too: on the benchmark programs only the L1 row-walks.
4. Per level and chunk, one gather (``tags[set_of_access]``) and
   compare gives every access's hit/miss against the level's
   *chunk-entry* state. Sets are then classified:

   - **safe-hit** sets saw only hits: the set's contents never change,
     so the initial probe is exact; LRU restamps scatter in one write.
   - **safe-miss** sets saw only misses: no access can observe
     another's effect except through eviction pressure, and the final
     contents are arithmetically the newest ``ways`` entries of (old
     residents ∪ arrivals), with ``max(0, occupied + arrivals - ways)``
     evictions.
   - **mixed** sets (hits *and* misses) resolve arithmetically too:
     probe-misses are definite misses (a distinct line absent at chunk
     entry cannot appear mid-chunk), while each probe-hit — a
     *suspect* — may have been evicted by earlier arrivals before its
     access. Victims always leave in stamp order, so a suspect at rank
     ``r`` among the set's old lines survives ``E`` evictions iff
     ``r - A >= E`` (``A`` = older lines already re-stamped by earlier
     suspect hits, LRU only). At most ``ways`` suspects exist per set,
     so all sets resolve in lockstep rounds (:func:`_resolve_mixed`).

5. The deepest level each access reached indexes a latency LUT.

Every counter (hits/misses/evictions per level, DRAM fetches) and every
latency is byte-identical to the scalar walk — asserted by the
engine-parity suites.

The multi-core machine reuses :func:`cascade` on each core's private
L1/L2 alone (see ``MemoryHierarchy._walk_multicore``). It cuts a
batch at its line-crossing accesses and its accesses to written lines
that are not private to one core, which take the scalar path in
order, as a line-crossing access does here; in the segments between
them every written line is private to one core, so a write walks the
private levels as a read does. The shared L3 stays a list cache. A
core whose :func:`plan` has no chunk bounds turns its own L1/L2 back
into list caches for good and walks its deduped stream on them, access
by access, while the other cores keep the cascade. A batch whose cut
accesses form more than ``CUT_CAP`` runs takes the list walk, and
every core still on tag arrays turns back to list caches for good; the
per-core walk then takes later batches on those lists. So the
multi-core machine never row-walks: only the single-core machine
does.

numpy is an *optional* dependency: without it ``HAVE_NUMPY`` is False
and every LRU/FIFO machine walks its list caches
(``MemoryHierarchy._walk_lists``).
"""

from __future__ import annotations

from typing import Optional

try:  # pragma: no cover - exercised by whichever env this runs in
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None


def as_column(values):
    """``values`` (array('q'), ndarray, or any int sequence) as int64."""
    if isinstance(values, _np.ndarray):
        return values
    try:
        # array('q') exposes the buffer protocol: zero-copy view.
        return _np.frombuffer(values, dtype=_np.int64)
    except (TypeError, ValueError):
        return _np.asarray(values, dtype=_np.int64)


class TagArrayCache:
    """Array-backed cache level.

    Built *from* a :class:`SetAssociativeCache` (promotion) and
    convertible back (:meth:`to_list_cache`), preserving
    recency order and counters exactly in both directions. It serves
    the part of the list cache's protocol a promoted machine's scalar
    :meth:`~repro.memsim.hierarchy.MemoryHierarchy.access` uses.
    """

    __slots__ = (
        "policy",
        "name",
        "size_bytes",
        "ways",
        "line_size",
        "num_sets",
        "_set_mask",
        "tags",
        "stamps",
        "clock",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, source) -> None:
        self.policy = source.policy
        self.name = source.name
        self.size_bytes = source.size_bytes
        self.ways = source.ways
        self.line_size = source.line_size
        self.num_sets = source.num_sets
        self._set_mask = source._set_mask
        self.tags = _np.full((self.num_sets, self.ways), -1, dtype=_np.int64)
        self.stamps = _np.zeros((self.num_sets, self.ways), dtype=_np.int64)
        for set_index, resident in enumerate(source._sets):
            for way, line in enumerate(resident):
                self.tags[set_index, way] = line
                self.stamps[set_index, way] = way + 1
        self.clock = self.ways  # next stamp handed out is clock + 1
        self.hits = source.hits
        self.misses = source.misses
        self.evictions = source.evictions

    def to_list_cache(self):
        """The equivalent :class:`SetAssociativeCache`."""
        from .cache import SetAssociativeCache

        cache = SetAssociativeCache(
            self.name, self.size_bytes, self.ways, self.line_size,
            policy=self.policy,
        )
        np = _np
        occupied = np.flatnonzero((self.stamps > 0).any(axis=1))
        stamps = self.stamps[occupied]
        # Empty ways (stamp 0) sort first; each set keeps its last
        # ``resident`` ways, least recent first.
        order = np.argsort(stamps, axis=1, kind="stable")
        rows = np.take_along_axis(self.tags[occupied], order, axis=1)
        resident = (stamps > 0).sum(axis=1)
        ways = self.ways
        for set_index, row, count in zip(
            occupied.tolist(), rows.tolist(), resident.tolist()
        ):
            cache._sets[set_index] = row[ways - count:]
        cache.hits = self.hits
        cache.misses = self.misses
        cache.evictions = self.evictions
        return cache

    # -- scalar operations (split accesses, invalidations) ---------------

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit. Misses allocate."""
        set_index = line & self._set_mask
        row = self.tags[set_index]
        stamps = self.stamps[set_index]
        way = int((row == line).argmax())
        if row[way] == line:
            self.hits += 1
            if self.policy == "lru":
                self.clock += 1
                stamps[way] = self.clock
            return True
        self.misses += 1
        victim = int(stamps.argmin())
        if stamps[victim] > 0:
            self.evictions += 1
        row[victim] = line
        self.clock += 1
        stamps[victim] = self.clock
        return False

    def fill(self, line: int) -> Optional[int]:
        """Install ``line`` without counting a hit/miss."""
        set_index = line & self._set_mask
        row = self.tags[set_index]
        stamps = self.stamps[set_index]
        way = int((row == line).argmax())
        if row[way] == line:
            return None
        victim = int(stamps.argmin())
        evicted = None
        if stamps[victim] > 0:
            evicted = int(row[victim])
            self.evictions += 1
        row[victim] = line
        self.clock += 1
        stamps[victim] = self.clock
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; returns True if it was."""
        set_index = line & self._set_mask
        row = self.tags[set_index]
        way = int((row == line).argmax())
        if row[way] != line:
            return False
        row[way] = -1
        self.stamps[set_index, way] = 0
        return True

    def __repr__(self) -> str:
        return (
            f"TagArrayCache({self.name}, {self.size_bytes // 1024}KB, "
            f"{self.ways}-way, sets={self.num_sets})"
        )


# ---------------------------------------------------------------------------
# The batched walk
# ---------------------------------------------------------------------------


def walk_batch(hier, addresses, sizes, is_write=None):
    """Latency column for one batch on a vector-promoted hierarchy.

    Byte-identical to per-access :meth:`MemoryHierarchy.access` on the
    single-core simple machine. Line-crossing accesses segment the
    batch and take the scalar path (on the same array-backed caches)
    in order, with their real write bit.
    """
    np = _np
    cfg = hier.config
    core = hier.cores[0]
    caches = (core.l1, core.l2, hier.l3)
    line_bits = hier._line_bits
    address = as_column(addresses)
    size = as_column(sizes)
    n = len(address)
    latencies = np.empty(n, dtype=np.float64)
    if n == 0:
        return latencies
    lut = np.array(
        [cfg.l1.latency, cfg.l2.latency, cfg.l3.latency, cfg.dram_latency],
        dtype=np.float64,
    )
    first = address >> line_bits
    last = (address + size - 1) >> line_bits
    if (first == last).all():
        _walk_segment(caches, hier, first, latencies, lut)
        return latencies
    split_positions = np.flatnonzero(first != last)
    access = hier.access
    start = 0
    for i in split_positions.tolist():
        if i > start:
            _walk_segment(
                caches, hier, first[start:i], latencies[start:i], lut
            )
        write = bool(is_write[i]) if is_write is not None else False
        latencies[i] = access(0, int(address[i]), int(size[i]), write)
        start = i + 1
    if start < n:
        _walk_segment(caches, hier, first[start:], latencies[start:], lut)
    return latencies


def _walk_segment(caches, hier, lines, latencies_out, lut):
    """Walk one split-free segment through L1/L2/L3; latencies and the
    DRAM fetch count go to the caller's column and hierarchy."""
    levels = _np.zeros(len(lines), dtype=_np.intp)
    cascade(caches, lines, plan(lines), levels)
    hier.dram_accesses += int(_np.count_nonzero(levels == len(caches)))
    latencies_out[:] = lut[levels]


#: A level whose stream would fragment into more than this many
#: duplicate-free chunks walks it access by access (:func:`_row_walk`).
CUT_CAP = 64


def plan(lines):
    """``(positions, stream, bounds)`` for one split-free segment.

    ``positions`` are the run heads (an access to a different line than
    the one before it), ``stream`` their lines, and ``bounds`` the end
    offsets of the duplicate-free chunks :func:`cascade` cuts the
    stream into, or None when it needs more than ``CUT_CAP`` of them
    (the row walk's case). The plan depends only on the line column,
    so a caller can route a segment on it before touching any cache.
    """
    positions, stream = run_heads(lines)
    return positions, stream, _chunk_bounds(stream)


def run_heads(lines):
    """``(positions, stream)`` of :func:`plan`: the run heads of a
    non-empty line column and their lines."""
    np = _np
    m = len(lines)
    heads = np.empty(m, dtype=bool)
    heads[0] = True
    np.not_equal(lines[1:], lines[:-1], out=heads[1:])
    positions = np.flatnonzero(heads)
    stream = lines if len(positions) == m else lines[positions]
    return positions, stream


def cascade(caches, lines, planned, levels):
    """Walk one split-free segment through ``caches`` in place.

    ``planned`` is :func:`plan` of ``lines``. Records each access's
    deepest level in ``levels`` (zeros on entry): ``d`` when
    ``caches[d]`` hit, ``len(caches)`` when every level missed.

    Run tails (same line as the immediately preceding access, which
    left it L1-MRU) are guaranteed hits whose promotion is a no-op, so
    only the deduped stream walks. It walks level by level, each level
    its own stream: the deduped stream at the L1, the misses of the
    level above below it, in trace order with segment-wide positions.
    A stream with chunk bounds walks chunk by chunk: each chunk touches
    pairwise-distinct lines, so the level needs no order-dependent
    replay, and chunks execute sequentially on the same arrays (every
    level keeps ``base = clock + 1``), so the chop is invisible to the
    result. A stream with no bounds (a line re-accessed every few steps
    at distance the run-length dedup cannot see) takes the row walk.
    Below the L1 a level cuts its own stream, unless the level above
    missed everywhere (the same stream, so the same cuts) or walked one
    chunk (a subsequence of one chunk is one chunk).
    """
    np = _np
    positions, stream, bounds = planned
    m = len(lines)
    caches[0].hits += m - len(positions)
    for depth, cache in enumerate(caches):
        if bounds is None:
            miss = _row_walk(cache, stream, positions)
        else:
            miss = np.empty(len(stream), dtype=bool)
            start = 0
            for end in bounds:
                miss[start:end] = _touch_level(
                    cache, stream[start:end], positions[start:end]
                )
                start = end
        if not miss.all():
            positions = positions[miss]
            if not len(positions):
                break
            stream = stream[miss]
            if depth + 1 < len(caches):
                one = bounds is not None and len(bounds) == 1
                bounds = [len(stream)] if one else _chunk_bounds(stream)
        levels[positions] = depth + 1
    for cache in caches:
        # Stamps issued this segment were clock + 1 + position.
        cache.clock += m


def _chunk_bounds(stream):
    """End offsets of the duplicate-free chunks ``stream`` splits into,
    or None when it needs more than ``CUT_CAP`` of them."""
    np = _np
    n = len(stream)
    # prev[i] = index of the previous access to stream[i]'s line, -1
    # for first occurrences (stable sort groups equal lines in trace
    # order).
    order = np.argsort(stream, kind="stable")
    sorted_lines = stream[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    if not same.any():
        return [n]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    dup_positions = np.sort(order[1:][same])
    bounds = []
    start = 0
    vi = 0
    while vi < len(dup_positions):
        rel = np.flatnonzero(prev[dup_positions[vi:]] >= start)
        if not len(rel):
            break
        vi += int(rel[0])
        start = int(dup_positions[vi])
        bounds.append(start)
        if len(bounds) == CUT_CAP:
            return None
        vi += 1
    bounds.append(n)
    return bounds


def _row_walk(cache, stream, positions):
    """Walk a duplicate-dense stream through one level access by
    access; returns the miss mask.

    The level's rows for the sets the stream sees are pulled out once
    as Python lists. A hit takes the first matching way (as ``argmax``
    does), a miss evicts the first minimum-stamp way (as ``argmin``
    does), and stamps are ``clock + 1 + position``, exactly as the
    chunked walk issues them. The touched rows are written back in
    ascending-stamp order, empty ways first: the layout
    :func:`_bulk_insert_grouped` leaves, so the walk memo's fingerprint
    of a row the row walk wrote last needs no permutation.
    """
    np = _np
    set_of = stream & cache._set_mask
    sets = np.unique(set_of)
    rows = {
        s: (tags, stamps)
        for s, tags, stamps in zip(
            sets.tolist(), cache.tags[sets].tolist(),
            cache.stamps[sets].tolist(),
        )
    }
    promote = cache.policy == "lru"
    evictions = 0
    missed = []
    for line, s, stamp in zip(
        stream.tolist(), set_of.tolist(),
        (positions + (cache.clock + 1)).tolist(),
    ):
        tags, stamps = rows[s]
        if line in tags:
            if promote:
                stamps[tags.index(line)] = stamp
            missed.append(False)
            continue
        oldest = min(stamps)
        victim = stamps.index(oldest)
        if oldest > 0:
            evictions += 1
        tags[victim] = line
        stamps[victim] = stamp
        missed.append(True)
    miss = np.array(missed, dtype=bool)
    misses = int(np.count_nonzero(miss))
    cache.hits += len(missed) - misses
    cache.misses += misses
    cache.evictions += evictions
    new_tags = np.array([row[0] for row in rows.values()], dtype=np.int64)
    new_stamps = np.array([row[1] for row in rows.values()], dtype=np.int64)
    by_age = np.argsort(new_stamps, axis=1, kind="stable")
    cache.tags[sets] = np.take_along_axis(new_tags, by_age, axis=1)
    cache.stamps[sets] = np.take_along_axis(new_stamps, by_age, axis=1)
    return miss


def _touch_level(cache, stream, positions):
    """Probe and update one level for every access that reached it.

    Returns the miss mask; updates the cache's tags/stamps and
    hit/miss/eviction counters exactly as a per-access walk in trace
    order would. The chunk's lines are pairwise distinct (the cascade
    pre-chops on duplicates), so no access can observe another's
    effect except through eviction pressure.

    Accesses are grouped by set with a single stable argsort; group
    boundaries come from an adjacent-difference scan, so hit-only
    groups (contents never change — restamp and done), miss-only
    groups (arithmetic merge via bulk insert), and mixed groups (the
    suspect-queue resolution) are classified without per-set scatter
    tables, and both the mixed resolution and the final insertion
    reuse the same grouped order instead of re-sorting. Whole-chunk
    all-hit / all-miss cases (the common steady state for L3 and for
    cold sweeps) short-circuit before any sorting happens.
    """
    np = _np
    tags = cache.tags
    stamps = cache.stamps
    mask = cache._set_mask
    ways = cache.ways
    base = cache.clock + 1
    promote = cache.policy == "lru"
    n = len(stream)
    set_of = stream & mask
    rows = tags[set_of]
    eq = rows == stream[:, None]
    resident = eq.any(axis=1)
    nhit = int(resident.sum())

    if nhit == n:
        # Every access hits: contents never change, only recency does.
        cache.hits += n
        if promote:
            flat = set_of * ways + eq.argmax(axis=1)
            stamps.reshape(-1)[flat] = base + positions
        return np.zeros(n, dtype=bool)
    if nhit == 0:
        # Every access misses: with distinct lines every set is a pure
        # arithmetic merge.
        cache.misses += n
        _bulk_insert(cache, stream, set_of, base + positions)
        return np.ones(n, dtype=bool)

    order = np.argsort(set_of, kind="stable")  # trace order per set
    so = set_of[order]
    ro = resident[order]
    gb = np.empty(n, dtype=bool)
    gb[0] = True
    np.not_equal(so[1:], so[:-1], out=gb[1:])
    starts = np.flatnonzero(gb)
    counts = np.diff(np.append(starts, n))
    gidx = np.cumsum(gb) - 1  # group index per grouped element
    csum = np.cumsum(ro)
    ghits = csum[starts + counts - 1] - csum[starts] + ro[starts]
    mixedg = (ghits > 0) & (ghits < counts)

    lost = 0
    if mixedg.any():
        lost = _resolve_mixed(
            cache, stream, positions, eq, resident, order, so, ro,
            starts, counts, gidx, ghits, csum, mixedg, base, promote,
        )

    if promote:
        fullhit = ghits == counts
        if fullhit.any():
            el = np.flatnonzero(fullhit[gidx])
            orig = order[el]
            flat = so[el] * ways + eq[orig].argmax(axis=1)
            stamps.reshape(-1)[flat] = base + positions[orig]

    # Arrivals: definite misses plus evicted suspects, already grouped
    # by set (a masked subsequence of a sorted array stays sorted).
    ins = np.flatnonzero(~ro)
    orig = order[ins]
    _bulk_insert_grouped(
        cache, stream[orig], so[ins], base + positions[orig]
    )

    hit_count = nhit - lost  # probe-hits minus evicted suspects
    cache.hits += hit_count
    cache.misses += n - hit_count
    return ~resident


def _resolve_mixed(cache, stream, positions, eq, resident, order, so, ro,
                   starts, counts, gidx, ghits, csum, mixedg, base, promote):
    """Arithmetic resolution for sets mixing hits and misses.

    Operates on the fast path's grouped view: ``order`` sorts accesses
    by set (trace order within a set), ``starts``/``counts``/``gidx``
    describe the groups, ``ghits``/``csum`` count probe-hits, and
    ``mixedg`` flags the groups to resolve. Lines are pairwise
    distinct. Probe-misses are definite misses: a line absent at batch
    entry cannot be installed by any earlier access, so it misses
    whenever it is reached. Probe-hits are *suspects*: arrivals may
    have evicted them before their access. Victims always leave a set
    oldest-first, so suspect ``t`` of a set survives iff

        rank_t - A_t >= E_t

    where ``rank_t`` is the line's 0-based position among the set's
    old lines by stamp, ``E_t = max(0, misses_before_t - free_ways)``
    is the eviction count when it is reached, and ``A_t`` counts older
    lines already restamped by earlier suspect hits (LRU only; FIFO
    never restamps, ``A = 0``). Each set holds at most ``ways``
    suspects, so every mixed set resolves in lockstep rounds of one
    vector op each.

    Updates ``resident`` (original order) and ``ro`` (grouped order)
    in place for missed suspects, restamps hit suspects (LRU), clears
    evicted suspects' slots so the caller's merged bulk insert
    re-installs them, and accounts the extra evictions the mid-segment
    re-fetches cause beyond what that merge will count.
    """
    np = _np
    tags = cache.tags
    stamps = cache.stamps
    ways = cache.ways
    mel = mixedg[gidx]
    sidx = np.flatnonzero(ro & mel)  # suspects, grouped, trace order
    gof = gidx[sidx]
    # Exclusive per-group running counts at each suspect: hits seen
    # before it (its lockstep slot) and definite misses before it.
    gstart_excl = csum[starts] - ro[starts]
    slot = csum[sidx] - 1 - gstart_excl[gof]
    def_before = sidx - starts[gof] - slot

    gcomp = np.cumsum(mixedg) - 1  # compact ids for mixed groups only
    sus_group = gcomp[gof]
    groups = int(mixedg.sum())
    sus_counts = ghits[mixedg]  # in a mixed group every hit is a suspect
    rounds = int(sus_counts.max())

    spos = order[sidx]
    sus_set = so[sidx]
    sus_way = eq[spos].argmax(axis=1)
    # Rank every way within its set once (suspects in a set share the
    # row), rather than gathering the set's stamps per suspect.
    sstamps = stamps[so[starts[mixedg]]]  # (groups, ways)
    rank_of_way = (
        (sstamps[:, None, :] > 0)
        & (sstamps[:, None, :] < sstamps[:, :, None])
    ).sum(axis=2)
    sus_rank = rank_of_way[sus_group, sus_way]

    occupied = (sstamps > 0).sum(axis=1)
    free = ways - occupied
    miss_base = np.zeros((groups, rounds), dtype=np.int64)
    miss_base[sus_group, slot] = def_before
    # Fold the round number and free-way credit in up front so the
    # lockstep body subtracts one running counter per round.
    miss_base += np.arange(rounds) - free[:, None]
    rank = np.zeros((groups, rounds), dtype=np.int64)
    rank[sus_group, slot] = sus_rank

    # No-hit shortcut. Assume every suspect misses, evaluate each
    # round's eviction pressure under that assumption, and test that
    # the assumed outcome is self-consistent at every round: by
    # induction over rounds a consistent assumption IS the true outcome
    # (round t's pressure only depends on rounds < t, which the
    # assumption fixes). Steady-state workloads nearly always land
    # here, skipping the sequential loop.
    valid = np.arange(rounds) < sus_counts[:, None]
    hits_so_far = np.zeros(groups, dtype=np.int64)
    if ((rank < np.maximum(miss_base, 0)) | ~valid).all():
        # No hits: hits_so_far stays 0, restamps never happen (A = 0).
        sus_hit = np.zeros(len(sidx), dtype=bool)
    else:
        hit = np.zeros((groups, rounds), dtype=bool)
        adj = np.zeros((groups, rounds), dtype=np.int64)
        for t in range(rounds):
            rank_t = rank[:, t]
            evictions = miss_base[:, t] - hits_so_far
            np.maximum(evictions, 0, out=evictions)
            if promote:
                round_hit = rank_t - adj[:, t] >= evictions
            else:
                round_hit = rank_t >= evictions
            round_hit &= sus_counts > t
            hit[:, t] = round_hit
            hits_so_far += round_hit
            if promote and t + 1 < rounds:
                # A hit this round restamps its line to MRU: every
                # later suspect whose old rank was above it slides
                # down one.
                adj[:, t + 1:] += (
                    round_hit[:, None] & (rank_t[:, None] < rank[:, t + 1:])
                )
        sus_hit = hit[sus_group, slot]
    resident[spos] = sus_hit
    ro[sidx] = sus_hit
    flat_ways = sus_set * ways + sus_way
    if promote and sus_hit.any():
        # LRU: surviving suspects restamp to their access position.
        stamps.reshape(-1)[flat_ways[sus_hit]] = (
            base + positions[spos[sus_hit]]
        )
    evicted = ~sus_hit
    if evicted.any():
        # Evicted suspects left mid-segment; their access re-fetches
        # the line as an arrival, so drop the stale old slot first.
        gone = flat_ways[evicted]
        tags.reshape(-1)[gone] = -1
        stamps.reshape(-1)[gone] = 0

    # The caller's merged insert counts max(0, occupied' + arrivals -
    # ways) per set with the evicted suspects' slots already cleared
    # and re-arriving, which undercounts the true max(0, occupied +
    # misses - ways) by exactly the re-fetch overflow; add the
    # difference.
    definite = counts[mixedg] - sus_counts
    refetched = sus_counts - hits_so_far
    true_ev = np.maximum(occupied + definite + refetched - ways, 0)
    bulk_ev = np.maximum(occupied + definite - ways, 0)
    cache.evictions += int((true_ev - bulk_ev).sum())
    return int(refetched.sum())


def _bulk_insert(cache, lines, set_of, new_stamps):
    """Sort arrivals by set and hand them to the grouped insert."""
    np = _np
    order = np.argsort(set_of, kind="stable")  # stable: keeps trace order
    _bulk_insert_grouped(
        cache, lines[order], set_of[order], new_stamps[order]
    )


def _bulk_insert_grouped(cache, grouped_lines, grouped_sets, grouped_stamps):
    """Install distinct missing lines into hit-free sets, vectorized.

    Input arrays arrive grouped by set, trace order within each group.
    Within such a set the final contents are the newest ``ways`` of
    (old residents ∪ arrivals) by stamp, because arrivals only ever
    evict the current oldest entry; evictions number
    ``max(0, occupied + arrivals - ways)``.
    """
    np = _np
    ways = cache.ways
    k = len(grouped_sets)
    gb = np.empty(k, dtype=bool)
    gb[0] = True
    np.not_equal(grouped_sets[1:], grouped_sets[:-1], out=gb[1:])
    group_start = np.flatnonzero(gb)
    group_count = np.diff(np.append(group_start, k))
    uniq_sets = grouped_sets[group_start]

    # When every set receives >= ways arrivals whose first arrival
    # already outstamps every current resident, each set keeps exactly
    # its newest `ways` arrivals — the old contents (and older
    # arrivals) are irrelevant. Thrashing sweeps take this direct path;
    # any other chunk takes the general merge below, which computes the
    # same result for such a set. The stamp guard matters: a hit earlier
    # in the chunk restamps a resident, which can make it newer than the
    # set's early arrivals.
    if (group_count >= ways).all():
        old_stamps = cache.stamps[uniq_sets]
        if (old_stamps.max(axis=1) < grouped_stamps[group_start]).all():
            group_end = group_start + group_count
            idx2d = group_end[:, None] - ways + np.arange(ways)
            cache.evictions += int(
                ((old_stamps > 0).sum(axis=1) + group_count - ways).sum()
            )
            cache.tags[uniq_sets] = grouped_lines[idx2d]
            cache.stamps[uniq_sets] = grouped_stamps[idx2d]
            return
    num_groups = len(uniq_sets)
    # Rank every arrival from its group's end: rank 0 is the newest.
    # Only the newest `ways` arrivals of a set can survive it.
    group_end = np.repeat(group_start + group_count, group_count)
    rank = group_end - 1 - np.arange(len(grouped_sets))
    keep = rank < ways
    group_row = np.repeat(np.arange(num_groups), group_count)[keep]
    column = ways - 1 - rank[keep]

    candidate_tags = np.full((num_groups, 2 * ways), -1, dtype=np.int64)
    candidate_stamps = np.zeros((num_groups, 2 * ways), dtype=np.int64)
    candidate_tags[:, :ways] = cache.tags[uniq_sets]
    candidate_stamps[:, :ways] = cache.stamps[uniq_sets]
    candidate_tags[group_row, ways + column] = grouped_lines[keep]
    candidate_stamps[group_row, ways + column] = grouped_stamps[keep]

    occupied = (candidate_stamps[:, :ways] > 0).sum(axis=1)
    overflow = occupied + group_count - ways
    cache.evictions += int(overflow[overflow > 0].sum())

    survivors = np.argsort(candidate_stamps, axis=1)[:, -ways:]
    new_tags = np.take_along_axis(candidate_tags, survivors, axis=1)
    kept_stamps = np.take_along_axis(candidate_stamps, survivors, axis=1)
    new_tags[kept_stamps == 0] = -1  # padding slots selected when underfull
    cache.tags[uniq_sets] = new_tags
    cache.stamps[uniq_sets] = kept_stamps
