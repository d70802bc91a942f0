"""Steady-state memoization of repeated vector batch walks.

Loop-dominated workloads hand the simulator the *same* access batch
over and over: the interpreter's batch cache re-emits one column object
per loop body, and at paper scale most chunks are exact repeats (the
ART workload walks 113 chunks built from 11 distinct columns).  Once
the cache hierarchy reaches a steady state, replaying an identical
chunk against the same set contents (the same lines in the same ways)
performs exactly the same walk — same hits, same victims, same
latencies — as long as each touched set ranks its lines in the same
recency order, however far the clock has moved since.

This module caches the *outcome* of a vector walk (latency column,
counter deltas, and the cells of every touched set the walk changed)
keyed by a content hash of the address and size columns, and replays
it whenever the current pre-state of the touched sets matches the
recorded fingerprint.

Soundness
---------
A memo hit requires, for each cache level, in every set the recorded
walk touched:

- equal tags at every way,
- empty ways at the same positions, and
- the occupied ways ranked in the same stamp order.

Every stamp comparison the walk makes depends only on that order.
Each compares two old stamps, or an old stamp with one the walk issued,
and the walk issues stamps above the entry clock, so a new stamp
outranks every old one. The comparisons are the victim ``argmin``, the
suspect ranking in ``_resolve_mixed``, the bulk insert's ``argsort`` of
survivors, its flood test (oldest arrival against the newest
resident), and the row walk's first-minimum victims and its write-back
in stamp order; numpy's comparison sorts are deterministic functions
of the comparison outcomes. Equal tags then give equal hits and misses,
and equal empty ways equal eviction counts. Untouched sets are neither
read nor written by the walk (probes, inserts, and eviction accounting
are all confined to the probed sets, and which lines cascade to L2/L3
is itself determined level by level by the fingerprinted state above).
Whether a level takes the row walk depends only on its own stream's
line column: the key pins it at the L1, and below the L1 the stream
is the misses of the level above, which its fingerprinted state
decides.

The replay is therefore byte-identical to re-running the walk: same
latencies, counters and tags. It writes only the ways the recorded walk
changed, which include every way whose line changed (a level issues
each stamp to one access, so no two ways of a set share one); every
other touched way already holds what the walk would leave there. A
changed way holds one of two things afterwards:

- a stamp the walk issued, written as the replay clock plus the
  recorded offset; or
- an old line, or an empty way, moved from another way of its row (the
  bulk insert and the row walk both rearrange a row by age). It keeps
  its own stamp, which may differ from the recorded one by any age, so
  the replay reads it from the source way before writing anything.

A replay is trusted, and applied without the check, when it repeats
a *fixed point* right after that same entry's own record or replay.
An entry is a fixed point when the state its recorded walk leaves
passes its own check (tags, empty ways, recency order), which
recording tests once. A replay from any state that passes the check
leaves the touched sets as the recorded walk left them: the same
tags and empty ways, and the same order, since the stamps it issues
keep their recorded order above every old stamp and moved lines keep
their own. So a fixed point's replay leaves a state that passes the
check again, as long as nothing has touched the machine since. That
is what the token stored after each replay and record pins: the
entry, each level's ``(clock, hits, misses)``, the DRAM fetches and
the scalar accesses. Every state change made through the hierarchy
moves one of them: a walk or a scalar access counts a hit or a miss
at the L1, and a fill moves its level's clock. Clocks alone would not
do: a machine wound back to an earlier state and aged until every
clock reads as the token's would replay an entry recorded elsewhere,
but its counters give it away. Writing a level's arrays directly goes
unseen; only tests do that. Every other walk (a disabled memo, a split
batch, a degenerate latency config, the give-up record) drops the
token, so the next replay is checked.

Entry layout
------------
Per level, an entry keeps the touched sets (a ``(lo, hi)`` span when
they are one contiguous run), the fingerprint, and the changed cells:

- ``fp_order``: per touched row, its ways in ascending stamp order,
  empty ways first (one byte per way, ``uint8`` up to 255 ways), or
  None when every touched row already lies in that order, as a row the
  bulk insert or the row walk wrote last does;
- ``fp_empty``: per touched row, its count of empty ways;
- ``fp_tags``: int32 tag offsets from a per-level ``base`` (the lowest
  resident tag, or 0 when every tag already fits), int64 when the tags
  spread over more than 2**31 lines;
- ``cells``: int32 flat indices of the changed ways into the level's
  arrays, with their new tags (int64); for the first
  ``len(post_rel)`` of them, the walk's stamps relative to the entry
  clock (int32, ``post_rel``: at most the batch length), and for the
  rest the flat index of the way each moved from (``sources``).

Replay verifies the order without sorting: it gathers each row's live
stamps in ``fp_order`` (or takes the rows as they are) and checks them
0 over the first ``fp_empty`` ways and strictly increasing after them
(stamps are never negative).
That pins the empty ways on its own, which the tag compare cannot do:
``tag - base`` clamps at ``-1``, so a resident line below ``base``
reads like an empty way there. With the empty ways pinned, the clamped
compare is exact, since the recorded offset at an occupied way is at
least 0. The fingerprint costs at most 5 bytes per touched way (4
without a permutation), and a steady-state walk changes only a few
percent of the ways it touches.

Keys are content hashes of the address and size columns, with an
identity fast path for the common case of the interpreter's batch
cache handing back the very same column objects.  Fingerprint
mismatches fall back to the real walk and re-record; a workload that
records without ever hitting shuts its memo off.  Split batches (an
access crossing a line boundary) never memoize.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Tuple

from . import vectorwalk
from .vectorwalk import _np, as_column

#: Entries kept per hierarchy before LRU eviction.  An entry holds the
#: latency column plus a fingerprint of every touched way, so a batch
#: that sweeps the L3 records megabytes (179.ART's original run ends
#: holding 10.3 MB in 9 entries); the cap keeps unbounded workloads
#: from accumulating them forever.
MEMO_CAP = 128

#: Recording overhead is a pure loss for workloads that never repeat a
#: chunk: after this many records with not a single replay, the memo
#: turns itself off for the rest of the run.
GIVE_UP_RECORDS = 24

_INT32 = (-(1 << 31), (1 << 31) - 1)


def _narrow(values):
    """A copy of ``values``: int32 when every value fits, else int64."""
    fits = not values.size or (
        _INT32[0] <= int(values.min()) and int(values.max()) <= _INT32[1]
    )
    return values.astype(_np.int32 if fits else _np.int64)


def _ranked(rows, empty) -> bool:
    """True when each of ``rows`` is 0 over its first ``empty`` ways
    and strictly increasing after them: stamps are never negative, so
    the sign of each step from the way before (from 0 at a row's first
    way) says it."""
    np = _np
    ways = rows.shape[1]
    live = rows.reshape(-1)
    rising = np.empty(live.size, dtype=bool)
    np.greater(live[1:], live[:-1], out=rising[1:])
    np.greater(live[::ways], 0, out=rising[::ways])
    ranks = np.arange(ways, dtype=empty.dtype)
    return np.array_equal(rising, (empty[:, None] <= ranks).reshape(-1))


class _LevelRecord:
    """Fingerprint + outcome for one cache level of one memoized walk."""

    __slots__ = (
        "sets", "span", "base", "fp_tags", "fp_order", "fp_empty", "cells",
        "post_tags", "post_rel", "sources", "d_hits", "d_misses",
        "d_evictions",
    )

    def rows(self, matrix):
        """The touched rows of ``matrix`` — a zero-copy view when the
        touched sets are one contiguous run (sequential sweeps), else a
        fancy-indexed copy."""
        if self.span is not None:
            return matrix[self.span[0]:self.span[1]]
        return matrix[self.sets]

    def in_order(self, stamps) -> bool:
        """True when every touched row of ``stamps`` ranks its ways as
        the recorded pre-state did: :func:`_ranked` over the rows
        gathered in ``fp_order``, or as they are when it is None."""
        if self.fp_order is None:
            return _ranked(self.rows(stamps), self.fp_empty)
        sets = self.sets if self.span is None else _np.arange(*self.span)
        return _ranked(stamps[sets[:, None], self.fp_order], self.fp_empty)

    def nbytes(self) -> int:
        return sum(
            a.nbytes for a in (
                self.sets, self.fp_tags, self.fp_order, self.fp_empty,
                self.cells, self.post_tags, self.post_rel, self.sources,
            ) if a is not None
        )


class _Entry:
    __slots__ = ("latencies", "levels", "clock_delta", "d_dram", "fixed")


def _state(hier):
    """What every state change made through ``hier`` moves: each
    level's clock and hit and miss counts, the DRAM fetches and the
    scalar accesses."""
    core = hier.cores[0]
    return (
        core.l1.clock, core.l1.hits, core.l1.misses,
        core.l2.clock, core.l2.hits, core.l2.misses,
        hier.l3.clock, hier.l3.hits, hier.l3.misses,
        hier.dram_accesses, hier._scalar_walks,
    )


class WalkMemo:
    """Per-hierarchy memo over :func:`vectorwalk.walk_batch` outcomes."""

    __slots__ = (
        "entries", "ids", "cap", "disabled", "token",
        "hits", "misses", "stale", "recorded", "trusted",
    )

    def __init__(self, cap: int = MEMO_CAP) -> None:
        self.entries: "OrderedDict[bytes, _Entry]" = OrderedDict()
        #: Identity fast path: ``id(column) -> (column, key)``.  The
        #: strong reference pins the object so its id cannot be reused.
        self.ids: Dict[int, Tuple[object, object, bytes]] = {}
        self.cap = cap
        self.disabled = False
        #: ``(entry, _state(hier))`` after the last replay or record,
        #: None after any other walk.
        self.token = None
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.recorded = 0
        #: Hits applied without a fingerprint check (see Soundness).
        self.trusted = 0

    def nbytes(self) -> int:
        """Bytes of the numpy arrays the entries hold."""
        return sum(
            entry.latencies.nbytes + sum(lvl.nbytes() for lvl in entry.levels)
            for entry in self.entries.values()
        )

    # -- keying -------------------------------------------------------------

    def _key(self, addresses, sizes, address, size) -> bytes:
        cached = self.ids.get(id(addresses))
        if (
            cached is not None
            and cached[0] is addresses
            and cached[1] is sizes
        ):
            return cached[2]
        h = hashlib.blake2b(digest_size=16)
        h.update(memoryview(address))
        h.update(memoryview(size))
        key = h.digest()
        if len(self.ids) >= self.cap:
            self.ids.clear()
        self.ids[id(addresses)] = (addresses, sizes, key)
        return key

    # -- the public walk ----------------------------------------------------

    def walk(self, hier, addresses, sizes, is_write=None):
        """Drop-in for :func:`vectorwalk.walk_batch` on promoted state."""
        token, self.token = self.token, None
        if self.disabled:
            return vectorwalk.walk_batch(hier, addresses, sizes, is_write)
        address = as_column(addresses)
        size = as_column(sizes)
        key = self._key(addresses, sizes, address, size)
        entry = self.entries.get(key)
        if entry is not None:
            trusted = entry.fixed and token == (entry, _state(hier))
            if trusted or self._matches(hier, entry):
                self._apply(hier, entry)
                self.hits += 1
                self.trusted += trusted
                self.entries.move_to_end(key)
                self.token = (entry, _state(hier))
                return entry.latencies
            self.stale += 1
        else:
            self.misses += 1
        return self._record(hier, address, size, is_write, key)

    # -- recording ----------------------------------------------------------

    @staticmethod
    def _touched_sets(cache, lines):
        np = _np
        seen = np.zeros(cache.num_sets, dtype=bool)
        seen[lines & cache._set_mask] = True
        return np.flatnonzero(seen)

    @staticmethod
    def _span_of(sets):
        """(lo, hi) when ``sets`` is one contiguous run, else None.

        Sequential sweeps (the common streaming shape) touch a dense
        run of sets; slicing that run is several times faster than
        fancy-indexed gather/scatter on both verify and apply."""
        if len(sets) and int(sets[-1]) - int(sets[0]) + 1 == len(sets):
            return int(sets[0]), int(sets[-1]) + 1
        return None

    @staticmethod
    def _fingerprint(lvl, pre_tags, pre_stamps) -> None:
        """Store the pre-state of ``lvl``'s touched rows compactly,
        overwriting the (private) snapshot rows it is given."""
        np = _np
        small = np.min_scalar_type(pre_stamps.shape[1])
        lvl.fp_empty = (pre_stamps == 0).sum(axis=1, dtype=small)
        # Empty ways (stamp 0) first, then the occupied ways oldest
        # first; rows the bulk insert or the row walk wrote last are
        # already in that order, and need no permutation when all are.
        lvl.fp_order = None
        if not _ranked(pre_stamps, lvl.fp_empty):
            lvl.fp_order = pre_stamps.argsort(axis=1).astype(small)
        lvl.base = 0
        high = int(pre_tags.max()) if pre_tags.size else -1
        if high > _INT32[1]:
            # Viewed unsigned, an empty way's -1 is the largest value,
            # so the minimum is the lowest resident tag.
            base = int(pre_tags.view(np.uint64).min())
            if high - base <= _INT32[1]:
                pre_tags -= base
                np.maximum(pre_tags, -1, out=pre_tags)
                lvl.base = base
        lvl.fp_tags = pre_tags.astype(
            np.int32 if high - lvl.base <= _INT32[1] else np.int64
        )

    @staticmethod
    def _changes(lvl, cache, sets, pre_stamps, pre_clock) -> None:
        """Store the ways the walk changed: flat indices into the
        level's arrays and new tags, then each way's new stamp.

        A way whose line changed has a new stamp too: a level issues
        each stamp to one access, so no two ways of a set share one.
        The ways that took a stamp the walk issued (above the entry
        clock) come first and store it clock-relative (``post_rel``).
        Every other changed way now holds an old line, or an empty
        way, moved from another way of its row, and stores that way's
        flat index (``sources``).
        """
        np = _np
        post_stamps = lvl.rows(cache.stamps)
        changed = np.flatnonzero(post_stamps != pre_stamps)
        new_stamps = post_stamps.reshape(-1)[changed]
        fresh = new_stamps > pre_clock
        issued = int(np.count_nonzero(fresh))
        if issued < len(changed):
            order = np.concatenate(
                (np.flatnonzero(fresh), np.flatnonzero(~fresh))
            )
            changed = changed[order]
            new_stamps = new_stamps[order]
        ways = cache.ways
        if lvl.span is not None:
            cells = changed + lvl.span[0] * ways
        else:
            cells = sets[changed // ways] * ways + changed % ways
        lvl.cells = _narrow(cells)
        lvl.post_tags = lvl.rows(cache.tags).reshape(-1)[changed]
        lvl.post_rel = (new_stamps[:issued] - pre_clock).astype(np.int32)
        lvl.sources = None
        if issued < len(changed):
            moved = changed[issued:]
            # The pre-state way that held each moved stamp: the line's
            # own, or an empty way for stamp 0 (a walk never empties
            # more ways of a row than it found empty).
            source_way = (
                pre_stamps[moved // ways] == new_stamps[issued:, None]
            ).argmax(axis=1)
            lvl.sources = _narrow(cells[issued:] - moved % ways + source_way)

    def _record(self, hier, address, size, is_write, key):
        np = _np
        line_bits = hier._line_bits
        first = address >> line_bits
        last = (address + size - 1) >> line_bits
        if not (first == last).all():
            # Split accesses interleave scalar walks; never memoized.
            return vectorwalk.walk_batch(hier, address, size, is_write)
        cfg = hier.config
        lut = (cfg.l1.latency, cfg.l2.latency, cfg.l3.latency,
               cfg.dram_latency)
        if len(set(lut)) != 4:
            # Degenerate latency config: levels are not recoverable
            # from the latency column.
            return vectorwalk.walk_batch(hier, address, size, is_write)
        core = hier.cores[0]
        caches = (core.l1, core.l2, hier.l3)
        # Pre-state snapshot over supersets of the touched sets (every
        # accessed line's set; the true touched sets per level are only
        # known after the walk).
        supersets = []
        pre = []
        for c in caches:
            s = self._touched_sets(c, first)
            sp = self._span_of(s)
            if sp is not None:
                snap_tags = c.tags[sp[0]:sp[1]].copy()
                snap_stamps = c.stamps[sp[0]:sp[1]].copy()
            else:
                snap_tags = c.tags[s]
                snap_stamps = c.stamps[s]
            supersets.append((s, sp))
            pre.append((snap_tags, snap_stamps, c.clock,
                        c.hits, c.misses, c.evictions))
        pre_dram = hier.dram_accesses

        latencies = vectorwalk.walk_batch(hier, address, size, is_write)

        levels = (
            latencies[:, None] == np.array(lut, dtype=np.float64)
        ).argmax(axis=1)
        records = []
        clock_delta = caches[0].clock - pre[0][2]
        for depth, (cache, (sup, sup_span), snap) in enumerate(
            zip(caches, supersets, pre)
        ):
            if depth == 0:
                sets = sup
            else:
                sets = self._touched_sets(cache, first[levels >= depth])
            lvl = _LevelRecord()
            lvl.span = self._span_of(sets)
            lvl.sets = sets if lvl.span is None else None
            if sets is sup:
                pre_tags, pre_stamps = snap[0], snap[1]
            elif sup_span is not None and lvl.span is not None:
                off = lvl.span[0] - sup_span[0]
                end = off + (lvl.span[1] - lvl.span[0])
                pre_tags = snap[0][off:end]
                pre_stamps = snap[1][off:end]
            elif sup_span is not None:
                rows = sets - sup_span[0]
                pre_tags = snap[0][rows]
                pre_stamps = snap[1][rows]
            else:
                rows = np.searchsorted(sup, sets)
                pre_tags = snap[0][rows]
                pre_stamps = snap[1][rows]
            self._changes(lvl, cache, sets, pre_stamps, snap[2])
            self._fingerprint(lvl, pre_tags, pre_stamps)
            lvl.d_hits = cache.hits - snap[3]
            lvl.d_misses = cache.misses - snap[4]
            lvl.d_evictions = cache.evictions - snap[5]
            records.append(lvl)
        entry = _Entry()
        # Returned to callers directly on replay; the engine and the
        # samplers treat latency columns as read-only.
        entry.latencies = latencies
        entry.levels = records
        entry.clock_delta = int(clock_delta)
        entry.d_dram = hier.dram_accesses - pre_dram
        self.entries[key] = entry
        self.entries.move_to_end(key)
        while len(self.entries) > self.cap:
            self.entries.popitem(last=False)
        self.recorded += 1
        if self.recorded >= GIVE_UP_RECORDS and self.hits == 0:
            self.disabled = True
            self.entries.clear()
            self.ids.clear()
        else:
            entry.fixed = self._matches(hier, entry)
            self.token = (entry, _state(hier))
        return latencies

    # -- replay -------------------------------------------------------------

    @staticmethod
    def _matches(hier, entry: _Entry) -> bool:
        """True when the touched sets' current state matches the
        entry's recorded pre-state in tags, empty ways and recency
        order: applying the entry is then the walk itself."""
        np = _np
        core = hier.cores[0]
        caches = (core.l1, core.l2, hier.l3)
        for cache, lvl in zip(caches, entry.levels):
            tags = lvl.rows(cache.tags)
            if lvl.base:
                tags = tags - lvl.base
                np.maximum(tags, -1, out=tags)
            if not np.array_equal(tags, lvl.fp_tags):
                return False
            if not lvl.in_order(cache.stamps):
                return False
        return True

    @staticmethod
    def _apply(hier, entry: _Entry) -> None:
        """Write the memoized outcome: the changed cells, clocks,
        counters and DRAM fetches."""
        np = _np
        core = hier.cores[0]
        caches = (core.l1, core.l2, hier.l3)
        for cache, lvl in zip(caches, entry.levels):
            if len(lvl.cells):
                flat = cache.stamps.reshape(-1)
                stamps = np.add(lvl.post_rel, cache.clock, dtype=np.int64)
                if lvl.sources is not None:
                    # Moved lines keep their own stamps: read them all
                    # before any way is written.
                    stamps = np.concatenate((stamps, flat[lvl.sources]))
                flat[lvl.cells] = stamps
                cache.tags.reshape(-1)[lvl.cells] = lvl.post_tags
            cache.clock += entry.clock_delta
            cache.hits += lvl.d_hits
            cache.misses += lvl.d_misses
            cache.evictions += lvl.d_evictions
        hier.dram_accesses += entry.d_dram
