"""Unit tests for the steady-state walk memo."""

import random
from array import array

import pytest

np = pytest.importorskip("numpy")

from repro.memsim import memo, vectorwalk
from repro.memsim.hierarchy import HierarchyConfig, MemoryHierarchy

from ..conftest import (
    assert_same_state, dense_reuse, memo_levels, restore, snapshot,
)


def columns(n=512, seed=0, base=0):
    rnd = random.Random(seed)
    addresses = array("q", [base + (rnd.randrange(0, 1 << 14) & ~7)
                            for _ in range(n)])
    sizes = array("q", [8] * n)
    is_write = array("q", [rnd.random() < 0.25 for _ in range(n)])
    thread = array("q", [0] * n)
    return addresses, sizes, is_write, thread


def counters(hier):
    return (
        hier.l1_misses(), hier.l2_misses(), hier.l3_misses(),
        hier.dram_accesses, hier.miss_summary(),
    )


def memoless():
    """A promoted single-core machine with its walk memo detached: the
    plain vector walk every memo replay must reproduce."""
    hier = MemoryHierarchy(HierarchyConfig(), 1)
    hier._promote_to_vector()
    hier._walk_memo = None
    return hier


def run_sequence(hier, batches):
    return [list(hier.access_batch(*cols)) for cols in batches]


class TestEquivalence:
    def test_repeated_batches_replay_byte_identically(self):
        cols = columns()
        batches = [cols] * 6  # same objects: the identity fast path

        plain = memoless()
        expected = run_sequence(plain, batches)
        assert plain._walk_memo is None

        memoized = MemoryHierarchy(HierarchyConfig(), 1)
        got = run_sequence(memoized, batches)

        assert got == expected
        assert counters(memoized) == counters(plain)
        walk_memo = memoized._walk_memo
        assert walk_memo is not None
        assert walk_memo.hits >= 1  # steady state was reached and used

    def test_interleaved_batches_stay_identical(self):
        # A, B, A, B, ...: state keeps shifting under each key, so the
        # memo must detect stale fingerprints and fall back to the real
        # walk without changing a byte.
        a = columns(seed=1)
        b = columns(seed=2, base=1 << 15)
        batches = [a, b, a, b, a, a, b, b, a]

        plain = memoless()
        expected = run_sequence(plain, batches)

        memoized = MemoryHierarchy(HierarchyConfig(), 1)
        got = run_sequence(memoized, batches)

        assert got == expected
        assert counters(memoized) == counters(plain)


class TestMechanics:
    def test_detached_memo_walks_vector(self):
        hier = memoless()
        cols = columns()
        for _ in range(3):
            hier.access_batch(*cols)
        assert hier._walk_memo is None
        counts = hier.walk_accesses()
        assert counts["memo"] == 0
        assert counts["vector"] == 3 * len(cols[0])

    def test_content_key_matches_across_distinct_objects(self):
        # Equal column *values* in fresh objects must find the same
        # entry: the key is content-addressed, identity is only a fast
        # path.
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        for _ in range(4):
            hier.access_batch(*columns(seed=4))  # fresh objects each time
        walk_memo = hier._walk_memo
        assert walk_memo.hits >= 1

    def test_capacity_bounds_recorded_entries(self):
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        hier.access_batch(*columns())  # promote + attach
        hier._walk_memo = walk_memo = memo.WalkMemo(cap=2)
        for seed in range(5):
            hier.access_batch(*columns(n=256, seed=10 + seed))
        assert len(walk_memo.entries) <= 2

    def test_hitless_memo_shuts_itself_off(self):
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        hier.access_batch(*columns())
        hier._walk_memo = walk_memo = memo.WalkMemo()
        for seed in range(memo.GIVE_UP_RECORDS + 1):
            hier.access_batch(*columns(n=256, seed=100 + seed))
        assert walk_memo.disabled
        assert walk_memo.entries == {} or not walk_memo.entries


class TestConvergence:
    def test_repeated_dense_reuse_batch_reaches_memo_hits(self):
        # The row walk writes rows back in stamp order, the layout the
        # bulk insert leaves, so a repeat that ends in an equal cache
        # state also matches the memo's positional fingerprint.
        addresses = array("q", dense_reuse(n=1024))
        batch = (addresses, array("q", [8] * len(addresses)))

        plain = memoless()
        expected = run_sequence(plain, [batch] * 6)

        memoized = MemoryHierarchy(HierarchyConfig(), 1)
        got = run_sequence(memoized, [batch] * 6)

        assert got == expected
        assert counters(memoized) == counters(plain)
        walk_memo = memoized._walk_memo
        assert walk_memo.hits >= 3
        assert memoized.walk_accesses()["memo"] == walk_memo.hits * len(
            batch[0]
        )


#: First line of the heap: tags this large overflow int32, so a level's
#: fingerprint stores them as offsets from a base.
HEAP_LINE = 0x7F00_0000_0000 >> 6


def line_batch(lines, repeat=4):
    """Each line accessed ``repeat`` times, at distinct 8-byte words."""
    addresses = array("q", [
        (line << 6) + 8 * k for line in lines for k in range(repeat)
    ])
    return addresses, array("q", [8] * len(addresses))


#: 8,192 heap lines, twice the L2: every repeat misses the L1 and L2
#: and hits the L3, where each touched set holds one of them.
L3_SWEEP = line_batch(range(HEAP_LINE, HEAP_LINE + 8192), repeat=1)


def entry_for(walk_memo, batch):
    return walk_memo.entries[walk_memo._key(batch[0], batch[1], None, None)]


def only_entry(walk_memo):
    (entry,) = walk_memo.entries.values()
    return entry


class TestEncoding:
    def test_empty_way_refilled_below_the_tag_base_goes_stale(self):
        # A sweep twice the L2's size reaches the L3 on every repeat,
        # and leaves each L3 set it touches one line and 19 empty ways.
        # Refilling one with a line below the level's tag base clamps
        # to -1 in the tag compare; the stamps must still catch it.
        batch = L3_SWEEP
        plain, memoized = memoless(), MemoryHierarchy(HierarchyConfig(), 1)
        for _ in range(3):
            plain.access_batch(*batch)
            memoized.access_batch(*batch)
        walk_memo = memoized._walk_memo
        assert walk_memo.hits == 1
        l3_record = only_entry(walk_memo).levels[2]
        assert l3_record.base == HEAP_LINE
        assert l3_record.fp_tags.dtype == np.int32

        below = HEAP_LINE - memoized.l3.num_sets  # same set, below base
        for hier in (plain, memoized):
            l3 = hier.l3
            set_index = HEAP_LINE & l3._set_mask
            way = int(np.flatnonzero(l3.stamps[set_index] == 0)[0])
            assert l3.fill(below) is None  # into the first empty way
            assert l3.tags[set_index, way] == below
        offsets = l3_record.rows(memoized.l3.tags) - l3_record.base
        np.maximum(offsets, -1, out=offsets)
        assert np.array_equal(offsets, l3_record.fp_tags)

        stale = walk_memo.stale
        expected = plain.access_batch(*batch)
        got = memoized.access_batch(*batch)
        assert walk_memo.stale == stale + 1 and walk_memo.hits == 1
        assert got.tobytes() == expected.tobytes()
        assert_same_state(memoized, plain)

    def test_clock_past_int32_replays_lines_older_than_int32(self):
        # Lines sharing the sweep's L3 sets keep their stamps from
        # before the clock jumped 2**40, and age further on every walk.
        # The fingerprint holds only their recency order, so the third
        # sweep (the first whose own lines are resident) replays with
        # no wind-back, issuing stamps above 2**40.
        num_sets = HierarchyConfig().l3.size_bytes // 64 // 20
        neighbours = line_batch(
            range(HEAP_LINE + num_sets, HEAP_LINE + num_sets + 8192),
            repeat=1,
        )
        plain, memoized = memoless(), MemoryHierarchy(HierarchyConfig(), 1)
        for hier in (plain, memoized):
            hier.access_batch(*neighbours)
            hier.l3.clock += 1 << 40  # stamps stay at or below it
        assert_same_state(memoized, plain)
        walk_memo = memoized._walk_memo
        for _ in range(3):
            got = memoized.access_batch(*L3_SWEEP)
            expected = plain.access_batch(*L3_SWEEP)
            assert got.tobytes() == expected.tobytes()
            assert_same_state(memoized, plain)
        assert walk_memo.hits == 1
        l3_record = entry_for(walk_memo, L3_SWEEP).levels[2]
        assert l3_record.fp_empty.dtype == np.uint8
        assert l3_record.post_rel.dtype == np.int32
        stamps = memoized.l3.stamps
        assert stamps.max() > 1 << 40
        assert 0 < stamps[stamps > 0].min() < 1 << 31

    def test_replay_empties_the_ways_its_walk_emptied(self):
        # Promotion packs the lines of a set warmed on the list caches
        # into its first ways; the first walk that merges into such a
        # set moves them behind its empty ways, leaving some changed
        # cells empty. The machine is wound back to replay that walk,
        # at a later clock.
        warm = columns(n=200, seed=5)
        batch = columns(seed=6)
        plain, memoized = (MemoryHierarchy(HierarchyConfig(), 1)
                           for _ in range(2))
        for hier in (plain, memoized):
            for address, size, write, _ in zip(*warm):
                hier.access(0, address, size, bool(write))
            hier._promote_to_vector()
        plain._walk_memo = None
        pre = snapshot(memoized)
        first = memoized.access_batch(*batch)
        levels = entry_for(memoized._walk_memo, batch).levels

        restore(memoized, pre)
        l1_stamps = memoized.cores[0].l1.stamps.reshape(-1)
        assert (l1_stamps[levels[0].sources] == 0).any()
        # Packed rows are not in rank order: the entry keeps the L1's
        # permutation.
        assert levels[0].fp_order.dtype == np.uint8
        for hier in (plain, memoized):
            for cache in (hier.cores[0].l1, hier.cores[0].l2, hier.l3):
                cache.stamps[cache.stamps > 0] += 1000
                cache.clock += 1000
        got = memoized.access_batch(*batch)
        expected = plain.access_batch(*batch)
        assert memoized._walk_memo.hits == 1
        assert got.tobytes() == expected.tobytes() == first.tobytes()
        assert_same_state(memoized, plain)

    def test_tags_over_2_31_lines_apart_record_int64(self):
        lines = [HEAP_LINE + i for i in range(64)]
        lines += [HEAP_LINE + (1 << 32) + i for i in range(64)]
        batch = line_batch(lines)
        plain, memoized = memoless(), MemoryHierarchy(HierarchyConfig(), 1)
        for _ in range(4):
            assert (
                memoized.access_batch(*batch).tobytes()
                == plain.access_batch(*batch).tobytes()
            )
        assert_same_state(memoized, plain)
        assert memoized._walk_memo.hits >= 1
        l1_record = only_entry(memoized._walk_memo).levels[0]
        assert l1_record.fp_tags.dtype == np.int64
        assert l1_record.base == 0

    def test_replay_writes_only_the_changed_cells(self):
        class Recording(np.ndarray):
            """Logs the index of every write into a cache's array (not
            into temporaries computed from it)."""

            writes = []

            def __setitem__(self, key, value):
                if self.label is not None and np.shares_memory(
                    self, self.label[2]
                ):
                    Recording.writes.append((self.label[:2], np.array(key)))
                super().__setitem__(key, value)

            def __array_finalize__(self, obj):
                self.label = getattr(obj, "label", None)

        hier = MemoryHierarchy(HierarchyConfig(), 1)
        cols = L3_SWEEP
        for _ in range(3):
            hier.access_batch(*cols)
        walk_memo = hier._walk_memo
        assert walk_memo.hits == 1
        entry = entry_for(walk_memo, cols)
        caches = (hier.cores[0].l1, hier.cores[0].l2, hier.l3)
        for depth, cache in enumerate(caches):
            for name in ("tags", "stamps"):
                recording = getattr(cache, name).view(Recording)
                recording.label = (depth, name, recording)
                setattr(cache, name, recording)
        Recording.writes.clear()
        hier.access_batch(*cols)
        assert walk_memo.hits == 2

        # The sweep floods the L1 and L2 sets it touches but restamps
        # one of 20 ways in each L3 set.
        l3_record = entry.levels[2]
        assert len(l3_record.cells) * 20 == l3_record.rows(hier.l3.tags).size
        expected = []
        for depth, lvl in enumerate(entry.levels):
            expected += [((depth, "stamps"), lvl.cells),
                         ((depth, "tags"), lvl.cells)]
        assert len(Recording.writes) == len(expected)
        for (label, key), (want_label, cells) in zip(
            Recording.writes, expected
        ):
            assert label == want_label
            assert np.array_equal(key, cells)


def l1_sets_batch(sets, ranks, repeat=2):
    """Lines ``s + 64 * k`` for each rank ``k`` and L1 set ``s``: with the
    default machine's 64-set L1, their L2 and L3 sets are ``s`` plus a
    multiple of 64 too, so batches on disjoint ``sets`` share no set at
    any level."""
    return line_batch([s + 64 * k for k in ranks for s in sets], repeat)


def aged_replay(warm, batch):
    """Walk ``warm``, then ``batch`` (recorded), on a memoized machine;
    wind it back to before ``batch``, age every resident line by
    raising each level's clock 1000, and walk ``batch`` again. A
    memo-free machine walks ``warm``, ages the same way and walks
    ``batch`` once; the two must agree. Returns the memoized machine
    and the entry."""
    plain = memoless()
    memoized = MemoryHierarchy(HierarchyConfig(), 1)
    memoized._promote_to_vector()
    for hier in (plain, memoized):
        hier.access_batch(*warm)
    pre = snapshot(memoized)
    first = memoized.access_batch(*batch)
    entry = entry_for(memoized._walk_memo, batch)
    restore(memoized, pre)
    for hier in (plain, memoized):
        for cache in memo_levels(hier):
            cache.clock += 1000
    got = memoized.access_batch(*batch)
    expected = plain.access_batch(*batch)
    assert memoized._walk_memo.hits == 1
    assert got.tobytes() == expected.tobytes() == first.tobytes()
    assert_same_state(memoized, plain)
    return memoized, entry


class TestRecencyOrder:
    def test_line_aged_by_an_interleaved_batch_still_replays(self):
        # The batch touches L1 sets 0-31 with four lines each, and each
        # of those sets also holds two older lines it never touches.
        # Every walk ages them, and so does the interleaved batch on
        # sets 32-63; their rank in the set stays the same.
        untouched = l1_sets_batch(range(32), (4, 5), repeat=1)
        batch = l1_sets_batch(range(32), range(4))
        other = l1_sets_batch(range(32, 64), range(4))
        plain = memoless()
        memoized = MemoryHierarchy(HierarchyConfig(), 1)
        memoized._promote_to_vector()
        walk_memo = memoized._walk_memo
        hits = []
        for cols in (untouched, batch, batch, batch, other, batch):
            got = memoized.access_batch(*cols)
            expected = plain.access_batch(*cols)
            assert got.tobytes() == expected.tobytes()
            assert_same_state(memoized, plain)
            hits.append(walk_memo.hits)
        # Recorded, re-recorded once its lines are resident, then
        # replayed before and after the interleaved batch.
        assert hits == [0, 0, 0, 1, 1, 2]
        assert walk_memo.stale == 1

    def test_bulk_insert_moves_keep_their_own_stamps(self):
        # Each L1 set holds two lines in its last ways. The batch's
        # four arrivals per set merge in, and the bulk insert moves the
        # two old lines ahead of them, four ways down.
        warm = l1_sets_batch(range(32), (4, 5), repeat=1)
        batch = l1_sets_batch(range(32), range(4))
        memoized, entry = aged_replay(warm, batch)
        self.assert_moved_lines_kept_stamps(memoized, entry, warm, batch)

    def test_row_walk_moves_keep_their_own_stamps(self):
        # One line sits in the last way of the L1 set a dense ping-pong
        # over four other lines walks; the row walk's write-back in
        # stamp order moves it ahead of them.
        stride = HierarchyConfig().l2.size_bytes // HierarchyConfig().l2.ways
        warm = (array("q", [4 * stride]), array("q", [8]))
        batch = (array("q", dense_reuse(n=1024, lines=4)),
                 array("q", [8] * 1024))
        memoized, entry = aged_replay(warm, batch)
        assert vectorwalk.plan(np.asarray(batch[0]) >> 6)[2] is None
        self.assert_moved_lines_kept_stamps(memoized, entry, warm, batch)

    @staticmethod
    def assert_moved_lines_kept_stamps(memoized, entry, warm, batch):
        l1 = memoized.cores[0].l1
        l1_record = entry.levels[0]
        assert l1_record.sources is not None
        moved = l1_record.cells[len(l1_record.post_rel):]
        warm_lines = set(np.asarray(warm[0]) >> 6)
        assert warm_lines <= set(l1.tags.reshape(-1)[moved].tolist())
        # Aged, the moved lines' stamps sit more than 1000 below the
        # batch's first stamp: a clock-relative write would lift them
        # by 1000.
        moved_stamps = l1.stamps.reshape(-1)[moved]
        assert (moved_stamps[moved_stamps > 0]
                <= l1.clock - len(batch[0]) - 1000).all()


@pytest.fixture
def checks(monkeypatch):
    """Counts the memo's fingerprint checks (one per record, for the
    fixed-point test, and one per untrusted replay)."""
    calls = []
    matches = memo.WalkMemo._matches

    def counted(hier, entry):
        calls.append(entry)
        return matches(hier, entry)

    monkeypatch.setattr(memo.WalkMemo, "_matches", staticmethod(counted))
    return calls


#: Four lines in each of L1 sets 0-31, each accessed twice: 256
#: accesses, a fixed point once its lines are resident. ``OTHER_SETS``
#: shares no set with it at any level.
FIXED_POINT = l1_sets_batch(range(32), range(4))
OTHER_SETS = l1_sets_batch(range(32, 64), range(4))


def walk_both(plain, memoized, cols):
    expected = plain.access_batch(*cols)
    got = memoized.access_batch(*cols)
    assert got.tobytes() == expected.tobytes()
    assert_same_state(memoized, plain)


class TestTrust:
    def test_immediate_repeat_of_a_fixed_point_skips_the_check(self, checks):
        plain, memoized = memoless(), MemoryHierarchy(HierarchyConfig(), 1)
        memoized._promote_to_vector()
        walk_memo = memoized._walk_memo
        for _ in range(2):  # recorded cold, re-recorded once resident
            walk_both(plain, memoized, FIXED_POINT)
        entry = entry_for(walk_memo, FIXED_POINT)
        assert entry.fixed and walk_memo.trusted == 0
        for repeat in range(1, 4):
            checked = len(checks)
            walk_both(plain, memoized, FIXED_POINT)
            assert len(checks) == checked
            assert walk_memo.hits == walk_memo.trusted == repeat

    @pytest.mark.parametrize("between", ["scalar", "other_batch", "short"])
    def test_anything_between_repeats_forces_the_check(self, checks, between):
        plain, memoized = memoless(), MemoryHierarchy(HierarchyConfig(), 1)
        memoized._promote_to_vector()
        walk_memo = memoized._walk_memo
        for _ in range(3):
            walk_both(plain, memoized, FIXED_POINT)
        assert walk_memo.hits == walk_memo.trusted == 1
        # Each touches only sets the batch does not: the checked
        # replay still hits.
        if between == "scalar":
            for hier in (plain, memoized):
                hier.access(0, 40 << 6, 8, False)
        else:
            length = len(OTHER_SETS[0]) if between == "other_batch" else 16
            walk_both(
                plain, memoized, tuple(c[:length] for c in OTHER_SETS)
            )
        checked = len(checks)
        walk_both(plain, memoized, FIXED_POINT)
        assert checks[checked:] == [entry_for(walk_memo, FIXED_POINT)]
        assert (walk_memo.hits, walk_memo.trusted) == (2, 1)
        # The checked replay leaves its own token: trusted again.
        walk_both(plain, memoized, FIXED_POINT)
        assert len(checks) == checked + 1
        assert (walk_memo.hits, walk_memo.trusted) == (3, 2)

    def test_restore_with_clocks_aged_to_the_token_goes_stale(self):
        # Clocks alone are no token: wound back to its cold state and
        # aged so that every clock reads as after the last sweep, the
        # machine would replay an entry recorded with the sweep's lines
        # resident. Its counters and DRAM fetches give it away.
        plain, memoized = memoless(), MemoryHierarchy(HierarchyConfig(), 1)
        memoized._promote_to_vector()
        cold = snapshot(memoized)
        for _ in range(3):
            walk_both(plain, memoized, L3_SWEEP)
        walk_memo = memoized._walk_memo
        assert (walk_memo.hits, walk_memo.trusted, walk_memo.stale) == (1, 1, 1)
        clocks = [c.clock for c in memo_levels(memoized)]
        for hier in (plain, memoized):
            restore(hier, cold)
            for cache in memo_levels(hier):
                cache.clock += 3 * len(L3_SWEEP[0])
        assert [c.clock for c in memo_levels(memoized)] == clocks
        walk_both(plain, memoized, L3_SWEEP)
        assert (walk_memo.hits, walk_memo.trusted, walk_memo.stale) == (1, 1, 2)

    def test_entry_that_is_not_a_fixed_point_is_never_trusted(self, checks):
        # Recorded on a cold cache, the entry's pre-state has empty ways
        # where its post-state holds the batch's lines.
        plain, memoized = memoless(), MemoryHierarchy(HierarchyConfig(), 1)
        memoized._promote_to_vector()
        walk_memo = memoized._walk_memo
        walk_both(plain, memoized, FIXED_POINT)
        entry = entry_for(walk_memo, FIXED_POINT)
        assert not entry.fixed and walk_memo.token[0] is entry
        walk_both(plain, memoized, FIXED_POINT)
        assert checks[1] is entry
        assert (walk_memo.hits, walk_memo.trusted, walk_memo.stale) == (0, 0, 1)

    def test_trusted_replays_are_exported(self):
        from repro.telemetry.metrics import MetricsRegistry

        hier = MemoryHierarchy(HierarchyConfig(), 1)
        for _ in range(4):
            hier.access_batch(*FIXED_POINT)
        registry = MetricsRegistry()
        hier.export_metrics(registry)
        counter = registry.get("repro_memsim_walk_memo_trusted_total")
        assert counter is not None and counter.kind == "counter"
        assert counter.value == hier._walk_memo.trusted == 2


class TestFootprint:
    def test_l3_resident_repeat_stays_under_half_the_int64_rows(self):
        batch = L3_SWEEP
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        for _ in range(3):
            hier.access_batch(*batch)
        walk_memo = hier._walk_memo
        assert walk_memo.hits == 1
        assert hier.l3.hits >= 8192
        entry = only_entry(walk_memo)
        caches = (hier.cores[0].l1, hier.cores[0].l2, hier.l3)
        touched = sum(
            lvl.rows(cache.tags).size
            for cache, lvl in zip(caches, entry.levels)
        )
        assert walk_memo.nbytes() < 4 * 8 * touched / 2

    def test_memo_bytes_are_exported(self):
        from repro.telemetry.metrics import MetricsRegistry

        hier = MemoryHierarchy(HierarchyConfig(), 1)
        cols = columns()
        for _ in range(3):
            hier.access_batch(*cols)
        registry = MetricsRegistry()
        hier.export_metrics(registry)
        gauge = registry.get("repro_memsim_walk_memo_bytes")
        assert gauge is not None and gauge.kind == "gauge"
        assert gauge.value == hier._walk_memo.nbytes() > 0
