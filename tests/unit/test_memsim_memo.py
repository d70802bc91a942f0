"""Unit tests for the steady-state walk memo."""

import random
from array import array

import pytest

np = pytest.importorskip("numpy")

from repro.memsim import memo
from repro.memsim.hierarchy import HierarchyConfig, MemoryHierarchy

from ..conftest import dense_reuse


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

    def test_small_batches_bypass_the_memo(self):
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        hier.access_batch(*columns())  # promote + attach
        walk_memo = hier._walk_memo
        before = (walk_memo.hits, walk_memo.misses, walk_memo.recorded)
        small = columns(n=memo.MEMO_MIN_BATCH - 1, seed=3)
        hier.access_batch(*small)
        hier.access_batch(*small)
        assert (walk_memo.hits, walk_memo.misses, walk_memo.recorded) == before

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
