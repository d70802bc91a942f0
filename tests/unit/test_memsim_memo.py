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


def run_sequence(hier, batches):
    return [list(hier.access_batch(*cols)) for cols in batches]


class TestEquivalence:
    def test_repeated_batches_replay_byte_identically(self, monkeypatch):
        cols = columns()
        batches = [cols] * 6  # same objects: the identity fast path

        monkeypatch.setenv("REPRO_WALK_MEMO", "0")
        plain = MemoryHierarchy(HierarchyConfig(), 1)
        expected = run_sequence(plain, batches)
        assert plain._walk_memo is None

        monkeypatch.setenv("REPRO_WALK_MEMO", "1")
        memoized = MemoryHierarchy(HierarchyConfig(), 1)
        got = run_sequence(memoized, batches)

        assert got == expected
        assert counters(memoized) == counters(plain)
        walk_memo = memoized._walk_memo
        assert walk_memo is not None
        assert walk_memo.hits >= 1  # steady state was reached and used

    def test_interleaved_batches_stay_identical(self, monkeypatch):
        # A, B, A, B, ...: state keeps shifting under each key, so the
        # memo must detect stale fingerprints and fall back to the real
        # walk without changing a byte.
        a = columns(seed=1)
        b = columns(seed=2, base=1 << 15)
        batches = [a, b, a, b, a, a, b, b, a]

        monkeypatch.setenv("REPRO_WALK_MEMO", "0")
        plain = MemoryHierarchy(HierarchyConfig(), 1)
        expected = run_sequence(plain, batches)

        monkeypatch.setenv("REPRO_WALK_MEMO", "1")
        memoized = MemoryHierarchy(HierarchyConfig(), 1)
        got = run_sequence(memoized, batches)

        assert got == expected
        assert counters(memoized) == counters(plain)


class TestMechanics:
    def test_kill_switch_disables_attachment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WALK_MEMO", "0")
        assert not memo.enabled()
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        hier.access_batch(*columns())
        assert hier._walk_memo is None

    def test_small_batches_bypass_the_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_WALK_MEMO", "1")
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        hier.access_batch(*columns())  # promote + attach
        walk_memo = hier._walk_memo
        before = (walk_memo.hits, walk_memo.misses, walk_memo.recorded)
        small = columns(n=memo.MEMO_MIN_BATCH - 1, seed=3)
        hier.access_batch(*small)
        hier.access_batch(*small)
        assert (walk_memo.hits, walk_memo.misses, walk_memo.recorded) == before

    def test_content_key_matches_across_distinct_objects(self, monkeypatch):
        # Equal column *values* in fresh objects must find the same
        # entry: the key is content-addressed, identity is only a fast
        # path.
        monkeypatch.setenv("REPRO_WALK_MEMO", "1")
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        for _ in range(4):
            hier.access_batch(*columns(seed=4))  # fresh objects each time
        walk_memo = hier._walk_memo
        assert walk_memo.hits >= 1

    def test_capacity_bounds_recorded_entries(self, monkeypatch):
        monkeypatch.setenv("REPRO_WALK_MEMO", "1")
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        hier.access_batch(*columns())  # promote + attach
        hier._walk_memo = walk_memo = memo.WalkMemo(cap=2)
        for seed in range(5):
            hier.access_batch(*columns(n=256, seed=10 + seed))
        assert len(walk_memo.entries) <= 2

    def test_hitless_memo_shuts_itself_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_WALK_MEMO", "1")
        hier = MemoryHierarchy(HierarchyConfig(), 1)
        hier.access_batch(*columns())
        hier._walk_memo = walk_memo = memo.WalkMemo()
        for seed in range(memo.GIVE_UP_RECORDS + 1):
            hier.access_batch(*columns(n=256, seed=100 + seed))
        assert walk_memo.disabled
        assert walk_memo.entries == {} or not walk_memo.entries


class TestConvergence:
    def test_repeated_dense_reuse_batch_reaches_memo_hits(self, monkeypatch):
        # The row walk writes rows back in stamp order, the layout the
        # bulk insert leaves, so a repeat that ends in an equal cache
        # state also matches the memo's positional fingerprint.
        addresses = array("q", dense_reuse(n=1024))
        batch = (addresses, array("q", [8] * len(addresses)))

        monkeypatch.setenv("REPRO_WALK_MEMO", "0")
        plain = MemoryHierarchy(HierarchyConfig(), 1)
        expected = run_sequence(plain, [batch] * 6)

        monkeypatch.setenv("REPRO_WALK_MEMO", "1")
        memoized = MemoryHierarchy(HierarchyConfig(), 1)
        got = run_sequence(memoized, [batch] * 6)

        assert got == expected
        assert counters(memoized) == counters(plain)
        walk_memo = memoized._walk_memo
        assert walk_memo.hits >= 3
        assert memoized.walk_accesses()["memo"] == walk_memo.hits * len(
            batch[0]
        )
