"""Unit tests for the columnar batched engine's building blocks.

The property suite (test_prop_engine_parity) checks whole-pipeline
equivalence over random programs; these tests pin the individual
contracts — batch construction per index kind, the small-loop and
error fallbacks, hierarchy batch parity per replacement policy, the
sampler's batched countdown, and the satellite fixes that rode along
(first-sample stagger, engine validation).
"""

import dataclasses
import random

import pytest

from repro.layout import INT, StructType
from repro.memsim import vectorwalk
from repro.memsim.engine import simulate
from repro.memsim.hierarchy import WALK_PATHS, HierarchyConfig, MemoryHierarchy
from repro.memsim.tlb import TLBConfig
from repro.profiler.monitor import Monitor
from repro.program import (
    Access,
    AccessBatch,
    Call,
    Function,
    Loop,
    MemoryAccess,
    WorkloadBuilder,
    affine,
)
from repro.program.batch import MIN_BATCH_TRIPS
from repro.program.interp import Interpreter, TraceError
from repro.program.ir import Indirect, Mod
from repro.sampling.ibs import IBSSampler
from repro.sampling.other_pmus import DEARSampler
from repro.sampling.pebs import PEBSLoadLatencySampler
from repro.workloads import TABLE2_WORKLOADS

from ..conftest import dense_reuse

ELEM = StructType("s", [("x", INT)])
ELEMENTS = 64


def program(index, stop=16, is_write=False):
    """One loop over one access into a 64-element array of structs."""
    builder = WorkloadBuilder("unit")
    builder.add_aos(ELEM, ELEMENTS, name="A")
    loop = Loop(
        line=1,
        var="i",
        start=0,
        stop=stop,
        body=[Access(line=2, array="A", field="x", index=index,
                     is_write=is_write)],
        end_line=3,
    )
    return builder.build([Function("main", [loop])])


def machine_state(hierarchy):
    """Everything a walk can change, comparable across cache
    representations: every cache's resident lines in recency order
    (tag arrays via ``to_list_cache``) and counters, DRAM fetches,
    prefetcher state, each core's DTLB levels, and the directory's
    holder map, per-line invalidations and protocol counters."""
    caches = [hierarchy.l3] + [
        cache for core in hierarchy.cores for cache in (core.l1, core.l2)
    ]
    lists = [
        c.to_list_cache() if hasattr(c, "to_list_cache") else c
        for c in caches
    ]
    directory = hierarchy.directory
    return (
        [(c._sets, c.hits, c.misses, c.evictions) for c in lists],
        hierarchy.dram_accesses,
        [
            (core.prefetcher._table, core.prefetcher.issued,
             core.prefetched, core.prefetch_useful)
            for core in hierarchy.cores
        ],
        [
            None if core.dtlb is None else [
                (level._sets, level.hits, level.misses)
                for level in (core.dtlb.l1, core.dtlb.l2)
            ]
            for core in hierarchy.cores
        ],
        None if directory is None else (
            directory._lines,
            hierarchy.line_invalidations(),
            directory.stats,
        ),
    )


def expand(items):
    out = []
    for item in items:
        if isinstance(item, AccessBatch):
            out.extend(item)
        else:
            out.append(item)
    return out


def list_cores(hierarchy):
    """The ids of the cores whose private caches are list caches."""
    return [
        core.id for core in hierarchy.cores
        if not isinstance(core.l1, vectorwalk.TagArrayCache)
    ]


def spy_row_walk(monkeypatch):
    """Record the depth (0 = L1) of every level the cascade row-walks,
    in walk order; cache names are ``L1#core``, ``L2#core`` and ``L3``."""
    calls = []
    row_walk = vectorwalk._row_walk

    def counted(cache, *args):
        calls.append(int(cache.name[1]) - 1)
        return row_walk(cache, *args)

    monkeypatch.setattr(vectorwalk, "_row_walk", counted)
    return calls


class TestBatchConstruction:
    def test_strided_loop_emits_one_batch(self):
        bound = program(affine("i"), stop=16)
        items = list(Interpreter(bound).run_batched())
        batches = [i for i in items if isinstance(i, AccessBatch)]
        assert len(batches) == 1
        batch = batches[0]
        assert len(batch) == 16
        addresses = list(batch.address)
        strides = {b - a for a, b in zip(addresses, addresses[1:])}
        assert strides == {addresses[1] - addresses[0]}

    @pytest.mark.parametrize(
        "index",
        [
            affine("i", 2, 1),
            affine("i", -1, 15),
            Mod(affine("i", 3, -5), ELEMENTS),
            Mod(affine("i", -2, 7), 13),
            Indirect.of([5, 3, 2, 7, 1], Mod(affine("i"), 5)),
            Indirect.of(list(range(ELEMENTS)), Mod(affine("i", -3, 1), ELEMENTS)),
        ],
    )
    def test_each_index_kind_expands_to_the_scalar_trace(self, index):
        bound = program(index, stop=16)
        scalar = list(Interpreter(bound).run())
        assert expand(Interpreter(bound).run_batched()) == scalar

    def test_loops_batch_below_every_recursion_site(self):
        # One eligible loop below each place the executor recurses: a
        # call, the scalar trips of a serial loop, and the rounds of a
        # parallel loop (neither outer loop can batch: its body holds a
        # loop). Only run_batched() batches them.
        def inner(line):
            return Loop(line=line, var="i", start=0, stop=16, end_line=line + 1,
                        body=[Access(line=line + 1, array="A", field="x",
                                     index=affine("i"))])

        builder = WorkloadBuilder("unit")
        builder.add_aos(ELEM, ELEMENTS, name="A")
        helper = Function("helper", [inner(10)], line=9)
        main = Function("main", [
            Call(line=2, callee="helper"),
            Loop(line=3, var="j", start=0, stop=2, end_line=21,
                 body=[inner(20)]),
            Loop(line=4, var="k", start=0, stop=2, end_line=31,
                 parallel=True, body=[inner(30)]),
        ], line=1)
        bound = builder.build([main, helper])
        interp = Interpreter(bound, num_threads=2)
        batched = [i for i in interp.run_batched() if isinstance(i, AccessBatch)]
        assert [set(b.line) for b in batched] == [
            {11}, {21}, {21}, {31}, {31},
        ]
        assert not any(isinstance(i, AccessBatch) for i in interp.run())

    def test_scalar_engine_never_batches_a_table2_workload(self):
        for name, factory in TABLE2_WORKLOADS.items():
            workload = factory(scale=0.05)
            interp = Interpreter(
                workload.build_original(), num_threads=workload.num_threads
            )
            assert not any(isinstance(i, AccessBatch) for i in interp.run()), name

    def test_small_loops_stay_scalar(self):
        bound = program(affine("i"), stop=MIN_BATCH_TRIPS - 1)
        items = list(Interpreter(bound).run_batched())
        assert not any(isinstance(i, AccessBatch) for i in items)
        assert items == list(Interpreter(bound).run())

    def test_out_of_bounds_raises_identically(self):
        # i*2 walks past count=64 at i=32; both engines must fail at
        # the same trace position with the same message.
        bound = program(affine("i", 2, 0), stop=40)

        def drain(items):
            seen = []
            with pytest.raises(TraceError) as err:
                for item in items:
                    seen.append(item)
            return expand(seen), str(err.value)

        scalar_items, scalar_msg = drain(Interpreter(bound).run())
        batched_items, batched_msg = drain(Interpreter(bound).run_batched())
        assert batched_msg == scalar_msg
        assert batched_items == scalar_items


class TestHierarchyBatch:
    # Repeats (hits), a spread wide enough to force evictions, and a
    # revisit of evicted lines (re-misses).
    ADDRESSES = [0, 64, 0, 4096, 64, 8] + [
        640 * k for k in range(96)
    ] + [0, 64, 4096]

    def columns(self, split):
        """``ADDRESSES`` at size 4; ``split`` adds a same-line repeat
        at the start and, at the end, a line-crossing access between two
        touches of a line in the same L1 set, then a same-line
        repeat."""
        addresses = list(self.ADDRESSES)
        if not split:
            return addresses, [4] * len(addresses)
        addresses = [0, 8] + addresses + [4096, 60, 4100, 4104]
        sizes = [4] * len(addresses)
        sizes[-3] = 8
        return addresses, sizes

    @pytest.mark.parametrize("policy, split", [
        pytest.param(policy, split, id=policy + ("-split" if split else ""))
        for split in (False, True) for policy in ("lru", "fifo", "random")
    ])
    def test_batch_matches_scalar_walk(self, policy, split, monkeypatch):
        # One core without numpy's walks: every batch takes the list
        # walk, which on the random machine resolves only L1 hits
        # inline and hands every other access to access().
        monkeypatch.setattr(vectorwalk, "HAVE_NUMPY", False)
        config = HierarchyConfig(replacement=policy)
        addresses, sizes = self.columns(split)
        reference = MemoryHierarchy(config, 1)
        expected = [
            reference.access(0, a, s, False) for a, s in zip(addresses, sizes)
        ]
        hierarchy = MemoryHierarchy(config, 1)
        got = hierarchy.access_batch(addresses, sizes)
        assert got == expected
        assert machine_state(hierarchy) == machine_state(reference)
        line = config.line_size
        single = [
            (a + s - 1) // line == a // line for a, s in zip(addresses, sizes)
        ]
        if policy == "random":
            listed = sum(
                1 for one, latency in zip(single, expected)
                if one and latency == config.l1.latency
            )
        else:
            listed = sum(single)
        assert listed > 0
        assert hierarchy.walk_accesses() == {
            "vector": 0, "memo": 0, "list": listed, "general_vector": 0,
            "scalar": len(addresses) - listed,
        }

    def test_split_accesses_match_scalar(self):
        # size 8 at line_size-4 crosses a line boundary: the batch
        # path must hand these to the scalar walk and still agree.
        config = HierarchyConfig()
        addresses = [config.line_size - 4, 0, 2 * config.line_size - 4]
        sizes = [8, 4, 8]
        reference = MemoryHierarchy(config, 1)
        expected = [
            reference.access(0, a, s, False) for a, s in zip(addresses, sizes)
        ]
        hierarchy = MemoryHierarchy(config, 1)
        assert list(hierarchy.access_batch(addresses, sizes)) == expected
        assert hierarchy.dram_accesses == reference.dram_accesses

    def run_general_parity(self, config, num_cores):
        """Batch vs per-access parity of the split columns with a write
        and a thread column; returns the batched hierarchy and how many
        single-line accesses the reference resolved as L1 hits that
        take no directory write."""
        addresses, sizes = self.columns(split=True)
        writes = [k % 3 == 0 for k in range(len(addresses))]
        threads = [k % (num_cores + 1) for k in range(len(addresses))]
        # A read, another core's write and a re-read of one line: the
        # write must end the reader's run of same-line repeats.
        addresses += [192] * 3
        sizes += [4] * 3
        writes += [False, True, False]
        threads += [0, 1, 0]
        line = config.line_size
        reference = MemoryHierarchy(config, num_cores)
        expected, l1_hits = [], 0
        for a, s, w, t in zip(addresses, sizes, writes, threads):
            l1 = reference.cores[t % num_cores].l1
            hits = l1.hits
            expected.append(reference.access(t % num_cores, a, s, w))
            if (
                (a + s - 1) // line == a // line
                and l1.hits > hits
                and not (w and reference.directory)
            ):
                l1_hits += 1
        hierarchy = MemoryHierarchy(config, num_cores)
        got = hierarchy.access_batch(addresses, sizes, writes, threads)
        assert list(got) == expected
        assert machine_state(hierarchy) == machine_state(reference)
        return hierarchy, l1_hits

    def check_hand_offs(self, config):
        # On one core and on two (where the write and thread columns
        # reach the directory), the list walk resolves L1 hits that
        # take no directory write inline and hands every other access
        # to access(), so the streamer, the TLB and the replacement RNG
        # see the scalar event order.
        for cores in (1, 2):
            hierarchy, inline = self.run_general_parity(config, cores)
            walked = hierarchy.walk_accesses()
            assert 0 < inline < sum(walked.values())
            credits = dict.fromkeys(WALK_PATHS, 0)
            credits["list"] = inline
            credits["scalar"] = sum(walked.values()) - inline
            assert walked == credits

    def test_batch_covers_multicore_coherence(self):
        # Two cores with the MESI directory engaged: the write and
        # thread columns must reach the directory in trace order. With
        # numpy the per-core walk cuts the batch at its line-crossing
        # access and at its 13 accesses to written lines both cores
        # touch, which take access(); without it the list walk takes
        # every single-line access.
        hierarchy, _ = self.run_general_parity(HierarchyConfig(), 2)
        credits = dict.fromkeys(WALK_PATHS, 0)
        if vectorwalk.HAVE_NUMPY:
            credits.update(general_vector=100, scalar=14)
        else:
            credits.update(list=113, scalar=1)
        assert hierarchy.walk_accesses() == credits
        assert hierarchy.invalidations == 2

    def test_batch_covers_prefetcher(self):
        self.check_hand_offs(HierarchyConfig(prefetch_degree=2))

    def test_batch_covers_tlb(self):
        self.check_hand_offs(HierarchyConfig(
            tlb=TLBConfig(l1_entries=8, l1_ways=4, l2_entries=16, l2_ways=4)
        ))

    def test_batch_covers_random_replacement(self):
        self.check_hand_offs(HierarchyConfig(replacement="random"))


class TestVectorWalk:
    """The numpy tag-array walk on large simple-config batches."""

    def make(self, policy="lru"):
        return MemoryHierarchy(HierarchyConfig(replacement=policy), 1)

    @staticmethod
    def vector_walked(hierarchy):
        """Whether the batches took the vector walk or its memo."""
        walked = hierarchy.walk_accesses()
        return walked["vector"] + walked["memo"] > 0 and walked["list"] == 0

    def columns(self):
        # Hits, conflict evictions, duplicate missing lines in one
        # batch (unsafe replay), and line-crossing splits.
        config = HierarchyConfig()
        line = config.line_size
        addresses = (
            [0, 64, 0, 4096, 64]
            + [640 * k for k in range(96)]
            + [640 * k for k in range(96)]
            + [line - 4, 2 * line - 4]
            + [0, 64, 4096, 0, 4096]
        )
        sizes = [4] * (len(addresses) - 7) + [8, 8] + [4] * 5
        return addresses, sizes

    def partial_flood_columns(self):
        # Cold lines: ways + 2 into one L1 set (flooded), one into
        # another, so a single bulk insert mixes flooded and unflooded
        # sets.
        config = HierarchyConfig()
        l1 = config.l1
        stride = l1.size_bytes // l1.ways  # one L1 set apart
        addresses = [k * stride for k in range(l1.ways + 2)]
        addresses.append(config.line_size)
        return addresses, [4] * len(addresses)

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_vector_walk_matches_scalar(self, policy):
        self.check_against_scalar(policy, *self.columns())

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_partially_flooded_chunk_matches_scalar(self, policy):
        self.check_against_scalar(policy, *self.partial_flood_columns())

    def check_against_scalar(self, policy, addresses, sizes):
        pytest.importorskip("numpy")
        reference = MemoryHierarchy(HierarchyConfig(replacement=policy), 1)
        expected = [
            reference.access(0, a, s, False)
            for a, s in zip(addresses, sizes)
        ]
        hierarchy = self.make(policy)
        got = hierarchy.access_batch(addresses, sizes)
        assert hierarchy._promoted
        assert list(got) == expected
        for mine, theirs in zip(
            (hierarchy.l3, hierarchy.cores[0].l1, hierarchy.cores[0].l2),
            (reference.l3, reference.cores[0].l1, reference.cores[0].l2),
        ):
            assert (mine.hits, mine.misses, mine.evictions) == (
                theirs.hits, theirs.misses, theirs.evictions
            )
        assert hierarchy.dram_accesses == reference.dram_accesses
        assert machine_state(hierarchy) == machine_state(reference)

    def test_sequential_batches_share_state(self):
        pytest.importorskip("numpy")
        addresses, sizes = self.columns()
        reference = MemoryHierarchy(HierarchyConfig(), 1)
        hierarchy = self.make()
        expected, got = [], []
        for _ in range(3):
            expected.extend(
                reference.access(0, a, s, False)
                for a, s in zip(addresses, sizes)
            )
            got.extend(hierarchy.access_batch(addresses, sizes))
        assert got == expected
        assert hierarchy.l3.hits == reference.l3.hits
        assert self.vector_walked(hierarchy)

    def test_scalar_access_works_after_promotion(self):
        # A promoted hierarchy must still serve per-access calls (the
        # tag arrays implement the scalar protocol too).
        pytest.importorskip("numpy")
        addresses, sizes = self.columns()
        reference = MemoryHierarchy(HierarchyConfig(), 1)
        hierarchy = self.make()
        assert list(hierarchy.access_batch(addresses, sizes)) == [
            reference.access(0, a, s, False)
            for a, s in zip(addresses, sizes)
        ]
        assert self.vector_walked(hierarchy)
        assert hierarchy.access(0, 12345, 4, False) == reference.access(
            0, 12345, 4, False
        )

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_row_walk_matches_scalar(self, policy, monkeypatch):
        # Dense re-use past CUT_CAP cuts takes the row walk: latencies,
        # every counter, DRAM fetches and each set's residency order
        # must equal per-access access(), batch after batch. Each
        # batch's L1 misses are sparse enough to chunk.
        calls = self.check_row_walk(
            monkeypatch, HierarchyConfig(replacement=policy),
            [dense_reuse(seed=seed) for seed in (0, 1, 0)],
        )
        assert calls == [0, 0, 0]

    @staticmethod
    def hot_and_cold(hot, n=1200, seed=0):
        """A random ping-pong over the ``hot`` lines' addresses, every
        third access a cold line never touched before: dense at the L1,
        whose misses are the cold lines plus whatever hot lines it
        lost."""
        rng = random.Random(seed)
        return [
            (1 << 20) + 64 * k if k % 3 == 2 else 64 * rng.choice(hot)
            for k in range(n)
        ]

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_dense_l1_row_walks_only_l1(self, policy, monkeypatch):
        # Four hot lines in four L1 sets stay resident under LRU and
        # leave after eight arrivals in their set under FIFO, so the
        # L2 sees the cold lines and rare hot re-fetches: it and the
        # L3 chunk.
        calls = self.check_row_walk(
            monkeypatch, HierarchyConfig(replacement=policy),
            [self.hot_and_cold([0, 1, 2, 3], seed=seed) for seed in (0, 1)],
        )
        assert calls == [0, 0]

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_dense_l1_and_l2_row_walk_l3_chunks(self, policy, monkeypatch):
        # On the small machine four hot lines share one 2-way L1 set,
        # so the L1 misses are dense too. They sit in four L2 sets,
        # which take a cold line once per 32 cold accesses, so the L2
        # misses chunk.
        calls = self.check_row_walk(
            monkeypatch,
            dataclasses.replace(HierarchyConfig.small(), replacement=policy),
            [self.hot_and_cold([0, 8, 16, 24], seed=seed)
             for seed in (0, 1)],
        )
        assert calls == [0, 1, 0, 1]

    @staticmethod
    def check_row_walk(monkeypatch, config, batches):
        """Walk ``batches`` on a promoted one-core machine and on the
        scalar reference, asserting parity after each; returns the
        depths the cascade row-walked."""
        pytest.importorskip("numpy")
        calls = spy_row_walk(monkeypatch)
        reference = MemoryHierarchy(config, 1)
        hierarchy = MemoryHierarchy(config, 1)
        for addresses in batches:
            sizes = [4] * len(addresses)
            expected = [
                reference.access(0, a, s, False)
                for a, s in zip(addresses, sizes)
            ]
            assert list(hierarchy.access_batch(addresses, sizes)) == expected
            assert machine_state(hierarchy) == machine_state(reference)
        assert hierarchy._promoted
        assert hierarchy.walk_accesses()["list"] == 0
        return calls

    def test_random_policy_never_promotes(self):
        # Random replacement replays an RNG stream whose draw order the
        # vector walk cannot reproduce: it must stay on the
        # trace-ordered list walk.
        addresses, sizes = self.columns()
        hierarchy = self.make("random")
        reference = MemoryHierarchy(HierarchyConfig(replacement="random"), 1)
        expected = [
            reference.access(0, a, s, False)
            for a, s in zip(addresses, sizes)
        ]
        assert hierarchy.access_batch(addresses, sizes) == expected
        assert not hierarchy._promoted


class TestMulticoreWalk:
    """The 4-core machine without prefetcher or TLB: the per-core vector
    walk, which cuts a batch at its line-crossing accesses and its
    accesses to written lines that are not private to one core, the
    inlined list walk of a batch whose cut accesses form too many runs,
    and the transitions between them, each against per-access
    ``access()``."""

    CORES = 4

    def columns(self, writes=False):
        # Private hits and conflict evictions per core, lines shared
        # between cores (directory reads), revisits, and one line
        # touched by every core in turn (the same-line memo must not
        # carry a hit across cores).
        addresses = (
            [0, 64, 0, 4096, 64]
            + [640 * k for k in range(96)]
            + [0, 64, 4096, 640, 128]
            + [8192] * 8
        )
        n = len(addresses)
        sizes = [4] * n
        is_write = [int(writes and k % 5 == 0) for k in range(n)]
        thread = [k * self.CORES // n if k % 3 else k % 7 for k in range(n)]
        thread[-8:] = [k % self.CORES for k in range(8)]
        return addresses, sizes, is_write, thread

    def crossing(self, writes=False):
        """:meth:`columns` with a line-crossing access mid-batch."""
        addresses, sizes, is_write, thread = self.columns(writes)
        middle = len(addresses) // 2
        addresses[middle], sizes[middle] = 60, 8
        return addresses, sizes, is_write, thread

    def crossings(self):
        """:meth:`columns` twice over, with every other access line-
        crossing until its cut accesses form ``CUT_CAP + 1`` runs."""
        addresses, sizes, is_write, thread = (
            column * 2 for column in self.columns()
        )
        for k in range(0, 2 * vectorwalk.CUT_CAP + 1, 2):
            addresses[k] += 60
            sizes[k] = 8
        return addresses, sizes, is_write, thread

    def ping_pong(self):
        """Cores 0 and 1 take turns writing line 0, each turn after a
        read of a line of its own: ``CUT_CAP + 1`` runs of cut
        accesses."""
        addresses, is_write, thread = [], [], []
        for k in range(vectorwalk.CUT_CAP + 1):
            core = k % 2
            addresses += [4096 * (k + 1) + 64 * core, 8]
            is_write += [0, 1]
            thread += [core, core]
        return addresses, [4] * len(addresses), is_write, thread

    def check(self, batches, config=None):
        """Walk ``batches`` batched and per access; returns the batched
        hierarchy after asserting latencies and state are identical."""
        config = config or HierarchyConfig()
        reference = MemoryHierarchy(config, self.CORES)
        hierarchy = MemoryHierarchy(config, self.CORES)
        for addresses, sizes, is_write, thread in batches:
            expected = [
                reference.access(t % self.CORES, a, s, bool(w))
                for a, s, w, t in zip(addresses, sizes, is_write, thread)
            ]
            got = hierarchy.access_batch(addresses, sizes, is_write, thread)
            assert list(got) == expected
            assert machine_state(hierarchy) == machine_state(reference)
        return hierarchy

    def test_list_walk_with_writes_matches_scalar(self):
        # Too many runs of cut accesses for the per-core walk: the list
        # walk takes both batches, and the machine stays unpromoted.
        batch = self.ping_pong()
        hierarchy = self.check([batch] * 2)
        assert not hierarchy._promoted
        assert hierarchy.walk_accesses() == self.paths(
            list=2 * len(batch[0])
        )
        assert hierarchy.invalidations > 0

    def test_cut_walk_with_writes_matches_scalar(self):
        # Every fifth access writes, and cores share lines: each batch
        # is cut at its 12 accesses to written lines two cores touch,
        # which take access() and purge remote copies in trace order,
        # and the per-core walk takes the rest on tag arrays.
        pytest.importorskip("numpy")
        batch = self.columns(writes=True)
        hierarchy = self.check([batch] * 2)
        assert hierarchy._promoted
        assert list_cores(hierarchy) == []
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=2 * (len(batch[0]) - 12), scalar=2 * 12
        )
        assert hierarchy.invalidations == 7

    def test_line_crossing_accesses_take_access(self):
        hierarchy = self.check([self.crossing(), self.crossing(writes=True)])
        n = len(self.columns()[0])
        if vectorwalk.HAVE_NUMPY:
            # The per-core walk cuts each batch at its line-crossing
            # access, and the second also at 12 accesses to written
            # lines two cores touch.
            assert hierarchy.walk_accesses() == self.paths(
                general_vector=2 * n - 14, scalar=14
            )
        else:
            assert hierarchy.walk_accesses() == self.paths(
                list=2 * n - 2, scalar=2
            )

    def test_write_free_batches_vector_walk_each_core(self):
        pytest.importorskip("numpy")
        hierarchy = self.check([self.columns()] * 3)
        assert hierarchy._promoted
        # Only the private levels are promoted; the shared L3 is a list.
        assert hasattr(hierarchy.cores[3].l2, "to_list_cache")
        assert not hasattr(hierarchy.l3, "to_list_cache")

    def test_vector_walk_forwards_dirty_remote_lines(self):
        # Core 0 writes 16 lines no other core touches or holds: the
        # batch promotes and vector-walks, and the directory's write
        # leaves each line in core 0's M. Cores 1 and 2 then read them
        # in a write-free batch: core 1's private misses reach the
        # directory's read fill in _shared_fills, which forwards each
        # dirty line once; core 2 then finds it Shared.
        pytest.importorskip("numpy")
        addresses = [640 * k for k in range(16)]
        n = len(addresses)
        written = (addresses, [4] * n, [1] * n, [0] * n)
        read = (addresses * 2, [4] * 2 * n, [0] * 2 * n, [1] * n + [2] * n)
        before = self.check([written])
        assert before.walk_accesses()["general_vector"] == n
        assert before.directory.stats.cache_to_cache == 0
        assert {
            before.directory.state(0, address >> 6) for address in addresses
        } == {"M"}
        hierarchy = self.check([written, read])
        assert hierarchy._promoted
        assert hierarchy.walk_accesses()["general_vector"] == 3 * n
        stats = hierarchy.directory.stats
        assert stats.cache_to_cache == stats.writebacks == n

    def private_writes(self, base=0):
        """A batch in which each core touches 24 lines of its own,
        twice over, and every core reads one line no core writes; the
        own lines start at byte ``base``.

        Of every three own lines, one is only written, one read and
        then written, and one only read. A core's lines share one L1
        set, so the second pass misses L1 and hits L2. Its writes then
        find the line in M already, and change no directory word."""
        addresses, is_write, thread = [], [], []
        for _ in range(2):
            for j in range(24):
                for core in range(self.CORES):
                    address = base + 4096 * j + 64 * core
                    if j % 3 != 0:
                        addresses.append(address)
                        is_write.append(0)
                        thread.append(core)
                    if j % 3 != 2:
                        addresses.append(address + 8)
                        is_write.append(1)
                        thread.append(core)
            for core in range(self.CORES):
                addresses.append(1 << 20)
                is_write.append(0)
                thread.append(core)
        return addresses, [4] * len(addresses), is_write, thread

    def test_private_write_batch_vector_walks(self, monkeypatch):
        pytest.importorskip("numpy")
        fills = []
        shared_fills = MemoryHierarchy._shared_fills

        def spy(self, lines, bits):
            fills.append(len(lines))
            return shared_fills(self, lines, bits)

        monkeypatch.setattr(MemoryHierarchy, "_shared_fills", spy)
        batch = self.private_writes()
        hierarchy = self.check([batch] * 3)
        assert hierarchy._promoted
        counts = dict.fromkeys(WALK_PATHS, 0)
        counts["general_vector"] = 3 * len(batch[0])
        assert hierarchy.walk_accesses() == counts
        assert hierarchy.invalidations == 0
        # Only private misses reach the per-access pass, writes none
        # of theirs: per core, the 24 own lines and the line every core
        # reads miss once, in the first batch.
        assert fills == [25 * self.CORES]

    @pytest.mark.parametrize("first_write", [False, True])
    @pytest.mark.parametrize("batches", [1, 2])
    def test_sole_holder_reread_then_write_upgrades(
        self, first_write, batches
    ):
        # Core 0 reads (or writes) line 0, evicts it from its L1 and L2
        # with eight lines of the same sets, re-reads it and writes it.
        # The directory still lists core 0 alone, so the re-read's read
        # fill ends it S, and the write pays the upgrade: in one batch,
        # or with the write alone in a second batch.
        pytest.importorskip("numpy")
        config = HierarchyConfig()
        stride = config.l2.size_bytes // config.l2.ways
        addresses = [stride * k for k in range(9)] + [0, 0]
        is_write = [int(first_write)] + [0] * 9 + [1]
        n = len(addresses)
        columns = (addresses, [4] * n, is_write, [0] * n)
        cut = n if batches == 1 else n - 1
        split = [tuple(column[:cut] for column in columns)]
        if batches == 2:
            split.append(tuple(column[cut:] for column in columns))
        hierarchy = self.check(split)
        assert hierarchy.walk_accesses()["general_vector"] == n
        directory = hierarchy.directory
        assert directory.stats.upgrades == 1
        assert directory.state(0, 0) == "M"
        reference = MemoryHierarchy(config, self.CORES)
        for address, write in zip(addresses, is_write):
            latency = reference.access(0, address, 4, bool(write))
        assert latency == config.l1.latency + directory.upgrade_latency

    def test_write_miss_to_own_modified_line_stays_modified(self):
        # Core 0 writes line 0, then in the next batch evicts it and
        # writes it again: the write misses its private caches, and the
        # line, already core 0's M, ends M with no upgrade.
        pytest.importorskip("numpy")
        stride = HierarchyConfig().l2.size_bytes // HierarchyConfig().l2.ways
        addresses = [stride * k for k in range(1, 9)] + [0]
        n = len(addresses)
        again = (addresses, [4] * n, [0] * (n - 1) + [1], [0] * n)
        hierarchy = self.check([([0], [4], [1], [0]), again])
        assert hierarchy.walk_accesses()["general_vector"] == n + 1
        assert hierarchy.directory.state(0, 0) == "M"
        assert hierarchy.directory.stats.upgrades == 0

    def read_written_line(self):
        """:meth:`private_writes` in which core 1 then reads a line that
        core 0 writes."""
        addresses, sizes, is_write, thread = self.private_writes()
        addresses.append(8)
        sizes.append(4)
        is_write.append(0)
        thread.append(1)
        return addresses, sizes, is_write, thread

    @pytest.mark.parametrize("promoted", [False, True])
    def test_written_line_read_by_another_core_cuts_the_batch(
        self, promoted
    ):
        # Core 0's two writes of the line and core 1's read of it take
        # access(), after the per-core walk of the accesses before them.
        pytest.importorskip("numpy")
        shared = self.read_written_line()
        # A one-access read of a line far away promotes the machine.
        far = ([1 << 22], [4], [0], [2])
        batches = ([far] if promoted else []) + [shared]
        hierarchy = self.check(batches)
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=len(shared[0]) - 3 + promoted, scalar=3
        )
        assert hierarchy._promoted
        assert list_cores(hierarchy) == []

    @pytest.mark.parametrize("promoted", [False, True])
    def test_written_line_read_by_another_core_lists_the_batch(
        self, promoted
    ):
        # The same batch, then CUT_CAP turns of core 0 writing the line
        # and core 1 reading it, each turn before a read of core 2's:
        # the cut accesses form more than CUT_CAP runs, so the list walk
        # takes the batch, and a promoted machine turns every core to
        # list caches.
        pytest.importorskip("numpy")
        addresses, sizes, is_write, thread = self.read_written_line()
        for k in range(vectorwalk.CUT_CAP):
            addresses += [8, 8, (1 << 21) + 64 * k]
            sizes += [4, 4, 4]
            is_write += [1, 0, 0]
            thread += [0, 1, 2]
        shared = (addresses, sizes, is_write, thread)
        far = ([1 << 22], [4], [0], [2])
        batches = ([far] if promoted else []) + [shared]
        hierarchy = self.check(batches)
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=int(promoted), list=len(addresses)
        )
        assert hierarchy._promoted == promoted
        assert list_cores(hierarchy) == [0, 1, 2, 3]

    def test_stale_remote_holder_cuts_the_batch(self):
        # Core 1 reads line 0 and evicts it from its L1 and L2, but the
        # directory still lists it. Core 0's write of line 0 in the
        # next batch touches no other core's line, yet takes access():
        # the scalar walk counts the purge of the stale holder. Its
        # write of line 1 stays on the per-core walk.
        pytest.importorskip("numpy")
        stride = HierarchyConfig().l2.size_bytes // HierarchyConfig().l2.ways
        addresses = [stride * k for k in range(9)]
        n = len(addresses)
        read = (addresses, [4] * n, [0] * n, [1] * n)
        write = ([0, 64], [4, 4], [1, 1], [0, 0])
        hierarchy = self.check([read, write])
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=n + 1, scalar=1
        )
        assert list_cores(hierarchy) == []
        assert hierarchy.invalidations == 1

    def halo(self):
        """:meth:`private_writes` in which each core then writes the
        first line of the next core's own lines, as OverlapView's halo
        exchange does."""
        addresses, sizes, is_write, thread = self.private_writes()
        for core in range(self.CORES):
            addresses.append(64 * ((core + 1) % self.CORES))
            sizes.append(4)
            is_write.append(1)
            thread.append(core)
        return addresses, sizes, is_write, thread

    def test_halo_batch_after_promotion_cuts_exactly(self):
        # The halo batch is cut at its 12 accesses to each core's first
        # own line: each core's two writes of its own and its write of
        # the next core's. The private batch after it writes each
        # core's first own line, which the directory now lists with
        # the previous core, so it is cut at those 8 accesses. No core
        # leaves its tag arrays.
        pytest.importorskip("numpy")
        halo = self.halo()
        private = self.private_writes()
        hierarchy = self.check([private, halo, private])
        assert list_cores(hierarchy) == []
        n = len(private[0])
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=n + len(halo[0]) - 12 + n - 8, scalar=12 + 8
        )
        assert hierarchy.invalidations == 8

    def test_batches_after_a_halo_batch_walk_tag_arrays(self):
        # The per-core walk cuts a halo batch and leaves every core on
        # its tag arrays, where it then takes a write-free batch and a
        # batch whose written lines, away from the halo's, stay private.
        pytest.importorskip("numpy")
        halo = self.halo()
        after = [self.columns(), self.private_writes(base=1 << 21)]
        hierarchy = self.check([self.private_writes(), halo] + after)
        assert hierarchy._promoted
        assert list_cores(hierarchy) == []
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=len(self.private_writes()[0]) + sum(
                len(batch[0]) for batch in after
            ) + len(halo[0]) - 12,
            scalar=12,
        )

    def test_machine_too_wide_for_int64_holder_bits_lists(self):
        # Core 63's holder bit is 1 << 65: the per-core walk's int64
        # columns cannot hold it, so a 64-core machine list-walks.
        pytest.importorskip("numpy")
        cores = 64
        n = 512
        addresses = [64 * (k % 200) for k in range(n)]
        thread = [k % cores for k in range(n)]
        is_write = [int(k % 7 == 0) for k in range(n)]
        reference = MemoryHierarchy(HierarchyConfig(), cores)
        hierarchy = MemoryHierarchy(HierarchyConfig(), cores)
        for writes in ([0] * n, is_write):
            expected = [
                reference.access(t, a, 4, bool(w))
                for a, t, w in zip(addresses, thread, writes)
            ]
            got = hierarchy.access_batch(addresses, [4] * n, writes, thread)
            assert list(got) == expected
        assert machine_state(hierarchy) == machine_state(reference)
        assert hierarchy.walk_accesses()["list"] == 2 * n

    def test_write_batch_after_promotion_demotes_exactly(self):
        # The list walk takes a write batch with too many runs of cut
        # accesses and turns every core's caches into lists; the
        # write-free batch after it walks them on the per-core walk.
        pytest.importorskip("numpy")
        ping_pong = self.ping_pong()
        hierarchy = self.check([self.columns(), ping_pong, self.columns()])
        assert list_cores(hierarchy) == [0, 1, 2, 3]
        n = len(self.columns()[0])
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=2 * n, list=len(ping_pong[0])
        )

    def test_line_crossing_batch_after_promotion_demotes_exactly(self):
        # One line-crossing access cuts the batch; CUT_CAP + 1 runs of
        # them send it to the list walk, and every core to lists.
        pytest.importorskip("numpy")
        hierarchy = self.check([self.columns(), self.crossing()])
        assert list_cores(hierarchy) == []
        hierarchy = self.check([self.columns(), self.crossings()])
        assert hierarchy._promoted
        assert list_cores(hierarchy) == [0, 1, 2, 3]
        assert hierarchy.walk_accesses()["list"] == (
            len(self.crossings()[0]) - vectorwalk.CUT_CAP - 1
        )

    def test_machine_without_numpy_walks_lists(self, monkeypatch):
        monkeypatch.setattr(vectorwalk, "HAVE_NUMPY", False)
        hierarchy = self.check([self.columns()])
        assert not hierarchy._promoted
        assert hierarchy.walk_accesses()["list"] == len(self.columns()[0])

    def dense(self):
        """A batch whose first three cores' shares are distinct lines
        and whose fourth core's share is dense re-use, past the chunked
        walk's cuts."""
        sparse = [640 * k for k in range(96)]
        addresses = sparse + dense_reuse(n=600)
        n = len(addresses)
        thread = [k % 3 for k in range(len(sparse))] + [3] * (n - len(sparse))
        return addresses, [4] * n, [0] * n, thread

    def paths(self, **credits):
        counts = dict.fromkeys(WALK_PATHS, 0)
        counts.update(credits)
        return counts

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_dense_later_core_lists_the_batch(self, policy, monkeypatch):
        # Only the dense core goes to lists: it turns its own L1/L2
        # into list caches for good and walks its share there, while
        # the first three cores cascade on tag arrays; the batch stays
        # on the per-core walk, which never row-walks.
        pytest.importorskip("numpy")
        calls = spy_row_walk(monkeypatch)
        batch = self.dense()
        hierarchy = self.check(
            [batch], config=HierarchyConfig(replacement=policy)
        )
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=len(batch[0])
        )
        assert hierarchy._promoted
        assert list_cores(hierarchy) == [3]
        assert calls == []

    def test_dense_first_batch_lists_only_the_dense_core(self, monkeypatch):
        # The first batch promotes the machine once; its dense core then
        # turns back to lists, and the next batch, which is not dense
        # anywhere, leaves it there while the other cores cascade.
        pytest.importorskip("numpy")
        promoted = []
        promote = MemoryHierarchy._promote_to_vector

        def spy(self):
            promoted.append(list_cores(self))
            promote(self)

        monkeypatch.setattr(MemoryHierarchy, "_promote_to_vector", spy)
        batches = [self.dense(), self.columns()]
        hierarchy = self.check(batches)
        assert promoted == [[0, 1, 2, 3]]
        assert hierarchy._promoted
        assert list_cores(hierarchy) == [3]
        assert hierarchy.walk_accesses() == self.paths(
            general_vector=sum(len(batch[0]) for batch in batches)
        )

    def test_dense_batch_after_promotion_demotes_exactly(self, monkeypatch):
        # The dense core's tag arrays turn to lists mid-run, exactly:
        # the batch after it walks that core on lists, the others on
        # tag arrays. The per-core walk then cuts a batch that writes
        # lines two cores touch, or one with a line-crossing access, and
        # the mixed machine stays as it is; a batch with too many runs
        # of cut accesses takes the list walk and turns the other cores
        # to lists too.
        pytest.importorskip("numpy")
        calls = spy_row_walk(monkeypatch)
        batches = [self.columns(), self.dense(), self.columns()]
        hierarchy = self.check(batches)
        assert hierarchy._promoted
        assert list_cores(hierarchy) == [3]
        walked = sum(len(batch[0]) for batch in batches)
        assert hierarchy.walk_accesses() == self.paths(general_vector=walked)
        assert calls == []
        for after, cut in ((self.columns(writes=True), 26),
                           (self.crossing(), 1)):
            hierarchy = self.check(batches + [after])
            assert list_cores(hierarchy) == [3]
            assert hierarchy.walk_accesses() == self.paths(
                general_vector=walked + len(after[0]) - cut, scalar=cut
            )
        for after in (self.ping_pong(), self.crossings()):
            hierarchy = self.check(batches + [after])
            assert hierarchy._promoted
            assert list_cores(hierarchy) == [0, 1, 2, 3]
            counts = hierarchy.walk_accesses()
            assert counts["general_vector"] == walked
            assert counts["list"] + counts["scalar"] == len(after[0])

    def test_scalar_access_works_after_promotion(self):
        pytest.importorskip("numpy")
        hierarchy = self.check([self.columns()])
        reference = MemoryHierarchy(HierarchyConfig(), self.CORES)
        addresses, sizes, _, thread = self.columns()
        for a, s, t in zip(addresses, sizes, thread):
            reference.access(t % self.CORES, a, s, False)
        for core, write in [(1, True), (2, False), (1, False)]:
            assert hierarchy.access(core, 640, 4, write) == reference.access(
                core, 640, 4, write
            )
        assert machine_state(hierarchy) == machine_state(reference)


class TestWalkPaths:
    """``walk_accesses`` credits every access to exactly one path."""

    def simulate(self, config, cores, items, vector=True):
        hierarchy = MemoryHierarchy(config, cores)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                vectorwalk, "HAVE_NUMPY", vector and vectorwalk.HAVE_NUMPY
            )
            metrics = simulate(items, hierarchy=hierarchy)
        counts = hierarchy.walk_accesses()
        assert sum(counts.values()) == metrics.accesses
        return counts

    def batches(self, threads):
        bound = program(affine("i", 1, 0), stop=48)
        batched = list(Interpreter(bound, num_threads=threads).run_batched())
        assert any(isinstance(item, AccessBatch) for item in batched)
        return batched

    def test_paths_sum_to_accesses_simulated(self):
        pytest.importorskip("numpy")
        config = HierarchyConfig()
        scalar = list(Interpreter(program(affine("i", 1, 0))).run())
        cases = [
            (config, 1, self.batches(1), True, "vector"),
            (config, 1, self.batches(1), False, "list"),
            (config, 4, self.batches(4), True, "general_vector"),
            (config, 4, self.batches(4), False, "list"),
            (HierarchyConfig(prefetch_degree=2), 2, self.batches(2), True,
             "list"),
            (config, 1, scalar, True, "scalar"),
        ]
        for config, cores, items, vector, path in cases:
            counts = self.simulate(config, cores, items, vector)
            assert counts[path] > 0, (path, counts)

    @staticmethod
    def two_core_path():
        """The path that takes a 2-core batch's single-line accesses:
        the per-core walk, or without numpy the list walk."""
        return "general_vector" if vectorwalk.HAVE_NUMPY else "list"

    def test_line_crossing_accesses_count_as_scalar(self):
        hierarchy = MemoryHierarchy(HierarchyConfig(), 2)
        hierarchy.access_batch([0, 60, 128], [4, 8, 4], [0, 0, 0], [0, 1, 0])
        credits = dict.fromkeys(WALK_PATHS, 0)
        credits.update({self.two_core_path(): 2, "scalar": 1})
        assert hierarchy.walk_accesses() == credits

    def test_exported_per_path(self):
        from repro.telemetry import MetricsRegistry

        hierarchy = MemoryHierarchy(HierarchyConfig(), 2)
        hierarchy.access_batch([0, 60, 128], [4, 8, 4], [0, 0, 0], [0, 1, 0])
        registry = MetricsRegistry()
        hierarchy.export_metrics(registry)
        exported = {
            path: registry.get(
                "repro_memsim_walk_accesses_total", path=path
            ).value
            for path in WALK_PATHS
        }
        assert exported == hierarchy.walk_accesses()
        assert exported[self.two_core_path()] == 2


    def test_batches_and_seconds_exported_per_path(self):
        from repro import telemetry
        from repro.telemetry import MetricsRegistry

        def exported(name, hierarchy):
            registry = MetricsRegistry()
            hierarchy.export_metrics(registry)
            return {
                path: registry.get(name, path=path).value
                for path in WALK_PATHS[:-1]
            }

        addresses = [0, 60, 128]
        untimed = MemoryHierarchy(HierarchyConfig(), 2)
        for _ in range(3):
            untimed.access_batch(addresses, [4, 8, 4], [0, 0, 0], [0, 1, 0])
        batches = exported("repro_memsim_walk_batches_total", untimed)
        path = self.two_core_path()
        assert batches == {
            "vector": 0, "memo": 0, "list": 0, "general_vector": 0, path: 3,
        }
        # Timing happens only inside a telemetry session.
        assert set(
            exported("repro_memsim_walk_seconds_total", untimed).values()
        ) == {0.0}
        timed = MemoryHierarchy(HierarchyConfig(), 2)
        with telemetry.session():
            timed.access_batch(addresses, [4, 8, 4], [0, 0, 0], [0, 1, 0])
        seconds = exported("repro_memsim_walk_seconds_total", timed)
        assert seconds[path] > 0.0
        assert sum(seconds.values()) == seconds[path]

    def test_promoted_single_core_never_credits_the_list_walk(self):
        # Dense-reuse batches no longer demote the single-core machine:
        # once promoted, every batch stays on the vector walk or memo.
        pytest.importorskip("numpy")
        hierarchy = MemoryHierarchy(HierarchyConfig(), 1)
        for seed in range(6):
            addresses = dense_reuse(n=2000, seed=seed)
            hierarchy.access_batch(addresses, [4] * len(addresses))
        counts = hierarchy.walk_accesses()
        assert hierarchy._promoted
        assert counts["list"] == 0
        assert counts["vector"] + counts["memo"] == 12000


class TestSimulateProgress:
    def test_batches_publish_monotone_progress(self, monkeypatch):
        # With a live event bus, simulate publishes stage-progress once
        # at least PROGRESS_EVERY accesses have passed since the last
        # publication, checked at the end of each batch.
        import repro.memsim.engine as engine_mod
        from repro.telemetry import events
        from repro.telemetry.events import EventBus

        monkeypatch.setattr(engine_mod, "PROGRESS_EVERY", 16)
        bound = program(Mod(affine("i", 1, 0), ELEMENTS), stop=200)
        trace = list(Interpreter(bound).run_batched()) * 4
        ends, done = set(), 0
        for item in trace:
            if isinstance(item, AccessBatch):
                done += item.length
                ends.add(done)
            elif isinstance(item, MemoryAccess):
                done += 1
        assert len(ends) >= 4
        seen = []
        bus = EventBus()
        bus.subscribe(
            lambda e: seen.append(e) if e.type == "stage-progress" else None
        )
        with events.use(bus):
            metrics = simulate(iter(trace), config=HierarchyConfig())
        assert metrics.accesses == done
        assert len(seen) >= 4
        assert all(e.data["stage"] == "simulate" for e in seen)
        assert all(e.data["unit"] == "accesses" for e in seen)
        dones = [e.data["done"] for e in seen]
        assert dones == sorted(set(dones))
        # Each publication lands at the end of a batch.
        assert set(dones) <= ends


class TestSamplerBatch:
    def run_both(self, make_sampler, bound, num_threads=1):
        state = []
        for batched in (False, True):
            interp = Interpreter(bound, num_threads=num_threads)
            trace = interp.run_batched() if batched else interp.run()
            sampler = make_sampler()
            simulate(
                trace,
                hierarchy=MemoryHierarchy(HierarchyConfig(), num_threads),
                observer=sampler.observe,
            )
            state.append((
                sampler.samples,
                sampler.total_accesses,
                sampler.eligible_accesses,
                sampler.periods_drawn,
                sampler._countdown,
            ))
        return state

    @pytest.mark.parametrize(
    "make_sampler",
        [
            lambda: PEBSLoadLatencySampler(7, jitter=0.3, seed=5),
            lambda: PEBSLoadLatencySampler(7, jitter=0.0, ldlat=0.0, seed=5),
            lambda: IBSSampler(5, jitter=0.2, seed=5),
            lambda: DEARSampler(3, jitter=0.1, seed=5),
            # Periods that cannot vary take the arange route.
            lambda: PEBSLoadLatencySampler(3, seed=5),
            lambda: IBSSampler(1, seed=5),
            # ldlat above the L1 latency: listed eligible positions.
            lambda: PEBSLoadLatencySampler(7, ldlat=10.0, seed=5),
            lambda: PEBSLoadLatencySampler(13, jitter=0.3, ldlat=10.0, seed=5),
        ],
    )
    def test_observe_batch_is_bit_identical(self, make_sampler):
        bound = program(Mod(affine("i", 7, 3), ELEMENTS), stop=200)
        scalar, batched = self.run_both(make_sampler, bound)
        assert scalar == batched

    @pytest.mark.parametrize("numpy", [True, False])
    def test_latency_filter_keeps_accesses_at_the_threshold(
        self, numpy, monkeypatch
    ):
        # ldlat equal to the DRAM latency: L1 hits are filtered out and
        # the DRAM fetches, exactly at the threshold, stay eligible.
        monkeypatch.setattr(
            vectorwalk, "HAVE_NUMPY", numpy and vectorwalk.HAVE_NUMPY
        )
        bound = program(Mod(affine("i", 7, 3), ELEMENTS), stop=200)
        dram = HierarchyConfig().dram_latency
        scalar, batched = self.run_both(
            lambda: PEBSLoadLatencySampler(1, ldlat=dram, seed=5), bound
        )
        assert scalar == batched
        assert batched[0] and {s.latency for s in batched[0]} == {dram}

    @pytest.mark.parametrize("period", [2, 9, 31])
    @pytest.mark.parametrize("ldlat", [0.0, 10.0, 220.0])
    def test_parallel_batches_are_bit_identical(self, period, ldlat):
        # Four thread slots per round: each slot counts down on its own
        # and the log interleaves them in trace order. At ldlat 220
        # only the few DRAM fetches are eligible, so some slots have
        # none and must stay unarmed.
        builder = WorkloadBuilder("unit")
        builder.add_aos(ELEM, ELEMENTS, name="A")
        loop = Loop(line=1, var="i", start=0, stop=300, end_line=4,
                    parallel=True, body=[
                        Access(line=2, array="A", field="x",
                               index=Mod(affine("i", 5, 1), ELEMENTS)),
                        Access(line=3, array="A", field="x",
                               index=Mod(affine("i", 3, 0), ELEMENTS),
                               is_write=True),
                    ])
        bound = builder.build([Function("main", [loop])])
        scalar, batched = self.run_both(
            lambda: PEBSLoadLatencySampler(period, ldlat=ldlat, seed=4),
            bound, num_threads=4,
        )
        assert scalar == batched
        if ldlat < 220.0:
            assert len({s.thread for s in batched[0]}) == 4

    def test_unit_latency_sampler_degrades_batched_column(self):
        bound = program(Mod(affine("i"), ELEMENTS), stop=400)
        scalar, batched = self.run_both(lambda: DEARSampler(11, seed=2), bound)
        assert scalar == batched
        assert all(s.latency == 1.0 for s in batched[0])

    def test_first_sample_stagger_uses_jittered_period(self):
        # Satellite fix: the initial countdown must come from
        # _next_period(), so it lands in the jitter band *and* is
        # recorded in periods_drawn like every later draw.
        period, jitter = 100, 0.2
        sampler = PEBSLoadLatencySampler(
            period, jitter=jitter, ldlat=0.0, seed=9
        )
        bound = program(affine("i"), stop=16)
        simulate(
            Interpreter(bound).run(),
            hierarchy=MemoryHierarchy(HierarchyConfig(), 1),
            observer=sampler.observe,
        )
        assert sampler.periods_drawn, "stagger draw must be recorded"
        spread = int(period * jitter)
        first = sampler.periods_drawn[0]
        assert period - spread <= first <= period + spread


class TestEngineSelection:
    def test_monitor_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            Monitor(engine="vectorized")

    def test_monitor_accepts_both_engines(self):
        assert Monitor(engine="scalar").engine == "scalar"
        assert Monitor().engine == "batched"
