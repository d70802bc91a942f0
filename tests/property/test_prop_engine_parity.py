"""Property: the batched engine is observationally identical to scalar.

The columnar fast path (interp.run_batched -> hierarchy.access_batch ->
sampler.observe_batch) promises *byte-identical* results to the scalar
pipeline — same trace, same metrics, same samples, same RNG state.
These properties check that contract over random programs: every index
kind (Const/Affine/Mod/Indirect), writes (and write-free bodies),
nested and parallel loops, trip counts straddling the MIN_BATCH_TRIPS
gate, up to four threads (Table 3's machine), and both PMU flavors with
jittered periods. Parity covers the machine's whole state: every
cache's resident lines in recency order and the directory's holders
and per-line invalidations, not only counters.

The sample path has its own contract: the batched engine's columnar
log folded by windows must leave the same profiles, byte for byte and
in every dictionary's insertion order, as the scalar engine's samples
folded one by one through ``observe_sample``.
"""

import json
import random
from unittest import mock

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binary.loopmap import LoopMap
from repro.layout import INT, StructType
from repro.layout.types import array_of
from repro.memsim import vectorwalk
from repro.memsim.engine import simulate
from repro.memsim.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memsim.tlb import TLBConfig
from repro.program import AccessBatch, Access, Compute, Function, Loop, WorkloadBuilder, affine
from repro.program.interp import Interpreter
from repro.program.ir import Const, Indirect, Mod
from repro.profiler import collector as collector_module
from repro.profiler.allocation import DataObjectRegistry
from repro.profiler.collector import ProfileCollector
from repro.sampling.events import SampleLog
from repro.sampling.ibs import IBSSampler
from repro.sampling.pebs import PEBSLoadLatencySampler
from tests.property.strategies import ELEM
from tests.unit.test_engine_batch import machine_state

#: Element count of the single array every random program touches.
ELEMENTS = 64


@st.composite
def index_exprs(draw, loop_vars):
    """An in-bounds index expression over the enclosing loop variables.

    ``loop_vars`` is a list of (var, stop) for every enclosing loop, so
    expressions may read the innermost variable (contiguous in the
    batch) or an outer one (constant across the inner loop).
    """
    kind = draw(st.sampled_from(["const", "affine", "mod", "indirect"]))
    if kind == "const" or not loop_vars:
        return Const(draw(st.integers(0, ELEMENTS - 1)))
    var, stop = draw(st.sampled_from(loop_vars))
    if kind == "mod":
        scale = draw(st.integers(-3, 3))
        offset = draw(st.integers(-8, 8))
        modulus = draw(st.integers(1, ELEMENTS))
        return Mod(affine(var, scale, offset), modulus)
    if kind == "indirect":
        table_len = draw(st.integers(2, 16))
        table = [draw(st.integers(0, ELEMENTS - 1)) for _ in range(table_len)]
        inner = Mod(affine(var, draw(st.integers(-2, 2)), 0), table_len)
        return Indirect.of(table, inner)
    # Plain affine: clamp the offset so var*scale+offset stays in range,
    # falling back to a Mod wrap when no offset can keep it in bounds.
    scale = draw(st.integers(-2, 2))
    span = scale * (stop - 1)
    lo, hi = min(0, span), max(0, span)
    if -lo > ELEMENTS - 1 - hi:
        return Mod(affine(var, scale, 0), ELEMENTS)
    offset = draw(st.integers(-lo, ELEMENTS - 1 - hi))
    return affine(var, scale, offset)


@st.composite
def bodies(draw, loop_vars=(), depth=0, writes=True):
    """A random body mixing accesses, computes, and (parallel) loops;
    ``writes=False`` makes every access a read."""
    loop_vars = list(loop_vars)
    body = []
    for k in range(draw(st.integers(1, 3))):
        line = 10 * depth + k + 1
        kind = draw(st.sampled_from(
            ["access", "access", "compute", "loop"]
            if depth < 2 else ["access", "compute"]
        ))
        if kind == "access":
            body.append(Access(
                line=line,
                array="A",
                field="x",
                index=draw(index_exprs(loop_vars)),
                is_write=writes and draw(st.booleans()),
            ))
        elif kind == "compute":
            body.append(Compute(line=line, cycles=1.0))
        else:
            var = f"v{depth}_{k}"
            # Trip counts straddle MIN_BATCH_TRIPS (8) so both the
            # batch path and the small-loop scalar fallback run.
            stop = draw(st.integers(2, 20))
            body.append(Loop(
                line=line,
                var=var,
                start=0,
                stop=stop,
                body=draw(
                    bodies(loop_vars + [(var, stop)], depth + 1, writes)
                ),
                end_line=line,
                parallel=draw(st.booleans()) if depth == 0 else False,
            ))
    return body


#: Bodies with writes, or write-free ones (which the multi-core machine
#: walks per core on its vector path; :class:`TestPrivateWriteParity`
#: reaches that path with writes).
any_bodies = st.booleans().flatmap(lambda writes: bodies(writes=writes))


def build(body):
    builder = WorkloadBuilder("random")
    builder.add_aos(ELEM, ELEMENTS, name="A")
    return builder.build([Function("main", body)])


def expand(items):
    """Flatten AccessBatch items back into scalar trace items."""
    out = []
    for item in items:
        if isinstance(item, AccessBatch):
            out.extend(item)
        else:
            out.append(item)
    return out


def sampler_state(sampler):
    return (
        sampler.samples,
        sampler.total_accesses,
        sampler.eligible_accesses,
        sampler.periods_drawn,
        sampler._countdown,
    )


def run_pipeline(bound, num_threads, batched, make_sampler,
                 config=None, vector_min=None, capture=None):
    interp = Interpreter(bound, num_threads=num_threads)
    trace = interp.run_batched() if batched else interp.run()
    sampler = make_sampler()
    hierarchy = MemoryHierarchy(config or HierarchyConfig(), num_threads)
    if vector_min is not None:
        # Force (1) or forbid (huge) promotion to the vector walks,
        # single-core and per-core alike, so both representations run
        # under the property.
        hierarchy.VECTOR_MIN_BATCH = vector_min
    metrics = simulate(trace, hierarchy=hierarchy, observer=sampler.observe)
    if capture is not None:
        capture(hierarchy)
    return (
        metrics,
        machine_state(hierarchy),
        hierarchy.miss_summary(),
        sampler_state(sampler),
    )


class TestTraceParity:
    @given(bodies(), st.integers(1, 4))
    @settings(deadline=None, max_examples=30)
    def test_batched_trace_expands_to_scalar_trace(self, body, num_threads):
        bound = build(body)
        scalar = list(Interpreter(bound, num_threads=num_threads).run())
        batched = expand(
            Interpreter(bound, num_threads=num_threads).run_batched()
        )
        assert scalar == batched


class TestPipelineParity:
    @given(
        any_bodies,
        st.integers(1, 4),
        st.integers(3, 60),
        st.sampled_from(["pebs", "ibs"]),
        st.sampled_from([1, 1 << 30]),
    )
    @settings(deadline=None, max_examples=30)
    def test_metrics_samples_and_rng_identical(
        self, body, num_threads, period, pmu, vector_min
    ):
        bound = build(body)

        def make_sampler():
            if pmu == "pebs":
                return PEBSLoadLatencySampler(period, jitter=0.2, seed=11)
            return IBSSampler(period, jitter=0.2, seed=11)

        scalar = run_pipeline(bound, num_threads, False, make_sampler)
        batched = run_pipeline(bound, num_threads, True, make_sampler,
                               vector_min=vector_min)
        assert scalar == batched


class TestConfigParity:
    """Batch exactness over the full machine-configuration space.

    Every combination of cores (two or more share the MESI directory),
    cache geometry, prefetch, TLB and replacement policy batches, and must stay byte-identical to the
    scalar walk whichever internal path it takes (single-core vector
    walk, multi-core per-core vector walk, or the trace-ordered list
    walk, which on prefetch, TLB and random-replacement machines hands
    every access but an L1 hit to the scalar walk).
    ``vector_min`` forces promotion at batch length 1 or forbids it
    entirely, so both cache representations run under the property.
    """

    @given(
        any_bodies,
        st.integers(1, 4),
        st.sampled_from([0, 2]),
        st.sampled_from(
            [None, TLBConfig(l1_entries=8, l1_ways=4,
                             l2_entries=16, l2_ways=4)]
        ),
        st.sampled_from(["lru", "fifo", "random"]),
        st.booleans(),
        st.sampled_from([1, 1 << 30]),
    )
    @settings(deadline=None, max_examples=40)
    def test_every_configuration_is_batch_exact(
        self, body, num_threads, degree, tlb, replacement, small_geom,
        vector_min,
    ):
        bound = build(body)
        base = HierarchyConfig.small() if small_geom else HierarchyConfig()
        config = dataclasses.replace(
            base, prefetch_degree=degree, tlb=tlb, replacement=replacement
        )

        def make_sampler():
            return PEBSLoadLatencySampler(7, jitter=0.2, seed=3)

        scalar = run_pipeline(bound, num_threads, False, make_sampler,
                              config=config)
        batched = run_pipeline(bound, num_threads, True, make_sampler,
                               config=config, vector_min=vector_min)
        assert scalar == batched


def pebs():
    return PEBSLoadLatencySampler(7, jitter=0.2, seed=3)


def parallel_loop(line, body):
    return Loop(line=line, var=f"i{line}", start=0, stop=ELEMENTS,
                body=body, end_line=line, parallel=True)


class TestMulticoreWalkParity:
    """The 4-core walk's transitions on fixed programs: promotion by a
    write-free batch, then demotion by a batch that writes lines another
    core holds, or a core's own demotion to list caches by a batch in
    which it re-uses lines too densely for the chunked walk."""

    def test_write_batch_after_promoted_write_free_batch(self):
        pytest.importorskip("numpy")
        read = Access(line=2, array="A", field="x",
                      index=affine("i1", 1, 0))
        write = Access(line=4, array="A", field="x",
                       index=affine("i3", -1, ELEMENTS - 1), is_write=True)
        reread = Access(line=6, array="A", field="x",
                        index=affine("i5", 1, 0))
        bound = build([parallel_loop(1, [read]), parallel_loop(3, [write]),
                       parallel_loop(5, [reread])])
        hierarchies = []
        scalar = run_pipeline(bound, 4, False, pebs)
        batched = run_pipeline(bound, 4, True, pebs, vector_min=1,
                               capture=hierarchies.append)
        assert scalar == batched
        (hierarchy,) = hierarchies
        counts = hierarchy.walk_accesses()
        # The read loop vector-walks. Each thread of the write loop
        # writes a line another thread read, which the directory lists,
        # so the write loop demotes for good and the re-read walks the
        # lists.
        assert counts["general_vector"] == ELEMENTS
        assert counts["list"] == 2 * ELEMENTS
        assert hierarchy._vector_state == -1
        assert hierarchy.invalidations > 0

    def test_replay_heavy_body_demotes(self):
        pytest.importorskip("numpy")
        # 64-byte elements; a sweep over them promotes, then six lines
        # sharing one L1 and one L2 set of the small geometry, visited
        # in random order by four threads, demote every core's own
        # caches to lists, where the per-core walk goes on.
        wide = StructType("wide", [("x", INT), ("pad", array_of(INT, 15))])
        config = HierarchyConfig.small()
        sets = config.l2.size_bytes // (config.l2.ways * config.line_size)
        rng = random.Random(0)
        n = 2048
        table = [rng.randrange(6) * sets for _ in range(n)]
        builder = WorkloadBuilder("thrash")
        builder.add_aos(wide, 6 * sets, name="A")
        sweep = Loop(line=1, var="i", start=0, stop=6 * sets, body=[
            Access(line=2, array="A", field="x", index=affine("i", 1, 0)),
        ], end_line=3, parallel=True)
        thrash = Loop(line=4, var="j", start=0, stop=n, body=[
            Access(line=5, array="A", field="x",
                   index=Indirect.of(table, affine("j", 1, 0))),
        ], end_line=6, parallel=True)
        bound = builder.build([Function("main", [sweep, thrash])])
        hierarchies = []
        scalar = run_pipeline(bound, 4, False, pebs, config=config)
        batched = run_pipeline(bound, 4, True, pebs, config=config,
                               vector_min=1, capture=hierarchies.append)
        assert scalar == batched
        (hierarchy,) = hierarchies
        counts = hierarchy.walk_accesses()
        assert counts["general_vector"] == 6 * sets + n
        assert counts["list"] == 0
        assert hierarchy._vector_state == 1
        assert [
            core.id for core in hierarchy.cores
            if isinstance(core.l1, vectorwalk.TagArrayCache)
        ] == []


#: One 64-byte element, so one cache line, per index of ``P``.
WIDE = StructType("wide", [("x", INT), ("pad", array_of(INT, 15))])
#: Trip count of the parallel loops over ``P``, and of the sweeps over
#: ``Q`` that push lines out of a core's (small-geometry) L1 and L2.
OWN_STOP = 64
SWEEP_STOP = 1024


@st.composite
def private_write_programs(draw):
    """``(program, private)``: parallel loops in which a thread writes
    only lines of its own.

    Each loop either sweeps the read-only ``Q`` or touches ``P`` at
    its own iteration, shifted by a per-loop offset, and reads ``A``.
    ``P`` holds one line per element, so within a loop no other thread
    touches a line a thread writes. Offsets other than 0 hand lines to
    another thread between loops, whose directory bits then list the
    previous thread. ``private`` is True when every offset is 0.
    """
    loops = []
    private = True
    for k in range(draw(st.integers(1, 4))):
        line = 10 * (k + 1)
        var = f"i{line}"
        if k and draw(st.booleans()):
            loops.append(Loop(
                line=line, var=var, start=0, stop=SWEEP_STOP, end_line=line,
                parallel=True,
                body=[Access(line=line + 1, array="Q", field="x",
                             index=affine(var, 1, 0))],
            ))
            continue
        offset = draw(st.sampled_from([0, 0, 1, 16]))
        private = private and offset == 0
        body = []
        for j in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                body.append(Access(
                    line=line + 1 + j, array="P", field="x",
                    index=Mod(affine(var, 1, offset), OWN_STOP),
                    is_write=draw(st.booleans()),
                ))
            else:
                body.append(Access(
                    line=line + 1 + j, array="A", field="x",
                    index=draw(index_exprs([(var, OWN_STOP)])),
                ))
        loops.append(Loop(line=line, var=var, start=0, stop=OWN_STOP,
                          end_line=line, parallel=True, body=body))
    return build_private(loops), private


def build_private(loops):
    builder = WorkloadBuilder("private-writes")
    builder.add_aos(ELEM, ELEMENTS, name="A")
    builder.add_aos(WIDE, OWN_STOP, name="P")
    builder.add_aos(WIDE, SWEEP_STOP, name="Q")
    return builder.build([Function("main", loops)])


def upgrading_program():
    """Each thread reads its lines of ``P``, sweeps ``Q`` past its
    small-geometry L2, then re-reads and writes them: every re-read
    misses and ends the sole holder S, so every write upgrades."""
    def own(line, *stmts):
        return Loop(line=line, var=f"i{line}", start=0, stop=OWN_STOP,
                    end_line=line, parallel=True, body=[
                        Access(line=line + 1 + j, array="P", field="x",
                               index=affine(f"i{line}", 1, 0),
                               is_write=is_write)
                        for j, is_write in enumerate(stmts)
                    ])
    sweep = Loop(line=20, var="i20", start=0, stop=SWEEP_STOP, end_line=20,
                 parallel=True, body=[
                     Access(line=21, array="Q", field="x",
                            index=affine("i20", 1, 0)),
                 ])
    return build_private([own(10, False), sweep, own(30, False, True)])


class TestPrivateWriteParity:
    """Batches whose written lines stay private to one core take the
    multi-core machine's per-core vector walk; on the small geometry
    the sweeps evict lines, so a re-read ends a sole holder S and its
    next write upgrades."""

    @given(
        private_write_programs(),
        st.integers(2, 4),
        st.booleans(),
        st.sampled_from(["lru", "fifo"]),
    )
    @settings(deadline=None, max_examples=30)
    def test_private_write_batches_are_exact(
        self, drawn, num_threads, small_geom, replacement
    ):
        pytest.importorskip("numpy")
        bound, private = drawn
        base = HierarchyConfig.small() if small_geom else HierarchyConfig()
        config = dataclasses.replace(base, replacement=replacement)
        hierarchies = []
        scalar = run_pipeline(bound, num_threads, False, pebs, config=config)
        batched = run_pipeline(bound, num_threads, True, pebs, config=config,
                               vector_min=1, capture=hierarchies.append)
        assert scalar == batched
        if private:
            (hierarchy,) = hierarchies
            assert hierarchy.walk_accesses()["list"] == 0

    def test_upgrading_program_upgrades_every_write(self):
        pytest.importorskip("numpy")
        hierarchies = []
        scalar = run_pipeline(upgrading_program(), 4, False, pebs,
                              config=HierarchyConfig.small())
        batched = run_pipeline(upgrading_program(), 4, True, pebs,
                               config=HierarchyConfig.small(), vector_min=1,
                               capture=hierarchies.append)
        assert scalar == batched
        (hierarchy,) = hierarchies
        assert hierarchy.directory.stats.upgrades == OWN_STOP
        counts = hierarchy.walk_accesses()
        assert counts["general_vector"] == 3 * OWN_STOP + SWEEP_STOP


#: Cores of the hand-made multi-core batches below; each owns the lines
#: of its own region, which only it reads or writes until a halo batch.
CORES = 4
#: Bytes between a core's dense lines: one set of the small geometry's
#: L2, so one of its L1 too.
SET_STRIDE = HierarchyConfig.small().l2.size_bytes // 4
#: Lines every core reads and no core writes.
SHARED_LINES = 48


def own_line(core, k):
    """Byte address of line ``k`` of ``core``'s region."""
    return ((core + 1) << 20) + 64 * k


def dense_share(core, rng, length):
    """A ping-pong over a few of ``core``'s lines in one L1/L2 set,
    with same-line repeats: far more duplicate-free chunks than the
    chunked walk cuts."""
    lines = rng.randint(3, 6)
    share = []
    while len(share) < length:
        line = ((core + 1) << 20) + SET_STRIDE * rng.randrange(lines)
        share.extend([line + 8 * rng.randrange(8)] * rng.choice((1, 1, 2)))
    return share[:length]


def sparse_share(core, rng, length):
    """One or two passes over distinct lines of ``core``'s region and of
    the shared read-only region: a chunk or two per pass."""
    first = rng.randrange(64)
    lines = [own_line(core, first + k) for k in range(length)]
    lines += [64 * rng.randrange(SHARED_LINES) for _ in range(length // 4)]
    return lines * rng.choice((1, 2))


@st.composite
def core_batches(draw):
    """``(batches, ending)``: 4-core batches in which each core is
    dense, sparse or idle, writes only lines of its own region, and
    whose shares interleave at random; ``ending`` names the batches
    appended after them (:func:`ending_batches`)."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        write_share = draw(st.sampled_from([0.0, 0.2, 0.5]))
        shares = []
        for core in range(CORES):
            kind = draw(st.sampled_from(["dense", "sparse", "idle"]))
            if kind == "idle":
                continue
            if kind == "dense":
                addresses = dense_share(core, rng, rng.randint(300, 500))
            else:
                addresses = sparse_share(core, rng, rng.randint(8, 96))
            shares.append(with_writes(addresses, core, rng, write_share))
        batches.append(interleave(shares, rng))
    ending = draw(st.sampled_from(
        [(), ("halo",), ("crossing",), ("halo", "crossing")]
    ))
    return [batch for batch in batches if batch[0]], ending


def with_writes(addresses, core, rng, write_share):
    """``core``'s ``(address, core, write)`` share: it writes about
    ``write_share`` of its accesses to its own region."""
    return [
        (a, core, int(a >> 20 != 0 and rng.random() < write_share))
        for a in addresses
    ]


def interleave(shares, rng):
    """One batch's columns from per-core ``(address, core, write)``
    shares, merged in a random order that keeps each core's own."""
    rows = []
    cursors = [0] * len(shares)
    live = [k for k, share in enumerate(shares) if share]
    while live:
        k = rng.choice(live)
        rows.append(shares[k][cursors[k]])
        cursors[k] += 1
        if cursors[k] == len(shares[k]):
            live.remove(k)
    addresses = [a for a, _, _ in rows]
    return (addresses, [4] * len(rows), [w for _, _, w in rows],
            [core for _, core, _ in rows])


def ending_batches(ending):
    """A halo batch, in which each core writes the first line of the
    next core's region and reads the shared region, and a batch with a
    line-crossing access: each demotes a promoted machine."""
    batches = []
    for kind in ending:
        addresses, is_write, thread = [], [], []
        for core in range(CORES):
            for k in range(8):
                addresses.append(own_line(core, k))
                is_write.append(0)
                thread.append(core)
            addresses.append(own_line((core + 1) % CORES, 0))
            is_write.append(int(kind == "halo"))
            thread.append(core)
        sizes = [4] * len(addresses)
        if kind == "crossing":
            addresses[len(addresses) // 2] += 60
            sizes[len(sizes) // 2] = 8
        batches.append((addresses, sizes, is_write, thread))
    return batches


def check_core_batches(batches, replacement):
    """Walk ``batches`` batched (``vector_min=1``) and per access on
    the small geometry, asserting after every batch that latencies and
    the whole machine match; returns the batched hierarchy."""
    config = dataclasses.replace(
        HierarchyConfig.small(), replacement=replacement
    )
    reference = MemoryHierarchy(config, CORES)
    hierarchy = MemoryHierarchy(config, CORES)
    hierarchy.VECTOR_MIN_BATCH = 1
    for addresses, sizes, is_write, thread in batches:
        expected = [
            reference.access(t, a, s, bool(w))
            for a, s, w, t in zip(addresses, sizes, is_write, thread)
        ]
        got = hierarchy.access_batch(addresses, sizes, is_write, thread)
        assert list(got) == expected
        assert machine_state(hierarchy) == machine_state(reference)
    return hierarchy


class TestDenseCoreParity:
    """On the 4-core machine a dense core walks its own list caches
    while the others cascade on tag arrays; every batch, and the
    demotion of a machine whose cores mix the two, matches per-access
    ``access()``: latencies, each core's L1/L2 contents and counters,
    the L3, and every directory word."""

    @given(core_batches(), st.sampled_from(["lru", "fifo"]))
    @settings(deadline=None, max_examples=40)
    def test_mixed_dense_and_chunkable_cores_are_exact(
        self, drawn, replacement
    ):
        pytest.importorskip("numpy")
        batches, ending = drawn
        hierarchy = check_core_batches(
            batches + ending_batches(ending), replacement
        )
        if not batches:
            assert hierarchy._vector_state == 0
        elif ending:
            assert hierarchy._vector_state == -1
        else:
            assert hierarchy.walk_accesses()["list"] == 0

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_dense_core_then_halo_then_crossing(self, replacement):
        pytest.importorskip("numpy")
        rng = random.Random(7)
        shares = [
            with_writes(
                dense_share(core, rng, 400) if core in (1, 3)
                else sparse_share(core, rng, 64), core, rng, 0.3,
            )
            for core in range(CORES)
        ]
        batches = [interleave(shares, rng) for _ in range(2)]
        hierarchy = check_core_batches(batches, replacement)
        assert hierarchy._vector_state == 1
        assert [
            core.id for core in hierarchy.cores
            if not isinstance(core.l1, vectorwalk.TagArrayCache)
        ] == [1, 3]
        assert hierarchy.walk_accesses()["general_vector"] == sum(
            len(batch[0]) for batch in batches
        )
        for ending in [("halo",), ("crossing",), ("halo", "crossing")]:
            hierarchy = check_core_batches(
                batches + ending_batches(ending), replacement
            )
            assert hierarchy._vector_state == -1
            counts = hierarchy.walk_accesses()
            assert counts["list"] + counts["scalar"] == sum(
                len(batch[0]) for batch in ending_batches(ending)
            )


def profile_state(collector):
    """A collector's whole output as JSON: every profile's ``to_dict()``
    plus what it leaves out — the insertion order of profiles, streams,
    ``data_latency`` and ``source_counts``, and each stream's seen-set
    and last unique address."""
    return json.dumps([
        (
            thread,
            profile.to_dict(),
            list(profile.streams),
            list(profile.data_latency),
            [
                (list(stream.source_counts), sorted(stream._seen),
                 stream.last_unique_address)
                for stream in profile.streams.values()
            ],
        )
        for thread, profile in collector.profiles.items()
    ])


def new_collector(bound):
    return ProfileCollector(
        DataObjectRegistry.from_address_space(bound.space),
        LoopMap(bound.program),
    )


def sample_path(bound, num_threads, batched, make_sampler):
    """The sampler's state and the collected profiles: the scalar engine
    folds sample by sample, the batched one folds its log."""
    interp = Interpreter(bound, num_threads=num_threads)
    sampler = make_sampler()
    simulate(
        interp.run_batched() if batched else interp.run(),
        hierarchy=MemoryHierarchy(HierarchyConfig(), num_threads),
        observer=sampler.observe,
    )
    collector = new_collector(bound)
    if batched:
        collector.collect(sampler.log)
    else:
        for sample in sampler.samples:
            collector.observe_sample(sample)
    return sampler_state(sampler), profile_state(collector)


SAMPLERS = {
    "pebs": lambda period, jitter: PEBSLoadLatencySampler(
        period, jitter=jitter, seed=5),
    # ldlat above the L1 latency: the filter drops accesses, so the
    # batched engine lists each slot's eligible positions one by one.
    "pebs-ldlat10": lambda period, jitter: PEBSLoadLatencySampler(
        period, jitter=jitter, ldlat=10.0, seed=5),
    "ibs": lambda period, jitter: IBSSampler(period, jitter=jitter, seed=5),
}


class TestSamplePathParity:
    """Scalar engine + per-sample fold == batched engine + window fold."""

    @given(
        any_bodies,
        st.integers(1, 4),
        # Periods 1-9 cannot vary at jitter 0.1 (the arange route);
        # longer ones, or a wider jitter, take the heap.
        st.one_of(st.integers(1, 9), st.integers(10, 40)),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.sampled_from(sorted(SAMPLERS)),
        st.sampled_from([1, 5, collector_module.WINDOW]),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=60)
    def test_log_and_profiles_identical(
        self, body, num_threads, period, jitter, pmu, window, numpy
    ):
        bound = build(body)

        def make_sampler():
            return SAMPLERS[pmu](period, jitter)

        scalar = sample_path(bound, num_threads, False, make_sampler)
        with mock.patch.object(collector_module, "WINDOW", window), \
                mock.patch.object(vectorwalk, "HAVE_NUMPY",
                                  numpy and vectorwalk.HAVE_NUMPY):
            batched = sample_path(bound, num_threads, True, make_sampler)
        assert scalar == batched

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),                      # thread
                st.sampled_from([0x400000, 0x400010]),  # ip
                st.integers(-8, 2 * ELEMENTS * 4 + 8),  # offset from A
                st.booleans(),                          # is_write
                # Integral latencies fold by columns; a non-integral
                # one sends its window, and any window after it whose
                # sums it left non-integral, through observe_sample.
                st.sampled_from([4.0, 12.0, 42.0, 220.0, 4.5, 1 / 3]),
            ),
            max_size=60,
        ),
        st.sampled_from([1, 2, 4, 16, collector_module.WINDOW]),
    )
    @settings(deadline=None, max_examples=60)
    # Summed by columns, either window would round differently:
    # (1/3 + 4) + 440 != (1/3 + 4) + 220 + 220, and
    # 440 + (1/3 + 220) != (440 + 1/3) + 220.
    @example([(0, 0x400000, 0, False, lat) for lat in (1 / 3, 4.0, 220.0, 220.0)], 2)
    @example([(0, 0x400000, 0, False, lat) for lat in (220.0, 220.0, 1 / 3, 220.0)], 2)
    def test_hand_fed_log_folds_like_observe_sample(self, rows, window):
        builder = WorkloadBuilder("hand-fed")
        builder.add_aos(ELEM, ELEMENTS, name="A")
        builder.add_aos(ELEM, ELEMENTS, name="B")
        bound = builder.build([Function("main", [])])
        base = bound.space.allocations[0].base
        log = SampleLog()
        for seq, (thread, ip, offset, is_write, latency) in enumerate(rows):
            log.append(seq, thread, ip, base + offset, 4, is_write, latency,
                       seq % 3, 0)
        reference = new_collector(bound)
        for sample in log.rows():
            reference.observe_sample(sample)
        folded = new_collector(bound)
        with mock.patch.object(collector_module, "WINDOW", window):
            folded.collect(log)
        assert profile_state(folded) == profile_state(reference)

    def test_log_spanning_several_windows(self):
        # Period 1 over a long loop: the log holds more than two real
        # windows, and every stream crosses window boundaries.
        n = 2 * collector_module.WINDOW + 1000
        loop = Loop(line=1, var="i", start=0, stop=n, end_line=3, body=[
            Access(line=2, array="A", field="x",
                   index=Mod(affine("i", 7, 3), ELEMENTS)),
        ])
        bound = build([loop])
        sampler = IBSSampler(1, jitter=0.0, seed=1)
        simulate(Interpreter(bound).run_batched(),
                 hierarchy=MemoryHierarchy(HierarchyConfig(), 1),
                 observer=sampler.observe)
        assert sampler.sample_count == n
        reference = new_collector(bound)
        for sample in sampler.samples:
            reference.observe_sample(sample)
        folded = new_collector(bound)
        folded.collect(sampler.log)
        assert profile_state(folded) == profile_state(reference)
