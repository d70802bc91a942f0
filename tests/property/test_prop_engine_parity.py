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
from repro.memsim.coherence import HOLDER_SHIFT
from repro.memsim.hierarchy import WALK_PATHS, HierarchyConfig, MemoryHierarchy
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
from tests.unit.test_engine_batch import list_cores, machine_state

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
                 config=None, vector=True, capture=None):
    interp = Interpreter(bound, num_threads=num_threads)
    trace = interp.run_batched() if batched else interp.run()
    sampler = make_sampler()
    hierarchy = MemoryHierarchy(config or HierarchyConfig(), num_threads)
    # ``vector=False`` forbids the vector walks, single-core and per-core
    # alike, so both cache representations run under the property.
    with mock.patch.object(vectorwalk, "HAVE_NUMPY",
                           vector and vectorwalk.HAVE_NUMPY):
        metrics = simulate(
            trace, hierarchy=hierarchy, observer=sampler.observe
        )
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
        st.booleans(),
    )
    @settings(deadline=None, max_examples=30)
    def test_metrics_samples_and_rng_identical(
        self, body, num_threads, period, pmu, vector
    ):
        bound = build(body)

        def make_sampler():
            if pmu == "pebs":
                return PEBSLoadLatencySampler(period, jitter=0.2, seed=11)
            return IBSSampler(period, jitter=0.2, seed=11)

        scalar = run_pipeline(bound, num_threads, False, make_sampler)
        batched = run_pipeline(bound, num_threads, True, make_sampler,
                               vector=vector)
        assert scalar == batched


class TestConfigParity:
    """Batch exactness over the full machine-configuration space.

    Every combination of cores (two or more share the MESI directory),
    cache geometry, prefetch, TLB and replacement policy batches, and must stay byte-identical to the
    scalar walk whichever internal path it takes (single-core vector
    walk, multi-core per-core vector walk, or the trace-ordered list
    walk, which on prefetch, TLB and random-replacement machines hands
    every access but an L1 hit to the scalar walk).
    ``vector`` allows promotion or forbids it entirely, so both cache
    representations run under the property.
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
        st.booleans(),
    )
    @settings(deadline=None, max_examples=40)
    def test_every_configuration_is_batch_exact(
        self, body, num_threads, degree, tlb, replacement, small_geom,
        vector,
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
                               config=config, vector=vector)
        assert scalar == batched


def pebs():
    return PEBSLoadLatencySampler(7, jitter=0.2, seed=3)


def parallel_loop(line, body):
    return Loop(line=line, var=f"i{line}", start=0, stop=ELEMENTS,
                body=body, end_line=line, parallel=True)


class TestMulticoreWalkParity:
    """The 4-core walk's transitions on fixed programs: promotion by a
    write-free batch, then a batch that writes lines another core holds,
    cut at those writes, or a core's own turn to list caches by a batch
    in which it re-uses lines too densely for the chunked walk."""

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
        batched = run_pipeline(bound, 4, True, pebs,
                               capture=hierarchies.append)
        assert scalar == batched
        (hierarchy,) = hierarchies
        counts = hierarchy.walk_accesses()
        # The read loop promotes the machine and vector-walks. Each
        # thread of the write loop writes a line another thread read,
        # which the directory lists, so every write of the loop is a
        # cut access and takes access(); the re-read takes the per-core
        # walk, every core still on its tag arrays.
        assert counts == dict.fromkeys(counts, 0) | {
            "general_vector": 2 * ELEMENTS, "scalar": ELEMENTS,
        }
        assert hierarchy._promoted
        assert list_cores(hierarchy) == []
        assert hierarchy.invalidations > 0

    def test_replay_heavy_body_demotes(self):
        pytest.importorskip("numpy")
        # 64-byte elements; a sweep over them promotes, then six lines
        # sharing one L1 and one L2 set of the small geometry, visited
        # in random order by four threads, turn every core's own caches
        # into lists, where the per-core walk goes on.
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
                               capture=hierarchies.append)
        assert scalar == batched
        (hierarchy,) = hierarchies
        counts = hierarchy.walk_accesses()
        assert counts["general_vector"] == 6 * sets + n
        assert counts["list"] == 0
        assert hierarchy._promoted
        assert list_cores(hierarchy) == [0, 1, 2, 3]


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
                               capture=hierarchies.append)
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
                               config=HierarchyConfig.small(),
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
    """``(batches, ending, dense)``: 4-core batches in which each core
    is dense, sparse or idle, writes only lines of its own region, and
    whose shares interleave at random; ``ending`` names the batches
    appended after them (:func:`ending_batches`), and ``dense`` the
    cores drawn dense in some batch."""
    batches = []
    dense = set()
    for _ in range(draw(st.integers(1, 4))):
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        write_share = draw(st.sampled_from([0.0, 0.2, 0.5]))
        shares = []
        for core in range(CORES):
            kind = draw(st.sampled_from(["dense", "sparse", "idle"]))
            if kind == "idle":
                continue
            if kind == "dense":
                dense.add(core)
                addresses = dense_share(core, rng, rng.randint(300, 500))
            else:
                addresses = sparse_share(core, rng, rng.randint(8, 96))
            shares.append(with_writes(addresses, core, rng, write_share))
        batches.append(interleave(shares, rng))
    ending = draw(st.sampled_from([
        (), ("halo",), ("crossing",), ("halo", "crossing"), ("contended",),
        ("halo", "crossing", "contended"),
    ]))
    return [batch for batch in batches if batch[0]], ending, dense


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


#: Cut accesses of each cut ending batch: a halo batch's reads and
#: writes of each region's first line, and the crossing batch's one
#: line-crossing access.
ENDING_CUTS = {"halo": 2 * CORES, "crossing": 1}


def ending_batches(ending):
    """A halo batch, in which each core reads its region and then
    writes the first line of the next core's, a batch with a
    line-crossing access, and a contended batch: the per-core walk cuts
    the first two at their :data:`ENDING_CUTS` accesses. The contended
    batch repeats the halo's exchange ``CUT_CAP + 1`` times, a line of
    a core's own region between each core's read and write, so its cut
    accesses form too many runs: it takes the list walk, and every core
    turns to list caches for good."""
    batches = []
    for kind in ending:
        addresses, is_write, thread = [], [], []
        if kind == "contended":
            for k in range(vectorwalk.CUT_CAP + 1):
                core = k % CORES
                addresses += [
                    own_line(core, 0), own_line(core, 1 + k % 7),
                    own_line((core + 1) % CORES, 0),
                ]
                is_write += [0, 0, 1]
                thread += [core] * 3
            batches.append(
                (addresses, [4] * len(addresses), is_write, thread)
            )
            continue
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


def routed_after_ending(batches):
    """``batches`` with every write of a region's first line turned
    into a read: the ending batches hand that line to another core, so
    a later write of it would not be private. The per-core walk takes
    each of them after any ending."""
    return [
        (addresses, sizes, [
            int(bool(w) and a % (1 << 20) >= 64)
            for a, w in zip(addresses, is_write)
        ], thread)
        for addresses, sizes, is_write, thread in batches
    ]


def accesses(batches):
    return sum(len(batch[0]) for batch in batches)


def check_core_batches(batches, replacement):
    """Walk ``batches`` batched and per access on the small geometry,
    asserting after every batch that latencies and the whole machine
    match; returns the batched hierarchy."""
    config = dataclasses.replace(
        HierarchyConfig.small(), replacement=replacement
    )
    reference = MemoryHierarchy(config, CORES)
    hierarchy = MemoryHierarchy(config, CORES)
    for addresses, sizes, is_write, thread in batches:
        expected = [
            reference.access(t, a, s, bool(w))
            for a, s, w, t in zip(addresses, sizes, is_write, thread)
        ]
        got = hierarchy.access_batch(addresses, sizes, is_write, thread)
        assert list(got) == expected
        assert machine_state(hierarchy) == machine_state(reference)
    return hierarchy


def ending_credits(ending):
    """``walk_accesses`` credits of :func:`ending_batches`: the list
    walk takes the contended batch, the per-core walk the others but
    their cut accesses, which take ``access()``."""
    counts = dict.fromkeys(WALK_PATHS, 0)
    for kind, batch in zip(ending, ending_batches(ending)):
        if kind == "contended":
            counts["list"] += len(batch[0])
        else:
            counts["general_vector"] += len(batch[0]) - ENDING_CUTS[kind]
            counts["scalar"] += ENDING_CUTS[kind]
    return counts


class TestDenseCoreParity:
    """On the 4-core machine a dense core walks its own list caches
    while the others cascade on tag arrays; every batch, the halo and
    line-crossing batches the per-core walk cuts, which leave each core
    as it was, the contended batch the list walk takes, which turns
    every core to list caches, and the batches the per-core walk then
    takes match per-access ``access()``: latencies, each core's L1/L2
    contents and counters, the L3, and every directory word."""

    @given(core_batches(), st.sampled_from(["lru", "fifo"]))
    @settings(deadline=None, max_examples=40)
    def test_mixed_dense_and_chunkable_cores_are_exact(
        self, drawn, replacement
    ):
        pytest.importorskip("numpy")
        batches, ending, dense = drawn
        refused = ending_batches(ending)
        after = routed_after_ending(batches) if ending else []
        hierarchy = check_core_batches(batches + refused + after, replacement)
        counts = ending_credits(ending)
        counts["general_vector"] += accesses(batches + after)
        assert hierarchy.walk_accesses() == counts
        assert hierarchy._promoted == bool(batches or set(ending) - {
            "contended"
        })
        # A machine that never promoted (no batch, or only the contended
        # one) still has the list caches it started with.
        if "contended" in ending or not hierarchy._promoted:
            assert list_cores(hierarchy) == [0, 1, 2, 3]
        else:
            assert set(list_cores(hierarchy)) <= dense

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
        assert hierarchy._promoted
        assert list_cores(hierarchy) == [1, 3]
        assert hierarchy.walk_accesses()["general_vector"] == accesses(
            batches
        )
        after = routed_after_ending(batches)
        for ending in [("halo",), ("crossing",), ("halo", "crossing"),
                       ("contended",)]:
            refused = ending_batches(ending)
            hierarchy = check_core_batches(
                batches + refused + after, replacement
            )
            assert hierarchy._promoted
            assert list_cores(hierarchy) == (
                [0, 1, 2, 3] if "contended" in ending else [1, 3]
            )
            counts = ending_credits(ending)
            counts["general_vector"] += accesses(batches + after)
            assert hierarchy.walk_accesses() == counts


#: Line stride between the lines of one set of the small geometry's L2
#: (and so of one set of its L1): 32 sets of 64-byte lines.
L2_SET_STRIDE = 32 * 64


def contested_line(k):
    """Byte address of the ``k``-th line (of 8) that any core may read
    or write: four L2 sets, two lines each."""
    return L2_SET_STRIDE * (k // 4) + 64 * (k % 4)


def handed_line(k):
    """Byte address of the ``k``-th line (of 8) one core reads and writes
    per batch, a different core each batch."""
    return L2_SET_STRIDE * (2 + k // 4) + 64 * (k % 4)


def region_line(core, k):
    """Byte address of line ``k`` (of 32) of ``core``'s own region, in
    the same four L2 sets as the lines above, so that a core's own
    accesses evict them and leave the directory listing a stale
    holder."""
    return ((core + 1) << 20) + L2_SET_STRIDE * (k // 4) + 64 * (k % 4)


@st.composite
def contested_batches(draw):
    """``(cores, batches)``: batches of a 2-4-core machine whose private
    accesses to each core's own region mix with the four kinds of
    access the per-core walk cuts at or around: writes of lines another
    core touches, reads of a line another core writes, writes of lines
    whose holder in the directory is another core's stale copy (the
    handed lines pass to a new core every batch) and line-crossing
    accesses."""
    cores = draw(st.integers(2, 4))
    batches = []
    for b in range(draw(st.integers(1, 4))):
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        share = draw(st.sampled_from([0.02, 0.1, 0.5]))
        handler = b % cores
        addresses, sizes, is_write, thread = [], [], [], []
        for _ in range(draw(st.integers(1, 300))):
            core = rng.randrange(cores)
            kind = rng.randrange(4) if rng.random() < share else None
            write = rng.random() < 0.3
            if kind is None:
                address = region_line(core, rng.randrange(32))
            elif kind == 0:
                address, write = contested_line(rng.randrange(8)), True
            elif kind == 1:
                address, write = contested_line(rng.randrange(8)), False
            elif kind == 2:
                address, core = handed_line(rng.randrange(8)), handler
            else:
                address = rng.choice([
                    region_line(core, rng.randrange(32)),
                    contested_line(rng.randrange(8)),
                ])
            crossing = kind == 3
            addresses.append(address + (60 if crossing else 8 * (_ % 8)))
            sizes.append(8 if crossing else 4)
            is_write.append(int(write))
            thread.append(core)
        batches.append((addresses, sizes, is_write, thread))
    return cores, batches


def cut_walk_credits(reference, batch):
    """The ``walk_accesses`` credits ``batch`` earns on a machine in the
    state of ``reference`` (which has not walked it), worked out access
    by access: its cut accesses are the line-crossing ones and those to
    a line a single-line access writes that another core touches, that
    a line-crossing access touches, or whose directory word lists
    another core. Cut accesses in more than ``CUT_CAP`` runs send the
    batch to the list walk."""
    addresses, sizes, is_write, thread = batch
    spans = [(a >> 6, (a + s - 1) >> 6) for a, s in zip(addresses, sizes)]
    writers = {}
    for (first, last), write, core in zip(spans, is_write, thread):
        if write and first == last:
            writers.setdefault(first, set()).add(core)
    words = reference.directory._lines
    contested = {
        line for line, cores in writers.items()
        if len(cores) > 1
        or words.get(line, 0) >> HOLDER_SHIFT & ~(1 << min(cores))
    }
    for (first, last), core in zip(spans, thread):
        for line in {first, last}:
            if line in writers and (first != last or core not in writers[line]):
                contested.add(line)
    cut = [first != last or first in contested for first, last in spans]
    runs = sum(1 for k, one in enumerate(cut) if one and not (k and cut[k - 1]))
    crossing = sum(first != last for first, last in spans)
    counts = dict.fromkeys(WALK_PATHS, 0)
    if runs > vectorwalk.CUT_CAP:
        counts.update(list=len(cut) - crossing, scalar=crossing)
    else:
        counts.update(general_vector=len(cut) - sum(cut), scalar=sum(cut))
    return counts


class TestCutWalkParity:
    """The per-core walk cuts a multi-core batch at its contested and
    line-crossing accesses, which take ``access()``, and walks the
    segments between them; every batch matches per-access ``access()``
    on latencies, every core's L1/L2 contents and counters, the L3,
    every directory word, the directory's stats and the DRAM count, and
    earns the credits the cut accesses it holds predict."""

    @given(contested_batches(), st.sampled_from(["lru", "fifo"]))
    @settings(deadline=None, max_examples=60)
    def test_cut_batches_are_exact(self, drawn, replacement):
        pytest.importorskip("numpy")
        cores, batches = drawn
        config = dataclasses.replace(
            HierarchyConfig.small(), replacement=replacement
        )
        reference = MemoryHierarchy(config, cores)
        hierarchy = MemoryHierarchy(config, cores)
        listed = False
        for addresses, sizes, is_write, thread in batches:
            credits = cut_walk_credits(
                reference, (addresses, sizes, is_write, thread)
            )
            expected = [
                reference.access(t, a, s, bool(w))
                for a, s, w, t in zip(addresses, sizes, is_write, thread)
            ]
            before = hierarchy.walk_accesses()
            got = hierarchy.access_batch(addresses, sizes, is_write, thread)
            assert list(got) == expected
            assert machine_state(hierarchy) == machine_state(reference)
            after = hierarchy.walk_accesses()
            assert {
                path: after[path] - before[path] for path in after
            } == credits
            listed = listed or (credits["list"] and hierarchy._promoted)
        if listed:
            assert list_cores(hierarchy) == list(range(cores))

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_too_many_cut_runs_take_the_list_walk(self, cores):
        # A promoted machine: a batch cut once, then one whose cores
        # take turns writing one line, each turn after a read of a line
        # of its own, CUT_CAP + 1 times. The second takes the list walk
        # and turns every core's caches into lists.
        pytest.importorskip("numpy")
        config = HierarchyConfig.small()
        shared = ([0, 0, 64], [4] * 3, [1, 0, 0], [0, 1, 0])
        turns = vectorwalk.CUT_CAP + 1
        addresses, is_write, thread = [], [], []
        for k in range(turns):
            core = k % cores
            addresses += [region_line(core, k % 32), 8]
            is_write += [0, 1]
            thread += [core, core]
        contended = (addresses, [4] * len(addresses), is_write, thread)
        reference = MemoryHierarchy(config, cores)
        hierarchy = MemoryHierarchy(config, cores)
        for batch, credits in (
            (shared, {"general_vector": 1, "scalar": 2}),
            (contended, {"list": 2 * turns}),
        ):
            assert cut_walk_credits(reference, batch) == dict.fromkeys(
                WALK_PATHS, 0
            ) | credits
            addresses, sizes, is_write, thread = batch
            expected = [
                reference.access(t, a, s, bool(w))
                for a, s, w, t in zip(addresses, sizes, is_write, thread)
            ]
            got = hierarchy.access_batch(addresses, sizes, is_write, thread)
            assert list(got) == expected
            assert machine_state(hierarchy) == machine_state(reference)
        assert hierarchy._promoted
        assert list_cores(hierarchy) == list(range(cores))
        assert hierarchy.walk_accesses() == dict.fromkeys(WALK_PATHS, 0) | {
            "general_vector": 1, "scalar": 2, "list": 2 * turns,
        }


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
