"""Which walk path simulates each access of the multi-core workloads,
where each run leaves the MESI directory, and how often the
single-core machine's walk memo replays.

The unit tests pin routing on hand-made batches; this pins it on the
real programs behind the ``table3-coherent`` and ``coherent-writes``
benchmark workloads: the original program of CLOMP, Health, NN and
OverlapView, and OverlapView's split program under its advised plan,
simulated once each on its 4-core MESI machine at full scale (under
2 s for the five). Smaller scales change how the interpreter cuts
batches.
The memo and row-walk counts come from the original programs behind
``table3-single`` (ART, libquantum, TSP and Mser), on the 1-core
machine at full scale (about 1.5 s for the four, simulated once for
both tests).
"""

from functools import lru_cache

import pytest

from repro.layout.splitting import SplitPlan
from repro.memsim import vectorwalk
from repro.memsim.engine import simulate
from repro.memsim.hierarchy import WALK_PATHS, HierarchyConfig, MemoryHierarchy
from repro.program.interp import Interpreter
from repro.workloads import workload_zoo

#: ``{path: accesses}`` for one run of each original program; every
#: other path is credited 0. CLOMP and NN read without writes, so the
#: per-core vector walk takes them whole. Health chases pointers: every
#: core of its first batch is too dense for the chunked walk, so each
#: turns its own caches into lists at that batch and walks them there,
#: still on the per-core walk. OverlapView's
#: six stencil batches write only lines private to one core, so they
#: promote the machine and vector-walk. Its two halo batches write a
#: line a second core touches, so they take the list walk, and the
#: first turns every core's caches into lists for good; the last three
#: batches, write-free, take the per-core walk on those lists.
CREDITS = {
    "CLOMP 1.2": {"general_vector": 884_736},
    "Health": {"general_vector": 352_256},
    "NN": {"general_vector": 395_264},
    "OverlapView": {"general_vector": 213_504, "list": 32_768},
}

#: Cores that hold list caches at the end of the same runs (the others
#: hold tag arrays). Every machine is promoted.
LIST_CORES = {
    "CLOMP 1.2": (),
    "Health": (0, 1, 2, 3),
    "NN": (),
    "OverlapView": (0, 1, 2, 3),
}

#: The directory at the end of the same runs: lines held, then
#: invalidations, writebacks, cache-to-cache transfers and upgrades.
#: The three Table 3 programs never write a shared line. OverlapView's
#: writes purge 12 remote copies; its dirty lines are forwarded to the
#: next core that reads them.
DIRECTORY = {
    "CLOMP 1.2": (30_720, 0, 0, 0, 0),
    "Health": (57_856, 0, 0, 0, 0),
    "NN": (57_344, 0, 0, 0, 0),
    "OverlapView": (10_240, 12, 7_692, 7_692, 0),
}


def multicore_run(workload, program):
    """The 4-core machine after one batched run of ``program``."""
    threads = workload.num_threads
    hierarchy = MemoryHierarchy(HierarchyConfig(), threads)
    interp = Interpreter(program, num_threads=threads)
    simulate(interp.run_batched(), hierarchy=hierarchy)
    return hierarchy


def list_cores(hierarchy):
    """The ids of the cores whose private caches are list caches."""
    return tuple(
        core.id for core in hierarchy.cores
        if not isinstance(core.l1, vectorwalk.TagArrayCache)
    )


@pytest.mark.parametrize("name", sorted(CREDITS))
def test_original_program_walk_paths(name):
    pytest.importorskip("numpy")
    workload = workload_zoo()[name](scale=1.0)
    hierarchy = multicore_run(workload, workload.build_original())
    credits = dict.fromkeys(WALK_PATHS, 0)
    credits.update(CREDITS[name])
    assert hierarchy.walk_accesses() == credits
    summary = hierarchy.miss_summary()
    assert (len(hierarchy.directory._lines),) + tuple(
        summary[key]
        for key in ("invalidations", "writebacks", "cache_to_cache", "upgrades")
    ) == DIRECTORY[name]
    assert list_cores(hierarchy) == LIST_CORES[name]
    assert hierarchy._promoted


def test_overlapview_split_program_walk_paths():
    # The advised plan puts ``value``, ``hist`` and ``grad`` in three
    # arrays; ``value`` and ``grad`` alternate within each core's
    # stencil stream, too densely for the chunked walk. Those cores
    # walk their own list caches, so the six stencil batches stay on
    # the per-core walk; the halo batches take the list walk, and the
    # last three batches the per-core walk, as in the original run.
    pytest.importorskip("numpy")
    workload = workload_zoo()["OverlapView"](scale=1.0)
    plan = SplitPlan("cell", (("value",), ("hist",), ("grad",)))
    hierarchy = multicore_run(workload, workload.build_split({"cells": plan}))
    credits = dict.fromkeys(WALK_PATHS, 0)
    credits.update({"general_vector": 213_504, "list": 32_768})
    assert hierarchy.walk_accesses() == credits
    assert list_cores(hierarchy) == (0, 1, 2, 3)
    assert hierarchy._promoted


#: ``(hits, misses, stale, recorded, trusted)`` of the walk memo after
#: one run of each single-core original program. A stale replay is an
#: entry whose touched sets no longer hold the recorded tags, empty
#: ways or per-set recency order; lines that only aged still replay.
#: A trusted hit replays a fixed-point entry right after that entry's
#: own record or replay, without the check: every ART and TSP hit is
#: one, while libquantum's and Mser's entries are never fixed points.
MEMO = {
    "179.ART": (98, 9, 6, 15, 98),
    "462.libquantum": (69, 6, 3, 9, 0),
    "TSP": (23, 1, 1, 2, 23),
    "Mser": (30, 9, 9, 18, 0),
}


#: Accesses the cascade row-walked per level (L1, L2, L3) in the same
#: runs. TSP's and Mser's dense segments row-walk their L1 only: the L1
#: misses of every one of them chunk.
ROW_WALKED = {
    "179.ART": (0, 0, 0),
    "462.libquantum": (0, 0, 0),
    "TSP": (24_572, 0, 0),
    "Mser": (49_148, 0, 0),
}


@lru_cache(maxsize=None)
def single_core_run(name):
    """``(memo counts, row-walked accesses per level)`` of one run of
    ``name``'s original program on the 1-core machine."""
    row_walked = [0, 0, 0]
    row_walk = vectorwalk._row_walk

    def counted(cache, stream, positions):
        row_walked[int(cache.name[1]) - 1] += len(stream)
        return row_walk(cache, stream, positions)

    workload = workload_zoo()[name](scale=1.0)
    hierarchy = MemoryHierarchy(HierarchyConfig(), 1)
    interp = Interpreter(workload.build_original(), num_threads=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorwalk, "_row_walk", counted)
        simulate(interp.run_batched(), hierarchy=hierarchy)
    memo = hierarchy._walk_memo
    return (
        (memo.hits, memo.misses, memo.stale, memo.recorded, memo.trusted),
        tuple(row_walked),
    )


@pytest.mark.parametrize("name", sorted(MEMO))
def test_original_program_walk_memo(name):
    pytest.importorskip("numpy")
    assert single_core_run(name)[0] == MEMO[name]


@pytest.mark.parametrize("name", sorted(ROW_WALKED))
def test_original_program_row_walk(name):
    pytest.importorskip("numpy")
    assert single_core_run(name)[1] == ROW_WALKED[name]
