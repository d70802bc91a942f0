"""Shared fixtures: small, fast workloads and hierarchies for unit tests."""

from __future__ import annotations

import random

import pytest

from repro.layout import INT, StructType
from repro.memsim import HierarchyConfig
from repro.program import Access, Function, Loop, WorkloadBuilder, affine

#: The paper's Figure 1 structure.
FIGURE1_TYPE = StructType(
    "type", [("a", INT), ("b", INT), ("c", INT), ("d", INT)]
)


def build_figure1(n: int = 4096, plans=None, skew_bytes: int = 0):
    """The Figure 1 two-loop program, small enough for unit tests.

    ``skew_bytes`` pads the front of the heap so two builds get
    different absolute addresses — used to model separate processes.
    """
    builder = WorkloadBuilder(
        "figure1", variant="split" if plans else "original"
    )
    if skew_bytes:
        builder.space.allocate("aslr_skew", skew_bytes)
    if plans:
        from repro.layout import apply_split

        builder.add_split_aos(
            apply_split(FIGURE1_TYPE, plans["Arr"]), n, name="Arr",
            call_path=("main",),
        )
    else:
        builder.add_aos(FIGURE1_TYPE, n, name="Arr", call_path=("main",))
    builder.add_scalar("B", INT, n)
    builder.add_scalar("C", INT, n)
    body = [
        Loop(line=4, var="i", start=0, stop=n, end_line=5, body=[
            Access(line=5, array="Arr", field="a", index=affine("i")),
            Access(line=5, array="Arr", field="c", index=affine("i")),
            Access(line=5, array="B", index=affine("i"), is_write=True),
        ]),
        Loop(line=7, var="i", start=0, stop=n, end_line=8, body=[
            Access(line=8, array="Arr", field="b", index=affine("i")),
            Access(line=8, array="Arr", field="d", index=affine("i")),
            Access(line=8, array="C", index=affine("i"), is_write=True),
        ]),
    ]
    return builder.build([Function("main", body, line=1)])


def dense_reuse(n: int = 1200, seed: int = 0, lines: int = 12):
    """Addresses of a short random ping-pong over ``lines`` lines that
    share one L1 set and one L2 set (more lines than either has ways),
    with same-line repeats mixed in. Its deduped stream re-touches a
    line every few accesses, far past the vector walk's ``CUT_CAP``
    cuts, so the cascade row-walks it."""
    config = HierarchyConfig()
    stride = config.l2.size_bytes // config.l2.ways  # one L2 (and L1) set
    rng = random.Random(seed)
    addresses = []
    for _ in range(n):
        line = rng.randrange(lines)
        addresses.extend([line * stride + 8 * rng.randrange(8)]
                         * rng.choice((1, 1, 2)))
    return addresses[:n]


def memo_levels(hier):
    """A single-core promoted machine's L1, L2 and L3."""
    core = hier.cores[0]
    return core.l1, core.l2, hier.l3


def assert_same_state(got, expected):
    """Assert what a walk-memo replay must reproduce: every level's tag
    and stamp arrays (dtype, shape and values), clock and counters, and
    the DRAM fetch count. Arrays compare in place, with no byte copies."""
    import numpy as np

    for level, (c, e) in enumerate(
        zip(memo_levels(got), memo_levels(expected)), 1
    ):
        for name in ("tags", "stamps"):
            a, b = getattr(c, name), getattr(e, name)
            same = a.dtype == b.dtype and np.array_equal(a, b)
            assert same, f"L{level} {name} differ"
        assert (c.clock, c.hits, c.misses, c.evictions) == (
            e.clock, e.hits, e.misses, e.evictions
        ), f"L{level} clock or counters differ"
    assert got.dram_accesses == expected.dram_accesses


def snapshot(hier):
    return [
        (c.tags.copy(), c.stamps.copy(), c.clock, c.hits, c.misses,
         c.evictions)
        for c in memo_levels(hier)
    ], hier.dram_accesses


def restore(hier, snap):
    levels, hier.dram_accesses = snap
    for c, (tags, stamps, clock, hits, misses, evictions) in zip(
        memo_levels(hier), levels
    ):
        c.tags[...] = tags
        c.stamps[...] = stamps
        c.clock, c.hits, c.misses, c.evictions = clock, hits, misses, evictions


@pytest.fixture
def figure1():
    return build_figure1()


@pytest.fixture
def small_config():
    """A scaled-down hierarchy so tiny arrays still miss."""
    return HierarchyConfig.small()
