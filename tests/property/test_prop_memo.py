"""Property: a memoized machine is byte-identical to a memo-free one.

The walk memo replays a recorded vector walk when the touched sets'
pre-state matches its fingerprint, writing back only the cells the
walk changed. Random sequences of repeated (same objects or equal
copies), interleaved and fresh batches run on a single-core machine
with its memo attached and on one with the memo detached; after every
batch the two must agree on the latency column, every level's tag and
stamp arrays, clocks and counters, DRAM fetches, and walk credits.

A subset step walks a contiguous slice of an earlier batch, touching
a subset of its sets: it restamps some of the batch's lines and ages
the rest, often without changing their order, so a later repeat of the
whole batch replays against stamps that differ from the recorded ones
only in age. A rewind step returns both machines to the state before
one of the last four batches, ages every line by raising each level's
clock, and walks that batch again: its entry, if still recorded at
that state, replays against older stamps. Either replay must restore
the lines its walk moved between ways with their own stamps.

Batches draw lines from regions far more than 2**31 lines apart, so
a level's tag offsets overflow int32 and the fingerprint falls back to
int64, and they start on a cold, partly empty cache, so empty ways sit
in the fingerprints. An optional warm-up walks small batches per
access, on the list caches, before the machine promotes: promotion
packs each set's lines into its first ways, and the first walk that merges into such a set moves them
behind its empty ways, so some changed cells end empty.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.memsim.hierarchy import HierarchyConfig, MemoryHierarchy

from ..conftest import assert_same_state, memo_levels, restore, snapshot

#: Region bases, in lines: static-data low addresses, the heap, and a
#: region 2**32 lines above the heap.
HEAP_LINE = 0x7F00_0000_0000 >> 6
REGIONS = (0x1_8000, HEAP_LINE, HEAP_LINE + (1 << 32))

#: Small first: a failing example shrinks toward the cheaper machine.
CONFIGS = {"small": HierarchyConfig.small(), "default": HierarchyConfig()}

batch_specs = st.fixed_dictionaries({
    "pattern": st.sampled_from(("sweep", "random", "pingpong")),
    "regions": st.lists(
        st.sampled_from(range(len(REGIONS))), min_size=1, max_size=2,
        unique=True,
    ),
    "n": st.integers(min_value=256, max_value=700),
    "offset": st.integers(min_value=0, max_value=1 << 12),
    "seed": st.integers(min_value=0, max_value=1 << 16),
})

#: A step is a fresh batch, one to four repeats of an earlier one (as
#: the same column objects, the key's identity fast path, or as equal
#: copies, the content hash), a slice of an earlier one (from one of
#: its quarters, one to three quarters long), or a rewind to before
#: one of the last four batches, aged by up to 5000 stamps.
steps = st.lists(
    st.one_of(
        batch_specs.map(lambda spec: ("fresh", spec)),
        st.tuples(
            st.just("again"), st.integers(0, 7), st.booleans(),
            st.integers(1, 4),
        ),
        st.tuples(
            st.just("subset"), st.integers(0, 7), st.integers(0, 3),
            st.integers(1, 3),
        ),
        st.tuples(
            st.just("rewind"), st.integers(0, 3), st.integers(1, 5000),
        ),
    ),
    min_size=2,
    max_size=10,
)


def build(spec, config):
    rng = random.Random(spec["seed"])
    bases = [REGIONS[r] + spec["offset"] for r in spec["regions"]]
    set_stride = config.l2.size_bytes // config.l2.ways // config.line_size
    lines = []
    for i in range(spec["n"]):
        base = bases[i % len(bases)] if spec["pattern"] == "sweep" else (
            rng.choice(bases)
        )
        if spec["pattern"] == "sweep":
            lines.append(base + i // 4)
        elif spec["pattern"] == "random":
            lines.append(base + rng.randrange(1 << 11))
        else:
            lines.append(base + set_stride * rng.randrange(12))
    addresses = array("q", [
        (line << 6) + 8 * rng.randrange(8) for line in lines
    ])
    sizes = array("q", [8] * len(addresses))
    is_write = array("q", [rng.random() < 0.25 for _ in addresses])
    thread = array("q", [0] * len(addresses))
    return addresses, sizes, is_write, thread


def rewound_batches(plan):
    """Run-order indices of the batches a rewind step of ``plan`` goes
    back to: the only ones whose pre-state needs a snapshot. The first
    step always walks one fresh batch (the pool is empty); an "again"
    step walks as many batches as it has repeats, every other step one.
    """
    targets = set()
    done = 0
    for i, step in enumerate(plan):
        if i and step[0] == "rewind":
            targets.add(done - 1 - step[1] % min(done, 4))
        done += step[3] if i and step[0] == "again" else 1
    return targets


def walk_plan(config, warmup, plan):
    """Walk ``plan`` on a memoized and a memo-free machine; assert they
    agree after every batch, and on the walk credits at the end."""
    plain = MemoryHierarchy(config, 1)
    memoized = MemoryHierarchy(config, 1)
    for seed in range(warmup):
        small = build({
            "pattern": "random", "regions": [0], "n": 200, "offset": 0,
            "seed": seed,
        }, config)
        for hier in (plain, memoized):
            for address, size, write, _ in zip(*small):
                hier.access(0, address, size, bool(write))
    plain._promote_to_vector()
    plain._walk_memo = None
    pool = []
    rewound = rewound_batches(plan)
    done = 0
    # (batch, machine state before it if a rewind returns to it),
    # the last four.
    history = []
    replayed = 0
    for step in plan:
        if step[0] == "fresh" or not pool:
            spec = step[1] if step[0] == "fresh" else {
                "pattern": "random", "regions": [0], "n": 300,
                "offset": 0, "seed": 0,
            }
            pool.append(build(spec, config))
            batches = [pool[-1]]
        elif step[0] == "subset":
            cols = pool[step[1] % len(pool)]
            n = len(cols[0])
            lo = n * step[2] // 4
            hi = min(n, lo + n * step[3] // 4)
            batches = [tuple(array("q", c[lo:hi]) for c in cols)]
        elif step[0] == "rewind":
            cols, snap = history[-1 - step[1] % len(history)]
            assert snap is not None, "rewind target was not snapshot"
            for hier in (plain, memoized):
                restore(hier, snap)
                for cache in memo_levels(hier):
                    cache.clock += step[2]  # every line that much older
            batches = [cols]
        else:
            cols = pool[step[1] % len(pool)]
            if step[2]:
                cols = tuple(array("q", c) for c in cols)
            batches = [cols] * step[3]
        for cols in batches:
            # The machines agree after every batch: one snapshot
            # serves both.
            snap = snapshot(plain) if done in rewound else None
            history = history[-3:] + [(cols, snap)]
            done += 1
            expected = plain.access_batch(*cols)
            memo = memoized._walk_memo
            hits = memo.hits if memo is not None else 0
            got = memoized.access_batch(*cols)
            if memoized._walk_memo.hits != hits:
                replayed += len(cols[0])
            assert got.tobytes() == expected.tobytes()
            assert_same_state(memoized, plain)
    credits = memoized.walk_accesses()
    plain_credits = plain.walk_accesses()
    assert credits["memo"] == replayed
    assert credits["memo"] + credits["vector"] == plain_credits["vector"]
    assert plain_credits["memo"] == 0
    for path in ("list", "general_vector", "scalar"):
        assert credits[path] == plain_credits[path]


class TestMemoParity:
    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(list(CONFIGS)), st.integers(0, 3), steps)
    def test_memoized_machine_matches_memo_free_machine(
        self, name, warmup, plan
    ):
        # Hypothesis keeps each failing example's exception while it
        # shrinks. Fail outside walk_plan's frame, so that exception does
        # not keep two machines' megabytes of arrays alive.
        failure = None
        try:
            walk_plan(CONFIGS[name], warmup, plan)
        except AssertionError as exc:
            failure = str(exc)
        assert failure is None, failure
