"""Unit tests for the interpreter: exact trace contents."""

import pytest

from repro.layout import INT, StructType
from repro.program import (
    Access,
    Call,
    Compute,
    ComputeBurst,
    Function,
    Indirect,
    Interpreter,
    Loop,
    MemoryAccess,
    TraceError,
    WorkloadBuilder,
    affine,
    collect,
    memory_accesses,
    run,
    trace_stats,
)

PAIR = StructType("pair", [("a", INT), ("b", INT)])


def simple_program(n=4, parallel=False, step=1):
    builder = WorkloadBuilder("t")
    arr = builder.add_aos(PAIR, max(n, 4), name="A")
    loop = Loop(line=10, var="i", start=0, stop=n, step=step, body=[
        Access(line=11, array="A", field="a", index=affine("i")),
        Access(line=12, array="A", field="b", index=affine("i"), is_write=True),
    ], parallel=parallel)
    return builder.build([Function("main", [loop], line=1)]), arr


class TestSerialExecution:
    def test_addresses_match_layout(self):
        bound, arr = simple_program(n=4)
        events = list(memory_accesses(run(bound)))
        assert len(events) == 8
        for i in range(4):
            assert events[2 * i].address == arr.base + 8 * i
            assert events[2 * i + 1].address == arr.base + 8 * i + 4

    def test_write_flag_and_size(self):
        bound, _ = simple_program(n=2)
        a, b = list(memory_accesses(run(bound)))[:2]
        assert not a.is_write and b.is_write
        assert a.size == 4  # int

    def test_lines_and_ips_stamped(self):
        bound, _ = simple_program(n=1)
        a, b = list(memory_accesses(run(bound)))
        assert (a.line, b.line) == (11, 12)
        assert a.ip != b.ip

    def test_negative_step_walks_backwards(self):
        builder = WorkloadBuilder("t")
        arr = builder.add_aos(PAIR, 4, name="A")
        loop = Loop(line=1, var="i", start=3, stop=-1, step=-1, body=[
            Access(line=2, array="A", field="a", index=affine("i")),
        ])
        bound = builder.build([Function("main", [loop])])
        addrs = [e.address for e in memory_accesses(run(bound))]
        assert addrs == [arr.base + 8 * i for i in (3, 2, 1, 0)]

    def test_out_of_bounds_raises_traceerror(self):
        builder = WorkloadBuilder("t")
        builder.add_aos(PAIR, 4, name="A")
        loop = Loop(line=1, var="i", start=0, stop=5, body=[
            Access(line=2, array="A", field="a", index=affine("i")),
        ])
        bound = builder.build([Function("main", [loop])])
        with pytest.raises(TraceError, match="out of bounds"):
            collect(run(bound))

    def test_compute_bursts_interleave(self):
        builder = WorkloadBuilder("t")
        builder.add_aos(PAIR, 4, name="A")
        loop = Loop(line=1, var="i", start=0, stop=2, body=[
            Compute(line=2, cycles=5.0),
            Access(line=3, array="A", field="a", index=affine("i")),
        ])
        bound = builder.build([Function("main", [loop])])
        items = collect(run(bound))
        assert isinstance(items[0], ComputeBurst)
        assert isinstance(items[1], MemoryAccess)
        assert trace_stats(bound) == (2, 10.0)

    def test_indirect_access_follows_table(self):
        builder = WorkloadBuilder("t")
        arr = builder.add_aos(PAIR, 4, name="A")
        loop = Loop(line=1, var="i", start=0, stop=3, body=[
            Access(line=2, array="A", field="a",
                   index=Indirect((2, 0, 3), affine("i"))),
        ])
        bound = builder.build([Function("main", [loop])])
        addrs = [e.address for e in memory_accesses(run(bound))]
        assert addrs == [arr.base + 8 * i for i in (2, 0, 3)]


class TestCallsAndContexts:
    def test_call_extends_context(self):
        builder = WorkloadBuilder("t")
        builder.add_aos(PAIR, 4, name="A")
        helper = Function("helper", [
            Access(line=20, array="A", field="a", index=affine("k")),
        ])
        main = Function("main", [
            Loop(line=1, var="k", start=0, stop=2, body=[
                Call(line=2, callee="helper"),
                Access(line=3, array="A", field="b", index=affine("k")),
            ]),
        ])
        bound = builder.build([main, helper])
        interp = Interpreter(bound)
        events = list(memory_accesses(interp.run()))
        helper_ctx = {e.context for e in events if e.line == 20}
        main_ctx = {e.context for e in events if e.line == 3}
        assert helper_ctx != main_ctx
        assert main_ctx == {0}
        # The helper context's call path names the call-site IP.
        (ctx,) = helper_ctx
        call_ip = next(s.ip for _, s in bound.program.walk()
                       if isinstance(s, Call))
        assert interp.contexts.path(ctx) == (call_ip,)

    def test_undefined_callee_raises(self):
        builder = WorkloadBuilder("t")
        builder.add_aos(PAIR, 4, name="A")
        # Bypass builder validation by constructing program directly:
        main = Function("main", [Call(line=1, callee="ghost")])
        bound = builder.build([main])
        with pytest.raises(TraceError, match="undefined function"):
            collect(run(bound))


class TestParallelExecution:
    def test_static_chunks_cover_iteration_space(self):
        bound, arr = simple_program(n=10, parallel=True)
        events = list(memory_accesses(run(bound, num_threads=4)))
        # Every iteration executed exactly once.
        a_addrs = sorted(e.address for e in events if not e.is_write)
        assert a_addrs == sorted(arr.base + 8 * i for i in range(10))

    def test_threads_get_contiguous_chunks(self):
        bound, arr = simple_program(n=8, parallel=True)
        events = list(memory_accesses(run(bound, num_threads=4)))
        by_thread = {}
        for e in events:
            if not e.is_write:
                by_thread.setdefault(e.thread, []).append(
                    (e.address - arr.base) // arr.stride
                )
        assert set(by_thread) == {0, 1, 2, 3}
        for indices in by_thread.values():
            assert indices == sorted(indices)
            assert indices[-1] - indices[0] == len(indices) - 1  # contiguous

    def test_interleaving_is_round_robin_by_iteration(self):
        bound, _ = simple_program(n=8, parallel=True)
        threads = [e.thread for e in memory_accesses(run(bound, num_threads=4))]
        # first four iterations: one per thread in order
        assert threads[:8] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_serial_run_ignores_parallel_flag(self):
        bound, _ = simple_program(n=4, parallel=True)
        threads = {e.thread for e in memory_accesses(run(bound, num_threads=1))}
        assert threads == {0}

    def test_uneven_chunking(self):
        bound, _ = simple_program(n=7, parallel=True)
        events = list(memory_accesses(run(bound, num_threads=4)))
        counts = {}
        for e in events:
            counts[e.thread] = counts.get(e.thread, 0) + 1
        assert sorted(counts.values()) == [2, 4, 4, 4]  # 2+2+2+1 iters * 2 accesses

    def test_invalid_thread_count_rejected(self):
        bound, _ = simple_program()
        with pytest.raises(ValueError):
            Interpreter(bound, num_threads=0)
