"""Unit tests for the IR pointer extension: AddrOf, PtrAccess, Call.args."""

import pytest

from repro.layout import INT, StructType
from repro.layout.splitting import SplitPlan, apply_split
from repro.program import (
    Access,
    Const,
    AddrOf,
    Call,
    Function,
    Interpreter,
    Loop,
    PtrAccess,
    TraceError,
    WorkloadBuilder,
    affine,
    memory_accesses,
)
from repro.program.interp import MAX_ACCESS_BYTES, static_chunks

PAIR = StructType("pair", [("a", INT), ("b", INT)])


def build(body, *, count=8, split=False, extra_functions=()):
    builder = WorkloadBuilder("ptr")
    if split:
        layout = apply_split(PAIR, SplitPlan(PAIR.name, (("a",), ("b",))))
        arr = builder.add_split_aos(layout, count, name="A")
    else:
        arr = builder.add_aos(PAIR, count, name="A")
    functions = [Function("main", body, line=1)] + list(extra_functions)
    return builder.build(functions), arr


def trace(bound, *, batched=False, num_threads=1):
    interp = Interpreter(bound, num_threads=num_threads)
    items = interp.run_batched() if batched else interp.run()
    return list(memory_accesses(items))


class TestAddrOf:
    def test_emits_no_trace_item(self):
        bound, _ = build([
            AddrOf(line=2, dest="p", array="A", field="a", index=Const(0)),
        ])
        assert trace(bound) == []

    def test_field_address_matches_layout(self):
        bound, arr = build([
            Loop(line=2, var="i", start=0, stop=4, body=[
                AddrOf(line=3, dest="p", array="A", field="b",
                       index=affine("i")),
                PtrAccess(line=4, ptr="p"),
            ]),
        ])
        events = trace(bound)
        assert [e.address for e in events] == [
            arr.base + 8 * i + 4 for i in range(4)
        ]

    def test_whole_record_base_address(self):
        bound, arr = build([
            AddrOf(line=2, dest="p", array="A", field=None, index=Const(0)),
            PtrAccess(line=3, ptr="p", offset=4, size=4),
        ])
        (event,) = trace(bound)
        assert event.address == arr.base + 4

    def test_whole_record_addrof_on_split_backing_raises(self):
        bound, _ = build([
            AddrOf(line=2, dest="p", array="A", field=None, index=Const(0)),
            PtrAccess(line=3, ptr="p"),
        ], split=True)
        with pytest.raises(TraceError, match="split across"):
            trace(bound)

    def test_out_of_bounds_index_raises(self):
        bound, _ = build([
            AddrOf(line=2, dest="p", array="A", field="a", index=Const(99)),
            PtrAccess(line=3, ptr="p"),
        ])
        with pytest.raises(TraceError):
            trace(bound)


class TestPtrAccess:
    def test_unbound_pointer_raises(self):
        bound, _ = build([PtrAccess(line=2, ptr="q")])
        with pytest.raises(TraceError, match="before any AddrOf"):
            trace(bound)

    def test_offset_size_and_write_flag(self):
        bound, arr = build([
            AddrOf(line=2, dest="p", array="A", field="a", index=Const(0)),
            PtrAccess(line=3, ptr="p", offset=2, size=2, is_write=True),
        ])
        (event,) = trace(bound)
        assert event.address == arr.base + 2
        assert event.size == 2
        assert event.is_write

    def test_size_clamped_to_max_access_bytes(self):
        bound, _ = build([
            AddrOf(line=2, dest="p", array="A", field="a", index=Const(0)),
            PtrAccess(line=3, ptr="p", size=4096),
        ])
        (event,) = trace(bound)
        assert event.size == MAX_ACCESS_BYTES

    def test_pointer_persists_across_statements(self):
        # Bind once, dereference twice: the env binding is durable, like
        # a C local holding the pointer.
        bound, arr = build([
            AddrOf(line=2, dest="p", array="A", field="b", index=Const(3)),
            PtrAccess(line=3, ptr="p"),
            PtrAccess(line=4, ptr="p", offset=0),
        ])
        events = trace(bound)
        assert [e.address for e in events] == [arr.base + 8 * 3 + 4] * 2

    def test_validation_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            PtrAccess(line=1, ptr="")
        with pytest.raises(ValueError):
            PtrAccess(line=1, ptr="p", size=0)
        with pytest.raises(ValueError):
            AddrOf(line=1, dest="", array="A")


class TestCallArgs:
    def test_pointer_flows_into_callee(self):
        callee = Function("use", [PtrAccess(line=20, ptr="p")], line=19)
        bound, arr = build([
            AddrOf(line=2, dest="p", array="A", field="a", index=Const(2)),
            Call(line=3, callee="use", args=("p",)),
        ], extra_functions=[callee])
        (event,) = trace(bound)
        assert event.address == arr.base + 8 * 2

    def test_args_are_tupled(self):
        assert Call(line=1, callee="f", args=["p", "q"]).args == ("p", "q")


class TestEngineParity:
    def test_scalar_and_batched_traces_identical(self):
        callee = Function("use", [PtrAccess(line=20, ptr="p", offset=1)],
                          line=19)
        body = [
            Loop(line=2, var="i", start=0, stop=6, body=[
                Access(line=3, array="A", field="a", index=affine("i")),
                AddrOf(line=4, dest="p", array="A", field="b",
                       index=affine("i")),
                PtrAccess(line=5, ptr="p", is_write=True),
                Call(line=6, callee="use", args=("p",)),
            ]),
        ]
        bound, _ = build(body, extra_functions=[callee])
        scalar = trace(bound, batched=False)
        batched = trace(bound, batched=True)
        assert scalar == batched

    def test_parity_under_parallel_loop(self):
        body = [
            Loop(line=2, var="i", start=0, stop=8, parallel=True, body=[
                Access(line=3, array="A", field="a", index=affine("i")),
            ]),
            AddrOf(line=5, dest="p", array="A", field="b", index=Const(2)),
            PtrAccess(line=6, ptr="p"),
        ]
        bound, _ = build(body)
        assert trace(bound, num_threads=4) == trace(
            bound, batched=True, num_threads=4
        )


class TestStaticChunks:
    def test_public_name_and_alias(self):
        chunks = static_chunks(range(10), 3)
        assert [list(c) for c in chunks] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
