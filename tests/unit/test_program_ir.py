"""Unit tests for the workload IR: expressions, loops, finalize."""

import pytest

from repro.program import (
    Access,
    Affine,
    Call,
    Compute,
    Const,
    Function,
    Indirect,
    Loop,
    Mod,
    Program,
    affine,
)


class TestIndexExprs:
    def test_const(self):
        assert Const(7).evaluate({}) == 7

    def test_affine(self):
        assert Affine("i", 3, 2).evaluate({"i": 5}) == 17
        assert affine("i").evaluate({"i": 4}) == 4

    def test_indirect_gathers_through_table(self):
        expr = Indirect((5, 3, 9), affine("i"))
        assert expr.evaluate({"i": 2}) == 9

    def test_indirect_of_builds_tuple(self):
        expr = Indirect.of([1, 2], Const(0))
        assert expr.table == (1, 2)

    def test_mod_wraps(self):
        expr = Mod(Affine("i", 1, 5), 8)
        assert expr.evaluate({"i": 6}) == 3

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError):
            affine("j").evaluate({"i": 0})


class TestLoop:
    def test_trip_count(self):
        assert Loop(line=1, var="i", start=0, stop=10).trip_count == 10
        assert Loop(line=1, var="i", start=0, stop=10, step=3).trip_count == 4
        assert Loop(line=1, var="i", start=10, stop=0, step=-2).trip_count == 5
        assert Loop(line=1, var="i", start=5, stop=5).trip_count == 0

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            Loop(line=1, var="i", start=0, stop=1, step=0)

    def test_line_range_defaults_to_header(self):
        assert Loop(line=9, var="i", start=0, stop=1).line_range == (9, 9)
        assert Loop(line=9, var="i", start=0, stop=1, end_line=12).line_range == (9, 12)


class TestStatementValidation:
    def test_access_requires_array(self):
        with pytest.raises(ValueError):
            Access(line=1)

    def test_call_requires_callee(self):
        with pytest.raises(ValueError):
            Call(line=1)


def two_loop_program():
    inner = Loop(line=3, var="j", start=0, stop=4, body=[
        Access(line=4, array="A", field="x", index=affine("j")),
    ])
    outer = Loop(line=2, var="i", start=0, stop=4, body=[inner], end_line=5)
    helper = Function("helper", [Compute(line=20, cycles=1.0)], line=19)
    main = Function("main", [outer, Call(line=8, callee="helper")], line=1)
    return Program("two", [main, helper]).finalize()


class TestProgram:
    def test_ips_are_unique_and_ordered(self):
        program = two_loop_program()
        ips = [stmt.ip for _, stmt in program.walk()]
        assert len(ips) == len(set(ips))
        assert ips == sorted(ips)

    def test_stmt_at_roundtrips(self):
        program = two_loop_program()
        for _, stmt in program.walk():
            assert program.stmt_at(stmt.ip) is stmt

    def test_function_of_ip(self):
        program = two_loop_program()
        for fname, stmt in program.walk():
            assert program.function_of_ip(stmt.ip) == fname
        assert program.function_of_ip(0) is None

    def test_loops_and_accesses_enumerations(self):
        program = two_loop_program()
        assert len(program.loops()) == 2
        assert len(program.accesses()) == 1
        assert [access.array for access in program.accesses()] == ["A"]

    def test_unfinalized_program_refuses_queries(self):
        program = Program("p", [Function("main", [Compute(line=1)])])
        with pytest.raises(RuntimeError):
            program.stmt_at(0)

    def test_duplicate_function_rejected(self):
        fn = Function("main", [Compute(line=1)])
        with pytest.raises(ValueError, match="duplicate"):
            Program("p", [fn, Function("main", [Compute(line=2)])])

    def test_missing_entry_rejected(self):
        with pytest.raises(ValueError, match="entry"):
            Program("p", [Function("helper", [Compute(line=1)])], entry="main")
