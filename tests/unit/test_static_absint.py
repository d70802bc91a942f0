"""Unit tests for the abstract index interpretation (repro.static.absint)."""

import pytest

from repro.layout import INT, StructType
from repro.program import (
    Access,
    Call,
    Compute,
    Const,
    Function,
    Indirect,
    Loop,
    Mod,
    WorkloadBuilder,
    affine,
)
from repro.static import (
    ENUM_CAP,
    StaticAnalysis,
    StaticAnalysisError,
    summarize_index,
)
from tests.conftest import FIGURE1_TYPE, build_figure1


def loop(var, start, stop, step=1, body=(), parallel=False):
    return Loop(line=1, var=var, start=start, stop=stop, step=step,
                body=list(body), parallel=parallel)


class TestSummarizeIndex:
    def test_const_is_a_point(self):
        s = summarize_index(Const(7), [loop("i", 0, 100)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (7, 7, 0, 1)
        assert s.exact

    def test_affine_unit_stride(self):
        s = summarize_index(affine("i"), [loop("i", 0, 100)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (0, 99, 1, 100)

    def test_affine_scale_and_step_compose(self):
        # i in {0, 3, 6, 9}; index = 4i + 5 in {5, 17, 29, 41}.
        s = summarize_index(affine("i", 4, 5), [loop("i", 0, 12, step=3)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (5, 41, 12, 4)

    def test_negative_scale_keeps_absolute_gcd(self):
        s = summarize_index(affine("i", -2, 10), [loop("i", 0, 5)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (2, 10, 2, 5)

    def test_binding_loop_is_the_one_reading_the_var(self):
        # The inner loop j is irrelevant: i binds the expression, and
        # outer replays add no unique indices.
        loops = [loop("i", 0, 8), loop("j", 0, 3)]
        s = summarize_index(affine("i"), loops)
        assert (s.lo, s.hi, s.distinct) == (0, 7, 8)

    def test_loop_invariant_expression(self):
        s = summarize_index(affine("k", 0, 3), [loop("i", 0, 8)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (3, 3, 0, 1)

    def test_zero_trip_loop_is_empty(self):
        s = summarize_index(affine("i"), [loop("i", 5, 5)])
        assert s.empty

    def test_mod_without_wrap_is_a_shift(self):
        s = summarize_index(Mod(affine("i"), 1000), [loop("i", 0, 10)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (0, 9, 1, 10)

    def test_mod_wrapping_stagger(self):
        # The staggered-start pattern: (i + 7) mod 10 over 10 iterations
        # visits every residue; differences include 1 and -9, gcd 1.
        s = summarize_index(Mod(affine("i", 1, 7), 10), [loop("i", 0, 10)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (0, 9, 1, 10)
        assert s.exact

    def test_mod_wrapping_with_common_factor(self):
        # 2i mod 10: values {0,2,4,6,8} each twice; gcd(2, 10) = 2.
        s = summarize_index(Mod(affine("i", 2, 0), 10), [loop("i", 0, 10)])
        assert (s.lo, s.hi, s.diff_gcd, s.distinct) == (0, 8, 2, 5)

    def test_mod_large_step_is_conservative_not_exact(self):
        # Step 12 > modulus 10: wraps can skip, exactness is dropped but
        # the gcd(12, 10) = 2 divisibility claim still holds.
        s = summarize_index(Mod(affine("i", 12, 0), 10), [loop("i", 0, 50)])
        assert s.diff_gcd == 2
        assert not s.exact
        for i in range(50):
            assert ((12 * i) % 10 - s.lo) % s.diff_gcd == 0

    def test_indirect_enumerates_concrete_tables(self):
        table = (4, 0, 8, 2)
        s = summarize_index(Indirect(table, affine("i")), [loop("i", 0, 4)])
        assert (s.lo, s.hi, s.distinct) == (0, 8, 4)
        assert s.diff_gcd == 2
        assert s.exact

    def test_indirect_with_duplicate_targets(self):
        table = (0, 4, 0, 4)
        s = summarize_index(Indirect(table, affine("i")), [loop("i", 0, 4)])
        assert s.distinct == 2
        assert s.diff_gcd == 4

    def test_indirect_table_bounds_checked(self):
        with pytest.raises(StaticAnalysisError) as err:
            summarize_index(Indirect((1, 2), affine("i")), [loop("i", 0, 5)])
        assert err.value.rule == "oob-index"

    def test_indirect_beyond_enum_cap_falls_back_soundly(self):
        table = tuple(range(0, 24, 3))  # all multiples of 3
        s = summarize_index(
            Indirect(table, Mod(affine("i"), len(table))),
            [loop("i", 0, ENUM_CAP + 1)],
        )
        assert not s.exact
        assert s.diff_gcd == 3  # divides every pairwise difference
        assert (s.lo, s.hi) == (0, 21)

    def test_unbound_variable_rejected(self):
        with pytest.raises(StaticAnalysisError) as err:
            summarize_index(affine("q"), [loop("i", 0, 5)])
        assert err.value.rule == "unbound-var"

    def test_bad_modulus_rejected(self):
        with pytest.raises(StaticAnalysisError) as err:
            summarize_index(Mod(affine("i"), 0), [loop("i", 0, 5)])
        assert err.value.rule == "bad-modulus"

    def test_empty_table_rejected(self):
        with pytest.raises(StaticAnalysisError) as err:
            summarize_index(Indirect((), affine("i")), [loop("i", 0, 5)])
        assert err.value.rule == "empty-table"

    def test_summary_divides_every_concrete_difference(self):
        # The soundness contract, spot-checked against evaluation.
        cases = [
            (affine("i", 6, 1), loop("i", 0, 40, step=2)),
            (Mod(affine("i", 3, 11), 17), loop("i", 0, 60)),
            (Indirect(tuple(x * 5 for x in (9, 1, 4, 7, 0)),
                      Mod(affine("i"), 5)), loop("i", 0, 23)),
        ]
        for expr, l in cases:
            s = summarize_index(expr, [l])
            values = [expr.evaluate({l.var: l.start + k * l.step})
                      for k in range(l.trip_count)]
            assert min(values) == s.lo and max(values) == s.hi or not s.exact
            if s.diff_gcd:
                assert all((v - values[0]) % s.diff_gcd == 0 for v in values)
            else:
                assert len(set(values)) == 1


class TestStaticAnalysisWholeProgram:
    def test_figure1_sizes_offsets_affinity(self):
        report = StaticAnalysis().analyze(build_figure1())
        arr = report.object_by_name("Arr")
        assert arr.derived_size == FIGURE1_TYPE.size == 16
        assert arr.offsets == [0, 4, 8, 12]
        assert arr.size_matches_layout
        # Loop 1 touches a/c (offsets 0, 8), loop 2 touches b/d (4, 12):
        # within-loop pairs have affinity 1, cross-loop pairs 0.
        assert arr.affinity.affinity(0, 8) == pytest.approx(1.0)
        assert arr.affinity.affinity(4, 12) == pytest.approx(1.0)
        assert arr.affinity.affinity(0, 4) == pytest.approx(0.0)

    def test_figure1_streams_are_exact(self):
        report = StaticAnalysis().analyze(build_figure1(n=512))
        assert not report.issues
        for stream in report.streams:
            assert stream.index.exact
            assert stream.executions == 512
            expected = 16 if stream.array == "Arr" else 4
            assert stream.stride == expected

    def test_call_multipliers_scale_executions(self):
        builder = WorkloadBuilder("calls")
        builder.add_aos(StructType("e", [("x", INT)]), 32, name="A")
        helper = Function("helper", [
            Loop(line=10, var="j", start=0, stop=32, body=[
                Access(line=11, array="A", field="x", index=affine("j")),
            ]),
        ])
        main = Function("main", [
            Loop(line=1, var="r", start=0, stop=5, body=[
                Call(line=2, callee="helper"),
            ]),
        ])
        bound = builder.build([main, helper])
        report = StaticAnalysis().analyze(bound)
        (stream,) = report.streams
        assert stream.executions == 5 * 32

    def test_uncalled_function_has_zero_executions(self):
        builder = WorkloadBuilder("deadfn")
        builder.add_aos(StructType("e", [("x", INT)]), 8, name="A")
        dead = Function("dead", [
            Access(line=20, array="A", field="x", index=Const(0)),
        ])
        main = Function("main", [Compute(line=1, cycles=1.0)])
        report = StaticAnalysis().analyze(builder.build([main, dead]))
        (stream,) = report.streams
        assert stream.executions == 0

    def test_oob_access_becomes_issue_not_crash(self):
        builder = WorkloadBuilder("oob")
        builder.add_aos(StructType("e", [("x", INT)]), 8, name="A")
        main = Function("main", [
            Loop(line=1, var="i", start=0, stop=16, body=[
                Access(line=2, array="A", field="x", index=affine("i")),
            ]),
        ])
        report = StaticAnalysis().analyze(builder.build([main]))
        assert [issue.rule for issue in report.issues] == ["oob-index"]
        assert not report.streams

    def test_loop_ids_come_from_the_binary_cfg(self):
        report = StaticAnalysis().analyze(build_figure1())
        labels = {s.loop_label for s in report.streams}
        assert labels == {"4-5", "7-8"}
        for stream in report.streams:
            desc = report.loop_map.loop_of_ip(stream.ip)
            assert desc is not None and desc.id == stream.loop_id

    def test_stream_lookup_by_ip(self):
        report = StaticAnalysis().analyze(build_figure1())
        for stream in report.streams:
            assert report.stream_at(stream.ip) is stream
        assert report.stream_at(0xDEAD) is None

    def test_render_mentions_sizes_and_match(self):
        text = StaticAnalysis().analyze(build_figure1()).render()
        assert "element size: 16" in text
        assert "match" in text

