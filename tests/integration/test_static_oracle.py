"""Cross-validation oracle: sampled pipeline vs static analysis.

The acceptance bar from the paper's own claim (§4.2): at default
sampling settings the sampled struct size and field offsets must agree
with the exact static derivation for every Table 2 workload, and every
sampled stream stride must be a multiple of its static stride.
"""

import pytest

from repro.static import StaticAnalysis, cross_validate, cross_validate_report
from repro.workloads import TABLE2_WORKLOADS

ALL_WORKLOADS = sorted(TABLE2_WORKLOADS)


class TestTable2Agreement:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_full_agreement_at_default_settings(self, name):
        workload = TABLE2_WORKLOADS[name](scale=0.1)
        result = cross_validate(workload)
        assert result.ok, result.render()
        assert result.objects, "oracle compared nothing"
        for obj in result.objects:
            assert obj.size_match
            assert obj.offsets_agree
            assert obj.streams, f"{obj.name}: no streams cross-checked"
            for stream in obj.streams:
                assert stream.divides

    def test_hot_object_offsets_fully_covered_for_art(self):
        # ART's seven hot f1_layer fields all appear statically and the
        # default period samples every one of them.
        result = cross_validate(TABLE2_WORKLOADS["179.ART"](scale=0.1))
        f1 = next(o for o in result.objects if "f1" in o.name)
        assert f1.offset_coverage == pytest.approx(1.0)
        assert f1.static_size == 64

    def test_render_reports_status(self):
        result = cross_validate(TABLE2_WORKLOADS["462.libquantum"](scale=0.1))
        text = result.render()
        assert "OK" in text
        assert "divides-violations" in text


class TestOracleMechanics:
    def test_mismatch_detected_when_static_stride_corrupted(self):
        from repro.core import OfflineAnalyzer
        from repro.profiler import Monitor

        workload = TABLE2_WORKLOADS["462.libquantum"](scale=0.1)
        bound = workload.build_original()
        run = Monitor(sampling_period=workload.recommended_period).run(
            bound, num_threads=workload.num_threads
        )
        report = OfflineAnalyzer().analyze(run)
        static = StaticAnalysis().analyze(bound, loop_map=run.loop_map)
        # Corrupt every static stride to a value that cannot divide the
        # sampled ones: the oracle must notice.
        for stream in static.streams:
            stream.stride = 7 if stream.stride else 0
        result = cross_validate_report(static, run.merged, report)
        assert not result.ok
        assert any(
            not s.divides for obj in result.objects for s in obj.streams
        )
        assert "MISMATCH" in result.render()

    def test_sampled_offsets_never_exceed_static(self):
        # Subset relation: sampling can miss fields but never invent one.
        for name in ("Health", "TSP"):
            result = cross_validate(TABLE2_WORKLOADS[name](scale=0.1))
            for obj in result.objects:
                assert set(obj.sampled_offsets) <= set(obj.static_offsets)
                assert 0.0 < obj.offset_coverage <= 1.0
