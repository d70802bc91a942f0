"""Integration tests: telemetry across the full pipeline.

Two guarantees matter end-to-end: ``repro trace`` produces a loadable
Chrome trace covering every pipeline stage, and enabling telemetry is
purely observational — the same run with and without an active session
produces bit-identical results.
"""

import io
import json

from repro import telemetry
from repro.cli import main
from repro.experiments.optimization import run_benchmark

#: Every stage the tentpole instruments, monitored run through re-run.
PIPELINE_STAGES = {
    "optimize", "run", "interpret", "simulate", "sample",
    "collect", "merge", "analyze", "cluster", "advise", "split", "re-run",
}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTraceCommand:
    def test_trace_art_emits_loadable_trace_with_all_stages(self, tmp_path):
        code, text = run_cli("trace", "art", "--scale", "0.2",
                             "--telemetry", str(tmp_path))
        assert code == 0
        assert "traced 179.ART" in text

        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {event["name"] for event in doc["traceEvents"]
                 if event["ph"] == "X"}
        assert PIPELINE_STAGES <= names
        # Complete events carry timestamps and durations in microseconds.
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0

        # The JSONL sidecar parses line by line.
        lines = (tmp_path / "telemetry.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in lines)

        # The metrics snapshot includes per-level cache counters.
        prom = (tmp_path / "metrics.prom").read_text()
        for level in ("L1", "L2", "L3"):
            assert f'repro_memsim_cache_misses_total{{level="{level}"}}' in prom

        # And each overhead account's components sum to its total.
        accounts = json.loads((tmp_path / "overhead.json").read_text())
        assert accounts
        for account in accounts:
            total = sum(account["components_percent"].values())
            assert abs(total - account["overhead_percent"]) < 1e-9

    def test_trace_resolves_aliases_and_rejects_unknown(self, tmp_path):
        code, text = run_cli("trace", "no-such-benchmark",
                             "--telemetry", str(tmp_path))
        assert code == 2
        assert "unknown workload" in text

    def test_stats_prints_metrics_and_account(self):
        code, text = run_cli("stats", "libquantum", "--scale", "0.1")
        assert code == 0
        assert 'repro_memsim_cache_misses_total{level="L1"}' in text
        assert "self-overhead account: 462.libquantum" in text
        assert "interrupt-service" in text
        assert "online-analysis" in text
        assert "collection" in text
        assert "overhead (sum)" in text
        assert "reported overhead_percent" in text


class TestNoOpParity:
    def test_telemetry_does_not_change_results(self):
        """Same workload, with and without a session: identical outputs."""
        plain = run_benchmark("462.libquantum", scale=0.2)
        with telemetry.session():
            traced = run_benchmark("462.libquantum", scale=0.2)

        assert traced.speedup == plain.speedup
        assert traced.overhead_percent == plain.overhead_percent
        assert traced.miss_reduction == plain.miss_reduction
        assert traced.original.cycles == plain.original.cycles
        assert traced.optimized.cycles == plain.optimized.cycles
        assert traced.original.misses() == plain.original.misses()
        assert traced.optimized.misses() == plain.optimized.misses()
        assert traced.profiled.sample_count == plain.profiled.sample_count
        assert sorted(traced.plans) == sorted(plain.plans)
        for name in plain.plans:
            assert traced.plans[name].groups == plain.plans[name].groups

    def test_session_left_no_global_state(self):
        assert telemetry.enabled() is False
