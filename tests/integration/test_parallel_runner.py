"""Parallel runner parity: jobs=N and warm caches reproduce serial runs.

The acceptance bar for :mod:`repro.runner`: ``--jobs 4`` output is
byte-identical to a serial run, a warm ``--cache`` re-run executes zero
workloads while producing byte-identical output, and telemetry exported
from a parallel run matches what a serial run records.
"""

import io
import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.experiments import (
    run_all,
    run_suite_overheads,
    sweep_sampling_period,
)
from repro.experiments.optimization import results_json
from repro.runner import RunnerStats
from repro.telemetry import to_jsonable
from repro.workloads import TABLE2_WORKLOADS

NAMES = ["462.libquantum", "Mser"]
SCALE = 0.15


def canonical(results):
    return json.dumps(to_jsonable(results_json(results)), sort_keys=True)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParallelParity:
    def test_parallel_run_matches_serial(self):
        serial = run_all(scale=SCALE, names=NAMES)
        parallel = run_all(scale=SCALE, names=NAMES, jobs=2)
        assert canonical(parallel) == canonical(serial)

    def test_record_surface_matches_result_surface(self):
        serial = run_all(scale=SCALE, names=NAMES)
        parallel = run_all(scale=SCALE, names=NAMES, jobs=2)
        for name in NAMES:
            assert parallel[name].speedup == serial[name].speedup
            assert parallel[name].overhead_percent == \
                serial[name].overhead_percent
            assert parallel[name].miss_reduction == \
                serial[name].miss_reduction
            assert parallel[name].summary_row() == serial[name].summary_row()

    def test_suite_overheads_parallel_matches_serial(self):
        serial = run_suite_overheads("rodinia", limit=4)
        parallel = run_suite_overheads("rodinia", limit=4, jobs=2)
        assert parallel.rows == serial.rows

    def test_sensitivity_parallel_matches_serial(self):
        workload = TABLE2_WORKLOADS["Mser"](scale=SCALE)
        periods = [100, 499]
        serial = sweep_sampling_period(workload, periods)
        parallel = sweep_sampling_period(workload, periods, jobs=2)
        assert parallel == serial

    def test_sensitivity_parallel_rejects_anonymous_workloads(self):
        workload = TABLE2_WORKLOADS["Mser"](scale=SCALE)
        workload.name = "not-in-table2"
        with pytest.raises(ValueError, match="Table 2 workload"):
            sweep_sampling_period(workload, [499], jobs=2)


class TestCacheParity:
    def test_warm_cache_is_byte_identical_and_executes_nothing(self, tmp_path):
        cold_stats = RunnerStats()
        cold = run_all(scale=SCALE, names=NAMES, cache=tmp_path,
                       runner_stats=cold_stats)
        assert cold_stats.executed == len(NAMES)

        warm_stats = RunnerStats()
        warm = run_all(scale=SCALE, names=NAMES, cache=tmp_path,
                       runner_stats=warm_stats)
        assert warm_stats.executed == 0
        assert warm_stats.cache_hits == len(NAMES)
        assert canonical(warm) == canonical(cold)

    def test_parallel_warm_cache_matches_parallel_cold(self, tmp_path):
        cold = run_all(scale=SCALE, names=NAMES, jobs=2, cache=tmp_path)
        warm = run_all(scale=SCALE, names=NAMES, jobs=2, cache=tmp_path)
        assert canonical(warm) == canonical(cold)


class TestTelemetryAbsorption:
    def test_parallel_run_fills_parent_session(self):
        with telemetry.session() as parallel_session:
            run_all(scale=SCALE, names=NAMES, jobs=2)
        with telemetry.session() as serial_session:
            run_all(scale=SCALE, names=NAMES)

        def span_names(session):
            names = []

            def walk(span):
                names.append(span.name)
                for child in span.children:
                    walk(child)

            for root in session.tracer.roots:
                walk(root)
            return sorted(names)

        assert span_names(parallel_session) == span_names(serial_session)
        assert len(parallel_session.overhead_accounts) == \
            len(serial_session.overhead_accounts)

    def test_parallel_counters_match_serial(self):
        with telemetry.session() as parallel_session:
            run_all(scale=SCALE, names=NAMES, jobs=2)
        with telemetry.session() as serial_session:
            run_all(scale=SCALE, names=NAMES)

        def counters(session):
            return {
                (i.name, i.labels): i.value
                for i in session.metrics.instruments()
                if i.kind == "counter"
            }

        # Host-seconds counters measure wall time, which no two runs
        # share: they must exist for the same labels, and every other
        # counter must match exactly.
        def timed(key):
            return key[0].endswith("_seconds_total")

        parallel = counters(parallel_session)
        serial = counters(serial_session)
        assert parallel.keys() == serial.keys()
        assert {k: v for k, v in parallel.items() if not timed(k)} == {
            k: v for k, v in serial.items() if not timed(k)
        }


class TestCliParity:
    def test_table3_cold_then_warm_cache_identical(self, tmp_path):
        argv = ("table3", "--scale", "0.1", "--json",
                "--jobs", "2", "--cache", str(tmp_path))
        code_cold, cold = run_cli(*argv)
        code_warm, warm = run_cli(*argv)
        assert code_cold == code_warm == 0
        assert warm == cold

    def test_table3_parallel_matches_serial_stdout(self):
        _, serial = run_cli("table3", "--scale", "0.1", "--json")
        _, parallel = run_cli("table3", "--scale", "0.1", "--json",
                              "--jobs", "2")
        assert parallel == serial

    def test_optimize_via_runner_matches_serial(self, tmp_path):
        _, serial = run_cli("optimize", "Mser", "--scale", "0.1")
        _, cached = run_cli("optimize", "Mser", "--scale", "0.1",
                            "--cache", str(tmp_path))
        _, warm = run_cli("optimize", "Mser", "--scale", "0.1",
                          "--cache", str(tmp_path))
        assert cached == serial
        assert warm == serial
