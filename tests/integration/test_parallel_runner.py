"""Parallel runner parity: jobs=N and warm caches reproduce serial runs.

The acceptance bar for :mod:`repro.runner`: ``--jobs 4`` output is
byte-identical to a serial (``jobs=1``, inline) run, a warm ``--cache``
re-run executes zero workloads while producing byte-identical output,
and telemetry exported from a parallel run matches what a serial run
records.
"""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import main
from repro.experiments import (
    run_all,
    run_suite_overheads,
    sweep_sampling_period,
)
from repro.experiments.optimization import results_json, run_benchmark
from repro.runner import Runner
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


def two_workers():
    return Runner(jobs=2)


class TestParallelParity:
    def test_parallel_run_matches_serial(self):
        serial = run_all(scale=SCALE, names=NAMES)
        parallel = run_all(scale=SCALE, names=NAMES, runner=two_workers())
        assert canonical(parallel) == canonical(serial)

    def test_record_surface_matches_result_surface(self):
        records = run_all(scale=SCALE, names=NAMES, runner=two_workers())
        for rank, name in enumerate(NAMES):
            live = run_benchmark(name, scale=SCALE, seed=rank)
            assert records[name].speedup == live.speedup
            assert records[name].overhead_percent == live.overhead_percent
            assert records[name].miss_reduction == live.miss_reduction
            assert records[name].summary_row() == live.summary_row()

    def test_suite_overheads_parallel_matches_serial(self):
        serial = run_suite_overheads("rodinia", limit=4)
        parallel = run_suite_overheads("rodinia", limit=4,
                                       runner=two_workers())
        assert parallel.rows == serial.rows

    def test_sensitivity_parallel_matches_serial(self):
        workload = TABLE2_WORKLOADS["Mser"](scale=SCALE)
        periods = [100, 499]
        serial = sweep_sampling_period(workload, periods)
        parallel = sweep_sampling_period(workload, periods,
                                         runner=two_workers())
        assert parallel == serial

    def test_sensitivity_parallel_rejects_anonymous_workloads(self):
        workload = TABLE2_WORKLOADS["Mser"](scale=SCALE)
        workload.name = "not-in-table2"
        with pytest.raises(ValueError, match="Table 2 workload"):
            sweep_sampling_period(workload, [499], runner=two_workers())

    def test_sensitivity_serial_rejects_anonymous_workloads(self):
        workload = TABLE2_WORKLOADS["Mser"](scale=SCALE)
        workload.name = "not-in-table2"
        with pytest.raises(ValueError, match="Table 2 workload"):
            sweep_sampling_period(workload, [499])


class TestCacheParity:
    def test_warm_cache_is_byte_identical_and_executes_nothing(self, tmp_path):
        cold_runner = Runner(cache=tmp_path)
        cold = run_all(scale=SCALE, names=NAMES, runner=cold_runner)
        assert cold_runner.executed == len(NAMES)

        warm_runner = Runner(cache=tmp_path)
        warm = run_all(scale=SCALE, names=NAMES, runner=warm_runner)
        assert warm_runner.executed == 0
        assert warm_runner.cache_hits == len(NAMES)
        assert canonical(warm) == canonical(cold)

    def test_parallel_warm_cache_matches_parallel_cold(self, tmp_path):
        cold = run_all(scale=SCALE, names=NAMES,
                       runner=Runner(jobs=2, cache=tmp_path))
        warm = run_all(scale=SCALE, names=NAMES,
                       runner=Runner(jobs=2, cache=tmp_path))
        assert canonical(warm) == canonical(cold)


class TestTelemetryAbsorption:
    def test_parallel_run_fills_parent_session(self):
        with telemetry.session() as parallel_session:
            run_all(scale=SCALE, names=NAMES, runner=two_workers())
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
            run_all(scale=SCALE, names=NAMES, runner=two_workers())
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

    def test_table3_cache_round_trip_matches_plain_run(self, tmp_path,
                                                        capsys):
        argv = ("table3", "--scale", "0.05", "--json")
        cached = (*argv, "--jobs", "2", "--cache", str(tmp_path))
        _, cold = run_cli(*cached)
        capsys.readouterr()
        _, warm = run_cli(*cached)
        assert warm == cold
        assert "misses=0 executed=0" in capsys.readouterr().err
        _, plain = run_cli(*argv)
        assert plain == cold

    def test_only_the_parent_writes_stderr(self, tmp_path):
        # At scale 0.1 each task interprets more than PROGRESS_EVERY
        # accesses, so a worker that published to the parent's bus
        # would print its own stage-progress lines, and two workers'
        # lines could merge into one.
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table3", "--scale", "0.1",
             "--jobs", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)), cwd=tmp_path,
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        names = list(TABLE2_WORKLOADS)
        total = len(names)
        lines = proc.stderr.splitlines()
        task = re.compile(
            rf"task \[(\d+)/{total}\] (.+): "
            r"(optimize started|done in \d+\.\d\ds( \(eta \S+\))?)"
        )
        seen = []
        for line in lines[:-1]:
            match = task.fullmatch(line)
            assert match, line
            seq, name, event = match.groups()[:3]
            assert name == names[int(seq) - 1], line
            seen.append((int(seq), event.split()[0]))
        assert sorted(seen) == sorted(
            (seq, event) for seq in range(1, total + 1)
            for event in ("optimize", "done")
        )
        assert lines[-1].startswith(f"runner: tasks={total} jobs=2 ")

    def test_optimize_via_runner_matches_serial(self, tmp_path):
        _, serial = run_cli("optimize", "Mser", "--scale", "0.1")
        _, cached = run_cli("optimize", "Mser", "--scale", "0.1",
                            "--cache", str(tmp_path))
        _, warm = run_cli("optimize", "Mser", "--scale", "0.1",
                          "--cache", str(tmp_path))
        assert cached == serial
        assert warm == serial
