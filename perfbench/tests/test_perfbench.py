"""Tests of the benchmark itself, at a tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

import cases  # noqa: E402
import make_reference  # noqa: E402
import spans  # noqa: E402

SCALE = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return make_reference.build_reference(seed=0, scale=SCALE)


def measure(workload, reference, tmp_path, *, trace=False, seed=0):
    return run.measure(
        workload, seed, 0.0, trace, scale=SCALE, reference=reference,
        probes=1, min_passes=1, out_dir=tmp_path,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(cases.WORKLOADS))
def test_every_workload_runs_correct_with_the_declared_metrics(workload, reference, tmp_path):
    result = measure(workload, reference, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(cases.WORKLOADS[workload])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", list(cases.WORKLOADS))
def test_traced_run_reports_every_layer_and_matches_untraced(workload, reference, tmp_path):
    result = measure(workload, reference, tmp_path, trace=True)
    # Each traced pass is checked against the untraced one before it.
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(cases.WORKLOADS[workload])
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert metrics["program.accesses"]["value"] == metrics["memsim.accesses"]["value"] > 0
    assert metrics["sampling.samples"]["value"] > 0
    (dump,) = tmp_path.glob(f"trace-{workload}-seed0.json")
    recorded = json.loads(dump.read_text())[0]["spans"]
    assert {"core.analyze", "memsim.simulate", "memsim.walk", "program.next"} <= {
        s["name"] for s in recorded
    }


def test_self_times_account_for_the_pass():
    tools = cases.Traced()
    objects, analyzer = cases.construct("table3-coherent", SCALE)
    result = cases.run_pass("table3-coherent", objects, 0, tools, analyzer)
    own = tools.rec.self_seconds()
    # Every span sits inside the pass, so self times sum to the traced time.
    top = sum(s[spans.SECONDS] for s in tools.rec.spans if s[spans.PARENT] == -1)
    assert sum(own.values()) == pytest.approx(top)
    assert top <= result.wall_s
    layers = cases.layer_metrics(tools.rec, result)
    assert 0 <= layers["trace.unattributed_s"] < result.wall_s


def test_every_operation_gets_its_own_probed_stopwatch():
    probe = run.SpeedProbe()
    watches = []

    def stopwatch():
        watches.append(run.ProbedStopwatch(probe))
        return watches[-1]

    objects, analyzer = cases.construct("table3-single", SCALE)
    result = cases.run_pass("table3-single", objects, 0, cases.Plain(), analyzer, stopwatch)
    assert list(result.op_walls) == [op.key for op in cases.WORKLOADS["table3-single"]]
    assert [w.seconds for w in watches] == list(result.op_walls.values())
    assert result.wall_s == pytest.approx(sum(result.op_walls.values()))
    for watch in watches:
        assert len(watch.probes) >= 2 and watch.rescaled > 0


def test_a_probed_stopwatch_leaves_out_its_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.ProbedStopwatch(run.SpeedProbe()) as watch:
        deadline = time.perf_counter() + 4 * run.SPEED_PROBE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    assert len(watch.probes) >= 4
    assert watch.seconds == pytest.approx(
        4 * run.SPEED_PROBE_EVERY_S - sum(watch.probes[1:-1]), abs=0.05
    )
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_rescale_gives_seconds_at_the_reference_speed():
    ref = run.REFERENCE_PROBE_S
    assert run.rescale(3.0, ref, ref) == pytest.approx(3.0)
    # A host running at half speed takes twice as long for the same work.
    assert run.rescale(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert run.rescale(4.0, ref, 3 * ref) == pytest.approx(2.0)


def test_another_seed_passes_the_seed_independent_checks(reference, tmp_path):
    result = measure("table3-single", reference, tmp_path, seed=5)
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize(
    "key,path",
    [
        ("179.ART", ("original", "cycles")),
        ("NN", ("split", "l1_misses")),
        ("OverlapView", ("overhead_percent",)),
        ("179.ART@7", ("original", "accesses")),
    ],
)
def test_a_tampered_reference_value_is_a_failure(key, path, reference, tmp_path):
    tampered = copy.deepcopy(reference)
    entry = tampered["operations"][key]
    for step in path[:-1]:
        entry = entry[step]
    entry[path[-1]] += 1
    workload = next(w for w, ops in cases.WORKLOADS.items() if key in {o.key for o in ops})
    result = measure(workload, tampered, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1


def test_a_seed_dependent_field_is_checked_only_at_the_reference_seed(reference, tmp_path):
    tampered = copy.deepcopy(reference)
    tampered["operations"]["179.ART@31"]["sample_count"] += 1
    assert not measure("sampling-sweep", tampered, tmp_path)["correct"]
    assert measure("sampling-sweep", tampered, tmp_path, seed=3)["correct"]


def _run_cli(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coherent-writes",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", run.FORBIDDEN_ENV)
def test_a_non_default_environment_is_refused(name):
    env = dict(os.environ, **{name: "1"})
    proc = _run_cli(ROOT, env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert name in proc.stderr


def test_a_checkout_without_the_program_is_refused(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
