"""Unit tests for the parallel experiment runner and its result cache."""

import json
import signal

import pytest

from repro.runner import (
    ResultCache,
    Runner,
    TaskSpec,
    as_cache,
    execute_task,
    register_task_kind,
    run_tasks,
)
from repro.runner import tasks as runner_tasks
from repro.telemetry import events, live


@pytest.fixture
def echo_kind():
    """A cheap deterministic task kind; unregisters itself afterwards."""
    calls = []

    def executor(spec):
        calls.append(spec)
        return {
            "name": spec.name,
            "seed": spec.seed,
            "value": spec.seed * 0.125 + len(spec.name),
        }

    register_task_kind("echo-test", executor)
    yield calls
    runner_tasks._EXECUTORS.pop("echo-test", None)


def spec(name="w", seed=0, **params):
    return TaskSpec(kind="echo-test", name=name, params=params, seed=seed)


class TestTaskRegistry:
    def test_execute_returns_jsonable(self, echo_kind):
        record = execute_task(spec("Mser", seed=3))
        json.dumps(record)  # must not raise
        assert record == {"name": "Mser", "seed": 3, "value": 3 * 0.125 + 4}

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            execute_task(TaskSpec(kind="no-such-kind", name="x"))

    def test_builtin_kinds_registered(self):
        for kind in ("optimize", "optimize-report", "kernel-overhead",
                     "sensitivity-point"):
            assert kind in runner_tasks._EXECUTORS


class TestResultCache:
    def test_key_is_stable_and_spec_sensitive(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = spec("w", seed=1, scale=0.5)
        assert cache.key(a) == cache.key(spec("w", seed=1, scale=0.5))
        assert cache.key(a) != cache.key(spec("w", seed=2, scale=0.5))
        assert cache.key(a) != cache.key(spec("w", seed=1, scale=0.6))
        assert cache.key(a) != cache.key(spec("v", seed=1, scale=0.5))

    def test_key_depends_on_package_version(self, tmp_path, monkeypatch):
        import repro

        cache = ResultCache(tmp_path)
        before = cache.key(spec())
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert cache.key(spec()) != before

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {"value": 1.25, "rows": [1, 2, 3]}
        cache.put(spec(), record)
        assert cache.get(spec()) == record
        assert (cache.hits, cache.misses) == (1, 0)

    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(spec()) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path(spec()).write_text("not json{")
        assert cache.get(spec()) is None
        assert cache.misses == 1

    def test_as_cache_coercions(self, tmp_path):
        assert as_cache(None) is None
        cache = ResultCache(tmp_path)
        assert as_cache(cache) is cache
        assert isinstance(as_cache(tmp_path / "sub"), ResultCache)


class TestRunTasks:
    def test_records_in_spec_order(self, echo_kind):
        specs = [spec(name, seed=i) for i, name in enumerate("abc")]
        records = run_tasks(specs)
        assert [r["name"] for r in records] == ["a", "b", "c"]
        assert [r["seed"] for r in records] == [0, 1, 2]

    def test_stats_accumulate(self, echo_kind, tmp_path):
        runner = Runner(cache=tmp_path)
        specs = [spec(name) for name in "ab"]
        run_tasks(specs, runner=runner)
        run_tasks(specs, runner=runner)
        assert runner.tasks == 4
        assert runner.cache_misses == 2
        assert runner.cache_hits == 2
        assert runner.executed == 2
        assert "hits=2 misses=2 executed=2" in runner.describe()

    def test_warm_cache_executes_nothing(self, echo_kind, tmp_path):
        specs = [spec(name, seed=i) for i, name in enumerate("abcd")]
        cold = run_tasks(specs, runner=Runner(cache=tmp_path))
        assert len(echo_kind) == 4
        warm_runner = Runner(cache=tmp_path)
        warm = run_tasks(specs, runner=warm_runner)
        assert len(echo_kind) == 4  # zero new executions
        assert warm_runner.executed == 0
        assert warm == cold

    def test_cold_and_warm_output_byte_identical(self, echo_kind, tmp_path):
        specs = [spec(name, seed=i, scale=0.25) for i, name in
                 enumerate(["462.libquantum", "Mser", "TSP"])]
        cold = json.dumps(run_tasks(specs, runner=Runner(cache=tmp_path)),
                          sort_keys=True)
        warm = json.dumps(run_tasks(specs, runner=Runner(cache=tmp_path)),
                          sort_keys=True)
        assert cold == warm

    def test_jobs_capped_by_pending_work(self, echo_kind):
        # jobs > len(specs) must not crash; single pending task runs inline.
        records = run_tasks([spec("solo")], runner=Runner(jobs=8))
        assert records[0]["name"] == "solo"

    def test_pool_publishes_each_finish_with_its_seconds(self, echo_kind):
        bus = events.EventBus()
        seen = []
        bus.subscribe(seen.append)
        specs = [spec(name, seed=i) for i, name in enumerate("abc")]
        with events.use(bus):
            records = run_tasks(specs, runner=Runner(jobs=2))
        assert [r["name"] for r in records] == ["a", "b", "c"]
        finishes = [e.data for e in seen if e.type == "task-finish"]
        assert [f["seq"] for f in finishes] == [1, 2, 3]
        assert [f["task"] for f in finishes] == ["a", "b", "c"]
        assert all(isinstance(f["seconds"], float) for f in finishes)
        starts = [e.data for e in seen if e.type == "task-start"]
        assert {e["workers"] for e in starts + finishes} == {2}

    def test_pool_workers_take_sigterm_default_action(self, tmp_path):
        # Workers forked under the CLI's flight-recorder SIGTERM handler
        # restore the default action, so Pool.terminate() ends each one
        # in the kernel even when it is about to block on a queue lock.
        register_task_kind("sigterm-test", lambda spec: {
            "default": signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
        })
        specs = [TaskSpec(kind="sigterm-test", name=str(k)) for k in range(2)]
        try:
            with live.crash_dump_scope(
                live.FlightRecorder(), tmp_path / "flightrec.json"
            ):
                assert signal.getsignal(signal.SIGTERM) != signal.SIG_DFL
                records = run_tasks(specs, runner=Runner(jobs=2))
        finally:
            runner_tasks._EXECUTORS.pop("sigterm-test", None)
        assert records == [{"default": True}] * 2
