"""Unit tests for the live event bus and its standard subscribers."""

import io
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.telemetry import events
from repro.telemetry.events import EVENT_TYPES, NULL_BUS, EventBus
from repro.telemetry.live import (
    FlightRecorder,
    JsonlStreamWriter,
    ProgressReporter,
    crash_dump_scope,
    publish_metric_deltas,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


def fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


class TestEventBus:
    def test_publish_reaches_subscribers_in_order(self):
        bus = EventBus(clock=fake_clock())
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.type)))
        bus.subscribe(lambda e: seen.append(("b", e.type)))
        bus.publish("span-open", name="run")
        assert seen == [("a", "span-open"), ("b", "span-open")]

    def test_unknown_event_type_raises(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        with pytest.raises(ValueError):
            bus.publish("not-a-type")

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish("cache-hit", kind="result")
        unsubscribe()
        bus.publish("cache-hit", kind="result")
        assert len(seen) == 1

    def test_active_tracks_subscribers(self):
        bus = EventBus()
        assert not bus.active
        unsubscribe = bus.subscribe(lambda e: None)
        assert bus.active
        unsubscribe()
        assert not bus.active

    def test_event_to_dict_carries_type_ts_and_data(self):
        bus = EventBus(clock=fake_clock())
        seen = []
        bus.subscribe(seen.append)
        bus.publish("task-start", task="t1", seq=1, total=4)
        row = seen[0].to_dict()
        assert row["type"] == "task-start"
        assert row["data"] == {"task": "t1", "seq": 1, "total": 4}
        assert "ts" in row

    def test_null_bus_is_inert(self):
        assert not NULL_BUS.active
        NULL_BUS.publish("anything-goes", even="unvalidated")
        assert NULL_BUS.subscribe(lambda e: None)() is None

    def test_taxonomy_is_closed(self):
        assert "span-open" in EVENT_TYPES
        assert "stage-progress" in EVENT_TYPES
        assert "not-a-type" not in EVENT_TYPES

    def test_taxonomy_is_exactly_the_documented_set(self):
        assert EVENT_TYPES == {
            "span-open", "span-close", "metric-delta", "task-start",
            "task-finish", "cache-hit", "stage-progress",
        }


class TestAmbientBus:
    def test_default_is_null_bus(self):
        assert events.bus() is NULL_BUS

    def test_use_scopes_installation(self):
        bus = EventBus()
        with events.use(bus):
            assert events.bus() is bus
        assert events.bus() is NULL_BUS

    def test_use_restores_on_exception(self):
        bus = EventBus()
        with pytest.raises(RuntimeError):
            with events.use(bus):
                raise RuntimeError("boom")
        assert events.bus() is NULL_BUS


class TestTracerPublishes:
    def test_span_open_and_close_events(self):
        bus = EventBus(clock=fake_clock())
        seen = []
        bus.subscribe(seen.append)
        tracer = Tracer(fake_clock(), bus=bus)
        with tracer.span("run"):
            with tracer.span("interpret"):
                pass
        kinds = [(e.type, e.data.get("name")) for e in seen]
        assert kinds == [
            ("span-open", "run"),
            ("span-open", "interpret"),
            ("span-close", "interpret"),
            ("span-close", "run"),
        ]
        close = seen[2]
        assert close.data["seconds"] == pytest.approx(1.0)

    def test_tracer_without_bus_publishes_nothing(self):
        tracer = Tracer(fake_clock())  # defaults to NULL_BUS
        with tracer.span("run"):
            pass
        assert len(tracer.roots) == 1


class TestFlightRecorder:
    def test_ring_keeps_only_the_tail(self):
        recorder = FlightRecorder(capacity=3)
        bus = EventBus(clock=fake_clock())
        bus.subscribe(recorder)
        for i in range(5):
            bus.publish("cache-hit", kind="result", task=f"t{i}")
        assert recorder.seen == 5
        assert recorder.dropped == 2
        tasks = [row["data"]["task"] for row in recorder.snapshot()]
        assert tasks == ["t2", "t3", "t4"]

    def test_dump_writes_reason_and_counts(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        bus = EventBus(clock=fake_clock())
        bus.subscribe(recorder)
        bus.publish("task-finish", task="t0", seconds=0.5)
        out = recorder.dump(tmp_path / "flightrec.json", reason="sigterm")
        payload = json.loads(out.read_text())
        assert payload["reason"] == "sigterm"
        assert payload["events_seen"] == 1
        assert payload["events_dropped"] == 0
        assert payload["events"][0]["data"]["task"] == "t0"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestJsonlStreamWriter:
    def test_writes_one_json_object_per_event(self, tmp_path):
        path = tmp_path / "live.jsonl"
        bus = EventBus(clock=fake_clock())
        with JsonlStreamWriter(path) as writer:
            bus.subscribe(writer)
            bus.publish("stage-progress", stage="simulate", done=100)
            bus.publish("cache-hit", kind="result", task="t1")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["type"] for row in rows] == ["stage-progress", "cache-hit"]
        assert rows[0]["data"]["done"] == 100

    def test_write_after_close_is_ignored(self, tmp_path):
        writer = JsonlStreamWriter(tmp_path / "live.jsonl")
        writer.close()
        bus = EventBus()
        bus.subscribe(writer)
        bus.publish("cache-hit", kind="result")  # must not raise


class TestProgressReporter:
    def make(self, min_interval=0.0):
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream, min_interval=min_interval, clock=fake_clock()
        )
        bus = EventBus(clock=fake_clock())
        bus.subscribe(reporter)
        return bus, stream

    def test_stage_progress_renders_rate(self):
        bus, stream = self.make()
        bus.publish("stage-progress", stage="simulate", done=0,
                    unit="accesses")
        bus.publish("stage-progress", stage="simulate", done=1000,
                    unit="accesses")
        lines = stream.getvalue().splitlines()
        assert lines[0] == "simulate: 0 accesses"
        assert lines[1].startswith("simulate: 1,000 accesses (")

    def test_stage_restart_resets_the_rate_clock(self):
        bus, stream = self.make()
        bus.publish("stage-progress", stage="simulate", done=5000)
        bus.publish("stage-progress", stage="simulate", done=100)
        line = stream.getvalue().splitlines()[-1]
        # A shrinking counter must not render a negative rate.
        assert "-" not in line.split("(")[-1]

    def test_message_passthrough(self):
        bus, stream = self.make()
        bus.publish("stage-progress", stage="bench",
                    message="bench: interpret layer")
        assert stream.getvalue() == "bench: interpret layer\n"

    def test_throttling_suppresses_rapid_updates(self):
        bus, stream = self.make(min_interval=100.0)
        bus.publish("stage-progress", stage="simulate", done=1)
        bus.publish("stage-progress", stage="simulate", done=2)
        bus.publish("stage-progress", stage="simulate", done=3)
        assert len(stream.getvalue().splitlines()) == 1

    def test_task_lines_include_position_and_eta(self):
        bus, stream = self.make()
        bus.publish("task-start", task="t1", kind="run", seq=1, total=2)
        bus.publish("task-finish", task="t1", kind="run", seq=1, total=2,
                    seconds=0.25)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "task [1/2] t1: run started"
        assert lines[1].startswith("task [1/2] t1: done in 0.25s")
        assert "eta" in lines[1]

    def test_task_eta_divides_by_workers_not_elapsed_time(self):
        # Seven tasks on two workers, finishing in spec order: the ETA
        # is the finished tasks' mean seconds × tasks left ÷ the workers
        # that run them, however much reporter time has passed (the
        # fake clock ticks once per read).
        bus, stream = self.make()
        for seq in range(1, 8):
            bus.publish("task-start", task=f"t{seq}", kind="run", seq=seq,
                        total=7, workers=2)
        for seq, seconds in enumerate([1.0, 3.0, 2.0, 2.0, 2.0, 2.0], 1):
            bus.publish("task-finish", task=f"t{seq}", kind="run", seq=seq,
                        total=7, seconds=seconds, workers=2)
        etas = [
            line.rsplit("(eta ", 1)[1].rstrip(")")
            for line in stream.getvalue().splitlines() if "eta" in line
        ]
        # 1.0 × 6 / 2; 2.0 × 5 / 2; 2.0 × 4 / 2; ... and the last
        # task alone runs on one worker: 2.0 × 1 / 1.
        assert etas == ["3.0s", "5.0s", "4.0s", "3.0s", "2.0s", "2.0s"]

    def test_task_eta_needs_a_timed_finish(self):
        bus, stream = self.make()
        bus.publish("task-finish", task="t1", kind="run", seq=1, total=2)
        assert stream.getvalue() == "task [1/2] t1: done\n"

    def test_runner_stats_summary_is_verbatim(self):
        bus, stream = self.make()
        bus.publish("task-finish", kind="runner-stats",
                    summary="runner: hits=3 misses=0 executed=0")
        assert stream.getvalue() == "runner: hits=3 misses=0 executed=0\n"

    def test_span_chatter_is_ignored(self):
        bus, stream = self.make()
        bus.publish("span-open", name="run", depth=0)
        bus.publish("cache-hit", kind="result", task="t1")
        assert stream.getvalue() == ""


class TestPublishMetricDeltas:
    def test_publishes_only_what_changed(self):
        bus = EventBus(clock=fake_clock())
        seen = []
        bus.subscribe(seen.append)
        registry = MetricsRegistry()
        registry.counter("repro_x_total", help="x").inc(3)
        first = publish_metric_deltas(registry, bus, workload="art")
        assert first == {"repro_x_total": 3.0}
        # No movement -> no event published.
        second = publish_metric_deltas(registry, bus)
        assert second == {}
        registry.counter("repro_x_total", help="x").inc(2)
        third = publish_metric_deltas(registry, bus)
        assert third == {"repro_x_total": 2.0}
        assert [e.type for e in seen] == ["metric-delta", "metric-delta"]
        assert seen[0].data["labels"] == {"workload": "art"}

    def test_inactive_bus_short_circuits(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", help="x").inc(1)
        assert publish_metric_deltas(registry, NULL_BUS) == {}


def deadline_handlers():
    """The SIGTERM and SIGALRM handlers ``crash_dump_scope`` replaces."""
    return {signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGALRM)}


class TestCrashDumpScope:
    def test_clean_exit_leaves_no_artifact(self, tmp_path):
        out = tmp_path / "flightrec.json"
        with crash_dump_scope(FlightRecorder(capacity=4), out):
            pass
        assert not out.exists()

    def test_exception_dumps_with_reason(self, tmp_path):
        out = tmp_path / "flightrec.json"
        recorder = FlightRecorder(capacity=4)
        bus = EventBus(clock=fake_clock())
        bus.subscribe(recorder)
        with pytest.raises(RuntimeError):
            with crash_dump_scope(recorder, out):
                bus.publish("task-start", task="t1", kind="run")
                raise RuntimeError("boom")
        payload = json.loads(out.read_text())
        assert payload["reason"] == "exception: RuntimeError: boom"
        assert payload["events"][0]["data"]["task"] == "t1"

    def test_sigterm_handler_dumps_in_owner_process(self, tmp_path):
        out = tmp_path / "flightrec.json"
        recorder = FlightRecorder(capacity=4)
        with crash_dump_scope(recorder, out):
            handler = signal.getsignal(signal.SIGTERM)
            with pytest.raises(SystemExit) as excinfo:
                handler(signal.SIGTERM, None)
            assert excinfo.value.code == 143
            assert json.loads(out.read_text())["reason"] == "sigterm"

    def test_sigterm_in_forked_child_does_not_dump(self, tmp_path,
                                                   monkeypatch):
        # Pool workers fork while the scope is active and inherit its
        # SIGTERM handler; when Pool.terminate() reaps them they must
        # exit 143 without dumping the parent's ring into cwd.
        import repro.telemetry.live as live

        out = tmp_path / "flightrec.json"
        with crash_dump_scope(FlightRecorder(capacity=4), out):
            handler = signal.getsignal(signal.SIGTERM)
            monkeypatch.setattr(
                live.os, "getpid", lambda: -1, raising=True
            )
            with pytest.raises(SystemExit) as excinfo:
                handler(signal.SIGTERM, None)
            monkeypatch.undo()
            assert excinfo.value.code == 143
            assert not out.exists()
        assert not out.exists()

    def test_handlers_are_restored(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        with crash_dump_scope(FlightRecorder(), tmp_path / "f.json"):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_deadline_outside_main_thread_raises(self, tmp_path):
        failures = []

        def target():
            try:
                with crash_dump_scope(
                    FlightRecorder(), tmp_path / "f.json", deadline=5.0
                ):
                    pass
            except RuntimeError as exc:
                failures.append(str(exc))

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert failures and "main thread" in failures[0]

    def test_deadline_dumps_and_exits_124(self, tmp_path):
        out = tmp_path / "flightrec.json"
        with pytest.raises(SystemExit) as excinfo:
            with crash_dump_scope(FlightRecorder(capacity=4), out,
                                  deadline=0.05):
                stop = time.monotonic() + 10.0
                while time.monotonic() < stop:
                    time.sleep(0.01)
        assert excinfo.value.code == 124
        assert json.loads(out.read_text())["reason"] == "deadline 0.05s"
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    @pytest.mark.parametrize("deadline", [0, -1.0])
    def test_non_positive_deadline_rejected_before_handlers(self, tmp_path,
                                                            deadline):
        # 0 would silently disarm the timer and -1 makes setitimer
        # raise; either way the caller's handlers must survive.
        before = deadline_handlers()
        with pytest.raises(ValueError, match="above 0"):
            with crash_dump_scope(FlightRecorder(), tmp_path / "f.json",
                                  deadline=deadline):
                pass
        assert deadline_handlers() == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cli_rejects_non_positive_deadline(self, capsys, value):
        from repro.cli import main

        before = deadline_handlers()
        with pytest.raises(SystemExit) as excinfo:
            main(["table3", "--scale", "0.05", "--deadline", value],
                 out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--deadline" in err
        assert deadline_handlers() == before


_SIGTERM_CHILD = """
import sys, time
from pathlib import Path
from repro.telemetry.live import FlightRecorder, crash_dump_scope

out, ready = Path(sys.argv[1]), Path(sys.argv[2])
with crash_dump_scope(FlightRecorder(capacity=4), out):
    ready.write_text("ready")
    time.sleep(60)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="no SIGTERM")
def test_real_sigterm_dumps_and_exits_143(tmp_path):
    """A delivered SIGTERM (not a direct handler call) dumps the ring
    and ends the process with the shell's 143."""
    out, ready = tmp_path / "flightrec.json", tmp_path / "ready"
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGTERM_CHILD, str(out), str(ready)], env=env
    )
    try:
        stop = time.monotonic() + 30.0
        while not ready.exists():
            assert proc.poll() is None, "child died before it was ready"
            assert time.monotonic() < stop, "child never became ready"
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
    finally:
        if proc.poll() is None:
            proc.kill()
    assert json.loads(out.read_text())["reason"] == "sigterm"
