"""Standard event-bus subscribers: progress, JSONL stream, flight recorder.

Three consumers of :mod:`repro.telemetry.events`, one per audience:

- :class:`ProgressReporter` — a human at a terminal: throttled
  rate/ETA lines on stderr while a long ``optimize``/``table3``/
  ``summary`` run works through its stages and tasks;
- :class:`JsonlStreamWriter` — a machine tailing the run live: one
  JSON object per event, flushed per line, the wire format the
  profiling-as-a-service daemon will serve;
- :class:`FlightRecorder` — nobody, until something goes wrong: a
  bounded ring buffer of recent events dumped to
  ``telemetry/flightrec.json`` on crash, SIGTERM, or a ``--deadline``
  expiry, so a failed CI run is diagnosable post-mortem.

Plus :func:`publish_metric_deltas`, the pull-model bridge that turns
registry snapshots into ``metric-delta`` events without touching the
hot simulation loop, and :func:`crash_dump_scope`, the signal/deadline
plumbing the CLI wraps around long commands.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .events import AnyBus, Event, EventBus
from .metrics import Histogram, MetricsRegistry

PathLike = Union[str, Path]

#: Default ring-buffer capacity: enough to hold the tail of a table3
#: run (a few thousand coarse events) without unbounded growth.
FLIGHT_CAPACITY = 2048

#: Where the flight recorder dumps unless the CLI overrides it.
FLIGHT_PATH = "telemetry/flightrec.json"


def _jsonable(value):
    from .export import to_jsonable  # lazy: export imports session

    return to_jsonable(value)


class ProgressReporter:
    """Human-readable progress on a stream (stderr by default).

    Renders ``stage-progress`` events as throttled rate lines,
    ``task-start``/``task-finish`` as per-task lines with an ETA (the
    finished tasks' mean seconds × tasks left ÷ the workers that run
    them) once a finished task has reported its seconds, and runner-stats
    summaries verbatim.  Span and cache-hit chatter is deliberately
    ignored — the reporter answers "is it moving and when will it be
    done", nothing more.
    """

    def __init__(
        self,
        stream=None,
        *,
        min_interval: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._stream = stream
        self._min_interval = min_interval
        self._clock = clock
        self._last_emit: Dict[str, float] = {}
        self._stage_t0: Dict[str, Tuple[float, float]] = {}
        self._stage_done: Dict[str, float] = {}
        self._tasks_done = 0
        self._timed_tasks = 0
        self._task_seconds = 0.0

    @property
    def stream(self):
        return self._stream if self._stream is not None else sys.stderr

    def _say(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def __call__(self, event: Event) -> None:
        handler = getattr(
            self, "_on_" + event.type.replace("-", "_"), None
        )
        if handler is not None:
            handler(event)

    # -- stage progress -----------------------------------------------------

    def _on_stage_progress(self, event: Event) -> None:
        data = event.data
        message = data.get("message")
        if message:
            self._say(str(message))
            return
        stage = str(data.get("stage", "?"))
        now = self._clock()
        done = data.get("done")
        total = data.get("total")
        if done is None:
            return
        # A shrinking counter means the stage restarted (optimize re-runs
        # simulate): restart its rate clock.
        if done < self._stage_done.get(stage, float("-inf")):
            self._stage_t0.pop(stage, None)
        self._stage_done[stage] = done
        # Rate over the window since the stage's first event this run;
        # the publication cadence is coarse, so this is an estimate.
        t0, first_done = self._stage_t0.setdefault(stage, (now, done))
        last = self._last_emit.get(stage, -float("inf"))
        finished = total is not None and done >= total
        if now - last < self._min_interval and not finished:
            return
        self._last_emit[stage] = now
        unit = str(data.get("unit", "items"))
        elapsed = now - t0
        rate = (done - first_done) / elapsed if elapsed > 0 else 0.0
        line = f"{stage}: {done:,} {unit}"
        if rate:
            line += f" ({rate:,.0f}/s"
            if total is not None and rate > 0:
                remaining = max(0, total - done)
                line += f", eta {remaining / rate:.1f}s"
            line += ")"
        self._say(line)

    # -- runner tasks -------------------------------------------------------

    def _on_task_start(self, event: Event) -> None:
        data = event.data
        seq, total = data.get("seq"), data.get("total")
        position = f" [{seq}/{total}]" if seq and total else ""
        self._say(f"task{position} {data.get('task')}: "
                  f"{data.get('kind')} started")

    def _on_task_finish(self, event: Event) -> None:
        data = event.data
        if data.get("kind") == "runner-stats":
            self._say(str(data.get("summary", "")))
            return
        self._tasks_done += 1
        seq, total = data.get("seq"), data.get("total")
        position = f" [{seq}/{total}]" if seq and total else ""
        line = f"task{position} {data.get('task')}: done"
        seconds = data.get("seconds")
        if isinstance(seconds, (int, float)):
            line += f" in {seconds:.2f}s"
            self._timed_tasks += 1
            self._task_seconds += seconds
        remaining = max(0, int(total) - self._tasks_done) if total else 0
        if remaining and self._timed_tasks:
            # The tasks left run ``workers`` at a time, each taking the
            # finished tasks' mean seconds.
            per_task = self._task_seconds / self._timed_tasks
            workers = min(int(data.get("workers") or 1), remaining)
            line += f" (eta {per_task * remaining / workers:.1f}s)"
        self._say(line)


class JsonlStreamWriter:
    """Append each event to ``path`` as one JSON line, flushed per line.

    The file is tail-able while the run is live (``tail -f``), and its
    rows are exactly :meth:`Event.to_dict` passed through the shared
    telemetry JSON encoder — the wire format a streaming daemon client
    would receive.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def __call__(self, event: Event) -> None:
        if self._fh.closed:
            return
        row = json.dumps(_jsonable(event.to_dict()), sort_keys=True)
        self._fh.write(row + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class FlightRecorder:
    """Bounded ring buffer of recent events, dumped only on trouble.

    Recording is one deque append per event; nothing is written to
    disk unless :meth:`dump` runs (crash, SIGTERM, deadline — see
    :func:`crash_dump_scope`), so a clean run leaves no artifact.
    """

    def __init__(self, capacity: int = FLIGHT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._seen = 0

    def __call__(self, event: Event) -> None:
        self._seen += 1
        self._events.append(event)

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def dropped(self) -> int:
        return self._seen - len(self._events)

    def snapshot(self) -> List[dict]:
        return [event.to_dict() for event in self._events]

    def dump(self, path: PathLike, *, reason: str) -> Path:
        """Write the ring buffer to ``path`` and return it."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "reason": reason,
            "dumped_at": time.strftime("%Y%m%dT%H%M%S"),
            "capacity": self.capacity,
            "events_seen": self._seen,
            "events_dropped": self.dropped,
            "events": _jsonable(self.snapshot()),
        }
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return out


# -- metric-delta publication ----------------------------------------------


def publish_metric_deltas(
    registry: MetricsRegistry, bus: AnyBus, **labels: object
) -> Dict[str, float]:
    """Publish what changed in ``registry`` since the last publication.

    Pull-model, like the Prometheus exporter: subsystems keep their
    counters, and callers (the monitor, at run end) invoke this once
    per coarse step.  Last-seen values live in ``bus.state``, so the
    delta baseline resets with the live scope rather than lingering in
    process globals.  Returns the published delta map (empty when
    nothing changed; no event is published then).
    """
    if not bus.active:
        return {}
    last: Dict[str, float] = bus.state.setdefault("metric_last", {})
    changed: Dict[str, float] = {}
    for instrument in registry.instruments():
        key = instrument.name + instrument.label_suffix
        value = (
            float(instrument.count)
            if isinstance(instrument, Histogram)
            else float(instrument.value)
        )
        delta = value - last.get(key, 0.0)
        if delta:
            changed[key] = delta
            last[key] = value
    if changed:
        bus.publish("metric-delta", changed=changed,
                    labels={k: str(v) for k, v in labels.items()})
    return changed


# -- crash / SIGTERM / deadline dumping ------------------------------------

@contextmanager
def crash_dump_scope(
    recorder: FlightRecorder,
    path: PathLike = FLIGHT_PATH,
    *,
    deadline: Optional[float] = None,
):
    """Dump ``recorder`` to ``path`` if the enclosed block dies.

    Three triggers, each annotating the dump with its reason:

    - an exception escaping the block (``reason: "exception: ..."``);
    - SIGTERM (``reason: "sigterm"``), exiting 143 as the shell would;
    - ``deadline`` seconds elapsing (``reason: "deadline ..."``, via
      SIGALRM), exiting 124 like ``timeout(1)`` — the CI hang-killer.

    Signal handlers are only installed in the main thread (elsewhere
    the exception trigger still works) and are restored on exit.
    SystemExit(0)/KeyboardInterrupt pass through undumped/dumped
    respectively: a clean exit is not an incident, Ctrl-C is.
    """
    out = Path(path)
    in_main = threading.current_thread() is threading.main_thread()
    if deadline is not None:
        # Checked before any handler is installed, so a rejected call
        # leaves the caller's handlers in place.  A deadline of 0 must
        # not pass: setitimer(..., 0) would disarm the hang-killer.
        if not deadline > 0:
            raise ValueError(
                f"deadline must be above 0 seconds, got {deadline}"
            )
        if not (in_main and hasattr(signal, "SIGALRM")):
            raise RuntimeError(
                "--deadline needs SIGALRM in the main thread"
            )
    owner_pid = os.getpid()
    previous: Dict[int, object] = {}

    def _bail(reason: str, code: int):
        # Forked pool workers inherit this handler; a worker reaped by
        # Pool.terminate() must die quietly, not dump the parent's ring
        # from its own copy of the scope.
        if os.getpid() == owner_pid:
            recorder.dump(out, reason=reason)
        raise SystemExit(code)

    if in_main and hasattr(signal, "SIGTERM"):
        previous[signal.SIGTERM] = signal.signal(
            signal.SIGTERM, lambda signum, frame: _bail("sigterm", 143)
        )
    if deadline is not None:
        previous[signal.SIGALRM] = signal.signal(
            signal.SIGALRM,
            lambda signum, frame: _bail(f"deadline {deadline}s", 124),
        )
        signal.setitimer(signal.ITIMER_REAL, float(deadline))
    try:
        yield recorder
    except SystemExit as exc:
        if exc.code not in (0, None) and not out.exists():
            recorder.dump(out, reason=f"exit {exc.code}")
        raise
    except BaseException as exc:
        recorder.dump(out, reason=f"exception: {type(exc).__name__}: {exc}")
        raise
    finally:
        if deadline is not None and signal.SIGALRM in previous:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
