"""The live event bus: typed pub/sub under the whole pipeline.

Where :mod:`repro.telemetry.spans` records *what happened* for post-hoc
export, the bus streams *what is happening* to whoever is listening
right now: a stderr progress reporter, a tail-able JSONL writer, the
flight recorder's ring buffer (see :mod:`repro.telemetry.live`), and —
eventually — the profiling-as-a-service daemon's client connections.

Design rules, mirroring ``NULL_TRACER``:

- **Typed events.** Every event carries one of the :data:`EVENT_TYPES`
  below plus a flat ``data`` dict; publishing an unknown type raises,
  so the taxonomy in ``docs/observability.md`` stays the whole truth.
- **Zero-cost when disabled.** The ambient bus defaults to
  :data:`NULL_BUS`, whose ``publish`` is a no-op and whose ``active``
  flag lets hot loops skip even argument construction.  Instrumented
  code follows the pattern::

      bus = events.bus()
      if bus.active:
          bus.publish("stage-progress", stage="simulate", done=n)

- **Purely observational.** Subscribers receive events *after* the
  publishing code has done its work; nothing downstream of a publish
  can alter a numeric result (asserted bit-identical by
  ``tests/integration/test_live_observability.py``).

The event taxonomy:

=================  ========================================================
``span-open``      a tracer span started (``name``, ``depth``)
``span-close``     a tracer span ended (``name``, ``seconds``)
``metric-delta``   instrument values changed since the last publication
                   (``changed`` name->delta map, publication ``labels``)
``task-start``     a runner task began executing (``task``, ``kind``,
                   ``seq``, ``total``, ``workers``)
``task-finish``    a runner task finished (``task``, ``kind``, ``seq``,
                   ``total``, ``seconds``, ``workers``) — also carries
                   runner-stats summaries (``kind="runner-stats"``)
``cache-hit``      a runner task was served from the result cache
                   (``task``, ``kind``)
``stage-progress`` a long stage advanced (``stage``, ``done``, optional
                   ``total``/``unit``/``message``)
=================  ========================================================
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Union

EVENT_TYPES = frozenset(
    {
        "span-open",
        "span-close",
        "metric-delta",
        "task-start",
        "task-finish",
        "cache-hit",
        "stage-progress",
    }
)


@dataclass
class Event:
    """One published fact: a type from :data:`EVENT_TYPES`, a bus
    timestamp (the bus clock, seconds), and a flat payload."""

    type: str
    ts: float
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"type": self.type, "ts": self.ts, "data": dict(self.data)}


Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous fan-out of typed events to in-process subscribers.

    ``active`` is True only while at least one subscriber is attached,
    so publishers can skip building payloads nobody will see.  The
    ``state`` dict is scratch space scoped to the bus's lifetime
    (e.g. the metric-delta publisher's last-seen values), which keeps
    per-run bookkeeping off the process globals.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._subscribers: List[Subscriber] = []
        self.state: Dict[str, object] = {}

    @property
    def active(self) -> bool:
        return bool(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Attach ``subscriber``; returns a detach callable."""
        self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, type: str, **data: object) -> None:
        """Deliver one event to every subscriber, in attach order."""
        if type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type!r} (taxonomy: "
                f"{', '.join(sorted(EVENT_TYPES))})"
            )
        if not self._subscribers:
            return
        event = Event(type, self._clock(), data)
        for subscriber in tuple(self._subscribers):
            subscriber(event)


class NullBus:
    """The zero-cost stand-in used when nothing is listening."""

    active = False
    state: Dict[str, object] = {}

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        return lambda: None

    def publish(self, type: str, **data: object) -> None:
        pass


NULL_BUS = NullBus()

AnyBus = Union[EventBus, NullBus]

_current: AnyBus = NULL_BUS


def bus() -> AnyBus:
    """The ambient bus (``NULL_BUS`` unless a live scope is active)."""
    return _current


def install(new_bus: AnyBus) -> AnyBus:
    """Swap the ambient bus; returns the previous one."""
    global _current
    previous, _current = _current, new_bus
    return previous


@contextmanager
def use(new_bus: AnyBus):
    """``with events.use(bus):`` — install, yield, always restore."""
    previous = install(new_bus)
    try:
        yield new_bus
    finally:
        install(previous)
