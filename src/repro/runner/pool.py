"""The executor: cache lookups, the worker pool, telemetry plumbing.

:func:`run_tasks` takes an ordered list of :class:`TaskSpec` and
returns their records in the same order, regardless of how the work was
satisfied — cache hit, inline execution, or a ``multiprocessing``
worker.  Determinism comes from the specs themselves (each carries its
derived seed), so ``jobs=8`` reproduces ``jobs=1`` bit for bit.

When the parent has a telemetry session active, each worker runs under
a private session of its own; the worker ships the captured spans,
instruments, and overhead accounts back alongside the record, and the
parent absorbs them *in task order* — so exported telemetry from a
parallel run matches a serial run of the same tasks.  Cache hits
execute nothing and record only a ``cache-hit`` span.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from .._compat import effective_cpu_count
from ..telemetry import events
from ..telemetry.merge import SessionPayload, absorb_payload, capture_session
from .cache import ResultCache, as_cache
from .tasks import TaskSpec, execute_task


@dataclass
class Runner:
    """How an experiment runs its tasks, and what those runs did.

    ``jobs`` caps the worker-pool size (1 = execute inline; 0 or a
    negative value = one worker per effective CPU, honoring affinity
    limits).  ``cache`` (a directory or :class:`ResultCache`)
    short-circuits tasks whose content address already has a stored
    record.  The counts accumulate over every :func:`run_tasks` call
    made with this runner, like :class:`~repro.profiler.merge.MergeStats`;
    the records themselves are unaffected by either setting.
    """

    jobs: int = 1
    cache: Union[ResultCache, str, Path, None] = None
    tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            self.jobs = effective_cpu_count()
        self.cache = as_cache(self.cache)

    def describe(self) -> str:
        return (
            f"runner: tasks={self.tasks} jobs={self.jobs} "
            f"hits={self.cache_hits} misses={self.cache_misses} "
            f"executed={self.executed}"
        )


def _worker(payload: Tuple[TaskSpec, bool]):
    """Execute one task, in a worker process or inline.

    Starts a fresh telemetry session when the parent asked for capture
    (replacing any session inherited through fork), and returns the
    record, the captured session payload and the task's own seconds.
    """
    spec, capture = payload
    session = telemetry.start() if capture else None
    try:
        started = time.perf_counter()
        record = execute_task(spec)
        seconds = time.perf_counter() - started
        captured = capture_session(session) if session is not None else None
    finally:
        if session is not None:
            telemetry.stop()
    return record, captured, seconds


def _pool_worker(payload: Tuple[TaskSpec, bool]):
    """:func:`_worker` in a pool process, publishing to no event bus:
    a worker forked from a parent with a live bus would write its own
    progress lines to the shared stderr, so only the parent does."""
    with events.use(events.NULL_BUS):
        return _worker(payload)


def _publish_start(
    bus: events.AnyBus, spec: TaskSpec, seq: int, total: int, workers: int
) -> None:
    if bus.active:
        bus.publish("task-start", task=spec.name, kind=spec.kind,
                    seq=seq, total=total, workers=workers)


def _inline(todo: Sequence[TaskSpec], bus: events.AnyBus) -> Iterator[tuple]:
    """:func:`_worker` results in this process, each task announced
    just before it runs."""
    for seq, spec in enumerate(todo, 1):
        _publish_start(bus, spec, seq, len(todo), 1)
        yield _worker((spec, False))


@contextmanager
def _executed(todo: Sequence[TaskSpec], workers: int, bus: events.AnyBus):
    """Yield an iterator of ``(record, captured, seconds)`` for
    ``todo``, in order: a pool of ``workers`` processes' ``imap`` when
    there is more than one worker, else :func:`_inline`."""
    if workers > 1:
        capture = telemetry.enabled()
        for seq, spec in enumerate(todo, 1):
            _publish_start(bus, spec, seq, len(todo), workers)
        context = multiprocessing.get_context()
        with context.Pool(workers) as pool:
            yield pool.imap(
                _pool_worker, [(spec, capture) for spec in todo]
            )
    else:
        yield _inline(todo, bus)


def run_tasks(
    specs: Sequence[TaskSpec], *, runner: Optional[Runner] = None
) -> List[object]:
    """Run ``specs`` and return their records, in spec order.

    ``runner`` (default: inline, uncached) supplies the worker count and
    the result cache, and accumulates hit/miss/execution counts; only
    cache misses execute.
    """
    if runner is None:
        runner = Runner()
    jobs = runner.jobs
    store = runner.cache
    runner.tasks += len(specs)

    records: List[Optional[object]] = [None] * len(specs)
    pending: List[int] = []
    tracer = telemetry.tracer()
    bus = events.bus()
    for index, spec in enumerate(specs):
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            records[index] = cached
            with tracer.span("cache-hit", kind=spec.kind, task=spec.name):
                pass
            if bus.active:
                bus.publish("cache-hit", kind=spec.kind, task=spec.name)
        else:
            pending.append(index)

    if store is not None:
        runner.cache_hits += len(specs) - len(pending)
        runner.cache_misses += len(pending)
    runner.executed += len(pending)

    if pending:
        todo = [specs[index] for index in pending]
        workers = min(jobs, len(todo))
        session = telemetry.active()
        with _executed(todo, workers, bus) as results:
            for seq, (index, (record, captured, seconds)) in enumerate(
                zip(pending, results), 1
            ):
                records[index] = record
                if captured is not None and session is not None:
                    absorb_payload(session, captured)
                if bus.active:
                    spec = specs[index]
                    bus.publish("task-finish", task=spec.name,
                                kind=spec.kind, seq=seq, total=len(todo),
                                seconds=seconds, workers=workers)
        if store is not None:
            for index in pending:
                store.put(specs[index], records[index])
    return records
