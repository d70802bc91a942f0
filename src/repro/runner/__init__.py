"""``repro.runner``: the experiment executor.

The experiment harness runs many independent (workload, config) pairs —
the seven Table 3 optimization cycles, dozens of suite kernels, a
period sweep — and every one of them runs here, inline at ``jobs=1``.
This package fans those tasks out over a
``multiprocessing`` pool and memoizes their results in an on-disk
content-addressed cache, mirroring how the paper's profiler itself
scales: independent per-rank work, deterministic per-rank seeds, and a
cheap merge at the end.

- :mod:`~repro.runner.tasks` — :class:`TaskSpec` (one picklable unit of
  work) and the task-kind registry;
- :mod:`~repro.runner.cache` — :class:`ResultCache`, keyed by a hash of
  the task's kind, workload name, config parameters, seed, and the
  package version, so warm re-runs of unchanged pairs return instantly
  and byte-identically;
- :mod:`~repro.runner.pool` — :func:`run_tasks`, the executor: cache
  lookups, the worker pool and telemetry capture/absorb, all set by
  one :class:`Runner` (worker count, cache, and the run counts).

Results are JSON-encodable records (never live objects), so a record
read back from the cache is exactly what a fresh execution returns.
"""

from .cache import ResultCache, as_cache
from .pool import Runner, run_tasks
from .tasks import TaskSpec, execute_task, register_task_kind

__all__ = [
    "ResultCache",
    "Runner",
    "TaskSpec",
    "as_cache",
    "execute_task",
    "register_task_kind",
    "run_tasks",
]
