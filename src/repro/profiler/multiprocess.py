"""Multi-process profiling (§4.4: "multiple threads or/and processes").

An MPI-style job runs P copies of the program, each with its own
address space — so the *addresses* of the "same" array differ per
process, and merging by address would be meaningless. The paper merges
data-centric attributions "with data structures of the same allocation
site or the same name": exactly what our DataIdentity already encodes
(allocation call path for heap objects, symbol name for static ones).

``profile_processes`` runs one Monitor per rank against a freshly built
BoundProgram (fresh address space) and merges everything — per-rank
threads first, then across ranks with the same reduction tree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, List, Optional

from ..memsim.hierarchy import HierarchyConfig
from ..memsim.stats import RunMetrics
from ..program.builder import BoundProgram
from .merge import reduction_tree_merge
from .monitor import Monitor, ProfiledRun
from .profile import ThreadProfile


@dataclass
class MultiProcessRun:
    """Profiles and metrics for a whole multi-process job."""

    workload: str
    ranks: List[ProfiledRun]
    merged: ThreadProfile

    @property
    def num_processes(self) -> int:
        return len(self.ranks)

    @property
    def sample_count(self) -> int:
        return sum(r.sample_count for r in self.ranks)

    def aggregate_metrics(self) -> RunMetrics:
        """Sum of per-rank metrics (cycles add: ranks run concurrently,
        so wall time divides by rank count, like threads).

        Every numeric field of :class:`RunMetrics` is summed
        generically, so counters added to the dataclass later (TLB,
        prefetch, coherence, ...) can never be silently dropped here.
        """
        total = RunMetrics(name=self.workload, variant="original")
        for spec in fields(RunMetrics):
            values = [getattr(run.metrics, spec.name) for run in self.ranks]
            if values and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            ):
                setattr(total, spec.name, sum(values))
        return total

    def overhead_percent(self) -> float:
        metrics = self.aggregate_metrics()
        extra = sum(r.monitored_cycles - r.metrics.cycles for r in self.ranks)
        return 100.0 * extra / metrics.cycles if metrics.cycles else 0.0


def profile_processes(
    build: Callable[[int], BoundProgram],
    num_processes: int,
    *,
    monitor: Optional[Monitor] = None,
    threads_per_process: int = 1,
    config: Optional[HierarchyConfig] = None,
) -> MultiProcessRun:
    """Profile ``num_processes`` ranks and merge their profiles.

    ``build(rank)`` must return a freshly built BoundProgram per rank —
    each call creates a new address space, which is the point: the
    merge must succeed on allocation identity alone. The monitor's seed
    is offset per rank so ranks don't sample in lockstep.
    """
    if num_processes < 1:
        raise ValueError("num_processes must be >= 1")
    base = monitor or Monitor()
    ranks: List[ProfiledRun] = []
    for rank in range(num_processes):
        rank_monitor = Monitor(
            sampling_period=base.sampling_period,
            deployment_period=base.deployment_period,
            sampler_cls=base.sampler_cls,
            overhead_model=base.overhead_model,
            cost_model=base.cost_model,
            seed=base.seed + rank,
        )
        bound = build(rank)
        ranks.append(
            rank_monitor.run(
                bound, num_threads=threads_per_process, config=config
            )
        )
    merged = reduction_tree_merge(
        [profile for run in ranks for profile in run.profiles.values()]
    )
    workload = ranks[0].workload if ranks else ""
    return MultiProcessRun(workload=workload, ranks=ranks, merged=merged)
