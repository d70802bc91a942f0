"""The sampling engine: periodic selection of memory accesses.

Models how PMU address sampling behaves in practice:

- one sample every ``period`` eligible accesses, counted **per thread**
  (each hardware thread has its own PMU counters; the paper's profiler
  monitors each thread independently with no synchronization);
- the period is randomized a little after each sample, as real drivers
  do, to avoid lock-step aliasing with loop strides;
- sampling is blind to program structure: it sees (IP, address,
  latency) and nothing else.

The engine implements the :data:`repro.memsim.engine.Observer` protocol
so it plugs directly into the simulation driver. Samples are kept in a
columnar :class:`~repro.sampling.events.SampleLog`: :meth:`SamplingEngine.
observe` appends one row per sample, and :meth:`SamplingEngine.
observe_batch` works out a whole batch's sample positions and then
gathers every column at once (with numpy, in one step per column).

When the period cannot vary (``int(period * jitter) == 0``, every period
below 10 at the default jitter) a thread slot's samples in a batch sit
at an arithmetic progression of its eligible accesses, so one
``arange`` per slot gives them; the only RNG draws left are the
first-sample staggers. Otherwise a small heap replays the countdowns in
trace-position order, so RNG draws happen in the scalar path's order.
Either way the log, ``periods_drawn`` and every counter are identical
to feeding the expanded batch through :meth:`SamplingEngine.observe`,
which stays as the reference.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List

from ..memsim import vectorwalk
from ..program.trace import MemoryAccess
from .events import AddressSample, SampleLog

#: The log columns a sample copies from its access's batch columns.
_BATCH_COLUMNS = ("thread", "ip", "address", "size", "is_write", "line", "context")


class SamplingEngine:
    """Periodic per-thread address sampler.

    Parameters
    ----------
    period:
        Mean number of eligible accesses between samples (the paper
        uses one sample per 10,000 memory accesses).
    jitter:
        Fractional randomization of the period after each sample;
        0.1 means the next period is drawn uniformly from ±10%.
    loads_only:
        When true, stores are invisible (PEBS-LL monitors loads).
    min_latency:
        Latency threshold in cycles (PEBS-LL's ``ldlat`` filter);
        accesses faster than this are not eligible.
    seed:
        RNG seed; runs are fully deterministic for a given seed, and
        :meth:`reset` restarts the RNG from it.
    """

    #: PMU model name, for overhead-provenance reporting; subclasses
    #: (PEBS-LL, IBS, ...) override.
    PMU_NAME = "generic-period"

    def __init__(
        self,
        period: int = 10_000,
        *,
        jitter: float = 0.1,
        loads_only: bool = False,
        min_latency: float = 0.0,
        seed: int = 0,
    ) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.period = period
        self.jitter = jitter
        self.loads_only = loads_only
        self.min_latency = min_latency
        self.seed = seed
        self._rng = random.Random(seed)
        self._countdown: Dict[int, int] = {}
        self.log = SampleLog()
        self.eligible_accesses = 0
        self.total_accesses = 0
        #: Every jittered period actually drawn, for telemetry (one
        #: append per sample — negligible next to the sample itself).
        self.periods_drawn: List[int] = []

    def _next_period(self) -> int:
        if self.jitter == 0.0:
            drawn = self.period
        else:
            spread = int(self.period * self.jitter)
            drawn = (
                self.period
                if spread == 0
                else self.period + self._rng.randint(-spread, spread)
            )
        self.periods_drawn.append(drawn)
        return drawn

    def observe(self, access: MemoryAccess, latency: float) -> None:
        """Observer hook: called for every access the simulator executes."""
        self.total_accesses += 1
        if self.loads_only and access.is_write:
            return
        if latency < self.min_latency:
            return
        self.eligible_accesses += 1
        remaining = self._countdown.get(access.thread)
        if remaining is None:
            # Stagger each thread's first sample within one period so
            # threads don't fire in lock-step. The period is drawn
            # through _next_period() so the stagger respects jitter and
            # shows up in the periods_drawn telemetry like every other
            # arming of the counter.
            remaining = self._rng.randint(1, self._next_period())
        remaining -= 1
        if remaining <= 0:
            self.log.append(
                self.total_accesses - 1,
                access.thread,
                access.ip,
                access.address,
                access.size,
                access.is_write,
                latency,
                access.line,
                access.context,
            )
            remaining = self._next_period()
        self._countdown[access.thread] = remaining

    def observe_batch(self, batch, latencies) -> None:
        """Columnar observer hook: one call per :class:`AccessBatch`.

        Advances each thread's countdown in O(samples) rather than
        O(accesses). A thread slot's eligible accesses are numbered
        ``e = 0, 1, ...`` in trace order; without a latency filter they
        sit at arithmetically known batch positions, and when the
        ``min_latency`` filter can drop accesses each slot's eligible
        positions are listed one by one. The countdown then jumps from one
        counter expiry to the next over that numbering, the sample
        positions are collected, and the log gathers every column for
        them at once. The log and every counter are bit-identical to
        feeding the expanded batch through :meth:`observe`.

        Subclasses that override :meth:`observe` must override this
        hook consistently (see ``other_pmus._UnitLatencySampler``), or
        the batched engine will bypass their per-access behaviour.
        """
        K = batch.stmts_per_iter
        thread_order = batch.thread_order
        T = len(thread_order)
        round_size = K * T
        base = self.total_accesses
        self.total_accesses = base + batch.length
        if self.loads_only:
            elig = [j for j in range(K) if not batch.write_pattern[j]]
        else:
            elig = list(range(K))
        if not elig:
            return
        use_numpy = vectorwalk.HAVE_NUMPY
        progression = use_numpy and int(self.period * self.jitter) == 0
        if progression:
            # position() then maps a whole arange of ``e`` at once, so
            # its lookup tables become int64 arrays.
            import numpy as np
        # The latency column is a list (scalar walk) or a float64
        # ndarray (vector walk); .min() keeps the ndarray probe off the
        # per-element Python path.
        if self.min_latency > 0.0 and (
            latencies.min() if hasattr(latencies, "min") else min(latencies)
        ) < self.min_latency:
            # Eligibility is data-dependent: list each slot's eligible
            # positions and index them by ``e``.
            slots = self._eligible_positions(batch, latencies, elig)
            counts = [len(positions) for positions in slots]
            if progression:
                slots = [np.asarray(p, dtype=np.int64) for p in slots]

            def position(s, e):
                return slots[s][e]
        else:
            n_elig = len(elig)
            counts = [batch.rounds * n_elig] * T
            if progression:
                elig = np.array(elig, dtype=np.int64)

            def position(s, e):
                return (e // n_elig) * round_size + s * K + elig[e % n_elig]
        self.eligible_accesses += sum(counts)

        if progression:
            positions = self._progression_positions(thread_order, counts, position)
        else:
            positions = self._heap_positions(thread_order, counts, position)
        if len(positions):
            self._gather(batch, latencies, positions, base, use_numpy)

    def _eligible_positions(self, batch, latencies, elig) -> list:
        """Each thread slot's eligible batch positions, in trace order."""
        K = batch.stmts_per_iter
        T = len(batch.thread_order)
        min_latency = self.min_latency
        slots = [[] for _ in range(T)]
        for r in range(batch.rounds):
            for s, positions in enumerate(slots):
                for j in elig:
                    p = (r * T + s) * K + j
                    if latencies[p] >= min_latency:
                        positions.append(p)
        return slots

    def _progression_positions(self, thread_order, counts, position):
        """Sample positions when the period cannot vary.

        Each slot samples every ``period``-th eligible access from its
        first expiry on. The first-sample staggers are the only RNG
        draws; the scalar path takes them at each fresh slot's first
        eligible access, so they are drawn in that order here.
        """
        import numpy as np

        period = self.period
        countdown = self._countdown
        fresh = sorted(
            (position(s, 0), s)
            for s, t in enumerate(thread_order)
            if counts[s] and t not in countdown
        )
        first = {
            s: self._rng.randint(1, self._next_period()) - 1 for _, s in fresh
        }
        taken = []
        for s, t in enumerate(thread_order):
            e = first.get(s)
            if e is None:
                remaining = countdown.get(t)
                if remaining is None:
                    continue  # no eligible access of this thread yet
                e = remaining - 1
            expiries = np.arange(e, counts[s], period, dtype=np.int64)
            if len(expiries):
                taken.append(position(s, expiries))
            countdown[t] = e + len(expiries) * period - (counts[s] - 1)
        if not taken:
            return ()
        positions = np.sort(np.concatenate(taken))
        self.periods_drawn.extend([period] * len(positions))
        return positions

    def _heap_positions(self, thread_order, counts, position) -> List[int]:
        """Sample positions by replaying the countdowns in trace order.

        Event heap keyed by batch position. Entries are (pos, slot,
        eligible_index, is_first): a pending first-sample stagger draw,
        or a pending counter expiry. Popping in position order makes
        the RNG draws (stagger and re-arm) happen in the scalar path's
        order.
        """
        countdown = self._countdown
        heap = []
        for s, t in enumerate(thread_order):
            remaining = countdown.get(t)
            if remaining is None:
                if counts[s]:
                    heap.append((position(s, 0), s, 0, True))
            elif remaining - 1 < counts[s]:
                e = remaining - 1
                heap.append((position(s, e), s, e, False))
            else:
                # Counter outlives the batch: just count it down.
                countdown[t] = remaining - counts[s]
        heapq.heapify(heap)

        positions = []
        rng = self._rng
        while heap:
            pos, s, e, is_first = heapq.heappop(heap)
            if is_first:
                nxt = rng.randint(1, self._next_period()) - 1
            else:
                nxt = e
            if nxt == e:
                positions.append(pos)
                nxt = e + self._next_period()
            if nxt < counts[s]:
                heapq.heappush(heap, (position(s, nxt), s, nxt, False))
            else:
                countdown[thread_order[s]] = nxt - (counts[s] - 1)
        return positions

    def _gather(self, batch, latencies, positions, base, use_numpy) -> None:
        """Append the samples at batch ``positions`` to the log."""
        log = self.log
        if use_numpy:
            import numpy as np

            at = np.asarray(positions, dtype=np.int64)
            for name in _BATCH_COLUMNS:
                column = vectorwalk.as_column(getattr(batch, name))
                getattr(log, name).frombytes(column[at].tobytes())
            log.seq.frombytes((at + base).tobytes())
            if isinstance(latencies, np.ndarray):
                log.latency.frombytes(
                    latencies[at].astype(np.float64, copy=False).tobytes()
                )
            else:
                log.latency.extend([latencies[p] for p in at.tolist()])
            return
        for name in _BATCH_COLUMNS:
            column = getattr(batch, name)
            getattr(log, name).extend([column[p] for p in positions])
        log.seq.extend([base + p for p in positions])
        log.latency.extend([latencies[p] for p in positions])

    # -- results ------------------------------------------------------------

    @property
    def samples(self) -> List[AddressSample]:
        """The logged samples as records, built on each read."""
        return list(self.log.rows())

    @property
    def sample_count(self) -> int:
        return len(self.log)

    def reset(self) -> None:
        self._rng.seed(self.seed)
        self._countdown.clear()
        self.log.clear()
        self.eligible_accesses = 0
        self.total_accesses = 0
        self.periods_drawn.clear()

    # -- telemetry ----------------------------------------------------------

    def export_metrics(self, registry) -> None:
        """Register sampling counters, period-jitter gauges, and the
        sample-latency histogram with a telemetry registry.

        The latency histogram is built here, at export time, from the
        log's latency column — the hot observe() path stays untouched
        and no sample record is built.
        """
        registry.counter(
            "repro_sampling_accesses_total",
            help="accesses seen by the sampling engine",
        ).add(self.total_accesses)
        registry.counter(
            "repro_sampling_eligible_total",
            help="accesses eligible for sampling (after load/latency filters)",
        ).add(self.eligible_accesses)
        registry.counter(
            "repro_sampling_samples_taken_total",
            help="samples actually captured",
        ).add(self.sample_count)
        registry.counter(
            "repro_sampling_dropped_total",
            help="accesses filtered out before period counting",
        ).add(self.total_accesses - self.eligible_accesses)
        registry.gauge(
            "repro_sampling_period", help="configured mean sampling period",
        ).set(self.period)
        registry.gauge(
            "repro_sampling_period_jitter_ratio",
            help="configured fractional period randomization",
        ).set(self.jitter)
        if self.periods_drawn:
            n = len(self.periods_drawn)
            mean = sum(self.periods_drawn) / n
            var = sum((p - mean) ** 2 for p in self.periods_drawn) / n
            registry.gauge(
                "repro_sampling_period_observed_mean",
                help="mean of the jittered periods actually drawn",
            ).set(mean)
            registry.gauge(
                "repro_sampling_period_observed_stddev",
                help="stddev of the jittered periods actually drawn",
            ).set(var ** 0.5)
        from ..telemetry.metrics import LATENCY_BUCKETS_CYCLES

        histogram = registry.histogram(
            "repro_sampling_latency_cycles",
            LATENCY_BUCKETS_CYCLES,
            help="load-to-use latency of captured samples",
        )
        for latency in self.log.latency:
            histogram.observe(latency)

