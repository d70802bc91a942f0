"""Sample attribution: the interrupt handler's bookkeeping.

For every address sample the collector performs the paper's two
attributions (§4): code-centric (IP -> enclosing loop, via the loop map
the structure analysis produced) and data-centric (effective address ->
data object, via the allocation registry), then folds the sample into
the per-thread stream state. Threads never share state — the paper's
scalability design — so collection is a per-thread dictionary update.

:meth:`ProfileCollector.observe_sample` is that per-sample fold, and the
reference. A sampler's columnar :class:`~repro.sampling.events.SampleLog`
is folded with numpy in windows of :data:`WINDOW` samples instead, with
every dictionary, counter and float left exactly as the per-sample fold
leaves it:

- objects are looked up by ``searchsorted`` over the registry's bases
  and ends, the same lookup as ``DataObjectRegistry.find``;
- samples are grouped by (thread, ip, context, data identity) and the
  groups are visited in first-seen order, so profiles, streams,
  ``data_latency`` and ``source_counts`` are created in the per-sample
  fold's insertion order;
- a stream's new unique addresses are the window's distinct addresses
  not already in its seen-set, in first-seen order, which gives
  ``unique_addresses``, ``min_address`` and ``last_unique_address``;
- the stride is the gcd of the new addresses' differences from any one
  seen address. Eq 2's adjacent differences generate the same lattice
  of differences, so their gcd is the same in any order;
- latency sums are taken per group only when every latency in the
  window and every sum already held is an integer: such float sums are
  exact (cycle counts stay far below 2**53), hence order-free, the
  argument ``simulate`` uses for its column sums. Any other window is
  folded through :meth:`ProfileCollector.observe_sample`.

Without numpy (``vectorwalk.HAVE_NUMPY`` false) the log is folded row by
row through :meth:`ProfileCollector.observe_sample`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Union

from ..binary.loopmap import LoopMap
from ..memsim import vectorwalk
from ..sampling.events import (
    SOURCE_BOUNDS,
    SOURCE_LEVELS,
    AddressSample,
    SampleLog,
    data_source,
)
from .allocation import DataObjectRegistry
from .profile import ThreadProfile

#: Samples folded per vectorized step. It bounds the fold's temporary
#: arrays, which one pass over a dense sweep's whole log would size by
#: the whole log, while folding once per sampled batch would pay
#: numpy's per-call cost on every short batch.
WINDOW = 65_536


class ProfileCollector:
    """Attributes samples and accumulates per-thread profiles."""

    def __init__(
        self,
        registry: DataObjectRegistry,
        loop_map: LoopMap,
        *,
        program_name: str = "",
    ) -> None:
        self.registry = registry
        self.loop_map = loop_map
        self.program_name = program_name
        self.profiles: Dict[int, ThreadProfile] = {}

    def _profile(self, thread: int) -> ThreadProfile:
        profile = self.profiles.get(thread)
        if profile is None:
            profile = ThreadProfile(thread=thread, program=self.program_name)
            self.profiles[thread] = profile
        return profile

    def observe_sample(self, sample: AddressSample) -> None:
        """Attribute one sample (the per-interrupt work)."""
        profile = self._profile(sample.thread)
        profile.sample_count += 1
        profile.total_latency += sample.latency

        data_object = self.registry.find(sample.address)
        if data_object is None:
            # Stack or unmonitored memory: the paper ignores these.
            profile.unattributed_latency += sample.latency
            return
        identity = data_object.identity
        profile.add_data_latency(identity, sample.latency)

        stream = profile.stream(sample.ip, sample.context, identity)
        if stream.sample_count == 0:
            stream.line = sample.line
            stream.data_base = data_object.base
            loop = self.loop_map.loop_of_ip(sample.ip)
            stream.loop_id = loop.id if loop is not None else None
        stream.update(
            sample.address,
            sample.latency,
            is_write=sample.is_write,
            source=data_source(sample.latency),
        )

    def collect(
        self, samples: Union[SampleLog, Iterable[AddressSample]]
    ) -> Dict[int, ThreadProfile]:
        """Attribute a batch of samples; returns the per-thread profiles.

        ``samples`` is a sampler's :class:`SampleLog`, folded by windows,
        or any iterable of :class:`AddressSample`, folded one by one.
        """
        if isinstance(samples, SampleLog):
            if vectorwalk.HAVE_NUMPY:
                for start in range(0, len(samples), WINDOW):
                    self._fold_window(samples, start, min(start + WINDOW, len(samples)))
                return self.profiles
            samples = samples.rows()
        for sample in samples:
            self.observe_sample(sample)
        return self.profiles

    def _sums_are_integral(self) -> bool:
        """True when every latency sum held so far is an integer."""
        for profile in self.profiles.values():
            held = [profile.total_latency, profile.unattributed_latency]
            held += profile.data_latency.values()
            held += [stream.total_latency for stream in profile.streams.values()]
            if not all(float(value).is_integer() for value in held):
                return False
        return True

    def _fold_window(self, log: SampleLog, start: int, stop: int) -> None:
        """Fold log rows ``start:stop`` as :meth:`observe_sample` would."""
        import numpy as np

        def column(name, dtype=np.int64):
            return np.frombuffer(
                getattr(log, name), dtype=dtype, count=stop - start,
                offset=start * 8,
            )

        latency = column("latency", np.float64)
        # mod(x, 1) is 0 for integers and nan for inf/nan.
        if np.mod(latency, 1.0).any() or not self._sums_are_integral():
            for sample in log.rows(start, stop):
                self.observe_sample(sample)
            return
        thread = column("thread")

        # Profiles, in the order their threads first appear.
        threads, first, thread_of = np.unique(
            thread, return_index=True, return_inverse=True
        )
        n_threads = len(threads)
        counts = np.bincount(thread_of, minlength=n_threads).tolist()
        sums = np.bincount(thread_of, weights=latency, minlength=n_threads).tolist()
        for i in np.argsort(first).tolist():
            profile = self._profile(int(threads[i]))
            profile.sample_count += counts[i]
            profile.total_latency += sums[i]

        # Data-centric attribution.
        objects = self.registry.objects
        address = column("address")
        object_of = np.searchsorted(
            np.array([o.base for o in objects], dtype=np.int64), address,
            side="right",
        ) - 1
        attributed = object_of >= 0
        if objects:
            ends = np.array([o.end for o in objects], dtype=np.int64)
            attributed &= address < ends[np.maximum(object_of, 0)]
        if not attributed.all():
            missed = ~attributed
            unattributed = np.bincount(
                thread_of[missed], minlength=n_threads
            ).tolist()
            missed_sums = np.bincount(
                thread_of[missed], weights=latency[missed], minlength=n_threads
            ).tolist()
            for i, profile_thread in enumerate(threads.tolist()):
                if unattributed[i]:
                    self.profiles[profile_thread].unattributed_latency += missed_sums[i]
        rows = np.flatnonzero(attributed)
        if not len(rows):
            return
        identity_ids: Dict[tuple, int] = {}
        identity_of_object = np.array(
            [
                identity_ids.setdefault(o.identity, len(identity_ids))
                for o in objects
            ],
            dtype=np.int64,
        )
        identities = list(identity_ids)
        object_of = object_of[rows]
        identity = identity_of_object[object_of]
        thread = thread[rows]
        latency = latency[rows]
        address = address[rows]

        # data_latency, per (thread, identity) in first-seen order.
        group, firsts = _groups(np, thread, identity)
        sums = np.bincount(group, weights=latency).tolist()
        for g, row in enumerate(firsts.tolist()):
            profile = self.profiles[int(thread[row])]
            profile.add_data_latency(identities[identity[row]], sums[g])

        # Streams, per (thread, ip, context, identity) in first-seen order.
        ip = column("ip")[rows]
        context = column("context")[rows]
        group, firsts = _groups(np, thread, ip, context, identity)
        n_groups = len(firsts)
        counts = np.bincount(group, minlength=n_groups).tolist()
        sums = np.bincount(group, weights=latency, minlength=n_groups).tolist()
        writes = np.bincount(
            group, weights=column("is_write")[rows], minlength=n_groups
        ).tolist()
        line = column("line")[rows]
        streams = []
        for g, row in enumerate(firsts.tolist()):
            profile = self.profiles[int(thread[row])]
            stream_ip = int(ip[row])
            stream = profile.stream(
                stream_ip, int(context[row]), identities[identity[row]]
            )
            if stream.sample_count == 0:
                stream.line = int(line[row])
                stream.data_base = objects[object_of[row]].base
                loop = self.loop_map.loop_of_ip(stream_ip)
                stream.loop_id = loop.id if loop is not None else None
            stream.sample_count += counts[g]
            stream.total_latency += sums[g]
            stream.write_samples += int(writes[g])
            streams.append(stream)

        # Serving-level counts, per (stream, level) in first-seen order.
        level = np.searchsorted(np.array(SOURCE_BOUNDS), latency, side="left")
        pair, pair_firsts = _groups(np, group, level)
        pair_counts = np.bincount(pair).tolist()
        for p, row in enumerate(pair_firsts.tolist()):
            sources = streams[group[row]].source_counts
            source = SOURCE_LEVELS[level[row]]
            sources[source] = sources.get(source, 0) + pair_counts[p]

        # Unique addresses, per stream in first-seen order.
        _, pair_firsts = _groups(np, group, address)
        pair_stream = group[pair_firsts]
        order = np.argsort(pair_stream, kind="stable")
        pair_addresses = address[pair_firsts][order]
        bounds = np.searchsorted(pair_stream[order], np.arange(n_groups + 1))
        for g, stream in enumerate(streams):
            new = pair_addresses[bounds[g]:bounds[g + 1]]
            seen = stream._seen
            if seen:
                new = np.array(
                    [a for a in new.tolist() if a not in seen], dtype=np.int64
                )
                if not len(new):
                    continue
            new_list = new.tolist()
            seen.update(new_list)
            stream.unique_addresses += len(new_list)
            lowest = min(new_list)
            if stream.min_address is None or lowest < stream.min_address:
                stream.min_address = lowest
            anchor = stream.last_unique_address
            if anchor is None:
                anchor = new_list[0]
            stream.stride = math.gcd(
                stream.stride, int(np.gcd.reduce(np.abs(new - anchor)))
            )
            stream.last_unique_address = new_list[-1]

    # -- telemetry ----------------------------------------------------------

    def export_metrics(self, registry) -> None:
        """Register per-thread collector sizes and the allocation-registry
        size with a telemetry registry."""
        for thread, profile in sorted(self.profiles.items()):
            registry.gauge(
                "repro_profiler_collector_streams",
                help="streams held by one thread's collector",
                thread=thread,
            ).set(len(profile.streams))
            registry.counter(
                "repro_profiler_collector_samples_total",
                help="samples attributed per thread",
                thread=thread,
            ).add(profile.sample_count)
        registry.gauge(
            "repro_profiler_allocation_registry_objects",
            help="data objects tracked by the allocation registry",
        ).set(len(self.registry))


def _groups(np, *keys):
    """Group rows by their tuple of ``keys`` (equal-length int arrays).

    Returns each row's group number and each group's first row, with
    groups numbered in the order they first appear.
    """
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    # lexsort is stable, so each run of equal keys starts at its first row.
    firsts = order[starts]
    by_first = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[by_first] = np.arange(len(firsts))
    group = np.empty(len(order), dtype=np.int64)
    group[order] = rank[np.cumsum(starts) - 1]
    return group, firsts[by_first]
