"""Counters, gauges, and fixed-bucket histograms.

The registry follows Prometheus conventions so the text exposition in
:mod:`repro.telemetry.export` is directly scrapeable:

- metric names are ``repro_<subsystem>_<quantity>[_<unit>][_total]``,
  lowercase with underscores (validated at registration);
- counters are monotonic totals (``_total`` suffix by convention),
  gauges are point-in-time values, histograms use fixed upper bucket
  edges with less-or-equal semantics plus an implicit ``+Inf`` bucket;
- instruments are identified by (name, labels); registering the same
  pair twice returns the existing instrument, registering the same
  name as a different kind is an error.

Subsystems register instruments lazily at export time (the monitor
pulls hardware-style counters the simulator already keeps), so the
disabled path — :data:`NULL_REGISTRY` — costs one attribute check.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Labels are sorted (key, value) pairs so instrument identity is stable.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Common identity for counters, gauges, and histograms."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelSet, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} violates the naming convention "
                "(lowercase, underscores, must start with a letter)"
            )
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"


class Counter(Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet, help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    #: Alias for bulk export from pre-accumulated hardware-style counts.
    add = inc


class Gauge(Instrument):
    """A point-in-time value."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet, help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram(Instrument):
    """Fixed-bucket histogram with ``le`` (less-or-equal) edges."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        buckets: Sequence[float],
        help: str = "",
    ) -> None:
        super().__init__(name, labels, help)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be strictly increasing")
        self.buckets = edges
        # counts[i] is the number of observations in (edges[i-1], edges[i]];
        # counts[-1] is the +Inf overflow bucket.
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        self.counts[bisect_left(self.buckets, value)] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative (le_edge, count) pairs, +Inf last."""
        result: List[Tuple[float, int]] = []
        running = 0
        for edge, count in zip(self.buckets, self.counts):
            running += count
            result.append((edge, running))
        result.append((math.inf, self.count))
        return result


class MetricsRegistry:
    """Get-or-create instrument registry, insertion-ordered."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelSet], Instrument] = {}

    def _get(
        self, cls, name: str, labels: Dict[str, object], help: str, **kwargs
    ):
        key = (name, _labelset(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = cls(name, key[1], help=help, **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, *, help: str = "", **labels: object) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, *, help: str = "", **labels: object) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        *,
        help: str = "",
        **labels: object,
    ) -> Histogram:
        histogram = self._get(Histogram, name, labels, help, buckets=buckets)
        if histogram.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return histogram

    def instruments(self) -> List[Instrument]:
        return list(self._instruments.values())

    def get(
        self, name: str, **labels: object
    ) -> Optional[Instrument]:
        return self._instruments.get((name, _labelset(labels)))

    def snapshot(self) -> Dict[str, object]:
        """Flat name{labels} -> value map (histograms expose sum/count)."""
        result: Dict[str, object] = {}
        for instrument in self._instruments.values():
            key = instrument.name + instrument.label_suffix
            if isinstance(instrument, Histogram):
                result[key] = {
                    "sum": instrument.sum,
                    "count": instrument.count,
                    "buckets": {
                        str(edge): count
                        for edge, count in instrument.cumulative()
                    },
                }
            else:
                result[key] = instrument.value
        return result


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    add = inc

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The zero-cost stand-in used when telemetry is off."""

    enabled = False

    def counter(self, name: str, *, help: str = "", **labels: object):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, *, help: str = "", **labels: object):
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets, *, help: str = "", **labels: object):
        return _NULL_INSTRUMENT

    def instruments(self) -> List[Instrument]:
        return []

    def snapshot(self) -> Dict[str, object]:
        return {}


NULL_REGISTRY = NullRegistry()

#: Default latency buckets (cycles): aligned with the hierarchy's
#: service latencies so each bucket reads as "served at or below level".
LATENCY_BUCKETS_CYCLES = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)
