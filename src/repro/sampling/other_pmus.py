"""The remaining Table 1 address-sampling mechanisms.

The paper's Table 1 lists five PMU families. Only PEBS-LL and IBS
report access *latency*, which StructSlim's metrics need; the other
three capture IP + effective address but no latency:

- Itanium DEAR (data event address registers) — samples cache-miss
  events; address but no per-access cycle count usable as latency.
- Pentium 4 PEBS — precise IP/address, no load-latency facility.
- IBM POWER5 MRK (marked-instruction sampling) — address capture via
  marked loads.

We model them so the "latency is necessary" claim is *testable*: these
samplers stamp every sample with a constant unit latency, which turns
every latency-weighted metric into a count-weighted one. Structure
size/offset recovery (pure address arithmetic) still works; the
affinity metric degrades exactly as the affinity-metric ablation shows.
"""

from __future__ import annotations

from ..program.trace import MemoryAccess
from .sampler import SamplingEngine


class _UnitLatencySampler(SamplingEngine):
    """Base for PMUs without a latency facility: latency is constant."""

    def observe(self, access: MemoryAccess, latency: float) -> None:
        # The hardware sees the access but cannot time it: degrade the
        # recorded latency to a unit count before the sample is stored.
        super().observe(access, 1.0 if latency > 0 else latency)

    def observe_batch(self, batch, latencies) -> None:
        # Only captured samples keep a latency, and these PMUs have no
        # latency filter, so degrading the gathered rows is the same as
        # degrading the whole column first.
        start = len(self.log)
        super().observe_batch(batch, latencies)
        column = self.log.latency
        for i in range(start, len(column)):
            if column[i] > 0:
                column[i] = 1.0


class DEARSampler(_UnitLatencySampler):
    """Itanium Data Event Address Registers (loads only)."""

    PMU_NAME = "DEAR"

    def __init__(self, period: int = 10_000, *, jitter: float = 0.1, seed: int = 0):
        super().__init__(period, jitter=jitter, loads_only=True, seed=seed)


class Pentium4PEBSSampler(_UnitLatencySampler):
    """Pentium 4 PEBS: precise, latency-less, loads and stores."""

    PMU_NAME = "P4-PEBS"

    def __init__(self, period: int = 10_000, *, jitter: float = 0.1, seed: int = 0):
        super().__init__(period, jitter=jitter, loads_only=False, seed=seed)


class MRKSampler(_UnitLatencySampler):
    """IBM POWER5 marked-event sampling (loads only)."""

    PMU_NAME = "MRK"

    def __init__(self, period: int = 10_000, *, jitter: float = 0.1, seed: int = 0):
        super().__init__(period, jitter=jitter, loads_only=True, seed=seed)
