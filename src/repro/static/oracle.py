"""Sampled-vs-static cross-validation (the exact oracle for Eqs 2-6).

The sampled pipeline and the static pass derive the same quantities by
independent routes: one from sparse hardware-style samples folded
through the online GCD, the other from abstract interpretation of the
IR. This module runs both on the same bound program and checks the
relations that must hold between them:

* **divides** (Eqs 2-3): every pairwise difference of addresses a
  stream can touch is a multiple of its static stride, and a sampled
  stride is a GCD of such differences — so the static stride must
  divide every sampled stride, at any sampling period, on any thread
  interleaving.
* **size** (Eq 5): the sampled structure size must equal the static
  one (and the static one provably equals the layout's element size
  for well-formed workloads).
* **offsets** (Eq 6): every sampled field offset must appear in the
  static offset set with the same value. Sampling may *miss* cold
  fields, so the check is subset agreement plus a coverage ratio,
  never set equality.

A violation of any of these is a bug in the profiler, the analyzer, or
the static pass — there is no benign explanation, which is what makes
this usable as a hard gate in ``repro analyze --check`` and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

from ..core.analyzer import AnalysisReport, OfflineAnalyzer
from ..profiler.monitor import Monitor
from ..profiler.profile import DataIdentity, ThreadProfile
from .absint import StaticAnalysis, StaticReport


@dataclass(frozen=True)
class StreamCheck:
    """Divides-relation verdict for one sampled stream."""

    ip: int
    line: int
    identity: DataIdentity
    static_stride: int
    sampled_stride: int

    @property
    def divides(self) -> bool:
        if self.sampled_stride == 0:
            # No sampled stride evidence: nothing to contradict.
            return True
        return self.static_stride > 0 and self.sampled_stride % self.static_stride == 0


@dataclass
class ObjectCheck:
    """Agreement verdict for one hot data object."""

    name: str
    identity: DataIdentity
    static_size: int
    sampled_size: int
    static_offsets: Tuple[int, ...]
    sampled_offsets: Tuple[int, ...]
    streams: List[StreamCheck] = dc_field(default_factory=list)

    @property
    def size_match(self) -> bool:
        return self.static_size == self.sampled_size

    @property
    def offsets_agree(self) -> bool:
        """Sampled offsets are a subset of the static offsets.

        Offsets are residues modulo the structure size, so they are
        only comparable when the sizes agree.
        """
        return self.size_match and set(self.sampled_offsets) <= set(
            self.static_offsets
        )

    @property
    def offset_coverage(self) -> float:
        """Fraction of statically known offsets the sampling observed."""
        if not self.static_offsets:
            return 0.0
        hit = len(set(self.sampled_offsets) & set(self.static_offsets))
        return hit / len(self.static_offsets)

    @property
    def divides_ok(self) -> bool:
        return all(s.divides for s in self.streams)

    @property
    def ok(self) -> bool:
        return self.size_match and self.offsets_agree and self.divides_ok


@dataclass
class OracleResult:
    """Whole-workload cross-validation verdict."""

    workload: str
    variant: str
    objects: List[ObjectCheck]
    missing: List[str]  # sampled hot objects with no static counterpart

    @property
    def ok(self) -> bool:
        return not self.missing and all(obj.ok for obj in self.objects)

    def render(self) -> str:
        lines = [
            f"== cross-validation: {self.workload} ({self.variant}) == "
            f"{'OK' if self.ok else 'MISMATCH'}"
        ]
        for obj in self.objects:
            mark = "ok" if obj.ok else "MISMATCH"
            lines.append(
                f"  {obj.name}: size static={obj.static_size} "
                f"sampled={obj.sampled_size} [{mark}]"
            )
            lines.append(
                f"    offsets: sampled {list(obj.sampled_offsets)} vs "
                f"static {list(obj.static_offsets)} "
                f"(coverage {obj.offset_coverage:.0%})"
            )
            bad = [s for s in obj.streams if not s.divides]
            lines.append(
                f"    streams: {len(obj.streams)} checked, "
                f"{len(bad)} divides-violations"
            )
            for s in bad:
                lines.append(
                    f"      ip {s.ip:#x} line {s.line}: static {s.static_stride} "
                    f"does not divide sampled {s.sampled_stride}"
                )
        for name in self.missing:
            lines.append(f"  {name}: sampled hot object missing from static pass")
        return "\n".join(lines)


def cross_validate_report(
    static: StaticReport,
    profile: ThreadProfile,
    report: AnalysisReport,
) -> OracleResult:
    """Compare an analysis report against a static report.

    Only objects the sampled analyzer actually recovered participate:
    an object without stride evidence (too cold, or genuinely
    constant-address) has nothing to cross-check.
    """
    checks: List[ObjectCheck] = []
    missing: List[str] = []
    for identity, analysis in report.objects.items():
        if analysis.recovered is None:
            continue
        static_obj = static.objects.get(identity)
        if static_obj is None:
            missing.append(analysis.name)
            continue
        check = ObjectCheck(
            name=analysis.name,
            identity=identity,
            static_size=static_obj.derived_size,
            sampled_size=analysis.recovered.size,
            static_offsets=tuple(static_obj.offsets),
            sampled_offsets=tuple(analysis.recovered.offsets),
        )
        for stream in profile.streams_for(identity):
            static_stream = static.stream_at(stream.ip)
            if static_stream is None:
                continue
            check.streams.append(
                StreamCheck(
                    ip=stream.ip,
                    line=stream.line,
                    identity=identity,
                    static_stride=static_stream.stride,
                    sampled_stride=stream.stride,
                )
            )
        checks.append(check)
    return OracleResult(
        workload=report.workload,
        variant=report.variant,
        objects=checks,
        missing=missing,
    )


def cross_validate(
    workload,
    *,
    period: Optional[int] = None,
    num_threads: Optional[int] = None,
    analyzer: Optional[OfflineAnalyzer] = None,
) -> OracleResult:
    """Run the sampled pipeline and the static pass on one workload.

    ``workload`` is a :class:`~repro.workloads.base.PaperWorkload`;
    sampling defaults to its recommended period and thread count.
    """
    bound = workload.build_original()
    monitor = Monitor(sampling_period=period or workload.recommended_period)
    run = monitor.run(bound, num_threads=num_threads or workload.num_threads)
    report = (analyzer or OfflineAnalyzer()).analyze(run)
    static = StaticAnalysis().analyze(bound, loop_map=run.loop_map)
    return cross_validate_report(static, run.merged, report)
