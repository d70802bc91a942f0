"""Static analysis over the workload IR.

Layers, each consuming the ones below:

- :mod:`repro.static.dataflow` — the forward-dataflow framework
  (worklist solver over the lowered binary CFGs, lattice interface,
  and the shared :class:`AnalysisContext`).
- :mod:`repro.static.absint` — abstract interpretation of index
  expressions per loop nest: exact per-stream strides, structure sizes,
  field offsets, and a unit-latency affinity matrix (static Eqs 2-3,
  5-7) without executing anything.
- :mod:`repro.static.safety` — flow-sensitive escape/alias analysis
  classifying every structure as SAFE / UNSAFE / UNKNOWN to split
  (``repro optimize --verify``).
- :mod:`repro.static.falseshare` — static per-thread write footprints
  at cache-line granularity, flagging lines multiple threads contend
  on; cross-validated against memsim's MESI invalidation counts.
- :mod:`repro.static.lint` — workload well-formedness rules (bounds,
  overlap, races, dead fields, Eq 4's sampling regime, and the safety
  hazards) over the static report, surfaced as ``repro lint``.
- :mod:`repro.static.oracle` — cross-validation of the sampled
  pipeline against the static pass (``repro analyze --check``).
"""

from .absint import (
    ENUM_CAP,
    K_ACCURATE,
    IndexSummary,
    StaticAnalysis,
    StaticAnalysisError,
    StaticIssue,
    StaticObject,
    StaticReport,
    StaticStream,
    summarize_index,
)
from .dataflow import (
    AnalysisContext,
    DataflowResult,
    ForwardAnalysis,
    StatementAnalysis,
    reverse_postorder,
    solve_forward,
)
from .falseshare import (
    FalseSharingOracle,
    FalseSharingReport,
    SharedLine,
    cross_validate_false_sharing,
    detect_false_sharing,
)
from .lint import (
    RULES,
    LintFinding,
    LintReport,
    Suppression,
    lint_program,
    lint_workload,
)
from .oracle import (
    ObjectCheck,
    OracleResult,
    StreamCheck,
    cross_validate,
    cross_validate_report,
)
from .safety import (
    SAFE,
    UNKNOWN,
    UNSAFE,
    Hazard,
    PointsToAnalysis,
    SafetyReport,
    SafetyVerdict,
    collect_hazards,
    verify_split_safety,
)

__all__ = [
    "ENUM_CAP",
    "K_ACCURATE",
    "IndexSummary",
    "StaticAnalysis",
    "StaticAnalysisError",
    "StaticIssue",
    "StaticObject",
    "StaticReport",
    "StaticStream",
    "summarize_index",
    "AnalysisContext",
    "DataflowResult",
    "ForwardAnalysis",
    "StatementAnalysis",
    "reverse_postorder",
    "solve_forward",
    "FalseSharingOracle",
    "FalseSharingReport",
    "SharedLine",
    "cross_validate_false_sharing",
    "detect_false_sharing",
    "RULES",
    "LintFinding",
    "LintReport",
    "Suppression",
    "lint_program",
    "lint_workload",
    "ObjectCheck",
    "OracleResult",
    "StreamCheck",
    "cross_validate",
    "cross_validate_report",
    "SAFE",
    "UNKNOWN",
    "UNSAFE",
    "Hazard",
    "PointsToAnalysis",
    "SafetyReport",
    "SafetyVerdict",
    "collect_hazards",
    "verify_split_safety",
]
