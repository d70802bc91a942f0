"""Split-safety verification: escape/alias analysis over the IR.

StructSlim's advice says which splits are *profitable*; this pass says
which are *legal*. The paper (§4) leaves legality to the programmer —
a split silently breaks code that takes the address of a field, walks a
pointer across field boundaries, copies whole records, or reads the
structure through an overlapping view. This module closes that gap:

1. A flow-sensitive **points-to analysis** (a client of
   ``static/dataflow.py``) tracks which ``(array, field)`` address each
   pointer variable may hold at every program point, propagated
   interprocedurally along ``Call.args`` with callers analyzed before
   callees.
2. A **hazard collector** re-walks the solved facts and reports every
   pattern that makes a split unsound, each attributed to a concrete IR
   site (function:line).
3. :func:`verify_split_safety` folds the hazards into a per-array
   verdict on the three-point lattice **SAFE < UNKNOWN < UNSAFE** that
   ``repro optimize --verify`` gates splits on.

Hazard kinds and their verdict contribution:

===================  ========  =============================================
kind                 verdict   pattern
===================  ========  =============================================
``addr-escape``      UNSAFE    a field/record address escapes into a callee
``whole-record-ptr`` UNSAFE    dereference of a whole-record base pointer
``cross-field-ptr``  UNSAFE    pointer arithmetic leaves the pointed field
``aliased-view``     UNSAFE    two logical arrays overlap in one allocation
``sub-elem-stride``  UNSAFE    a stream strides inside structure elements
``ptr-undefined``    UNKNOWN   a pointer may be dereferenced unbound
===================  ========  =============================================

An absint failure (``StaticIssue``) on an array also degrades its
verdict to UNKNOWN: advice about an object the analyzer could not model
cannot be proved safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..program.builder import BoundProgram
from ..program.ir import Access, AddrOf, Call, Program, PtrAccess, Stmt
from .dataflow import (
    AnalysisContext,
    DataflowResult,
    StatementAnalysis,
    solve_forward,
)

SAFE = "SAFE"
UNKNOWN = "UNKNOWN"
UNSAFE = "UNSAFE"

#: Verdict lattice order: max() of these ranks decides an array's status.
_RANK = {SAFE: 0, UNKNOWN: 1, UNSAFE: 2}

#: A points-to target: ``(array, field)``; ``field`` None is the whole
#: record's base address.
Target = Tuple[str, Optional[str]]

#: Sentinel target meaning "this variable may be unbound here".
UNDEFINED: Target = ("?", "?undefined?")

_UNDEF_SET: FrozenSet[Target] = frozenset((UNDEFINED,))

#: A points-to fact: variable -> set of targets it may hold.
PointsTo = Dict[str, FrozenSet[Target]]


class PointsToAnalysis(StatementAnalysis):
    """May-points-to over pointer variables, per function.

    The only statement that writes a pointer is :class:`AddrOf`, and it
    assigns unconditionally — so its transfer is a *strong* update.
    Joins union pointwise; a variable missing on one side of a merge
    may be unbound, so it joins as :data:`UNDEFINED`.
    """

    def __init__(
        self, program: Program, boundary_fact: Optional[PointsTo] = None
    ) -> None:
        super().__init__(program)
        self._boundary: PointsTo = dict(boundary_fact or {})

    def boundary(self, cfg) -> PointsTo:
        return dict(self._boundary)

    def join(self, a: PointsTo, b: PointsTo) -> PointsTo:
        out: PointsTo = {}
        for var in set(a) | set(b):
            out[var] = a.get(var, _UNDEF_SET) | b.get(var, _UNDEF_SET)
        return out

    def transfer_stmt(self, stmt: Stmt, fact: PointsTo) -> PointsTo:
        if isinstance(stmt, AddrOf):
            fact = dict(fact)
            fact[stmt.dest] = frozenset(((stmt.array, stmt.field),))
        return fact


def _call_topo_order(program: Program) -> List[str]:
    """Function names with callers before callees (cycles cut).

    Reverse DFS-postorder over the call graph from the entry; functions
    unreachable from the entry follow, in declaration order.
    """
    callees: Dict[str, List[str]] = {name: [] for name in program.functions}
    for fname, stmt in program.walk():
        if isinstance(stmt, Call) and stmt.callee in callees:
            callees[fname].append(stmt.callee)

    order: List[str] = []
    seen: set = set()

    def visit(name: str) -> None:
        if name in seen:
            return
        seen.add(name)
        for callee in callees[name]:
            visit(callee)
        order.append(name)

    visit(program.entry)
    for name in program.functions:
        visit(name)
    order.reverse()
    return order


def analyze_points_to(
    ctx: AnalysisContext,
) -> Dict[str, DataflowResult]:
    """Solve the points-to problem for every function of the program.

    Interprocedural boundary facts flow caller -> callee along
    ``Call.args``: a callee's entry fact is the join of what every call
    site passes for each argument name (the IR's calling convention —
    the interpreter copies the caller's whole environment, and ``args``
    declares which pointers the static analysis may rely on). Call
    cycles are cut, degrading the late edges to UNDEFINED — sound,
    since UNDEFINED surfaces as an UNKNOWN verdict, never SAFE.
    """
    program = ctx.program
    boundaries: Dict[str, PointsTo] = {}
    results: Dict[str, DataflowResult] = {}
    for fname in _call_topo_order(program):
        analysis = PointsToAnalysis(program, boundaries.get(fname))
        result = solve_forward(ctx.cfg(fname), analysis)
        results[fname] = result
        for block in result.cfg.blocks:
            fact = result.in_of(block)
            if fact is None:
                continue
            for ip in block.ips:
                stmt = program.stmt_at(ip)
                if isinstance(stmt, Call) and stmt.args:
                    callee = boundaries.setdefault(stmt.callee, {})
                    for arg in stmt.args:
                        held = callee.get(arg, frozenset())
                        callee[arg] = held | fact.get(arg, _UNDEF_SET)
                fact = analysis.transfer_stmt(stmt, fact)
    return results


# ---------------------------------------------------------------------------
# Hazards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hazard:
    """One split-breaking pattern, attributed to an IR site."""

    kind: str
    severity: str  # UNSAFE or UNKNOWN
    array: str  # logical array the hazard poisons; "" = every array
    fields: Tuple[str, ...]
    message: str
    function: str = ""
    line: int = 0
    ip: int = 0

    @property
    def site(self) -> str:
        return f"{self.function}:{self.line}" if self.function else "<unknown>"


def _fields_in_range(struct, lo: int, hi: int) -> Tuple[str, ...]:
    """Names of struct fields overlapping byte range ``[lo, hi)``."""
    return tuple(
        f.name for f in struct.fields if f.offset < hi and f.end > lo
    )


class _HazardCollector:
    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.bound: BoundProgram = ctx.bound
        self.hazards: List[Hazard] = []

    def collect(self) -> List[Hazard]:
        results = analyze_points_to(self.ctx)
        program = self.ctx.program
        for fname, result in results.items():
            analysis = PointsToAnalysis(program)
            for block in result.cfg.blocks:
                fact = result.in_of(block)
                if fact is None:
                    continue
                for ip in block.ips:
                    stmt = program.stmt_at(ip)
                    if isinstance(stmt, Call):
                        self._check_call(fname, stmt, fact)
                    elif isinstance(stmt, PtrAccess):
                        self._check_ptr_access(fname, stmt, fact)
                    fact = analysis.transfer_stmt(stmt, fact)
        self._check_aliased_views()
        self._check_stream_strides()
        return self.hazards

    # -- pointer flow hazards --------------------------------------------

    def _emit(self, **kw) -> None:
        self.hazards.append(Hazard(**kw))

    @staticmethod
    def _sorted_targets(targets: FrozenSet[Target]) -> List[Target]:
        return sorted(targets, key=lambda t: (t[0], t[1] or ""))

    def _check_call(self, fname: str, stmt: Call, fact: PointsTo) -> None:
        for arg in stmt.args:
            for target in self._sorted_targets(fact.get(arg, _UNDEF_SET)):
                if target == UNDEFINED:
                    self._emit(
                        kind="ptr-undefined", severity=UNKNOWN, array="",
                        fields=(),
                        message=(
                            f"pointer {arg!r} may be unbound when passed "
                            f"to {stmt.callee}()"
                        ),
                        function=fname, line=stmt.line, ip=stmt.ip,
                    )
                    continue
                array, field = target
                what = (
                    f"&{array}[...].{field}" if field is not None
                    else f"&{array}[...]"
                )
                self._emit(
                    kind="addr-escape", severity=UNSAFE, array=array,
                    fields=(field,) if field is not None else (),
                    message=(
                        f"{what} escapes into {stmt.callee}() as {arg!r}; "
                        f"a split invalidates pointers held across the "
                        f"call boundary"
                    ),
                    function=fname, line=stmt.line, ip=stmt.ip,
                )

    def _check_ptr_access(
        self, fname: str, stmt: PtrAccess, fact: PointsTo
    ) -> None:
        for target in self._sorted_targets(fact.get(stmt.ptr, _UNDEF_SET)):
            if target == UNDEFINED:
                self._emit(
                    kind="ptr-undefined", severity=UNKNOWN, array="",
                    fields=(),
                    message=(
                        f"pointer {stmt.ptr!r} may be dereferenced before "
                        f"any AddrOf binds it"
                    ),
                    function=fname, line=stmt.line, ip=stmt.ip,
                )
                continue
            array, field = target
            backing = self.bound.bindings.backing_arrays(array)
            if field is None:
                struct = backing[0].struct if len(backing) == 1 else None
                touched = (
                    _fields_in_range(
                        struct, stmt.offset, stmt.offset + stmt.size
                    )
                    if struct is not None
                    else ()
                )
                self._emit(
                    kind="whole-record-ptr", severity=UNSAFE, array=array,
                    fields=touched,
                    message=(
                        f"*({stmt.ptr} + {stmt.offset}) dereferences a "
                        f"whole-record pointer into {array!r}; record "
                        f"layout cannot change under it"
                    ),
                    function=fname, line=stmt.line, ip=stmt.ip,
                )
                continue
            try:
                aos, resolved = self.bound.bindings.resolve(array, field)
            except KeyError as exc:
                self._emit(
                    kind="ptr-undefined", severity=UNKNOWN, array=array,
                    fields=(field,), message=str(exc),
                    function=fname, line=stmt.line, ip=stmt.ip,
                )
                continue
            f = aos.struct.field(resolved)
            lo = f.offset + stmt.offset
            hi = lo + stmt.size
            if lo >= f.offset and hi <= f.end:
                continue  # stays inside the pointed-to field: benign
            neighbors = tuple(
                n for n in _fields_in_range(aos.struct, lo, hi)
                if n != resolved
            )
            into = ", ".join(neighbors) if neighbors else "padding"
            self._emit(
                kind="cross-field-ptr", severity=UNSAFE, array=array,
                fields=(resolved,) + neighbors,
                message=(
                    f"*({stmt.ptr} + {stmt.offset}) walks off field "
                    f"{resolved!r} of {array!r} into {into}; splitting "
                    f"separates bytes this pointer arithmetic assumes "
                    f"contiguous"
                ),
                function=fname, line=stmt.line, ip=stmt.ip,
            )

    # -- layout hazards ---------------------------------------------------

    def _used_routes(self) -> Dict[Tuple[int, str], List[Tuple[str, Stmt, str]]]:
        """``(allocation id, field) -> [(array, stmt, function)]`` for
        every Access/AddrOf route the program actually exercises."""
        used: Dict[Tuple[int, str], List[Tuple[str, Stmt, str]]] = {}
        bindings = self.bound.bindings
        for fname, stmt in self.ctx.program.walk():
            if not isinstance(stmt, (Access, AddrOf)):
                continue
            try:
                if isinstance(stmt, AddrOf) and stmt.field is None:
                    backing = bindings.backing_arrays(stmt.array)
                    routes = [
                        (aos, f.name)
                        for aos in backing for f in aos.struct.fields
                    ]
                else:
                    routes = [bindings.resolve(stmt.array, stmt.field)]
            except KeyError:
                continue  # unbound: absint reports it, verdict degrades
            for aos, resolved in routes:
                used.setdefault((id(aos), resolved), []).append(
                    (stmt.array, stmt, fname)
                )
        return used

    def _check_aliased_views(self) -> None:
        """Two logical arrays reading the same bytes of one allocation.

        Keyed on *used* ``(allocation, field)`` routes so that
        deliberately disjoint views — the regrouping transform binds
        ``ax``/``ay``/``az`` to different fields of one interleaved
        array — stay clean, while overlapping views are UNSAFE: a split
        moves the bytes under one name but not the other.
        """
        for (_, field), users in sorted(self._used_routes().items()):
            names = sorted({name for name, _, _ in users})
            if len(names) < 2:
                continue
            for name in names:
                stmt, fname = next(
                    (s, fn) for n, s, fn in users if n == name
                )
                others = ", ".join(n for n in names if n != name)
                self._emit(
                    kind="aliased-view", severity=UNSAFE, array=name,
                    fields=(field,),
                    message=(
                        f"{name!r} and {others} are overlapping views of "
                        f"the same allocation (field {field!r}); a split "
                        f"moves bytes under one name but not the other"
                    ),
                    function=fname, line=stmt.line, ip=stmt.ip,
                )

    def _check_stream_strides(self) -> None:
        """Streams striding *inside* elements: defense in depth.

        Access streams derive their stride as ``elem_size * gcd`` so
        they can never trip this; it guards stream sources future
        passes may add (e.g. pointer-derived streams).
        """
        for s in self.ctx.static_report.streams:
            if s.stride and s.stride % s.elem_size != 0:
                self._emit(
                    kind="sub-elem-stride", severity=UNSAFE, array=s.array,
                    fields=(s.resolved_field,),
                    message=(
                        f"stream strides {s.stride}B inside {s.elem_size}B "
                        f"elements of {s.array!r}: cross-field arithmetic"
                    ),
                    function=s.function, line=s.line, ip=s.ip,
                )


def collect_hazards(ctx: AnalysisContext) -> List[Hazard]:
    """All split-safety hazards in the program, attributed to IR sites."""
    return _HazardCollector(ctx).collect()


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SafetyVerdict:
    """SAFE / UNSAFE / UNKNOWN for splitting one logical array."""

    array: str
    status: str
    hazards: Tuple[Hazard, ...] = ()

    @property
    def reason(self) -> str:
        for hazard in self.hazards:
            if hazard.severity == self.status:
                return hazard.message
        return "no hazards found" if self.status == SAFE else ""

    @property
    def site(self) -> str:
        for hazard in self.hazards:
            if hazard.severity == self.status:
                return hazard.site
        return ""


@dataclass
class SafetyReport:
    """Per-array split-safety verdicts for one bound program."""

    program: str
    variant: str
    verdicts: Dict[str, SafetyVerdict]
    hazards: List[Hazard]

    def verdict_for(self, array: str) -> SafetyVerdict:
        return self.verdicts.get(array, SafetyVerdict(array, SAFE))

    @property
    def all_safe(self) -> bool:
        return all(v.status == SAFE for v in self.verdicts.values())

    def render(self) -> str:
        lines = [f"== split safety: {self.program} ({self.variant}) =="]
        for name in sorted(self.verdicts):
            verdict = self.verdicts[name]
            lines.append(f"  {name}: {verdict.status}")
            for hazard in verdict.hazards:
                lines.append(
                    f"    {hazard.kind} at {hazard.site}: {hazard.message}"
                )
        return "\n".join(lines)


def verify_split_safety(
    bound: BoundProgram,
    arrays: Optional[Sequence[str]] = None,
    *,
    ctx: Optional[AnalysisContext] = None,
) -> SafetyReport:
    """Classify every logical array of ``bound`` for split legality."""
    ctx = ctx or AnalysisContext(bound)
    hazards = collect_hazards(ctx)
    names = list(arrays) if arrays else list(bound.bindings.logical_arrays())

    per_array: Dict[str, List[Hazard]] = {name: [] for name in names}
    for hazard in hazards:
        if hazard.array:
            if hazard.array in per_array:
                per_array[hazard.array].append(hazard)
        else:
            # Global hazards (undefined pointers) poison every verdict:
            # an unbound pointer could alias anything.
            for bucket in per_array.values():
                bucket.append(hazard)
    # Absint failures degrade the verdict of the array they involve.
    program = bound.program
    for issue in ctx.static_report.issues:
        try:
            stmt = program.stmt_at(issue.ip)
        except KeyError:
            continue
        array = getattr(stmt, "array", "")
        if array in per_array:
            per_array[array].append(
                Hazard(
                    kind="analysis-failure", severity=UNKNOWN, array=array,
                    fields=(),
                    message=f"static analysis failed: {issue.message}",
                    function=issue.function, line=issue.line, ip=issue.ip,
                )
            )

    verdicts: Dict[str, SafetyVerdict] = {}
    for name in names:
        bucket = per_array[name]
        status = SAFE
        for hazard in bucket:
            if _RANK[hazard.severity] > _RANK[status]:
                status = hazard.severity
        verdicts[name] = SafetyVerdict(name, status, tuple(bucket))
    return SafetyReport(
        program=bound.name,
        variant=bound.variant,
        verdicts=verdicts,
        hazards=hazards,
    )
