"""Static false-sharing detection from stride/offset facts.

For multi-core workloads, predicts which cache lines will bounce
between cores — *before* running anything — by intersecting per-thread
write footprints at line granularity. The footprints come from the
same facts the abstract interpreter derives (Eqs 2-6: strides, field
offsets, element sizes) plus the interpreter's own OpenMP static
schedule (:func:`repro.program.interp.static_chunks`), so the static
iteration partition matches the dynamic one exactly.

A line is **shared** when at least two threads touch it and at least
one of them writes — precisely the precondition for a MESI
invalidation. Shared lines are classified:

* ``false-sharing`` — some writer's byte set within the line is
  disjoint from another holder's: the threads communicate by layout
  accident, the coherence traffic is pure waste a split can remove;
* ``true-sharing`` — every pair of holders overlaps on bytes: the
  threads genuinely exchange data and no layout fixes it.

The oracle (:func:`cross_validate_false_sharing`) replays the same
program through the memsim MESI directory and checks the **sound
subset relation**: every line the directory actually invalidated must
be in the static flagged set. Static may over-approximate (it has no
eviction model, so it flags every *potential* conflict); it must never
miss — a dynamic invalidation on an unflagged line is a bug in one of
the two models, the same oracle pattern ``static/oracle.py``
established for strides.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set, Tuple

from ..memsim.engine import simulate
from ..memsim.hierarchy import HierarchyConfig, MemoryHierarchy
from ..program.builder import BoundProgram
from ..program.interp import MAX_ACCESS_BYTES, Interpreter, static_chunks
from ..program.ir import Access, AddrOf, Loop, PtrAccess
from .absint import ENUM_CAP, StaticAnalysisError, _binding_loop, _call_multipliers
from .dataflow import AnalysisContext

_ZERO_ENV: Dict[str, int] = defaultdict(int)


@dataclass
class _Touch:
    """One thread's byte footprint on one cache line."""

    read_bytes: Set[int] = dc_field(default_factory=set)
    write_bytes: Set[int] = dc_field(default_factory=set)
    fields: Set[str] = dc_field(default_factory=set)
    sites: Set[Tuple[str, int]] = dc_field(default_factory=set)

    @property
    def bytes(self) -> Set[int]:
        return self.read_bytes | self.write_bytes


@dataclass(frozen=True)
class SharedLine:
    """A cache line statically predicted to bounce between threads."""

    line: int
    object_name: str
    threads: Tuple[int, ...]
    writers: Tuple[int, ...]
    fields: Tuple[str, ...]
    kind: str  # "false-sharing" | "true-sharing"
    sites: Tuple[Tuple[str, int], ...]  # (function, line)


@dataclass
class FalseSharingReport:
    """Statically predicted shared-line set for one program."""

    program: str
    variant: str
    num_threads: int
    line_size: int
    lines: List[SharedLine]
    #: False when any stream was summarized coarsely (enumeration over
    #: budget, or pointer accesses under a parallel loop): the flagged
    #: set is then a sound over-approximation, not the exact footprint
    #: intersection.
    exact: bool = True
    #: Blanket line ranges ``(lo, hi)`` inclusive, added for streams the
    #: detector could not enumerate; :meth:`covers` treats every line in
    #: a span as potentially shared, keeping the oracle relation sound.
    coarse_spans: Tuple[Tuple[int, int], ...] = ()

    @property
    def flagged_lines(self) -> Set[int]:
        return {entry.line for entry in self.lines}

    def covers(self, line: int) -> bool:
        """Whether the static pass considers ``line`` potentially shared."""
        if line in self.flagged_lines:
            return True
        return any(lo <= line <= hi for lo, hi in self.coarse_spans)

    def render(self) -> str:
        header = (
            f"== static false sharing: {self.program} ({self.variant}), "
            f"{self.num_threads} threads =="
        )
        lines = [header]
        if not self.lines:
            lines.append("  no shared writable lines")
        for entry in self.lines:
            sites = ", ".join(f"{fn}:{ln}" for fn, ln in entry.sites)
            lines.append(
                f"  line 0x{entry.line:x} [{entry.object_name}] "
                f"{entry.kind}: threads {list(entry.threads)} "
                f"(writers {list(entry.writers)}) fields "
                f"{list(entry.fields)} at {sites}"
            )
        if not self.exact:
            lines.append("  (coarse: some footprints over-approximated)")
        return "\n".join(lines)


def _thread_values(
    stack: Tuple[Loop, ...],
    binding: Optional[Loop],
    index,
    num_threads: int,
) -> Optional[Dict[int, List[int]]]:
    """Element-index values each thread evaluates for one access.

    Mirrors the interpreter's thread assignment exactly:

    * no enclosing parallel loop -> thread 0 runs everything;
    * the binding loop IS the (innermost) parallel loop -> each thread
      gets its static-schedule chunk of the iteration space;
    * the binding loop is serial *inside* a parallel loop -> every
      thread replays the full value sequence (sound and exact: each
      thread executes the whole inner loop);
    * loop-invariant index -> the single value, on every running thread.

    Returns None when enumeration would exceed the budget.
    """
    par: Optional[Loop] = None
    for loop in stack:
        if loop.parallel:
            par = loop  # innermost parallel loop wins
    if binding is not None and binding.trip_count > ENUM_CAP:
        return None

    def values_over(chunk) -> List[int]:
        env: Dict[str, int] = {}
        out = []
        var = binding.var  # type: ignore[union-attr]
        for v in chunk:
            env[var] = v
            out.append(index.evaluate(env))
        return out

    if binding is None:
        value = index.evaluate(_ZERO_ENV)
        threads = range(num_threads) if par is not None else (0,)
        return {t: [value] for t in threads}
    space = range(binding.start, binding.stop, binding.step)
    if par is binding and num_threads > 1:
        chunks = static_chunks(space, num_threads)
        return {t: values_over(chunk) for t, chunk in enumerate(chunks)}
    if par is not None and num_threads > 1:
        full = values_over(space)
        return {t: list(full) for t in range(num_threads)}
    return {0: values_over(space)}


def detect_false_sharing(
    bound: BoundProgram,
    *,
    num_threads: int,
    line_size: int = 64,
    ctx: Optional[AnalysisContext] = None,
) -> FalseSharingReport:
    """Predict shared cache lines from static facts alone."""
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    program = bound.program
    program.require_finalized()
    line_bits = line_size.bit_length() - 1
    if (1 << line_bits) != line_size:
        raise ValueError("line_size must be a power of two")
    multipliers = _call_multipliers(program)

    #: line -> thread -> footprint
    touches: Dict[int, Dict[int, _Touch]] = {}
    #: line -> object name (first writer wins; lines never span objects)
    owners: Dict[int, str] = {}
    exact = True
    coarse_spans: List[Tuple[int, int]] = []

    def blanket(aos) -> None:
        """Cover an array's whole line extent, coarsely but soundly."""
        lo = aos.base >> line_bits
        hi = (aos.base + aos.count * aos.stride - 1) >> line_bits
        coarse_spans.append((lo, hi))

    # Pointers only acquire values through AddrOf; a flow-insensitive
    # scan of AddrOf destinations bounds what any PtrAccess may touch.
    ptr_arrays: Dict[str, Set[str]] = {}
    for _, s in program.walk():
        if isinstance(s, AddrOf):
            ptr_arrays.setdefault(s.dest, set()).add(s.array)

    def touch(
        thread: int, addr: int, size: int, is_write: bool,
        name: str, field: str, site: Tuple[str, int],
    ) -> None:
        for byte in range(addr, addr + size):
            line = byte >> line_bits
            owners.setdefault(line, name)
            per_thread = touches.setdefault(line, {})
            entry = per_thread.get(thread)
            if entry is None:
                entry = per_thread[thread] = _Touch()
            offset = byte & (line_size - 1)
            (entry.write_bytes if is_write else entry.read_bytes).add(offset)
            entry.fields.add(field)
            entry.sites.add(site)

    for fname, stmt, stack in program.walk_with_loops():
        if multipliers.get(fname, 0) == 0:
            continue  # function never runs
        if any(loop.trip_count == 0 for loop in stack):
            continue
        in_parallel = any(loop.parallel for loop in stack)
        if isinstance(stmt, PtrAccess):
            if in_parallel and num_threads > 1:
                # Pointer footprints need a flow-sensitive points-to
                # solution; blanket every array the pointer could come
                # from instead of guessing.
                exact = False
                for array in sorted(ptr_arrays.get(stmt.ptr, ())):
                    for aos in bound.bindings.backing_arrays(array):
                        blanket(aos)
            continue
        if not isinstance(stmt, Access):
            continue
        try:
            aos, resolved = bound.bindings.resolve(stmt.array, stmt.field)
        except KeyError:
            exact = False
            continue
        f = aos.struct.field(resolved)
        size = min(f.size, MAX_ACCESS_BYTES)
        base = aos.base + f.offset
        try:
            binding = _binding_loop(stmt.index, stack)
        except StaticAnalysisError:
            exact = False
            continue
        per_thread = _thread_values(stack, binding, stmt.index, num_threads)
        site = (fname, stmt.line)
        if per_thread is None:
            # Over budget: blanket the whole extent — coarse but sound.
            exact = False
            blanket(aos)
            continue
        for t, values in per_thread.items():
            for idx in set(values):
                touch(t, base + idx * aos.stride, size,
                      stmt.is_write, stmt.array, resolved, site)

    entries: List[SharedLine] = []
    for line in sorted(touches):
        per_thread = touches[line]
        if len(per_thread) < 2:
            continue
        writers = sorted(t for t, e in per_thread.items() if e.write_bytes)
        if not writers:
            continue
        # False sharing iff some writer's bytes are disjoint from some
        # other holder's bytes: those two threads never exchange data
        # through this line, yet invalidate each other.
        false = any(
            not per_thread[w].write_bytes & per_thread[t].bytes
            for w in writers
            for t in per_thread
            if t != w
        )
        fields = sorted({f for e in per_thread.values() for f in e.fields})
        sites = sorted({s for e in per_thread.values() for s in e.sites})
        entries.append(
            SharedLine(
                line=line,
                object_name=owners.get(line, "?"),
                threads=tuple(sorted(per_thread)),
                writers=tuple(writers),
                fields=tuple(fields),
                kind="false-sharing" if false else "true-sharing",
                sites=tuple(sites),
            )
        )
    return FalseSharingReport(
        program=program.name,
        variant=bound.variant,
        num_threads=num_threads,
        line_size=line_size,
        lines=entries,
        exact=exact,
        coarse_spans=tuple(coarse_spans),
    )


# ---------------------------------------------------------------------------
# Dynamic oracle
# ---------------------------------------------------------------------------


@dataclass
class FalseSharingOracle:
    """Static flagged lines vs memsim MESI invalidation hotspots."""

    static: FalseSharingReport
    dynamic_lines: Dict[int, int]  # line -> invalidation count
    missed: Tuple[int, ...]  # dynamic lines the static pass did not flag

    @property
    def ok(self) -> bool:
        return not self.missed

    @property
    def coverage(self) -> float:
        """Fraction of dynamic invalidations on statically flagged lines."""
        total = sum(self.dynamic_lines.values())
        if total == 0:
            return 1.0
        hit = sum(
            count for line, count in self.dynamic_lines.items()
            if self.static.covers(line)
        )
        return hit / total

    def render(self) -> str:
        status = "OK" if self.ok else "DISAGREE"
        lines = [
            f"== false-sharing oracle: {self.static.program} "
            f"[{status}] ==",
            f"  static flagged lines: {len(self.static.flagged_lines)}",
            f"  dynamic invalidation lines: {len(self.dynamic_lines)} "
            f"({sum(self.dynamic_lines.values())} invalidations)",
            f"  coverage: {self.coverage:.0%}",
        ]
        for line in self.missed:
            lines.append(
                f"  !! line 0x{line:x} invalidated "
                f"{self.dynamic_lines[line]}x but not flagged"
            )
        return "\n".join(lines)


def cross_validate_false_sharing(
    bound: BoundProgram,
    *,
    num_threads: int,
    config: Optional[HierarchyConfig] = None,
    ctx: Optional[AnalysisContext] = None,
) -> FalseSharingOracle:
    """Replay through memsim's MESI directory and check the subset
    relation: dynamic invalidation lines ⊆ static flagged lines."""
    config = config or HierarchyConfig()
    static = detect_false_sharing(
        bound, num_threads=num_threads, line_size=config.line_size, ctx=ctx
    )
    hierarchy = MemoryHierarchy(config, num_cores=num_threads)
    interp = Interpreter(bound, num_threads=num_threads)
    simulate(
        interp.run_batched(),
        hierarchy=hierarchy,
        name=bound.name,
        variant=bound.variant,
    )
    dynamic = hierarchy.line_invalidations()
    missed = tuple(sorted(line for line in dynamic if not static.covers(line)))
    return FalseSharingOracle(static=static, dynamic_lines=dynamic, missed=missed)
