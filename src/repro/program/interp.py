"""The workload interpreter: IR in, memory trace out.

``run`` executes a :class:`BoundProgram` and yields the interleaved
per-thread trace a real multithreaded execution would present to the
memory system. Parallel loops follow an OpenMP-style static schedule
(contiguous chunks), and threads are interleaved iteration-by-iteration
so the shared-cache simulator sees realistic concurrency.

The interpreter is deliberately a generator: traces for the paper-scale
workloads run to millions of accesses and are consumed streamingly by
the cache simulator and sampler without ever being materialized.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .batch import (
    MIN_BATCH_TRIPS,
    AccessBatch,
    address_column,
    assemble_batches,
    referenced_vars,
)
from ..telemetry import events
from .builder import BoundProgram
from .context import ROOT_CONTEXT, ContextTable
from .ir import Access, AddrOf, Call, Compute, Loop, Program, PtrAccess, Stmt
from .trace import ComputeBurst, MemoryAccess, TraceItem

#: Cap on load/store width: real x86 scalar accesses are at most 8 bytes,
#: so a wide field (e.g. ``char entry[256]``) is touched by 8-byte pieces
#: and its *first* piece is what a single sampled load observes.
MAX_ACCESS_BYTES = 8


class TraceError(RuntimeError):
    """An IR access went out of bounds or referenced a missing binding."""


#: Trace items between ``stage-progress`` publications when a live
#: event bus is listening (see :mod:`repro.telemetry.events`).
PROGRESS_EVERY = 1 << 16


def _published(items: Iterator[TraceItem]) -> Iterator[TraceItem]:
    """Pass ``items`` through, publishing coarse interpret progress.

    Counts *accesses* (a batch counts its length) and publishes a
    ``stage-progress`` event at most every :data:`PROGRESS_EVERY`; the
    live bus was checked active before this wrapper was chosen, so the
    disabled path never pays for the extra generator frame.
    """
    bus = events.bus()
    done = 0
    mark = PROGRESS_EVERY
    for item in items:
        done += len(item) if isinstance(item, AccessBatch) else 1
        if done >= mark:
            mark = done + PROGRESS_EVERY
            bus.publish("stage-progress", stage="interpret", done=done,
                        unit="accesses")
        yield item


#: Distinct (loop, thread, context, env) batch shapes remembered per run.
_BATCH_CACHE_CAP = 256


class _ResolvedAccess:
    """Per-run cache of an Access statement's address arithmetic."""

    __slots__ = ("base", "stride", "offset", "size", "count", "stmt")

    def __init__(self, stmt: Access, bound: BoundProgram) -> None:
        aos, field_name = bound.bindings.resolve(stmt.array, stmt.field)
        field = aos.struct.field(field_name)
        self.base = aos.base + field.offset
        self.stride = aos.stride
        self.offset = field.offset
        self.size = min(field.size, MAX_ACCESS_BYTES)
        self.count = aos.count
        self.stmt = stmt

    def address(self, index: int) -> int:
        if index < 0 or index >= self.count:
            raise TraceError(
                f"index {index} out of bounds [0, {self.count}) for "
                f"{self.stmt.array}.{self.stmt.field} at line {self.stmt.line}"
            )
        return self.base + index * self.stride


class _ResolvedAddrOf:
    """Per-run cache of an AddrOf statement's address arithmetic."""

    __slots__ = ("base", "stride", "count", "stmt")

    def __init__(self, stmt: AddrOf, bound: BoundProgram) -> None:
        if stmt.field is not None:
            aos, field_name = bound.bindings.resolve(stmt.array, stmt.field)
            self.base = aos.base + aos.struct.field(field_name).offset
        else:
            backing = bound.bindings.backing_arrays(stmt.array)
            if len(backing) != 1:
                raise TraceError(
                    f"&{stmt.array}[...] at line {stmt.line}: whole-record "
                    f"address of an object split across {len(backing)} arrays"
                )
            aos = backing[0]
            self.base = aos.base
        self.stride = aos.stride
        self.count = aos.count
        self.stmt = stmt

    def address(self, index: int) -> int:
        if index < 0 or index >= self.count:
            raise TraceError(
                f"index {index} out of bounds [0, {self.count}) for "
                f"&{self.stmt.array}[...] at line {self.stmt.line}"
            )
        return self.base + index * self.stride


class Interpreter:
    """Executes one BoundProgram. Create a fresh instance per run."""

    def __init__(
        self,
        bound: BoundProgram,
        *,
        num_threads: int = 1,
        context_table: Optional[ContextTable] = None,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        bound.program.require_finalized()
        self.bound = bound
        self.program: Program = bound.program
        self.num_threads = num_threads
        self.contexts = context_table if context_table is not None else ContextTable()
        self._resolved: Dict[int, _ResolvedAccess] = {}
        self._resolved_addrs: Dict[int, _ResolvedAddrOf] = {}
        self._batch_cache: Dict[tuple, list] = {}

    # -- public -------------------------------------------------------------

    def run(self) -> Iterator[TraceItem]:
        """Yield the full interleaved trace of the program.

        Every trip runs here, one item per access: this is the scalar
        oracle the batched path is checked against.
        """
        return self._trace(batched=False)

    def run_batched(self) -> Iterator[TraceItem]:
        """Yield the trace with innermost pure-``Access`` loops batched.

        The item stream mixes :class:`AccessBatch` objects (for loops
        whose address progressions are affine in the trip count) with
        the scalar items of :meth:`run`; expanding every batch in place
        reproduces :meth:`run`'s sequence exactly, including the point
        at which an out-of-bounds access raises. Consumers that cannot
        handle batches can iterate each batch for the scalar view.
        """
        return self._trace(batched=True)

    def _trace(self, batched: bool) -> Iterator[TraceItem]:
        entry = self.program.functions[self.program.entry]
        items = self._exec_body(entry.body, {}, 0, ROOT_CONTEXT, batched)
        if not events.bus().active:
            yield from items
        else:
            yield from _published(items)

    # -- execution ----------------------------------------------------------

    def _resolve(self, stmt: Access) -> _ResolvedAccess:
        key = id(stmt)
        res = self._resolved.get(key)
        if res is None:
            res = _ResolvedAccess(stmt, self.bound)
            self._resolved[key] = res
        return res

    def _resolve_addr(self, stmt: AddrOf) -> _ResolvedAddrOf:
        key = id(stmt)
        res = self._resolved_addrs.get(key)
        if res is None:
            res = _ResolvedAddrOf(stmt, self.bound)
            self._resolved_addrs[key] = res
        return res

    def _ptr_access(
        self, stmt: PtrAccess, env: Dict[str, int], thread: int, context: int
    ) -> MemoryAccess:
        addr = env.get(stmt.ptr)
        if addr is None:
            raise TraceError(
                f"pointer {stmt.ptr!r} read at line {stmt.line} before any "
                f"AddrOf bound it"
            )
        return MemoryAccess(
            thread,
            stmt.ip,
            addr + stmt.offset,
            min(stmt.size, MAX_ACCESS_BYTES),
            stmt.is_write,
            stmt.line,
            context,
        )

    def _exec_body(
        self,
        body: List[Stmt],
        env: Dict[str, int],
        thread: int,
        context: int,
        batched: bool,
    ) -> Iterator[TraceItem]:
        for stmt in body:
            if isinstance(stmt, Access):
                res = self._resolve(stmt)
                idx = stmt.index.evaluate(env)
                yield MemoryAccess(
                    thread,
                    stmt.ip,
                    res.address(idx),
                    res.size,
                    stmt.is_write,
                    stmt.line,
                    context,
                )
            elif isinstance(stmt, Compute):
                yield ComputeBurst(thread, stmt.cycles)
            elif isinstance(stmt, Loop):
                if stmt.parallel and self.num_threads > 1:
                    yield from self._exec_parallel_loop(stmt, env, context, batched)
                else:
                    yield from self._exec_serial_loop(
                        stmt, env, thread, context, batched
                    )
            elif isinstance(stmt, AddrOf):
                res = self._resolve_addr(stmt)
                env[stmt.dest] = res.address(stmt.index.evaluate(env))
            elif isinstance(stmt, PtrAccess):
                yield self._ptr_access(stmt, env, thread, context)
            elif isinstance(stmt, Call):
                callee = self.program.functions.get(stmt.callee)
                if callee is None:
                    raise TraceError(f"call to undefined function {stmt.callee!r}")
                child = self.contexts.extend(context, stmt.ip)
                yield from self._exec_body(
                    callee.body, dict(env), thread, child, batched
                )
            else:
                raise TraceError(f"unknown statement type {type(stmt).__name__}")

    def _exec_serial_loop(
        self,
        loop: Loop,
        env: Dict[str, int],
        thread: int,
        context: int,
        batched: bool,
    ) -> Iterator[TraceItem]:
        if (
            batched
            and loop.trip_count >= MIN_BATCH_TRIPS
            and _pure_access_body(loop.body)
        ):
            batches = self._serial_batches(loop, env, thread, context)
            if batches is not None:
                yield from batches
                return
        # Scalar trips; with batching on, nested loops may still batch.
        var = loop.var
        inner = dict(env)
        for value in range(loop.start, loop.stop, loop.step):
            inner[var] = value
            yield from self._exec_body(loop.body, inner, thread, context, batched)

    def _exec_parallel_loop(
        self, loop: Loop, env: Dict[str, int], context: int, batched: bool
    ) -> Iterator[TraceItem]:
        """OpenMP static schedule: contiguous chunks, interleaved in time.

        With batching on, the first ``minlen`` rounds (where every thread
        still has work) may interleave into one batch stream; the
        straggler iterations of longer chunks, at most
        ``num_threads - 1`` of them, then run as scalar rounds in the
        same order.
        """
        iterations = range(loop.start, loop.stop, loop.step)
        chunks = static_chunks(iterations, self.num_threads)
        start_k = 0
        if batched:
            minlen = min(len(c) for c in chunks)
            if minlen >= MIN_BATCH_TRIPS and _pure_access_body(loop.body):
                batches = self._parallel_batches(loop, env, chunks, minlen, context)
                if batches is not None:
                    yield from batches
                    start_k = minlen
        envs = [dict(env) for _ in range(self.num_threads)]
        var = loop.var
        longest = max(len(c) for c in chunks)
        for k in range(start_k, longest):
            for t, chunk in enumerate(chunks):
                if k < len(chunk):
                    envs[t][var] = chunk[k]
                    yield from self._exec_body(
                        loop.body, envs[t], t, context, batched
                    )

    def _slot_columns(
        self, loop: Loop, env: Dict[str, int], start: int, n: int
    ) -> Optional[list]:
        cols = []
        for stmt in loop.body:
            res = self._resolve(stmt)
            col = address_column(stmt, res, env, loop.var, start, loop.step, n)
            if col is None:
                return None
            cols.append(col)
        return cols

    def _batch_key(
        self, loop: Loop, env: Dict[str, int], thread: int, context: int
    ) -> Optional[tuple]:
        """Cache key covering everything a loop's columns depend on."""
        needed = set()
        for stmt in loop.body:
            vs = referenced_vars(stmt.index)
            if "?non-affine?" in vs:
                return None
            needed |= vs
        needed.discard(loop.var)
        vals = []
        for v in sorted(needed):
            if v not in env:
                return None
            vals.append((v, env[v]))
        return (id(loop), thread, context, tuple(vals))

    def _stmt_meta(self, body: List[Stmt]) -> list:
        return [
            (s.ip, self._resolve(s).size, s.is_write, s.line) for s in body
        ]

    def _serial_batches(
        self, loop: Loop, env: Dict[str, int], thread: int, context: int
    ) -> Optional[List[AccessBatch]]:
        key = self._batch_key(loop, env, thread, context)
        if key is not None:
            cached = self._batch_cache.get(key)
            if cached is not None:
                return cached
        cols = self._slot_columns(loop, env, loop.start, loop.trip_count)
        if cols is None:
            return None
        batches = assemble_batches(
            per_slot_columns=[cols],
            stmt_meta=self._stmt_meta(loop.body),
            thread_order=(thread,),
            rounds=loop.trip_count,
            context=context,
        )
        if key is not None:
            if len(self._batch_cache) >= _BATCH_CACHE_CAP:
                self._batch_cache.clear()
            self._batch_cache[key] = batches
        return batches

    def _parallel_batches(
        self,
        loop: Loop,
        env: Dict[str, int],
        chunks: List[range],
        minlen: int,
        context: int,
    ) -> Optional[List[AccessBatch]]:
        key = self._batch_key(loop, env, -1, context)
        if key is not None:
            cached = self._batch_cache.get(key)
            if cached is not None:
                return cached
        per_slot = []
        for chunk in chunks:
            cols = self._slot_columns(loop, env, chunk[0], minlen)
            if cols is None:
                return None
            per_slot.append(cols)
        batches = assemble_batches(
            per_slot_columns=per_slot,
            stmt_meta=self._stmt_meta(loop.body),
            thread_order=tuple(range(len(chunks))),
            rounds=minlen,
            context=context,
        )
        if key is not None:
            if len(self._batch_cache) >= _BATCH_CACHE_CAP:
                self._batch_cache.clear()
            self._batch_cache[key] = batches
        return batches


def _pure_access_body(body: List[Stmt]) -> bool:
    return all(isinstance(s, Access) for s in body)


def static_chunks(iterations: range, num_threads: int) -> List[range]:
    """Split an iteration range into contiguous per-thread chunks.

    This is the interpreter's OpenMP-style static schedule; the static
    false-sharing detector imports it so its per-thread footprints use
    the exact same iteration partition the dynamic trace does.
    """
    n = len(iterations)
    base, extra = divmod(n, num_threads)
    chunks: List[range] = []
    start = 0
    for t in range(num_threads):
        size = base + (1 if t < extra else 0)
        chunks.append(iterations[start : start + size])
        start += size
    return chunks


def run(
    bound: BoundProgram,
    *,
    num_threads: int = 1,
    context_table: Optional[ContextTable] = None,
) -> Iterator[TraceItem]:
    """Execute ``bound`` and yield its trace (convenience wrapper)."""
    return Interpreter(
        bound, num_threads=num_threads, context_table=context_table
    ).run()


def run_batched(
    bound: BoundProgram,
    *,
    num_threads: int = 1,
    context_table: Optional[ContextTable] = None,
) -> Iterator[TraceItem]:
    """Execute ``bound`` on the columnar fast path (convenience wrapper)."""
    return Interpreter(
        bound, num_threads=num_threads, context_table=context_table
    ).run_batched()


def trace_stats(bound: BoundProgram, *, num_threads: int = 1) -> Tuple[int, float]:
    """(memory access count, compute cycles) for one execution.

    Runs on the batched engine: counts are identical to the scalar
    trace's by the batch-expansion invariant, and counting a batch is
    O(1).
    """
    accesses = 0
    compute = 0.0
    for item in run_batched(bound, num_threads=num_threads):
        if isinstance(item, AccessBatch):
            accesses += item.length
        elif isinstance(item, MemoryAccess):
            accesses += 1
        else:
            compute += item.cycles
    return accesses, compute
