"""Columnar access batches: the trace fast path's unit of work.

The scalar interpreter yields one :class:`MemoryAccess` object per
dynamic access, which makes Python object construction and per-item
dispatch the dominant cost of paper-scale runs. An :class:`AccessBatch`
carries the same information for a whole stretch of the trace as
parallel ``array('q')`` columns, generated arithmetically from the
affine address parameters of the loop that produced it — the same
batching insight DynamoRIO/Pin-style tools use to amortize
instrumentation dispatch.

A batch always covers *complete rounds* of an innermost loop whose body
is pure ``Access`` statements:

- a serial loop contributes ``rounds`` iterations of its ``K``-statement
  body on one thread (``thread_order`` has one entry);
- a parallel loop contributes ``rounds`` lock-step rounds in which each
  worker thread executes the body once, interleaved in thread order —
  exactly the order the scalar interpreter emits.

Position ``p`` of a batch therefore decomposes as ``round = p //
(K*T)``, ``slot = (p % (K*T)) // K`` (the thread), ``stmt = p % K``,
which is what lets the sampler skip through a batch in O(samples)
instead of O(accesses).

Batches are immutable once built; the interpreter reuses them across
repetitions of the same loop.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .ir import Access, Affine, Const, IndexExpr, Indirect, Mod
from .trace import MemoryAccess

#: Loops with fewer trips than this run scalar: column setup would cost
#: more than it saves, and correctness is identical either way.
MIN_BATCH_TRIPS = 8

#: Rounds per emitted batch; bounds peak column memory (a chunk is at
#: most ``8 bytes * 7 columns * CHUNK_ROUNDS * K * T``).
CHUNK_ROUNDS = 8192


class AccessBatch:
    """A columnar run of memory accesses (one TraceItem kind)."""

    __slots__ = (
        "address",
        "ip",
        "size",
        "is_write",
        "thread",
        "line",
        "context",
        "length",
        "stmts_per_iter",
        "thread_order",
        "rounds",
        "write_pattern",
    )

    def __init__(
        self,
        *,
        address: array,
        ip: array,
        size: array,
        is_write: array,
        thread: array,
        line: array,
        context: array,
        stmts_per_iter: int,
        thread_order: Tuple[int, ...],
        rounds: int,
        write_pattern: Tuple[bool, ...],
    ) -> None:
        self.address = address
        self.ip = ip
        self.size = size
        self.is_write = is_write
        self.thread = thread
        self.line = line
        self.context = context
        self.length = len(address)
        self.stmts_per_iter = stmts_per_iter
        self.thread_order = thread_order
        self.rounds = rounds
        self.write_pattern = write_pattern

    @property
    def max_thread(self) -> int:
        return max(self.thread_order)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[MemoryAccess]:
        """Scalar view, in exact trace order (the fallback path)."""
        for t, ip, addr, size, w, line, ctx in zip(
            self.thread,
            self.ip,
            self.address,
            self.size,
            self.is_write,
            self.line,
            self.context,
        ):
            yield MemoryAccess(t, ip, addr, size, bool(w), line, ctx)

    def __repr__(self) -> str:
        return (
            f"AccessBatch(len={self.length}, stmts={self.stmts_per_iter}, "
            f"threads={self.thread_order}, rounds={self.rounds})"
        )


# ---------------------------------------------------------------------------
# Column generation
# ---------------------------------------------------------------------------


def referenced_vars(expr: IndexExpr) -> frozenset:
    """Every induction variable an index expression *reads*.

    Unlike :meth:`IndexExpr.free_vars` this includes scale-0 affine
    vars, because ``Affine.evaluate`` still looks them up in the
    environment.
    """
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Affine):
        return frozenset((expr.var,))
    if isinstance(expr, (Mod, Indirect)):
        return referenced_vars(expr.inner)
    return frozenset(("?non-affine?",))  # unknown kind: poison the check


def _index_params(
    expr: IndexExpr, var: str, env: Dict[str, int], start: int, step: int
) -> Optional[Tuple[int, int]]:
    """``(I0, S)`` so the element index at trip ``k`` is ``I0 + k*S``.

    None when the expression is not affine in the loop trip (or reads a
    variable that is not bound yet).
    """
    if isinstance(expr, Const):
        return (expr.value, 0)
    if isinstance(expr, Affine):
        if expr.var == var:
            return (start * expr.scale + expr.offset, step * expr.scale)
        bound = env.get(expr.var)
        if bound is None:
            return None
        return (bound * expr.scale + expr.offset, 0)
    return None


def address_column(
    stmt: Access,
    resolved,
    env: Dict[str, int],
    var: str,
    start: int,
    step: int,
    n: int,
) -> Optional[array]:
    """The ``n`` effective addresses of ``stmt`` across one trip range.

    Returns None when the access is not batchable — irregular index
    shape, or any trip that would fall outside the array bounds (the
    scalar path then raises the exact in-order error).
    """
    base = resolved.base
    stride = resolved.stride
    count = resolved.count
    expr = stmt.index

    if isinstance(expr, Mod):
        params = _index_params(expr.inner, var, env, start, step)
        if params is None:
            return None
        i0, s = params
        m = expr.modulus
        # m <= count keeps every wrapped index in bounds by construction.
        if m <= 0 or m > count:
            return None
        if s == 0:
            return array("q", (base + (i0 % m) * stride,)) * n
        if abs(s) >= m:
            return None  # degenerate: one segment per trip
        col = array("q")
        astep = s * stride
        k = 0
        while k < n:
            cur = (i0 + k * s) % m
            if s > 0:
                seg = min(n - k, -((cur - m) // s))  # ceil((m - cur) / s)
            else:
                seg = min(n - k, cur // (-s) + 1)
            a0 = base + cur * stride
            col += array("q", range(a0, a0 + seg * astep, astep))
            k += seg
        return col

    if isinstance(expr, Indirect):
        params = _index_params(expr.inner, var, env, start, step)
        if params is None:
            return None
        i0, s = params
        table = expr.table
        tlen = len(table)
        last = i0 + (n - 1) * s
        if not (0 <= i0 < tlen and 0 <= last < tlen):
            return None
        if s == 0:
            idx = table[i0]
            if not 0 <= idx < count:
                return None
            return array("q", (base + idx * stride,)) * n
        stop: Optional[int] = i0 + n * s
        if s < 0 and stop < 0:
            stop = None
        picked = table[i0:stop:s]
        if len(picked) != n:
            return None
        if min(picked) < 0 or max(picked) >= count:
            return None
        return array("q", [base + t * stride for t in picked])

    params = _index_params(expr, var, env, start, step)
    if params is None:
        return None
    i0, s = params
    last = i0 + (n - 1) * s
    if not (0 <= i0 < count and 0 <= last < count):
        return None
    a0 = base + i0 * stride
    astep = s * stride
    if astep == 0:
        return array("q", (a0,)) * n
    return array("q", range(a0, a0 + n * astep, astep))


# ---------------------------------------------------------------------------
# Batch assembly
# ---------------------------------------------------------------------------


def _tile(pattern: Sequence[int], repeat: int) -> array:
    return array("q", pattern) * repeat


def assemble_batches(
    *,
    per_slot_columns: Sequence[Sequence[array]],
    stmt_meta: Sequence[Tuple[int, int, bool, int]],
    thread_order: Tuple[int, ...],
    rounds: int,
    context: int,
    chunk_rounds: int = CHUNK_ROUNDS,
) -> List[AccessBatch]:
    """Interleave per-(thread, stmt) address columns into trace order.

    ``per_slot_columns[s][j]`` holds the ``rounds`` addresses thread
    slot ``s`` produces for body statement ``j``; ``stmt_meta`` is
    ``(ip, size, is_write, line)`` per statement. Output batches cover
    at most ``chunk_rounds`` rounds each.
    """
    K = len(stmt_meta)
    T = len(thread_order)
    round_size = K * T
    ip_pat = [m[0] for m in stmt_meta] * T
    size_pat = [m[1] for m in stmt_meta] * T
    write_pat = [1 if m[2] else 0 for m in stmt_meta] * T
    line_pat = [m[3] for m in stmt_meta] * T
    thread_pat = [t for t in thread_order for _ in range(K)]
    write_pattern = tuple(bool(m[2]) for m in stmt_meta)

    batches: List[AccessBatch] = []
    for r0 in range(0, rounds, chunk_rounds):
        cn = min(chunk_rounds, rounds - r0)
        length = cn * round_size
        address = array("q", bytes(8 * length))
        for s in range(T):
            for j in range(K):
                address[s * K + j :: round_size] = per_slot_columns[s][j][
                    r0 : r0 + cn
                ]
        batches.append(
            AccessBatch(
                address=address,
                ip=_tile(ip_pat, cn),
                size=_tile(size_pat, cn),
                is_write=_tile(write_pat, cn),
                thread=_tile(thread_pat, cn),
                line=_tile(line_pat, cn),
                context=array("q", (context,)) * length,
                stmts_per_iter=K,
                thread_order=thread_order,
                rounds=cn,
                write_pattern=write_pattern,
            )
        )
    return batches
