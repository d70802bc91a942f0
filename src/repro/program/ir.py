"""The workload IR: loops, memory accesses, compute, and calls.

The IR is the reproduction's stand-in for a compiled binary. Each
benchmark from the paper is expressed as a small program of (possibly
parallel) counted loops whose bodies access fields of arrays-of-structs
through index expressions. The interpreter (``interp.py``) executes the
IR and emits the memory-access trace a real binary would produce; the
binary substrate (``repro.binary``) lowers the same IR to a CFG so loop
discovery runs the paper's actual algorithm (interval analysis) instead
of reading loop bounds out of the IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

#: Synthetic text segment base; statement IPs are assigned from here.
TEXT_BASE = 0x0040_0000
#: Bytes of "machine code" per IR statement; keeps IPs distinct and ordered.
IP_STRIDE = 0x10


# ---------------------------------------------------------------------------
# Index expressions
# ---------------------------------------------------------------------------


class IndexExpr:
    """Base class for element-index expressions over induction variables."""

    def evaluate(self, env: Dict[str, int]) -> int:
        raise NotImplementedError

    def free_vars(self) -> FrozenSet[str]:
        """Induction variables this expression reads."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(IndexExpr):
    """A fixed element index."""

    value: int

    def evaluate(self, env: Dict[str, int]) -> int:
        return self.value

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(frozen=True)
class Affine(IndexExpr):
    """``var * scale + offset`` — the canonical strided access."""

    var: str
    scale: int = 1
    offset: int = 0

    def evaluate(self, env: Dict[str, int]) -> int:
        return env[self.var] * self.scale + self.offset

    def free_vars(self) -> FrozenSet[str]:
        return frozenset((self.var,)) if self.scale != 0 else frozenset()


@dataclass(frozen=True)
class Indirect(IndexExpr):
    """``table[inner]`` — irregular/gather access through an index table.

    Models pointer chases and permutation traversals (TSP's tree walk,
    Health's patient lists) without needing heap pointers in the IR.
    """

    table: Tuple[int, ...]
    inner: IndexExpr

    def evaluate(self, env: Dict[str, int]) -> int:
        return self.table[self.inner.evaluate(env)]

    def free_vars(self) -> FrozenSet[str]:
        return self.inner.free_vars()

    @classmethod
    def of(cls, table: Sequence[int], inner: IndexExpr) -> "Indirect":
        return cls(tuple(table), inner)


@dataclass(frozen=True)
class Mod(IndexExpr):
    """``inner mod modulus`` — wraps an index into a smaller table."""

    inner: IndexExpr
    modulus: int

    def evaluate(self, env: Dict[str, int]) -> int:
        return self.inner.evaluate(env) % self.modulus

    def free_vars(self) -> FrozenSet[str]:
        return self.inner.free_vars()


def affine(var: str, scale: int = 1, offset: int = 0) -> Affine:
    """Convenience constructor used throughout the workloads."""
    return Affine(var, scale, offset)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base statement. ``ip`` is assigned by :meth:`Program.finalize`."""

    line: int
    ip: int = dc_field(default=0, init=False)


@dataclass
class Access(Stmt):
    """A load or store of ``array[index].field``.

    ``field`` is None for scalar arrays (bound to a single implicit
    field by the workload builder).
    """

    array: str = ""
    field: Optional[str] = None
    index: IndexExpr = Const(0)
    is_write: bool = False

    def __post_init__(self) -> None:
        if not self.array:
            raise ValueError("Access requires an array name")


@dataclass
class Compute(Stmt):
    """Non-memory work costing ``cycles`` CPU cycles per execution."""

    cycles: float = 1.0


@dataclass
class Call(Stmt):
    """A call to another function in the program.

    ``args`` names pointer variables (bound by :class:`AddrOf`) the
    caller passes to the callee — the IR's calling convention for
    escaping addresses. The interpreter copies the whole environment
    into the callee either way; ``args`` is what the *static* analyses
    propagate, so a pointer used by a callee without being passed is a
    malformed workload the linter reports.
    """

    callee: str = ""
    args: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.callee:
            raise ValueError("Call requires a callee name")
        self.args = tuple(self.args)


@dataclass
class AddrOf(Stmt):
    """Take the address ``&array[index].field`` into variable ``dest``.

    ``field`` None takes the whole record's base address (``&array[i]``)
    — the pattern that makes structure splitting illegal outright. An
    AddrOf emits no trace item; it only binds ``dest`` in the
    environment for later :class:`PtrAccess` statements or for passing
    to a callee via :attr:`Call.args`.
    """

    dest: str = ""
    array: str = ""
    field: Optional[str] = None
    index: IndexExpr = Const(0)

    def __post_init__(self) -> None:
        if not self.dest:
            raise ValueError("AddrOf requires a destination variable")
        if not self.array:
            raise ValueError("AddrOf requires an array name")


@dataclass
class PtrAccess(Stmt):
    """A load or store through a pointer: ``*(ptr + offset)``.

    ``ptr`` must have been bound by an :class:`AddrOf` (directly, or in
    a caller that passed it via :attr:`Call.args`); ``offset`` is a
    byte displacement, which is how the IR expresses pointer arithmetic
    that can walk across field boundaries.
    """

    ptr: str = ""
    offset: int = 0
    size: int = 8
    is_write: bool = False

    def __post_init__(self) -> None:
        if not self.ptr:
            raise ValueError("PtrAccess requires a pointer variable")
        if self.size <= 0:
            raise ValueError("PtrAccess size must be positive")


@dataclass
class Loop(Stmt):
    """A counted loop ``for var in range(start, stop, step)``.

    ``line`` is the loop header's source line; ``end_line`` the last
    body line — together they give the source range the paper reports
    (e.g. ART's hot loop "615-616"). A ``parallel`` loop distributes its
    iterations over the interpreter's worker threads with a static
    schedule, like an OpenMP ``parallel for``.
    """

    var: str = "i"
    start: int = 0
    stop: int = 0
    step: int = 1
    body: List[Stmt] = dc_field(default_factory=list)
    end_line: int = 0
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.step == 0:
            raise ValueError("loop step must be nonzero")
        if not self.end_line:
            self.end_line = self.line

    @property
    def trip_count(self) -> int:
        span = self.stop - self.start
        if self.step > 0:
            return max(0, -(-span // self.step))
        return max(0, -(span // -self.step))

    @property
    def line_range(self) -> Tuple[int, int]:
        return (self.line, self.end_line)


@dataclass
class Function:
    """A named function with a straight-line body of statements."""

    name: str
    body: List[Stmt]
    line: int = 0


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


class Program:
    """A complete workload: functions plus an entry point.

    Call :meth:`finalize` after construction to assign instruction
    pointers; the interpreter and the CFG lowering both require it.
    """

    def __init__(self, name: str, functions: Sequence[Function], entry: str = "main"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        for fn in functions:
            if fn.name in self.functions:
                raise ValueError(f"duplicate function {fn.name!r}")
            self.functions[fn.name] = fn
        if entry not in self.functions:
            raise ValueError(f"entry function {entry!r} not defined")
        self.entry = entry
        self._finalized = False
        self._ip_to_stmt: Dict[int, Stmt] = {}
        self._function_ip_ranges: Dict[str, Tuple[int, int]] = {}

    # -- IP assignment ----------------------------------------------------

    def finalize(self) -> "Program":
        """Assign a unique, ordered IP to every statement."""
        next_ip = TEXT_BASE
        for fn in self.functions.values():
            fn_start = next_ip
            next_ip = self._assign(fn.body, next_ip)
            self._function_ip_ranges[fn.name] = (fn_start, next_ip)
        self._finalized = True
        return self

    def _assign(self, body: Sequence[Stmt], next_ip: int) -> int:
        for stmt in body:
            stmt.ip = next_ip
            self._ip_to_stmt[next_ip] = stmt
            next_ip += IP_STRIDE
            if isinstance(stmt, Loop):
                next_ip = self._assign(stmt.body, next_ip)
        return next_ip

    @property
    def finalized(self) -> bool:
        return self._finalized

    def require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError(f"program {self.name!r} was not finalized")

    # -- queries ------------------------------------------------------------

    def stmt_at(self, ip: int) -> Stmt:
        self.require_finalized()
        return self._ip_to_stmt[ip]

    def function_of_ip(self, ip: int) -> Optional[str]:
        self.require_finalized()
        for name, (lo, hi) in self._function_ip_ranges.items():
            if lo <= ip < hi:
                return name
        return None

    def walk(self) -> Iterator[Tuple[str, Stmt]]:
        """Yield ``(function_name, stmt)`` for every statement, pre-order."""

        def rec(fname: str, body: Sequence[Stmt]) -> Iterator[Tuple[str, Stmt]]:
            for stmt in body:
                yield fname, stmt
                if isinstance(stmt, Loop):
                    yield from rec(fname, stmt.body)

        for fn in self.functions.values():
            yield from rec(fn.name, fn.body)

    def walk_with_loops(self) -> Iterator[Tuple[str, Stmt, Tuple[Loop, ...]]]:
        """Yield ``(function_name, stmt, enclosing_loops)`` pre-order.

        ``enclosing_loops`` is the chain of :class:`Loop` statements
        around ``stmt`` within its function, outermost first — the loop
        nest a static analysis evaluates index expressions against.
        Loops themselves are yielded with the stack *around* them (not
        including themselves).
        """

        def rec(
            fname: str, body: Sequence[Stmt], stack: Tuple[Loop, ...]
        ) -> Iterator[Tuple[str, Stmt, Tuple[Loop, ...]]]:
            for stmt in body:
                yield fname, stmt, stack
                if isinstance(stmt, Loop):
                    yield from rec(fname, stmt.body, stack + (stmt,))

        for fn in self.functions.values():
            yield from rec(fn.name, fn.body, ())

    def loops(self) -> List[Loop]:
        """All loops in the program, pre-order."""
        return [s for _, s in self.walk() if isinstance(s, Loop)]

    def accesses(self) -> List[Access]:
        return [s for _, s in self.walk() if isinstance(s, Access)]

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, functions={list(self.functions)}, "
            f"loops={len(self.loops())}, accesses={len(self.accesses())})"
        )


StmtLike = Union[Access, AddrOf, Compute, Call, Loop, PtrAccess]
