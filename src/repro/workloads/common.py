"""Loop-pattern helpers shared by the benchmark models.

Two access shapes cover all seven §6 benchmarks:

- *field sweeps*: strided walks over an array-of-structs touching a
  fixed field set per loop (ART, libquantum, CLOMP's value pass, NN);
- *chases*: pointer-style traversals in an irregular but fixed order
  (TSP's tour, MSER's union-find, Health's patient lists).

Each hot loop is wrapped in a repetition loop so per-loop latency
shares can be calibrated against the paper's tables; a per-repetition
compute burst models the benchmark's ALU work (which sets the
overhead percentages — memory-lean programs sample less per cycle).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..program.ir import Access, Affine, Compute, Indirect, Loop, Mod, affine
from .base import LoopSpec


def field_sweep(
    spec: LoopSpec,
    array: str,
    n: int,
    *,
    stagger: bool = True,
    parallel: bool = False,
    writes: Sequence[str] = (),
) -> Loop:
    """A repeated strided walk touching ``spec.fields`` of ``array``.

    With ``stagger`` (the default), each field walks the array from a
    different starting element so concurrently-accessed fields don't
    share cache lines within an iteration; this models large production
    loops whose per-field references are far apart in the instruction
    stream, and keeps per-field latency shares balanced the way the
    paper's tables report them.
    """
    line, end_line = spec.lines
    var = f"i{line}"
    accesses: list = []
    num_fields = len(spec.fields)
    for k, field in enumerate(spec.fields):
        shift = (k * n) // num_fields if stagger and num_fields > 1 else 0
        index = Mod(Affine(var, 1, shift), n) if shift else affine(var)
        accesses.append(
            Access(
                line=line if k == 0 else end_line,
                array=array,
                field=field,
                index=index,
                is_write=field in writes,
            )
        )
    inner = Loop(
        line=line,
        var=var,
        start=0,
        stop=n,
        body=accesses,
        end_line=end_line,
        parallel=parallel,
    )
    rep_body: list = []
    if spec.compute_cycles > 0:
        rep_body.append(Compute(line=line, cycles=spec.compute_cycles * n))
    rep_body.append(inner)
    return Loop(
        line=line,
        var=f"r{line}",
        start=0,
        stop=spec.repetitions,
        body=rep_body,
        end_line=end_line,
    )


def chase_pass(
    spec: LoopSpec,
    array: str,
    order: Tuple[int, ...],
    *,
    parallel: bool = False,
    writes: Sequence[str] = (),
) -> Loop:
    """A repeated traversal of ``array`` in the fixed irregular ``order``.

    All fields are read from the *same* element each iteration (a node
    visit), with the first listed field taking the miss — matching how
    a pointer chase's link field gates the visit (TSP's ``next`` at
    80.7% of latency vs its co-accessed ``x``/``y``).
    """
    line, end_line = spec.lines
    var = f"i{line}"
    n = len(order)
    accesses = [
        Access(
            line=line if k == 0 else end_line,
            array=array,
            field=field,
            index=Indirect(order, affine(var)),
            is_write=field in writes,
        )
        for k, field in enumerate(spec.fields)
    ]
    inner = Loop(
        line=line,
        var=var,
        start=0,
        stop=n,
        body=accesses,
        end_line=end_line,
        parallel=parallel,
    )
    rep_body: list = []
    if spec.compute_cycles > 0:
        rep_body.append(Compute(line=line, cycles=spec.compute_cycles * n))
    rep_body.append(inner)
    return Loop(
        line=line,
        var=f"r{line}",
        start=0,
        stop=spec.repetitions,
        body=rep_body,
        end_line=end_line,
    )


def scalar_sweep(
    line: int,
    array: str,
    n: int,
    repetitions: int,
    *,
    stride: int = 1,
    end_line: Optional[int] = None,
    compute_cycles: float = 0.0,
    is_write: bool = False,
) -> Loop:
    """A repeated walk over a scalar array, ``stride`` elements apart.

    ``n`` is the iteration count; the array must hold ``n * stride``
    elements. A stride of 8 over doubles touches one fresh cache line
    per iteration — the shape of a column-major matrix walk.
    """
    var = f"i{line}"
    inner = Loop(
        line=line,
        var=var,
        start=0,
        stop=n,
        body=[
            Access(
                line=line,
                array=array,
                field=None,
                index=affine(var, stride),
                is_write=is_write,
            )
        ],
        end_line=end_line or line,
    )
    rep_body: list = []
    if compute_cycles > 0:
        rep_body.append(Compute(line=line, cycles=compute_cycles * n))
    rep_body.append(inner)
    return Loop(
        line=line,
        var=f"r{line}",
        start=0,
        stop=repetitions,
        body=rep_body,
        end_line=end_line or line,
    )
