"""A workload for the array-regrouping extension (§7 future work).

An n-body-style kernel in SoA form: the force loop reads ``ax``,
``ay``, ``az`` of the same element every iteration (three separate
arrays, three cache lines per iteration), while an unrelated analysis
pass reads ``mass`` alone. Regrouping advice should interleave the
three coordinate arrays — and leave ``mass`` out, because gluing a
rarely-co-accessed array in would re-create the problem structure
splitting exists to fix.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..layout.struct import StructType
from ..layout.types import DOUBLE
from ..program.builder import BoundProgram, WorkloadBuilder
from ..program.ir import Access, Compute, Function, Indirect, Loop, affine
from .base import permuted_indices

#: The interleaved element regrouping produces.
COORDS = StructType("coords", [("x", DOUBLE), ("y", DOUBLE), ("z", DOUBLE)])


class RegroupingWorkload:
    """SoA force kernel with a regrouping opportunity."""

    name = "nbody-soa"
    num_threads = 1
    recommended_period = 313

    BASE_BODIES = 16384

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    @property
    def bodies(self) -> int:
        return max(64, int(round(self.BASE_BODIES * self.scale)))

    def lint_suppressions(self) -> Tuple:
        """No acknowledged findings: the SoA kernel lints clean."""
        return ()

    def _program(self, builder: WorkloadBuilder) -> List[Function]:
        n = self.bodies
        # The force loop walks a neighbour list: a gather. In SoA form
        # every visited body costs three cache lines (one per array);
        # interleaved, the same three reads usually share one line --
        # the regrouping win ArrayTool targets.
        neighbours = Indirect(permuted_indices(n, seed=2077), affine("i"))
        body = [
            Loop(line=30, var="r", start=0, stop=12, end_line=36, body=[
                Compute(line=30, cycles=24.0 * n),
                Loop(line=31, var="i", start=0, stop=n, end_line=35, body=[
                    Access(line=32, array="ax", index=neighbours),
                    Access(line=33, array="ay", index=neighbours),
                    Access(line=34, array="az", index=neighbours),
                ]),
            ]),
            # The mass statistics pass: mass alone, occasionally.
            Loop(line=50, var="r", start=0, stop=2, end_line=53, body=[
                Compute(line=50, cycles=8.0 * n),
                Loop(line=51, var="i", start=0, stop=n, end_line=52, body=[
                    Access(line=52, array="mass", index=affine("i")),
                ]),
            ]),
        ]
        return [Function("main", body, line=20)]

    def build_original(self) -> BoundProgram:
        builder = WorkloadBuilder(self.name, variant="original")
        for array in ("ax", "ay", "az", "mass"):
            builder.add_scalar(array, DOUBLE, self.bodies,
                               call_path=("main", "alloc"))
        return builder.build(self._program(builder))

    def build_regrouped(
        self, members: Optional[Tuple[str, ...]] = None
    ) -> BoundProgram:
        """Apply the interleaving: ``members`` share one AoS."""
        members = members or ("ax", "ay", "az")
        field_names = ["x", "y", "z", "w"][: len(members)]
        struct = StructType("coords", [(f, DOUBLE) for f in field_names])
        builder = WorkloadBuilder(self.name, variant="regrouped")
        combined = builder.add_aos(struct, self.bodies, name="coords",
                                   call_path=("main", "alloc"))
        for array, field_name in zip(members, field_names):
            builder.bindings.bind_alias(array, combined, field_name)
        for array in ("ax", "ay", "az", "mass"):
            if array not in members:
                builder.add_scalar(array, DOUBLE, self.bodies,
                                   call_path=("main", "alloc"))
        return builder.build(self._program(builder))
