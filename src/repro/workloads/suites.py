"""Suite rosters for the overhead studies (Figures 4 and 5).

The paper monitors every Rodinia and SPEC CPU 2006 benchmark and plots
per-benchmark runtime overhead (~8.2% average for Rodinia, ~4.2% for
SPEC). We model each benchmark as a synthetic kernel whose three
knobs — thread count, ALU work per access, and access stride — set its
memory-access density, which is what determines sampling overhead under
our cost model. The per-kernel parameters are chosen from each
benchmark's published character (BFS is memory-bound and irregular,
povray is compute-bound, etc.); the per-benchmark overheads are then
*outputs* of the model, not inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..layout.types import DOUBLE
from ..program.builder import BoundProgram, WorkloadBuilder
from ..program.ir import Function
from .common import scalar_sweep
from .escape import EscapeWorkload
from .overlap import OverlapWorkload


@dataclass(frozen=True)
class KernelSpec:
    """One suite benchmark's synthetic stand-in.

    ``stride`` is in 8-byte elements: 8 touches a fresh cache line per
    access (streaming/irregular shape); 1 is a dense unit-stride walk
    (compute-friendly shape). ``work`` is ALU cycles per access.
    """

    name: str
    threads: int
    work: float
    stride: int = 8
    elems: int = 16384
    reps: int = 12

    def build(self) -> BoundProgram:
        builder = WorkloadBuilder(self.name)
        builder.add_scalar(
            "data", DOUBLE, self.elems * self.stride, call_path=("main",)
        )
        sweep = scalar_sweep(
            100,
            "data",
            self.elems,
            self.reps,
            stride=self.stride,
            compute_cycles=self.work,
        )
        if self.threads > 1:
            sweep.body[-1].parallel = True
        return builder.build([Function("main", [sweep], line=90)])


#: Rodinia 3.0 (OpenMP, run with 4 threads like the paper's setup).
#: work/stride reflect each benchmark's published compute-to-memory mix.
RODINIA_KERNELS: Tuple[KernelSpec, ...] = (
    KernelSpec("backprop", 4, work=47.6, stride=8),
    KernelSpec("bfs", 4, work=20.4, stride=8),
    KernelSpec("b+tree", 4, work=33.2, stride=8),
    KernelSpec("cfd", 4, work=62.0, stride=8),
    KernelSpec("heartwall", 4, work=76.0, stride=1),
    KernelSpec("hotspot", 4, work=32.8, stride=1),
    KernelSpec("hotspot3D", 4, work=38.0, stride=8),
    KernelSpec("kmeans", 4, work=45.6, stride=1),
    KernelSpec("lavaMD", 4, work=92.0, stride=1),
    KernelSpec("leukocyte", 4, work=80.0, stride=1),
    KernelSpec("lud", 4, work=42.4, stride=1),
    KernelSpec("myocyte", 4, work=108.0, stride=1),
    KernelSpec("nn", 4, work=31.6, stride=8),
    KernelSpec("nw", 4, work=28.4, stride=8),
    KernelSpec("particlefilter", 4, work=48.0, stride=1),
    KernelSpec("pathfinder", 4, work=26.8, stride=8),
    KernelSpec("srad", 4, work=36.0, stride=1),
    KernelSpec("streamcluster", 4, work=23.6, stride=8),
)

#: SPEC CPU 2006 (sequential).
SPEC_CPU2006_KERNELS: Tuple[KernelSpec, ...] = (
    KernelSpec("400.perlbench", 1, work=13.0, stride=1),
    KernelSpec("401.bzip2", 1, work=10.0, stride=8),
    KernelSpec("403.gcc", 1, work=12.0, stride=8),
    KernelSpec("429.mcf", 1, work=3.0, stride=8),
    KernelSpec("445.gobmk", 1, work=20.0, stride=1),
    KernelSpec("456.hmmer", 1, work=15.0, stride=1),
    KernelSpec("458.sjeng", 1, work=18.0, stride=1),
    KernelSpec("462.libquantum", 1, work=7.0, stride=8),
    KernelSpec("464.h264ref", 1, work=22.0, stride=1),
    KernelSpec("471.omnetpp", 1, work=6.0, stride=8),
    KernelSpec("473.astar", 1, work=8.0, stride=8),
    KernelSpec("483.xalancbmk", 1, work=11.0, stride=8),
    KernelSpec("433.milc", 1, work=14.0, stride=8),
    KernelSpec("444.namd", 1, work=35.0, stride=1),
    KernelSpec("447.dealII", 1, work=24.0, stride=1),
    KernelSpec("450.soplex", 1, work=9.0, stride=8),
    KernelSpec("453.povray", 1, work=42.5, stride=1),
    KernelSpec("470.lbm", 1, work=12.5, stride=8),
    KernelSpec("482.sphinx3", 1, work=19.0, stride=1),
)


#: Adversarial companions to the Table 2 set: workloads whose splits
#: are profitable by Eq 7 but illegal — the split-safety verifier must
#: refuse them. Keyed like TABLE2_WORKLOADS (name -> factory).
ADVERSARIAL_WORKLOADS: Dict[str, type] = {
    EscapeWorkload.name: EscapeWorkload,
    OverlapWorkload.name: OverlapWorkload,
}


def suite_by_name(suite: str) -> Tuple[KernelSpec, ...]:
    """'rodinia' or 'spec' -> its kernel roster."""
    if suite == "rodinia":
        return RODINIA_KERNELS
    if suite == "spec":
        return SPEC_CPU2006_KERNELS
    raise KeyError(f"unknown suite {suite!r}; expected 'rodinia' or 'spec'")
