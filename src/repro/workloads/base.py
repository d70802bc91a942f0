"""Shared machinery for the §6 benchmark models.

Each workload reproduces one paper benchmark's *memory behaviour*: the
same structures (field names, types, order), the same hot loops (source
line ranges and field sets), and per-loop work calibrated to the
latency shares the paper reports. A workload builds two variants of the
same IR program: ``original`` (one array of the full structure) and
``split`` (arrays per the supplied split plans) — only the layout
bindings differ, so speedups measure layout alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..layout.splitting import SplitPlan, apply_split
from ..layout.struct import StructType
from ..program.builder import BoundProgram, WorkloadBuilder
from ..program.ir import Function


class PaperWorkload:
    """Base class for the seven Table 2 benchmarks.

    Subclasses define:

    - ``name`` and ``num_threads`` (4 for the parallel benchmarks);
    - :meth:`target_structs` — logical array name -> source StructType;
    - :meth:`paper_plans` — the split the paper applied (Figures 7-13),
      used by validation tests and as a fallback;
    - :meth:`_populate` — register arrays on the builder and return the
      program's functions.

    ``scale`` shrinks array sizes and repetition counts together so unit
    tests run in milliseconds while benchmarks run at paper-like sizes.
    """

    name: str = ""
    num_threads: int = 1
    #: Sampling period the experiments use for this workload, chosen so
    #: every hot stream collects well over 10 unique samples (the Eq 4
    #: threshold) at the simulated trace length.
    recommended_period: int = 512
    #: True for the adversarial zoo members: profitable to split by
    #: Eq 7, but the split-safety verifier must flag them UNSAFE.
    expected_unsafe: bool = False

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    # -- subclass interface ------------------------------------------------

    def target_structs(self) -> Dict[str, StructType]:
        raise NotImplementedError

    def paper_plans(self) -> Dict[str, SplitPlan]:
        raise NotImplementedError

    def _populate(
        self,
        builder: WorkloadBuilder,
        plans: Dict[str, SplitPlan],
    ) -> List[Function]:
        """Register arrays (split or not per ``plans``) and build the IR."""
        raise NotImplementedError

    # -- scaling helpers -----------------------------------------------------

    def scaled(self, n: int, *, minimum: int = 1) -> int:
        """Scale a size/repetition count, but never below ``minimum``."""
        return max(minimum, int(round(n * self.scale)))

    def register_struct_array(
        self,
        builder: WorkloadBuilder,
        struct: StructType,
        count: int,
        array_name: str,
        plans: Dict[str, SplitPlan],
        *,
        call_path: Tuple[str, ...] = (),
    ) -> None:
        """Allocate ``array_name`` whole or split, per ``plans``."""
        plan = plans.get(array_name)
        if plan is None or plan.is_identity():
            builder.add_aos(struct, count, name=array_name, call_path=call_path)
        else:
            layout = apply_split(struct, plan)
            builder.add_split_aos(layout, count, name=array_name, call_path=call_path)

    # -- linting -------------------------------------------------------------

    def lint_suppressions(self) -> Tuple:
        """Acknowledged lint findings for this workload.

        Subclasses return :class:`repro.static.lint.Suppression` entries
        for patterns that are *intentional* — chiefly the cold fields the
        paper's benchmarks deliberately carry (the very fields structure
        splitting exists to move out of the way). Default: none.
        """
        return ()

    # -- variant builders -----------------------------------------------------

    def build(self, plans: Optional[Dict[str, SplitPlan]] = None) -> BoundProgram:
        plans = plans or {}
        variant = "split" if plans else "original"
        builder = WorkloadBuilder(self.name, variant=variant)
        functions = self._populate(builder, plans)
        return builder.build(functions)

    def build_original(self) -> BoundProgram:
        return self.build(None)

    def build_split(self, plans: Dict[str, SplitPlan]) -> BoundProgram:
        return self.build(plans)

    def build_paper_split(self) -> BoundProgram:
        """The split exactly as published (Figures 7-13)."""
        return self.build(self.paper_plans())


@dataclass(frozen=True)
class LoopSpec:
    """Declarative description of one hot loop from a §6 narrative."""

    lines: Tuple[int, int]
    fields: Tuple[str, ...]
    repetitions: int
    compute_cycles: float = 0.0


def permuted_indices(
    count: int, *, seed: int, window: Optional[int] = None
) -> Tuple[int, ...]:
    """A deterministic pseudo-random permutation of [0, count).

    Used for pointer-chasing traversals (TSP's tour, Health's patient
    lists, MSER's union-find): the traversal order is irregular but the
    visited nodes still sit in one contiguous allocation, which is why
    the GCD algorithm recovers the structure size anyway.

    With ``window``, indices are only shuffled within consecutive blocks
    of that size — a list that is *mostly* in allocation order, the
    shape of Health's patient lists (nodes malloc'd as admitted and
    rarely reordered), which retains most spatial locality.
    """
    import random

    rng = random.Random(seed)
    if window is None or window >= count:
        order = list(range(count))
        rng.shuffle(order)
        return tuple(order)
    if window < 1:
        raise ValueError("window must be >= 1")
    order = []
    for start in range(0, count, window):
        block = list(range(start, min(start + window, count)))
        rng.shuffle(block)
        order.extend(block)
    return tuple(order)
