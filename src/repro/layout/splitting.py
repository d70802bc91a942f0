"""The structure-splitting transform.

Given an original :class:`StructType` and a :class:`SplitPlan` (a
partition of its fields into groups), produce the split layout: one new
structure per group, exactly as a programmer applies StructSlim's
advice (Figures 7–13 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .struct import StructType, subset_struct


@dataclass(frozen=True)
class SplitPlan:
    """A partition of a structure's fields into new structures.

    ``groups`` is an ordered tuple of field-name tuples. Every field of
    the original structure must appear in exactly one group; singleton
    groups are allowed (the ART split in Figure 7 produces four of them).
    """

    struct_name: str
    groups: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        seen: Dict[str, int] = {}
        for gi, group in enumerate(self.groups):
            if not group:
                raise ValueError("split plan contains an empty group")
            for name in group:
                if name in seen:
                    raise ValueError(
                        f"field {name!r} appears in groups {seen[name]} and {gi}"
                    )
                seen[name] = gi

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(n for g in self.groups for n in g)

    def group_of(self, field_name: str) -> int:
        for gi, group in enumerate(self.groups):
            if field_name in group:
                return gi
        raise KeyError(f"field {field_name!r} not in plan for {self.struct_name!r}")

    def is_identity(self) -> bool:
        """True when the plan keeps all fields in a single structure."""
        return len(self.groups) == 1

    def describe(self) -> str:
        parts = ["{" + ", ".join(g) + "}" for g in self.groups]
        return f"split {self.struct_name} -> " + " | ".join(parts)


def identity_plan(struct: StructType) -> SplitPlan:
    """The no-op plan that keeps the structure intact."""
    return SplitPlan(struct.name, (struct.field_names,))


def maximal_plan(struct: StructType) -> SplitPlan:
    """Maximal splitting: every field in its own structure.

    This is the Wang et al. [32] comparator the paper argues is
    sub-optimal because it ignores field affinities.
    """
    return SplitPlan(struct.name, tuple((n,) for n in struct.field_names))


@dataclass(frozen=True)
class SplitLayout:
    """The result of applying a :class:`SplitPlan`.

    ``structs`` holds one new StructType per plan group; ``field_map``
    maps each original field name to ``(group_index, new_struct)``.
    """

    original: StructType
    plan: SplitPlan
    structs: Tuple[StructType, ...]

    @property
    def field_map(self) -> Dict[str, Tuple[int, StructType]]:
        mapping: Dict[str, Tuple[int, StructType]] = {}
        for gi, st in enumerate(self.structs):
            for f in st.fields:
                mapping[f.name] = (gi, st)
        return mapping


def apply_split(
    struct: StructType,
    plan: SplitPlan,
    *,
    names: Optional[Sequence[str]] = None,
) -> SplitLayout:
    """Apply ``plan`` to ``struct`` and return the split layout.

    Raises ValueError unless the plan's fields are exactly the struct's
    fields (a partition). ``names`` optionally overrides the generated
    per-group structure names.
    """
    if plan.struct_name != struct.name:
        raise ValueError(
            f"plan targets {plan.struct_name!r} but struct is {struct.name!r}"
        )
    plan_fields = set(plan.field_names)
    struct_fields = set(struct.field_names)
    if plan_fields != struct_fields:
        extra = plan_fields - struct_fields
        missing = struct_fields - plan_fields
        raise ValueError(
            f"plan is not a partition of {struct.name!r}: "
            f"extra={sorted(extra)}, missing={sorted(missing)}"
        )
    if names is not None and len(names) != len(plan.groups):
        raise ValueError("names must match the number of plan groups")

    new_structs: List[StructType] = []
    for gi, group in enumerate(plan.groups):
        name = names[gi] if names else f"{struct.name}_{gi}"
        new_structs.append(subset_struct(struct, group, name=name))
    return SplitLayout(struct, plan, tuple(new_structs))
