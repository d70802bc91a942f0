"""Structure types with C-ABI field layout.

A :class:`StructType` computes each field's offset and the padded
structure size exactly as a C compiler would on x86-64: fields are laid
out in declaration order, each aligned to its natural alignment, and the
total size is rounded up to the largest member alignment so arrays of
the structure keep every element aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .types import PrimitiveType, align_up


@dataclass(frozen=True)
class Field:
    """A named structure member with its resolved layout."""

    name: str
    type: PrimitiveType
    offset: int

    @property
    def size(self) -> int:
        return self.type.size

    @property
    def end(self) -> int:
        """One past the last byte occupied by this field."""
        return self.offset + self.size


class StructType:
    """An aggregate C type laid out with System V x86-64 rules.

    Parameters
    ----------
    name:
        Type name used in advice output and data-centric attribution.
    fields:
        ``(field_name, primitive_type)`` pairs in declaration order.
    packed:
        If true, lay fields out with no padding (``__attribute__((packed))``).
    """

    def __init__(
        self,
        name: str,
        fields: Sequence[Tuple[str, PrimitiveType]],
        *,
        packed: bool = False,
    ) -> None:
        if not fields:
            raise ValueError(f"struct {name!r} must have at least one field")
        seen = set()
        for fname, _ in fields:
            if fname in seen:
                raise ValueError(f"struct {name!r} has duplicate field {fname!r}")
            seen.add(fname)

        self.name = name
        self.packed = packed
        self._fields: List[Field] = []
        offset = 0
        max_align = 1
        for fname, ftype in fields:
            if not packed:
                offset = align_up(offset, ftype.align)
            self._fields.append(Field(fname, ftype, offset))
            offset += ftype.size
            max_align = max(max_align, ftype.align)
        self.align = 1 if packed else max_align
        self.size = align_up(offset, self.align)

    # -- field access ----------------------------------------------------

    @property
    def fields(self) -> Tuple[Field, ...]:
        return tuple(self._fields)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self._fields)

    def field(self, name: str) -> Field:
        for f in self._fields:
            if f.name == name:
                return f
        raise KeyError(f"struct {self.name!r} has no field {name!r}")

    def offset_of(self, name: str) -> int:
        return self.field(name).offset

    def field_at_offset(self, offset: int) -> Optional[Field]:
        """The field whose byte range covers ``offset``, or None (padding)."""
        for f in self._fields:
            if f.offset <= offset < f.end:
                return f
        return None

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, name: object) -> bool:
        return any(f.name == name for f in self._fields)

    def __repr__(self) -> str:
        inner = "; ".join(f"{f.type} {f.name} @{f.offset}" for f in self._fields)
        return f"StructType({self.name!r}, size={self.size}, {{{inner}}})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructType):
            return NotImplemented
        return (
            self.name == other.name
            and self.packed == other.packed
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.name, self.packed, self.fields))

    # -- layout queries ---------------------------------------------------

    def c_declaration(self) -> str:
        """Render the structure as C source, for documentation output."""
        lines = [f"struct {self.name} {{"]
        for f in self._fields:
            lines.append(f"    {f.type} {f.name};")
        lines.append("};")
        return "\n".join(lines)


def subset_struct(
    base: StructType, field_names: Sequence[str], name: Optional[str] = None
) -> StructType:
    """Create a new struct containing only ``field_names`` from ``base``.

    Field declaration order follows ``base``'s order, not the order of
    ``field_names``, matching how a programmer would apply splitting
    advice without reordering.
    """
    chosen = [f for f in base.fields if f.name in set(field_names)]
    missing = set(field_names) - {f.name for f in chosen}
    if missing:
        raise KeyError(f"struct {base.name!r} has no fields {sorted(missing)}")
    new_name = name or (base.name + "_" + "".join(f.name[:1] for f in chosen))
    return StructType(new_name, [(f.name, f.type) for f in chosen], packed=base.packed)


@dataclass
class FieldLatencyProfile:
    """Per-field latency bookkeeping used by analyses and reports."""

    struct: StructType
    latency: Dict[str, float] = dc_field(default_factory=dict)

    def add(self, field_name: str, latency: float) -> None:
        self.struct.field(field_name)  # validate
        self.latency[field_name] = self.latency.get(field_name, 0.0) + latency

    def total(self) -> float:
        return sum(self.latency.values())

    def share(self, field_name: str) -> float:
        total = self.total()
        if total == 0:
            return 0.0
        return self.latency.get(field_name, 0.0) / total
