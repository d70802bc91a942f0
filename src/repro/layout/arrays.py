"""Array-of-structure addressing.

An :class:`ArrayOfStructs` binds a :class:`~repro.layout.struct.StructType`
to an allocation: its base, stride and size in bytes, from which the
interpreter computes the address of ``arr[i].f`` as ``base + i * stride
+ offset_of(f)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .address_space import Allocation, AddressSpace
from .struct import StructType


class ArrayOfStructs:
    """A contiguous array whose elements are a structure type."""

    def __init__(self, struct: StructType, count: int, allocation: Allocation) -> None:
        if count <= 0:
            raise ValueError("array count must be positive")
        needed = struct.size * count
        if allocation.size < needed:
            raise ValueError(
                f"allocation {allocation.name!r} holds {allocation.size} bytes, "
                f"but {count} x {struct.name} needs {needed}"
            )
        self.struct = struct
        self.count = count
        self.allocation = allocation

    @classmethod
    def allocate(
        cls,
        space: AddressSpace,
        struct: StructType,
        count: int,
        *,
        name: Optional[str] = None,
        segment: str = "heap",
        call_path: Tuple[str, ...] = (),
    ) -> "ArrayOfStructs":
        """Allocate backing storage in ``space`` and wrap it."""
        alloc = space.allocate(
            name or struct.name,
            struct.size * count,
            align=max(64, struct.align),
            segment=segment,
            call_path=call_path,
        )
        return cls(struct, count, alloc)

    @property
    def base(self) -> int:
        return self.allocation.base

    @property
    def stride(self) -> int:
        """Distance in bytes between the same field of adjacent elements."""
        return self.struct.size

    @property
    def size_bytes(self) -> int:
        return self.struct.size * self.count

    def __repr__(self) -> str:
        return (
            f"ArrayOfStructs({self.struct.name}[{self.count}] "
            f"@ {self.base:#x}, stride={self.stride})"
        )
