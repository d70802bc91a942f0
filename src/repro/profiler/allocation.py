"""Data-object registry: the data-centric attribution substrate.

Mirrors §4 of the paper: static data objects are identified by their
names in the symbol table; heap objects by the call path of their
allocation. Stack data is not monitored. The registry answers "which
data object does this effective address belong to" for the interrupt
handler, and exposes the object's base address for Eq 6's offset
computation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..layout.address_space import AddressSpace, Allocation


@dataclass(frozen=True)
class DataObject:
    """One monitored data object (a static symbol or a heap allocation)."""

    id: int
    name: str
    base: int
    size: int
    kind: str  # "static" or "heap"
    call_path: Tuple[str, ...] = ()

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    @property
    def identity(self) -> Tuple[str, ...]:
        """The cross-thread identity key (§4.4): static objects merge by
        name, heap objects by allocation call path."""
        if self.kind == "static":
            return ("static", self.name)
        return ("heap",) + self.call_path + (self.name,)


class DataObjectRegistry:
    """Sorted registry of data objects with O(log n) address lookup."""

    def __init__(self) -> None:
        self._objects: List[DataObject] = []
        self._starts: List[int] = []

    @classmethod
    def from_address_space(cls, space: AddressSpace) -> "DataObjectRegistry":
        """Register every allocation, as the interposed allocator would."""
        registry = cls()
        for alloc in space.allocations:
            registry.register(alloc)
        return registry

    def register(self, alloc: Allocation) -> DataObject:
        obj = DataObject(
            id=len(self._objects),
            name=alloc.name,
            base=alloc.base,
            size=alloc.size,
            kind="static" if alloc.segment == "static" else "heap",
            call_path=alloc.call_path,
        )
        idx = bisect_right(self._starts, obj.base)
        self._starts.insert(idx, obj.base)
        self._objects.insert(idx, obj)
        # Re-number ids to stay aligned with sorted order.
        for i, existing in enumerate(self._objects):
            if existing.id != i:
                self._objects[i] = DataObject(
                    i,
                    existing.name,
                    existing.base,
                    existing.size,
                    existing.kind,
                    existing.call_path,
                )
        return self._objects[idx]

    def find(self, address: int) -> Optional[DataObject]:
        idx = bisect_right(self._starts, address) - 1
        if idx < 0:
            return None
        obj = self._objects[idx]
        return obj if obj.contains(address) else None

    def object(self, object_id: int) -> DataObject:
        return self._objects[object_id]

    @property
    def objects(self) -> Tuple[DataObject, ...]:
        return tuple(self._objects)

    def __len__(self) -> int:
        return len(self._objects)
