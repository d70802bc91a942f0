"""Symbol tables for static data objects.

StructSlim identifies static data objects by their names in the
binary's symbol table (the paper, §4: "The names of static data objects
in the symbol table ... are used to uniquely identify data objects").
We synthesize the same table from the workload's static allocations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..layout.address_space import AddressSpace


@dataclass(frozen=True)
class Symbol:
    """One data symbol: a named address range."""

    name: str
    address: int
    size: int

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end


class SymbolTable:
    """Sorted, queryable collection of data symbols."""

    def __init__(self, symbols: Tuple[Symbol, ...] = ()) -> None:
        self._symbols: List[Symbol] = sorted(symbols, key=lambda s: s.address)
        self._starts = [s.address for s in self._symbols]

    @classmethod
    def from_address_space(cls, space: AddressSpace) -> "SymbolTable":
        """Build the table from the static-segment allocations."""
        symbols = tuple(
            Symbol(a.name, a.base, a.size)
            for a in space.allocations
            if a.segment == "static"
        )
        return cls(symbols)

    def add(self, symbol: Symbol) -> None:
        idx = bisect_right(self._starts, symbol.address)
        self._starts.insert(idx, symbol.address)
        self._symbols.insert(idx, symbol)

    def lookup(self, name: str) -> Optional[Symbol]:
        for s in self._symbols:
            if s.name == name:
                return s
        return None

    def find(self, address: int) -> Optional[Symbol]:
        """The symbol whose range covers ``address``, or None."""
        idx = bisect_right(self._starts, address) - 1
        if idx < 0:
            return None
        sym = self._symbols[idx]
        return sym if sym.contains(address) else None

    def __iter__(self):
        return iter(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)
