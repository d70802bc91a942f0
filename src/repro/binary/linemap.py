"""Binary-to-source line mapping (the role DWARF plays for StructSlim).

The paper compiles benchmarks with ``-g`` so the offline analyzer can
map instruction pointers back to source lines. Our synthetic binaries
carry the same mapping: every IR statement knows its line, and this
module packages the lookup in one place so the analyzer never touches
the IR directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..program.ir import Program


class LineMap:
    """IP -> (function, source line) lookup for one program."""

    def __init__(self, program: Program) -> None:
        program.require_finalized()
        self._lines: Dict[int, int] = {}
        self._functions: Dict[int, str] = {}
        for fname, stmt in program.walk():
            self._lines[stmt.ip] = stmt.line
            self._functions[stmt.ip] = fname
        self.program_name = program.name

    def location(self, ip: int) -> Tuple[Optional[str], Optional[int]]:
        return self._functions.get(ip), self._lines.get(ip)

    def __contains__(self, ip: object) -> bool:
        return ip in self._lines

    def __len__(self) -> int:
        return len(self._lines)
