"""Program-structure files, in the spirit of hpcstruct.

The paper's profiler consumes a structure file produced by hpcstruct
(HPCToolkit): the binary's functions, loop nests with source-line
ranges, and statement line mappings, recovered from the machine code.
This module emits and parses the same information for our synthetic
binaries, so the profiler/analyzer handoff can be file-based end to
end (program structure + per-thread profiles), exactly like the real
toolchain.

The format is a small XML dialect modelled on hpcstruct's::

    <Structure program="art">
      <Function name="main" lines="100-800">
        <Loop lines="615-616" depth="1">
          <Statement ip="0x400120" line="616"/>
        </Loop>
      </Function>
    </Structure>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..program.ir import Program
from .loopmap import LoopDescriptor, LoopMap


@dataclass
class StructureFile:
    """Parsed program structure: what the analyzer needs from hpcstruct."""

    program: str
    #: function name -> (first line, last line)
    functions: Dict[str, Tuple[int, int]]
    #: loop id -> descriptor
    loops: Dict[int, LoopDescriptor]
    #: ip -> (line, innermost loop id or None)
    statements: Dict[int, Tuple[int, Optional[int]]]

    def loop_of_ip(self, ip: int) -> Optional[LoopDescriptor]:
        entry = self.statements.get(ip)
        if entry is None or entry[1] is None:
            return None
        return self.loops[entry[1]]


def emit_structure(program: Program, loop_map: Optional[LoopMap] = None) -> str:
    """Render a program's recovered structure as hpcstruct-style XML."""
    program.require_finalized()
    loop_map = loop_map or LoopMap(program)

    root = ET.Element("Structure", {"program": program.name})
    for fname, fn in program.functions.items():
        lines = [stmt.line for _, stmt in program.walk() if _ == fname] or [0]
        fn_el = ET.SubElement(
            root, "Function",
            {"name": fname, "lines": f"{min(lines)}-{max(lines)}"},
        )
        # Loop elements, flat with explicit ids/parents (simpler to
        # parse than nesting, carries the same tree).
        for desc in loop_map.loops:
            if desc.function != fname:
                continue
            ET.SubElement(
                fn_el, "Loop",
                {
                    "id": str(desc.id),
                    "lines": f"{desc.line_range[0]}-{desc.line_range[1]}",
                    "depth": str(desc.depth),
                    "parent": "" if desc.parent is None else str(desc.parent),
                    "irreducible": "1" if desc.irreducible else "0",
                },
            )
        for _, stmt in program.walk():
            if program.function_of_ip(stmt.ip) != fname:
                continue
            loop = loop_map.loop_of_ip(stmt.ip)
            ET.SubElement(
                fn_el, "Statement",
                {
                    "ip": hex(stmt.ip),
                    "line": str(stmt.line),
                    "loop": "" if loop is None else str(loop.id),
                },
            )
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def parse_structure(text: str) -> StructureFile:
    """Parse structure XML back into queryable form."""
    root = ET.fromstring(text)
    if root.tag != "Structure":
        raise ValueError(f"not a structure file (root <{root.tag}>)")
    functions: Dict[str, Tuple[int, int]] = {}
    loops: Dict[int, LoopDescriptor] = {}
    statements: Dict[int, Tuple[int, Optional[int]]] = {}

    for fn_el in root.findall("Function"):
        fname = fn_el.get("name", "")
        lo, hi = _parse_range(fn_el.get("lines", "0-0"))
        functions[fname] = (lo, hi)
        for loop_el in fn_el.findall("Loop"):
            loop_id = int(loop_el.get("id", "0"))
            parent_text = loop_el.get("parent", "")
            loops[loop_id] = LoopDescriptor(
                id=loop_id,
                function=fname,
                line_range=_parse_range(loop_el.get("lines", "0-0")),
                depth=int(loop_el.get("depth", "1")),
                parent=int(parent_text) if parent_text else None,
                irreducible=loop_el.get("irreducible") == "1",
            )
        for stmt_el in fn_el.findall("Statement"):
            ip = int(stmt_el.get("ip", "0x0"), 16)
            loop_text = stmt_el.get("loop", "")
            statements[ip] = (
                int(stmt_el.get("line", "0")),
                int(loop_text) if loop_text else None,
            )
    return StructureFile(
        program=root.get("program", ""),
        functions=functions,
        loops=loops,
        statements=statements,
    )


def _parse_range(text: str) -> Tuple[int, int]:
    lo, _, hi = text.partition("-")
    return (int(lo), int(hi or lo))
