"""Code-centric and data-centric profile views (§4.4).

"A user may view the aggregate execution profile in a code- or
data-centric manner, to focus either on hot code regions or hot data
structures." These views are the interactive half of the offline
analyzer: the same merged profile pivoted two ways, each rendered as an
indented hot-path tree like HPCToolkit's viewers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..binary.loopmap import LoopMap
from ..profiler.profile import ThreadProfile


@dataclass
class ViewNode:
    """One row of a view tree: a label, its latency, and children."""

    label: str
    latency: float = 0.0
    children: List["ViewNode"] = field(default_factory=list)

    def child(self, label: str) -> "ViewNode":
        for node in self.children:
            if node.label == label:
                return node
        node = ViewNode(label)
        self.children.append(node)
        return node

    def sort(self) -> None:
        self.children.sort(key=lambda n: -n.latency)
        for node in self.children:
            node.sort()

    def render(self, total: Optional[float] = None, indent: int = 0) -> str:
        total = total if total is not None else (self.latency or 1.0)
        share = self.latency / total if total else 0.0
        lines = [f"{'  ' * indent}{self.label}  {share:6.1%}  "
                 f"({self.latency:.0f} cycles)"]
        for node in self.children:
            lines.append(node.render(total, indent + 1))
        return "\n".join(lines)


def code_centric_view(
    profile: ThreadProfile,
    loop_map: Optional[LoopMap] = None,
) -> ViewNode:
    """function -> loop -> source line -> data object, by latency."""
    root = ViewNode("<program>")
    for stream in profile.streams.values():
        latency = stream.total_latency
        root.latency += latency
        if loop_map is not None and stream.loop_id is not None:
            desc = loop_map.loop(stream.loop_id)
            fn_node = root.child(desc.function)
            loop_node = fn_node.child(f"loop {desc.label}")
        else:
            fn_node = root.child("<unknown function>")
            loop_node = fn_node.child("<outside loops>")
        line_node = loop_node.child(f"line {stream.line}")
        data_node = line_node.child(stream.data_identity[-1])
        for node in (fn_node, loop_node, line_node, data_node):
            node.latency += latency
    root.sort()
    return root


def data_centric_view(
    profile: ThreadProfile,
    loop_map: Optional[LoopMap] = None,
) -> ViewNode:
    """data object -> allocation path -> loop, by latency."""
    root = ViewNode("<program>")
    for stream in profile.streams.values():
        latency = stream.total_latency
        root.latency += latency
        identity = stream.data_identity
        obj_node = root.child(identity[-1])
        path = " > ".join(identity[1:-1]) if len(identity) > 2 else identity[0]
        alloc_node = obj_node.child(f"allocated at: {path}")
        if loop_map is not None and stream.loop_id is not None:
            desc = loop_map.loop(stream.loop_id)
            loop_node = alloc_node.child(
                f"accessed in loop {desc.label} ({desc.function})"
            )
        else:
            loop_node = alloc_node.child("accessed outside loops")
        for node in (obj_node, alloc_node, loop_node):
            node.latency += latency
    root.sort()
    return root


def hot_paths(
    view: ViewNode, *, limit: int = 5
) -> List[Tuple[str, float]]:
    """The top leaf-to-root paths by latency, as (path, latency)."""
    paths: List[Tuple[str, float]] = []

    def walk(node: ViewNode, trail: Tuple[str, ...]) -> None:
        here = trail + (node.label,)
        if not node.children:
            paths.append((" / ".join(here), node.latency))
            return
        for child in node.children:
            walk(child, here)

    for child in view.children:
        walk(child, ())
    paths.sort(key=lambda p: -p[1])
    return paths[:limit]
