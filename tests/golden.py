"""Paper-scale golden artifacts: the Table 3/4 JSON and ART's analysis.

``tests/integration/test_golden_artifacts.py`` byte-compares the live
CLI output against the committed files.  Every walk path the default
machine takes at paper scale feeds these numbers, so the comparison is
also the end-to-end parity check across those paths.  The prefetch,
TLB and random-replacement machines feed none of them; the ablation
machines' engine parity is checked at workload scale in
``tests/integration/test_engine_parity.py``.

Refresh after an intended change to a paper number::

    make golden          # or: PYTHONPATH=src python -m tests.golden

which rewrites both files and prints every number that moved.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"

#: ``{golden file: repro CLI argv}``.
GOLDENS = {
    "golden_table3.json": ["table3", "--json", "--scale", "1.0"],
    "golden_analyze_art.json": ["analyze", "179.ART", "--json"],
}


def render(argv) -> str:
    """The CLI's stdout for ``argv``, with progress output suppressed."""
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv) + ["--quiet"], out=out)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return out.getvalue()


def numeric_diff(old, new, path="$"):
    """``[(json path, old, new)]`` for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        rows = []
        for key in sorted(set(old) | set(new)):
            rows += numeric_diff(
                old.get(key), new.get(key), f"{path}.{key}"
            )
        return rows
    if isinstance(old, list) and isinstance(new, list):
        rows = []
        for i in range(max(len(old), len(new))):
            rows += numeric_diff(
                old[i] if i < len(old) else None,
                new[i] if i < len(new) else None,
                f"{path}[{i}]",
            )
        return rows
    return [] if old == new else [(path, old, new)]


def refresh() -> None:
    """Rewrite every golden file and print each value that moved."""
    for name, argv in GOLDENS.items():
        target = DATA / name
        text = render(argv)
        if not target.exists():
            target.write_text(text)
            print(f"{name}: created")
            continue
        rows = numeric_diff(json.loads(target.read_text()), json.loads(text))
        target.write_text(text)
        print(f"{name}: {len(rows)} value(s) changed")
        for where, before, after in rows:
            delta = ""
            if isinstance(before, (int, float)) and isinstance(
                after, (int, float)
            ):
                delta = f"  ({after - before:+g})"
            print(f"  {where}: {before!r} -> {after!r}{delta}")


if __name__ == "__main__":
    refresh()
