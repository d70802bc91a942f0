"""The MESI directory's word encoding against a dict-of-dicts oracle.

``_ReferenceDirectory`` is the directory as it was before each line's
state became one integer word: a ``{core: "M"/"E"/"S"}`` dict per line.
Random read/write/evict sequences on 2-4 cores drive both, comparing
every return value, every core's state of every touched line, and the
protocol counters after each step.
"""

from typing import Dict, Optional

from hypothesis import given
from hypothesis import strategies as st

from repro.memsim.coherence import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    CoherenceStats,
    MESIDirectory,
)


class _ReferenceDirectory:
    """Per-line ``{core: state}`` dicts, with the same protocol (the
    re-read quirk included) as :class:`MESIDirectory`."""

    def __init__(self, *, c2c_latency: float = 40.0, upgrade_latency: float = 20.0):
        self._lines: Dict[int, Dict[int, str]] = {}
        self.c2c_latency = c2c_latency
        self.upgrade_latency = upgrade_latency
        self.stats = CoherenceStats()

    def state(self, core: int, line: int) -> Optional[str]:
        return self._lines.get(line, {}).get(core)

    def read(self, core: int, line: int) -> float:
        holders = self._lines.get(line)
        if not holders:
            self._lines[line] = {core: EXCLUSIVE}
            return 0.0
        extra = 0.0
        for other, state in holders.items():
            if other != core and state != SHARED:
                if state == MODIFIED:
                    self.stats.writebacks += 1
                    self.stats.cache_to_cache += 1
                    extra = self.c2c_latency
                holders[other] = SHARED
        holders[core] = SHARED
        return extra

    def write(self, core: int, line: int) -> float:
        holders = self._lines.setdefault(line, {})
        mine = holders.get(core)
        extra = 0.0
        if mine == MODIFIED:
            return 0.0
        for other, state in list(holders.items()):
            if other == core:
                continue
            if state == MODIFIED:
                self.stats.writebacks += 1
                self.stats.cache_to_cache += 1
                extra = max(extra, self.c2c_latency)
            self.stats.invalidations += 1
            self.stats.line_invalidations[line] = (
                self.stats.line_invalidations.get(line, 0) + 1
            )
            del holders[other]
        if mine == SHARED:
            self.stats.upgrades += 1
            extra = max(extra, self.upgrade_latency)
        holders[core] = MODIFIED
        return extra

    def evict(self, core: int, line: int) -> None:
        holders = self._lines.get(line)
        if not holders:
            return
        state = holders.pop(core, None)
        if state == MODIFIED:
            self.stats.writebacks += 1
        if not holders:
            del self._lines[line]


LINES = 2

operations = st.integers(min_value=2, max_value=4).flatmap(
    lambda cores: st.tuples(
        st.just(cores),
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "evict"]),
                st.integers(min_value=0, max_value=cores - 1),
                st.integers(min_value=0, max_value=LINES - 1),
            ),
            max_size=80,
        ),
    )
)


@given(operations)
def test_word_directory_matches_reference(case):
    cores, ops = case
    directory = MESIDirectory()
    reference = _ReferenceDirectory()
    for op, core, line in ops:
        assert getattr(directory, op)(core, line) == getattr(reference, op)(
            core, line
        )
        for other in range(cores):
            for touched in range(LINES):
                assert directory.state(other, touched) == reference.state(
                    other, touched
                )
        assert directory.stats == reference.stats
    # A line is held exactly when some core holds it.
    assert sorted(directory._lines) == sorted(reference._lines)
