"""Address-sample records — what one PMU interrupt delivers.

Per the paper (§2), address sampling captures three things per sampled
access: the instruction pointer, the effective address, and associated
memory events; PEBS-LL and IBS additionally report the access latency.
The sample also carries the thread and the source line/context the
profiler resolves at interrupt time.

A sampler keeps its samples in a :class:`SampleLog`: one stdlib
``array`` column per :class:`AddressSample` field, so a batch of samples
is appended by gathering whole columns and the collector folds them
without building one object per sample.
"""

from __future__ import annotations

from array import array
from typing import Iterator, NamedTuple, Optional


class AddressSample(NamedTuple):
    """One sampled memory access, as captured by the PMU interrupt handler."""

    seq: int  # index of the access within the whole run (debug aid)
    thread: int
    ip: int
    address: int
    size: int
    is_write: bool
    latency: float
    line: int
    context: int


#: Upper latency bound (inclusive, cycles) of each serving level but the
#: last; :func:`data_source` and the collector's columnar fold share it.
SOURCE_BOUNDS = (4.0, 12.0, 42.0)
SOURCE_LEVELS = ("L1", "L2", "L3", "DRAM")


def data_source(
    latency: float,
    l1: float = SOURCE_BOUNDS[0],
    l2: float = SOURCE_BOUNDS[1],
    l3: float = SOURCE_BOUNDS[2],
) -> str:
    """Classify a sample's serving level from its latency, like PEBS's
    data-source encoding. Used for reporting, never for analysis."""
    if latency <= l1:
        return "L1"
    if latency <= l2:
        return "L2"
    if latency <= l3:
        return "L3"
    return "DRAM"


class SampleLog:
    """Captured samples as parallel columns, one row per sample.

    Every column is ``array('q')`` (``is_write`` holds 0/1) except
    ``latency``, which is ``array('d')``; rows are in capture order.
    """

    __slots__ = AddressSample._fields

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, array("d" if name == "latency" else "q"))

    def __len__(self) -> int:
        return len(self.seq)

    def append(self, seq, thread, ip, address, size, is_write, latency,
               line, context) -> None:
        """Log one sample (the per-interrupt path)."""
        self.seq.append(seq)
        self.thread.append(thread)
        self.ip.append(ip)
        self.address.append(address)
        self.size.append(size)
        self.is_write.append(is_write)
        self.latency.append(latency)
        self.line.append(line)
        self.context.append(context)

    def rows(self, start: int = 0, stop: Optional[int] = None) -> Iterator[AddressSample]:
        """Rows ``start:stop`` as :class:`AddressSample` records."""
        rows = slice(start, stop)
        return map(AddressSample._make, zip(
            self.seq[rows], self.thread[rows], self.ip[rows],
            self.address[rows], self.size[rows], map(bool, self.is_write[rows]),
            self.latency[rows], self.line[rows], self.context[rows],
        ))

    def clear(self) -> None:
        for name in self.__slots__:
            del getattr(self, name)[:]
