"""Benchmark-harness configuration.

Every benchmark regenerates one paper artifact (table or figure),
prints it in the paper's layout next to the published numbers, and
asserts the qualitative shape (who wins, by roughly what factor).

``REPRO_BENCH_SCALE`` scales the workloads (default 1.0 = paper-like
sizes; set 0.25 for a quick pass). Experiments that need exact cache
geometry ignore the variable and say so.

Everything runs on the batched trace engine; the scalar reference path
is ``Monitor(engine="scalar")``, exercised by the parity tests under
``tests/``.
"""

import os

import pytest

#: Workload scale for the heavy optimization benchmarks.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def print_artifact(*blocks: str) -> None:
    """Print experiment output, clearly delimited in bench logs."""
    print()
    for block in blocks:
        print(block)
        print()


@pytest.fixture
def artifact_printer():
    return print_artifact
