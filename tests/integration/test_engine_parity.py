"""Acceptance gate: ``table3 --engine scalar`` == ``--engine batched``.

The batched engine's whole claim is that it changes nothing but wall
time. This drives the real CLI twice at a reduced scale and asserts
the rendered Tables 3 and 4 — speedups, miss rates, every formatted
digit — are byte-identical between engines, in both the human and the
``--json`` renderings, and compares the ablation machines' run metrics
on three workloads.
"""

import io

import pytest

from repro.cli import main
from repro.memsim import HierarchyConfig
from repro.memsim.tlb import TLBConfig
from repro.profiler.monitor import Monitor
from repro.workloads import workload_zoo

SCALE = "0.05"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


class TestTable3EngineParity:
    def test_tables_are_byte_identical(self):
        scalar = run_cli(["table3", "--scale", SCALE, "--engine", "scalar"])
        batched = run_cli(["table3", "--scale", SCALE, "--engine", "batched"])
        assert scalar == batched
        assert "Table 3" in scalar

    def test_json_rendering_is_byte_identical(self):
        scalar = run_cli(
            ["table3", "--scale", SCALE, "--engine", "scalar", "--json"]
        )
        batched = run_cli(
            ["table3", "--scale", SCALE, "--engine", "batched", "--json"]
        )
        assert scalar == batched


class TestAnalyzeEngineParity:
    def test_analyze_output_is_byte_identical(self):
        scalar = run_cli(["analyze", "179.ART", "--scale", SCALE,
                          "--engine", "scalar"])
        batched = run_cli(["analyze", "179.ART", "--scale", SCALE,
                           "--engine", "batched"])
        assert scalar == batched


class TestAblationMachineParity:
    """The prefetch, TLB and random-replacement machines at workload
    scale: the batched list walk hands every access but an L1 hit to
    the scalar walk, and the run must not tell the difference."""

    MACHINES = {
        "prefetch": HierarchyConfig(prefetch_degree=2),
        "tlb": HierarchyConfig(tlb=TLBConfig()),
        "random": HierarchyConfig(replacement="random"),
    }

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("name", ["179.ART", "CLOMP 1.2", "OverlapView"])
    def test_run_metrics_are_identical(self, name, machine):
        workload = workload_zoo()[name](scale=0.1)
        bound = workload.build_original()
        scalar, batched = (
            Monitor(engine=engine).run_unmonitored(
                bound,
                num_threads=workload.num_threads,
                config=self.MACHINES[machine],
            )
            for engine in ("scalar", "batched")
        )
        assert batched == scalar
        if name == "OverlapView":
            # Four threads whose writes drive the directory.
            assert scalar.invalidations > 0
