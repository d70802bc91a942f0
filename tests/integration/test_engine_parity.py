"""Acceptance gate: the batched CLI == the scalar reference engine.

The batched engine's whole claim is that it changes nothing but wall
time. This drives the real CLI (which always runs batched) at a
reduced scale and asserts the rendered Tables 3 and 4 — speedups, miss
rates, every formatted digit — and the ``analyze`` report are
byte-identical to the same artifacts rendered from
``Monitor(engine="scalar")`` runs, in both the human and the
``--json`` renderings, and compares the ablation machines' run metrics
on three workloads.
"""

import io
import json

import pytest

from repro.cli import main
from repro.core import OfflineAnalyzer, optimize
from repro.experiments import table3, table4
from repro.experiments.optimization import (
    BenchmarkRecord,
    benchmark_record,
    results_json,
)
from repro.memsim import HierarchyConfig
from repro.memsim.tlb import TLBConfig
from repro.profiler.monitor import Monitor
from repro.telemetry import to_jsonable
from repro.workloads import TABLE2_WORKLOADS, workload_zoo

SCALE = "0.05"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def scalar_records():
    """Every Table 2 cycle on the scalar engine, seeded by rank as
    ``run_all`` seeds its tasks, reduced to runner records."""
    records = {}
    for rank, name in enumerate(TABLE2_WORKLOADS):
        workload = TABLE2_WORKLOADS[name](scale=float(SCALE))
        monitor = Monitor(sampling_period=workload.recommended_period,
                          seed=rank, engine="scalar")
        result = optimize(workload, monitor=monitor)
        records[name] = BenchmarkRecord(benchmark_record(result))
    return records


class TestTable3EngineParity:
    def test_tables_are_byte_identical(self, scalar_records):
        batched = run_cli(["table3", "--scale", SCALE])
        scalar = (f"{table3(scalar_records).render()}\n\n"
                  f"{table4(scalar_records).render()}\n")
        assert batched == scalar
        assert "Table 3" in batched

    def test_json_rendering_is_byte_identical(self, scalar_records):
        batched = run_cli(["table3", "--scale", SCALE, "--json"])
        payload = to_jsonable(results_json(scalar_records))
        scalar = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert batched == scalar


class TestAnalyzeEngineParity:
    def test_analyze_output_is_byte_identical(self):
        batched = run_cli(["analyze", "179.ART", "--scale", SCALE])
        workload = TABLE2_WORKLOADS["179.ART"](scale=float(SCALE))
        monitor = Monitor(sampling_period=workload.recommended_period,
                          engine="scalar")
        run = monitor.run(workload.build_original(),
                          num_threads=workload.num_threads)
        report = OfflineAnalyzer().analyze(run)
        scalar = (f"{report.render()}\n\nmonitoring overhead (modelled): "
                  f"{run.overhead_percent:.2f}%\n")
        assert batched == scalar


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
