"""Integration tests: the live event bus across the real pipeline.

The bus's contract mirrors the telemetry session's: observability
is purely observational.  With the bus disabled (``--quiet``) the CLI's
stdout is byte-identical to a bus-enabled run, and with a live bus the
numeric results are identical to a plain run.
"""

import io
import json

from repro.cli import main
from repro.experiments.optimization import run_benchmark
from repro.telemetry import events
from repro.telemetry.events import EventBus


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDisabledBusParity:
    def test_quiet_stdout_is_byte_identical(self):
        """--quiet (NULL_BUS) vs default (live bus): same stdout."""
        argv = ("analyze", "462.libquantum", "--scale", "0.2")
        code_live, text_live = run_cli(*argv)
        code_quiet, text_quiet = run_cli(*argv, "--quiet")
        assert code_live == code_quiet == 0
        assert text_live == text_quiet

    def test_live_bus_does_not_change_results(self):
        """Same workload with and without a subscribed bus."""
        plain = run_benchmark("462.libquantum", scale=0.2)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with events.use(bus):
            observed = run_benchmark("462.libquantum", scale=0.2)

        assert observed.speedup == plain.speedup
        assert observed.overhead_percent == plain.overhead_percent
        assert observed.miss_reduction == plain.miss_reduction
        assert observed.original.cycles == plain.original.cycles
        assert observed.optimized.cycles == plain.optimized.cycles
        assert observed.original.misses() == plain.original.misses()
        # The run is not silent: the interpret/simulate loops report
        # progress through the bus while producing identical numbers.
        assert seen
        assert {e.type for e in seen} <= {
            "span-open", "span-close", "metric-delta", "task-start",
            "task-finish", "cache-hit", "stage-progress",
        }
        assert events.bus() is events.NULL_BUS

    def test_stage_progress_reaches_stderr_reporter(self, capsys):
        code, _ = run_cli("analyze", "462.libquantum", "--scale", "0.2")
        assert code == 0
        err = capsys.readouterr().err
        assert "runner" not in err or "misses=" in err

    def test_live_stream_written_as_jsonl(self, tmp_path):
        live = tmp_path / "live.jsonl"
        code, _ = run_cli("analyze", "462.libquantum", "--scale", "0.2",
                          "--quiet", "--live", str(live))
        assert code == 0
        rows = [json.loads(line)
                for line in live.read_text().splitlines()]
        assert rows
        assert all("type" in row and "ts" in row for row in rows)
