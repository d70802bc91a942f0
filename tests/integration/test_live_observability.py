"""Integration tests: the live event bus across the real pipeline.

The tentpole's contract mirrors the telemetry session's: observability
is purely observational.  With the bus disabled (``--quiet``) the CLI's
stdout is byte-identical to a bus-enabled run; with a live bus the
numeric results are identical to a plain run; and the committed bench
history snapshots attribute a regression to a named stage.
"""

import io
import json
from pathlib import Path

from repro.cli import main
from repro.experiments.optimization import run_benchmark
from repro.telemetry import events, history
from repro.telemetry.events import EventBus

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
HISTORY_DIR = REPO_ROOT / "benchmarks" / "history"


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


class TestCommittedHistoryAttribution:
    def test_store_has_at_least_two_snapshots(self):
        assert len(list(HISTORY_DIR.glob("bench-*.json"))) >= 2

    def test_attribute_names_the_dominant_stage(self):
        entries = sorted(
            HISTORY_DIR.glob("bench-*.json"),
            key=lambda p: json.loads(p.read_text())["stamp"],
        )
        code, text = run_cli(
            "attribute", str(entries[0]), str(entries[-1]),
            "--history", str(HISTORY_DIR),
        )
        assert code == 0
        assert "<- dominant" in text
        dominant_line = next(
            line for line in text.splitlines() if "<- dominant" in line
        )
        assert any(stage in dominant_line
                   for stage in ("interpret", "simulate", "sample"))

    def test_trend_renders_the_committed_store(self):
        code, text = run_cli("bench", "--trend",
                             "--history", str(HISTORY_DIR))
        assert code == 0
        assert "snapshot(s)" in text
        for path in HISTORY_DIR.glob("bench-*.json"):
            entry_id = json.loads(path.read_text())["id"]
            assert entry_id[:12] in text

    def test_every_entry_loads_with_its_stored_id(self):
        stored = {}
        for path in HISTORY_DIR.glob("bench-*.json"):
            entry_id = json.loads(path.read_text())["id"]
            assert path.name == f"bench-{entry_id}.json"
            stored[entry_id] = path
        loaded = history.load_history(HISTORY_DIR, legacy_dirs=())
        assert {e["id"] for e in loaded} == set(stored)
        for entry in loaded:
            assert history.entry_id(entry) == entry["id"]

    def test_attribute_renders_across_the_legacy_sharded_entry(self):
        # 98b687a58ec7 was recorded by the since-removed sharded walk
        # and keeps that run's ``workers`` rollup in its file.
        assert "workers" in history.load_ref("98b687a58ec7", HISTORY_DIR)
        code, text = run_cli("attribute", "98b687a58ec7", "b28bf5df06f8",
                             "--history", str(HISTORY_DIR))
        assert code == 0
        assert text.startswith(
            "attribution (batched engine): 98b687a58ec7 (37f7a88) -> "
            "b28bf5df06f8 (06396f1)"
        )
        assert "<- dominant" in text


class TestDashSmoke:
    def test_dash_embeds_latest_history_entry(self, tmp_path):
        out = tmp_path / "dash.html"
        code, text = run_cli("dash", str(out),
                             "--history", str(HISTORY_DIR))
        assert code == 0
        assert "wrote" in text
        html_text = out.read_text()
        latest = max(
            (json.loads(p.read_text())
             for p in HISTORY_DIR.glob("bench-*.json")),
            key=lambda e: e["stamp"],
        )
        assert latest["id"] in html_text
        assert 'id="repro-dash-data"' in html_text
