"""Benchmark: StructSlim's Table 3 profile -> advise -> split -> re-run cycle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  An untraced run first times ``SETUP_PROBES`` fresh processes
that import the program and construct the workload.  Then it runs
passes (every operation of the workload once, see ``cases.py``) while
the next one is expected to end within ``--seconds`` of the run's start,
set-up probes included, at least ``MIN_PASSES`` of them, and checks
every operation's outputs against the scalar oracle's
``reference.json``.

A shared host changes speed by up to 1.7x from one second to the next,
so an untraced operation is timed by a ``ProbedStopwatch``: a timer
interrupts it every ``SPEED_PROBE_EVERY_S`` to run a ``SpeedProbe``, a
fixed piece of pure-Python and numpy work that does not touch the
program, and each stretch of the operation between two probes is
rescaled to a host on which the probe takes ``REFERENCE_PROBE_S``:
``seconds * REFERENCE_PROBE_S / mean(probe before, probe after)``.  The
probes' own time is left out.  Host seconds are printed on ``#`` lines.

``--trace 0`` reports the end-to-end metrics: ``wall_norm_s``, the sum
over the workload's operations of each one's median rescaled time;
``setup_s``, the median set-up time in host seconds; and the process's
peak resident memory, less the speed probe's arrays.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones (medians over passes, host seconds), plus the
tracing overhead; its spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
start with ``#`` and record the environment and pass counts.  A
non-default configuration (see ``FORBIDDEN_ENV``), a missing numpy or a
checkout without ``src/repro`` exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Settings that move the program off its default configuration.
FORBIDDEN_ENV = (
    "REPRO_WALK_MEMO",
    "REPRO_SIM_WORKERS",
    "REPRO_PIPELINE_PROCESS",
    "REPRO_BENCH_SCALE",
)

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Untraced passes a run makes even when they outlast ``--seconds``.
MIN_PASSES = 2
#: Iterations of the speed probe's pure-Python loop.
SPEED_PROBE_STEPS = 40_000
#: Keys the speed probe's numpy part sorts.
SPEED_PROBE_KEYS = 1 << 13
#: Entries (int64) of the table the speed probe reads at random: 32 MB,
#: far more than a core's own caches, so it slows when other tenants
#: crowd the shared cache and memory, as the program's large arrays do.
SPEED_PROBE_TABLE = 1 << 22
#: Random reads from that table per probe.
SPEED_PROBE_READS = 1 << 14
#: Seconds between speed probes while an untraced operation runs.
SPEED_PROBE_EVERY_S = 0.25
#: The speed probe's time on the host the bounds were measured on (2
#: vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6) at full speed.
REFERENCE_PROBE_S = 0.008
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def prepare() -> None:
    """Refuse a non-default environment and import the checkout's program."""
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        raise BenchError(f"unset {', '.join(present)}: the benchmark times the default configuration")
    try:
        import numpy  # noqa: F401  (without it single-core runs time the list walk)
    except ImportError:
        raise BenchError("numpy is missing; single-core numbers would measure the list walk")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program at {SRC / 'repro'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh process until it has imported the
    program and constructed ``workload``."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe", workload],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code})")
    return elapsed


class SpeedProbe:
    """A fixed piece of work whose time is the host's current speed: a
    pure-Python loop over a small dict, a stable numpy sort and random
    reads from a large table, the kinds of work the program's passes do."""

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 40, SPEED_PROBE_KEYS)
        self.table = rng.integers(0, 1 << 40, SPEED_PROBE_TABLE)
        self.reads = rng.integers(0, SPEED_PROBE_TABLE, SPEED_PROBE_READS)
        self.resident_mb = (self.keys.nbytes + self.table.nbytes + self.reads.nbytes) / 2**20

    def __call__(self) -> float:
        """Seconds the work takes now."""
        import numpy

        start = time.perf_counter()
        total, table = 0, {}
        for i in range(SPEED_PROBE_STEPS):
            total += i * i % 7
            table[i & 1023] = total
        order = numpy.argsort(self.keys, kind="stable")
        numpy.unique(self.keys[order] >> 6)
        int(self.table[self.reads].sum())
        return time.perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` timed between speed probes that took ``before`` and
    ``after``, at the speed of a host whose probe takes
    ``REFERENCE_PROBE_S``."""
    return seconds * REFERENCE_PROBE_S * 2.0 / (before + after)


class ProbedStopwatch:
    """Times one operation in host seconds (``seconds``) and at the
    reference host speed (``rescaled``), running ``probe`` every
    ``SPEED_PROBE_EVERY_S`` from a ``SIGALRM`` timer while it runs.  The
    probes' own time is in neither; ``probes`` holds each probe's time."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe

    def __enter__(self) -> "ProbedStopwatch":
        self.seconds = self.rescaled = 0.0
        self.probes = [self.probe()]
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SPEED_PROBE_EVERY_S, SPEED_PROBE_EVERY_S)
        return self

    def _tick(self, *_) -> None:
        # Claim the stretch before probing, so that a signal handled
        # during the probe (one already pending when ``__exit__`` stops
        # the timer) cannot count it twice.
        now = time.perf_counter()
        stretch, self.mark = now - self.mark, now
        before = self.probes[-1]
        taken = self.probe()
        self.probes.append(taken)
        self.seconds += stretch
        self.rescaled += rescale(stretch, before, taken)
        self.mark = time.perf_counter()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._tick()
        signal.signal(signal.SIGALRM, self.previous)


def measure(workload: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0,
            reference=None, probes: int = SETUP_PROBES, min_passes: int = MIN_PASSES,
            out_dir: Path = HERE / "out"):
    """One benchmark run; returns the result object printed last.

    Passes (pairs of an untraced and a traced pass when tracing) repeat
    while the next one is expected to end within ``seconds`` of the
    start, set-up probes included; an untraced run makes at least
    ``min_passes``, a traced one at least one pair.
    """
    import cases
    import numpy
    from repro._compat import effective_cpu_count

    reference = reference if reference is not None else cases.load_reference()
    if reference["scale"] != scale:
        raise BenchError(f"reference is for scale {reference['scale']}, not {scale}")
    start = time.perf_counter()
    setup = [] if trace else [probe_setup(workload) for _ in range(probes)]
    speed = SpeedProbe()
    objects, analyzer = cases.construct(workload, scale)
    at_reference_seed = seed == reference["seed"]

    walls = {False: [], True: []}
    op_norms: Dict[str, List[float]] = {}
    layer_rows, recorders, rounds, speeds = [], [], [], []
    first = None
    attempted = failed = 0
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            tools = cases.Traced() if traced else cases.Plain()
            watches = []

            def stopwatch():
                watches.append(cases.Stopwatch() if traced else ProbedStopwatch(speed))
                return watches[-1]

            result = cases.run_pass(workload, objects, seed, tools, analyzer, stopwatch)
            if not traced:
                for key, watch in zip(result.op_walls, watches):
                    op_norms.setdefault(key, []).append(watch.rescaled)
                    speeds += watch.probes
            outputs = {key: cases.public(out) for key, out in result.outputs.items()}
            first = first if first is not None else outputs
            problems = {key: [msg] for key, msg in result.errors.items()}
            for key, out in outputs.items():
                found = cases.check(key, out, reference, at_reference_seed)
                if out != first.get(key):
                    found.append(f"{key}: outputs differ from the run's first pass")
                if found:
                    problems[key] = found
            for msg in (m for found in problems.values() for m in found):
                print(f"# FAILED {msg}", file=sys.stderr)
            attempted += len(cases.WORKLOADS[workload])
            failed += len(problems)
            walls[traced].append(result.wall_s)
            if traced and not result.errors:
                layer_rows.append(cases.layer_metrics(tools.rec, result))
                recorders.append(tools.rec)
        now = time.perf_counter()
        rounds.append(now - round_start)
        enough = len(rounds) >= (1 if trace else min_passes)
        if enough and now - start + statistics.median(rounds) > seconds:
            break

    print(
        f"# workload={workload} seed={seed} passes={len(walls[False])}"
        f"+{len(walls[True])} traced python={platform.python_version()}"
        f" numpy={numpy.__version__} cpus={effective_cpu_count()}"
    )
    print("# pass walls " + " ".join(f"{w:.3f}" for w in walls[False])
          + (" | traced " + " ".join(f"{w:.3f}" for w in walls[True]) if trace else ""))
    print(f"# speed probe s median {statistics.median(speeds):.5f} min {min(speeds):.5f}"
          f" max {max(speeds):.5f} over {len(speeds)}, reference {REFERENCE_PROBE_S}")
    print("# rescaled op medians " + " ".join(
        f"{key}={statistics.median(values):.3f}" for key, values in op_norms.items()))
    if setup:
        print("# set-up walls " + " ".join(f"{w:.3f}" for w in setup))
    fidelity = cases.fidelity(first)
    if fidelity:
        print("# fidelity " + " ".join(f"{k}={v:.6g}" for k, v in fidelity.items()))
    if trace:
        metrics = cases.median_metrics(layer_rows) if layer_rows else {}
        if layer_rows:
            metrics["trace.overhead_share"] = (
                statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            )
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"trace-{workload}-seed{seed}.json"
            path.write_text(json.dumps([rec.export() for rec in recorders]) + "\n")
        units = cases.LAYER_UNITS
    else:
        metrics = {
            "wall_norm_s": sum(statistics.median(values) for values in op_norms.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - speed.resident_mb,
        }
        units = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "correct": failed == 0 and (bool(layer_rows) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        prepare()
        import cases

        if args.probe:
            cases.construct(args.probe)
            print("ready", flush=True)
            return 0
        if args.workload not in cases.WORKLOADS:
            raise BenchError(f"--workload must be one of {', '.join(cases.WORKLOADS)}")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
