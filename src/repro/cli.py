"""Command-line interface: ``python -m repro <command>``.

Mirrors how the real tool is driven (a profiler run followed by an
offline analyzer invocation), plus shortcuts that regenerate the
paper's artifacts:

    python -m repro list                      # available workloads
    python -m repro analyze 179.ART           # profile + full report
    python -m repro optimize 179.ART          # report + split + speedup
    python -m repro regroup                   # array-regrouping demo
    python -m repro table3 [--scale 0.5]      # Tables 3 and 4
    python -m repro art [--dot art.dot]       # Tables 5/6 + Figure 6
    python -m repro overhead rodinia|spec     # Figures 4/5
    python -m repro accuracy                  # Eq 4 sweep
    python -m repro trace art                 # telemetry: Perfetto trace
    python -m repro stats [workload]          # telemetry: metrics snapshot
    python -m repro lint all --format json    # machine-readable lint report
    python -m repro verify                    # split-safety + false-sharing
                                              # oracle across the zoo
    python -m repro optimize AddrEscape --verify   # gated split (refused)

The program is timed by the Table 3 cycle benchmark,
``python3 perfbench/run.py`` (see "Measuring a change" in
docs/performance.md).

Long-running commands (``analyze``, ``optimize``, ``table3``,
``overhead``, ``sensitivity``, ``summary``) run under a live event
bus (see docs/observability.md): progress and rate/ETA lines on
stderr (``--quiet`` silences them and restores the inert ``NULL_BUS``
path), ``--live FILE`` streams every event as tail-able JSONL,
``--deadline SECONDS`` kills a hung run with exit 124, and a flight
recorder dumps the last events to ``telemetry/flightrec.json``
(``--flightrec`` overrides) on crash, SIGTERM, or deadline.

``analyze``, ``optimize``, and ``table3`` additionally accept
``--telemetry DIR`` (export spans/metrics for the run) and — for
``analyze``/``table3`` — ``--json`` (machine-readable results).

The experiment commands (``table3``, ``summary``, ``overhead``,
``sensitivity``) run every workload as a :mod:`repro.runner` task under
one :class:`~repro.runner.Runner` built from ``--jobs N`` (fan the
tasks over N worker processes) and ``--cache DIR`` (content-addressed
result cache: warm re-runs of unchanged workload/config pairs execute
nothing and print byte-identical output); afterwards a summary line
with the runner's hit/miss/execution counts goes to stderr.
``optimize`` accepts ``--cache`` alone: with it (and without ``--out``
or ``--verify``) the cycle runs as one cached runner task.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import List, Optional

from .core import OfflineAnalyzer, derive_plans, optimize, recommend_regrouping
from .memsim import speedup
from .profiler import Monitor
from .workloads import TABLE2_WORKLOADS, RegroupingWorkload, workload_zoo

#: Table 2 plus the adversarial split-safety workloads: what analyze,
#: optimize, lint, and verify operate over.
_ZOO = workload_zoo()


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """``--jobs``/``--cache``: the runner's settings."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run independent workloads on N worker "
                             "processes (default: 1, serial; 0 = one "
                             "per effective CPU)")
    _add_cache_arg(parser)


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    """``--cache``: the runner's result cache."""
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed result cache; warm re-runs "
                             "of unchanged (workload, config) pairs return "
                             "instantly with identical output")


def _positive_float(text: str) -> float:
    """argparse type for ``--deadline``: a number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
    return value


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """The live-bus knobs shared by the long-running commands.

    By default these commands run with a live event bus: a progress
    reporter on stderr (rate/ETA) and a flight recorder that dumps the
    recent event ring to ``telemetry/flightrec.json`` on crash,
    SIGTERM, or ``--deadline`` expiry.  ``--quiet`` disables the bus
    entirely (the zero-cost path — stdout is byte-identical either
    way, stderr goes silent).
    """
    parser.add_argument("--quiet", action="store_true",
                        help="no live event bus: silence stderr progress "
                             "and runner-stats lines (stdout is identical)")
    parser.add_argument("--live", metavar="FILE", default=None,
                        help="append every live event to FILE as JSONL "
                             "(tail-able while the run is in flight)")
    parser.add_argument("--deadline", type=_positive_float,
                        metavar="SECONDS", default=None,
                        help="abort (exit 124) after SECONDS, dumping the "
                             "flight recorder — the CI hang-killer")
    parser.add_argument("--flightrec", metavar="FILE", default=None,
                        help="flight-recorder dump path (default: "
                             "telemetry/flightrec.json; written only on "
                             "crash, SIGTERM, or deadline)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="StructSlim reproduction (Roy & Liu, CGO 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table 2 workloads")

    for name, text in (
        ("analyze", "profile a workload and print the analysis report"),
        ("optimize", "analyze, apply the advised split, report the speedup"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("workload", choices=sorted(_ZOO))
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--period", type=int, default=None,
                       help="sampling period (default: workload-recommended)")
        p.add_argument("--out", type=str, default=None,
                       help="write the full analysis package (report, dot "
                            "graphs, plans.json, structure.xml) here")
        p.add_argument("--telemetry", metavar="DIR", default=None,
                       help="record spans/metrics and export them to DIR")
        _add_observability_args(p)
        if name == "optimize":
            _add_cache_arg(p)
            p.add_argument("--verify", action="store_true",
                           help="gate the advised split behind the static "
                                "split-safety verifier: UNSAFE/UNKNOWN advice "
                                "is reported with its hazard site and NOT "
                                "applied (exit 1 if nothing safe remains)")
        if name == "analyze":
            p.add_argument("--check", action="store_true",
                           help="cross-validate the sampled results against "
                                "the static analyzer (exit 1 on mismatch)")
            p.add_argument("--json", action="store_true",
                           help="print machine-readable JSON instead of the "
                                "textual report")

    p = sub.add_parser(
        "lint",
        help="static workload linter (no execution); exits 0 when every "
             "report is clean of errors (of warnings too under --strict), "
             "1 otherwise",
    )
    p.add_argument("workload",
                   choices=sorted(_ZOO) + ["nbody-soa", "all"],
                   help="a workload name, or 'all' for every bundled one")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format; 'json' prints one object with "
                        "per-workload reports and aggregate ok/strict_ok "
                        "flags (the exit code contract is identical)")

    p = sub.add_parser(
        "verify",
        help="split-safety verdicts plus the static-vs-MESI false-sharing "
             "oracle across the workload zoo; exits 1 if a Table 2 "
             "workload is not provably SAFE, an adversarial workload is "
             "not flagged UNSAFE with a concrete site, or the dynamic "
             "oracle finds an invalidated line the static pass missed",
    )
    p.add_argument("workload", nargs="?", default="all",
                   choices=sorted(_ZOO) + ["all"],
                   help="a zoo workload, or 'all' (default)")
    p.add_argument("--scale", type=float, default=0.1)

    p = sub.add_parser("regroup", help="array-regrouping extension demo")
    p.add_argument("--scale", type=float, default=1.0)

    p = sub.add_parser("table3", help="regenerate Tables 3 and 4")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--telemetry", metavar="DIR", default=None,
                   help="record spans/metrics and export them to DIR")
    p.add_argument("--json", action="store_true",
                   help="print machine-readable JSON instead of the tables")
    _add_runner_args(p)
    _add_observability_args(p)

    p = sub.add_parser(
        "trace",
        help="run the full pipeline under telemetry; export a Perfetto-"
             "loadable Chrome trace, a JSONL event log, and metrics",
    )
    p.add_argument("workload",
                   help="a Table 2 workload, full name or alias (e.g. 'art')")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--telemetry", metavar="DIR", default="telemetry",
                   help="output directory (default: ./telemetry)")

    p = sub.add_parser(
        "stats",
        help="run one workload and print the telemetry metrics snapshot "
             "plus the decomposed self-overhead account",
    )
    p.add_argument("workload", nargs="?", default="462.libquantum",
                   help="a Table 2 workload, full name or alias "
                        "(default: 462.libquantum)")
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--telemetry", metavar="DIR", default=None,
                   help="also export the snapshot files to DIR")

    p = sub.add_parser("art", help="regenerate Tables 5/6 and Figure 6")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--dot", type=str, default=None,
                   help="write the affinity graph to this file")

    p = sub.add_parser("overhead", help="regenerate Figure 4 or 5")
    p.add_argument("suite", choices=["rodinia", "spec"])
    _add_runner_args(p)
    _add_observability_args(p)

    p = sub.add_parser("accuracy", help="regenerate the Eq 4 study")
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("views", help="code- and data-centric profile views")
    p.add_argument("workload", choices=sorted(TABLE2_WORKLOADS))
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--period", type=int, default=None)

    p = sub.add_parser("sensitivity",
                       help="sampling-period sweep: advice quality vs cost")
    p.add_argument("workload", choices=sorted(TABLE2_WORKLOADS))
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--periods", type=int, nargs="+",
                   default=[127, 509, 2003, 8009, 32003])
    _add_runner_args(p)
    _add_observability_args(p)

    p = sub.add_parser(
        "cache",
        help="statistics for the runner's content-addressed result cache",
    )
    p.add_argument("--stats", action="store_true",
                   help="print entry count and byte total "
                        "(the default and only action)")
    p.add_argument("--cache", metavar="DIR", required=True,
                   help="result-cache directory to report on")

    p = sub.add_parser("summary", help="regenerate the complete evaluation")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--no-suites", action="store_true",
                   help="skip the Figure 4/5 suite sweeps")
    _add_runner_args(p)
    _add_observability_args(p)
    return parser


def _monitored_run(args):
    workload = _ZOO[args.workload](scale=args.scale)
    period = args.period or workload.recommended_period
    monitor = Monitor(sampling_period=period)
    bound = workload.build_original()
    run = monitor.run(bound, num_threads=workload.num_threads)
    return workload, monitor, run, bound


def resolve_workload(token: str) -> Optional[str]:
    """Map a full name or a friendly alias onto a zoo workload.

    ``art`` -> ``179.ART``, ``libquantum`` -> ``462.libquantum``,
    ``clomp`` -> ``CLOMP 1.2``, case-insensitively.
    """
    if token in _ZOO:
        return token
    wanted = token.lower()
    for name in _ZOO:
        aliases = {name.lower(), name.split()[0].lower()}
        tail = name.split(".")[-1].split()[0].lower()
        if not tail.isdigit():
            aliases.add(tail)
        if wanted in aliases:
            return name
    return None


def _bad_workload(token: str, out) -> int:
    names = ", ".join(sorted(_ZOO))
    print(f"unknown workload {token!r}; choose from: {names}", file=out)
    return 2


@contextmanager
def _telemetry_scope(args, out):
    """Enable telemetry for the enclosed command when requested.

    Yields the active session (or None when ``--telemetry`` was not
    passed) and writes the export files on the way out.
    """
    from . import telemetry

    directory = getattr(args, "telemetry", None)
    if not directory:
        yield None
        return
    with telemetry.session() as session:
        yield session
        paths = telemetry.write_telemetry(session, directory)
    destination = out if not getattr(args, "json", False) else sys.stderr
    print(f"wrote {len(paths)} telemetry files to {directory}",
          file=destination)


@contextmanager
def _live_scope(args):
    """Install the live event bus for one command, when wanted.

    The bus is on by default for every command that grew the
    observability flags: a stderr :class:`ProgressReporter`, an
    optional ``--live`` JSONL stream, and a :class:`FlightRecorder`
    whose ring buffer is dumped only on crash, SIGTERM, or
    ``--deadline`` expiry.  ``--quiet`` (without ``--live`` or
    ``--deadline``) skips all of it — the ambient bus stays
    ``NULL_BUS`` and every instrumented call site costs one falsy
    check, the same zero-cost contract as ``NULL_TRACER``.
    """
    from .telemetry import events, live

    observed = hasattr(args, "quiet")
    quiet = getattr(args, "quiet", False)
    stream_path = getattr(args, "live", None)
    deadline = getattr(args, "deadline", None)
    if not observed or (quiet and not stream_path and deadline is None):
        yield None
        return
    bus = events.EventBus()
    if not quiet:
        bus.subscribe(live.ProgressReporter(sys.stderr))
    writer = None
    if stream_path:
        writer = live.JsonlStreamWriter(stream_path)
        bus.subscribe(writer)
    recorder = live.FlightRecorder()
    bus.subscribe(recorder)
    flight_path = getattr(args, "flightrec", None) or live.FLIGHT_PATH
    try:
        with events.use(bus), live.crash_dump_scope(
            recorder, flight_path, deadline=deadline
        ):
            yield bus
    finally:
        if writer is not None:
            writer.close()


def _runner(args):
    """The command's one :class:`~repro.runner.Runner`: its settings
    from ``--jobs``/``--cache``, and afterwards its counts."""
    from .runner import Runner

    return Runner(jobs=getattr(args, "jobs", 1), cache=args.cache)


def _print_runner_summary(runner, args) -> None:
    """One stderr line with the runner's hit/miss/execution counts.

    stderr so machine-readable stdout (``--json``) stays clean and cold
    vs warm runs diff clean; a test greps this line to prove a warm
    cache re-run executed nothing.  The line also rides the event bus
    (for the JSONL stream / flight recorder) and honors ``--quiet``.
    """
    summary = runner.describe()
    from .telemetry import events

    bus = events.bus()
    if bus.active:
        # The ProgressReporter subscriber relays the summary to stderr.
        bus.publish("task-finish", kind="runner-stats", summary=summary,
                    tasks=runner.tasks, hits=runner.cache_hits,
                    misses=runner.cache_misses, executed=runner.executed)
    elif not args.quiet:
        print(summary, file=sys.stderr)


def _cmd_list(args, out) -> int:
    for name, factory in _ZOO.items():
        workload = factory(scale=0.01)
        kind = "parallel x4" if workload.num_threads > 1 else "sequential"
        structs = ", ".join(
            s.name for s in workload.target_structs().values()
        )
        flag = "  [adversarial: split is unsafe]" if workload.expected_unsafe \
            else ""
        print(f"{name:16s} {kind:12s} target struct: {structs}{flag}",
              file=out)
    return 0


def _analysis_json(report, run) -> dict:
    """Machine-readable ``repro analyze`` payload (reuses the telemetry
    JSON encoder for every nested value)."""
    objects = []
    for analysis in report.objects.values():
        advice = None
        if analysis.advice is not None:
            advice = {
                "clusters": analysis.advice.clusters,
                "should_split": analysis.advice.should_split(),
                "description": analysis.advice.describe(),
            }
        objects.append(
            {
                "name": analysis.name,
                "identity": list(analysis.entry.identity),
                "latency_share": analysis.entry.share,
                "recovered_size": (
                    analysis.recovered.size if analysis.recovered else None
                ),
                "data_sources": analysis.data_sources(),
                "advice": advice,
            }
        )
    account = run.overhead_account
    return {
        "workload": report.workload,
        "variant": report.variant,
        "sample_count": report.sample_count,
        "total_latency": report.total_latency,
        "pmu": run.pmu,
        "sampling_period": run.sampling_period,
        "deployment_period": run.deployment_period,
        "overhead_percent": run.overhead_percent,
        "overhead_account": account.to_dict() if account else None,
        "hot": [
            {"name": e.name, "share": e.share, "latency": e.latency}
            for e in report.hot
        ],
        "objects": objects,
    }


def _print_json(payload, out) -> None:
    from .telemetry import to_jsonable

    print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True), file=out)


def _cmd_analyze(args, out) -> int:
    with _telemetry_scope(args, out):
        workload, _, run, bound = _monitored_run(args)
        report = OfflineAnalyzer().analyze(run)
    check_result = None
    if getattr(args, "check", False):
        from .static import StaticAnalysis, cross_validate_report

        static = StaticAnalysis().analyze(bound, loop_map=run.loop_map)
        check_result = cross_validate_report(static, run.merged, report)
    if getattr(args, "json", False):
        payload = _analysis_json(report, run)
        if check_result is not None:
            payload["cross_validation_ok"] = check_result.ok
        _print_json(payload, out)
        _maybe_write_package(args, report, workload, run, sys.stderr)
    else:
        print(report.render(), file=out)
        print(f"\nmonitoring overhead (modelled): {run.overhead_percent:.2f}%",
              file=out)
        _maybe_write_package(args, report, workload, run, out)
        if check_result is not None:
            print(file=out)
            print(check_result.render(), file=out)
    if check_result is not None and not check_result.ok:
        return 1
    return 0


def _lint_targets(name: str, scale: float):
    if name == "all":
        names = sorted(_ZOO) + ["nbody-soa"]
    else:
        names = [name]
    for n in names:
        if n == "nbody-soa":
            yield RegroupingWorkload(scale=scale)
        else:
            yield _ZOO[n](scale=scale)


def _cmd_lint(args, out) -> int:
    from .static import lint_workload

    reports = [
        lint_workload(workload)
        for workload in _lint_targets(args.workload, args.scale)
    ]
    status = 0 if all(r.ok(strict=args.strict) for r in reports) else 1
    if getattr(args, "format", "text") == "json":
        payload = {
            "ok": all(r.ok() for r in reports),
            "strict_ok": all(r.ok(strict=True) for r in reports),
            "strict": args.strict,
            "reports": [r.to_dict() for r in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for report in reports:
            print(report.render(), file=out)
    return status


def _cmd_verify(args, out) -> int:
    from .static import SAFE, UNSAFE, cross_validate_false_sharing, \
        verify_split_safety

    names = sorted(_ZOO) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        workload = _ZOO[name](scale=args.scale)
        bound = workload.build_original()
        report = verify_split_safety(bound)
        if workload.expected_unsafe:
            flagged = [v for v in report.verdicts.values()
                       if v.status == UNSAFE and v.site]
            ok = bool(flagged)
            summary = ("UNSAFE, as expected" if ok
                       else "FAIL: expected an UNSAFE verdict with a site")
        else:
            ok = report.all_safe
            summary = "SAFE" if ok else "FAIL: expected every array SAFE"
        print(f"{name}: split safety {summary}", file=out)
        for verdict in sorted(report.verdicts.values(), key=lambda v: v.array):
            if verdict.status != SAFE:
                print(f"  {verdict.array}: {verdict.status} at "
                      f"{verdict.site}: {verdict.reason}", file=out)
        if workload.num_threads > 1:
            oracle = cross_validate_false_sharing(
                bound, num_threads=workload.num_threads
            )
            ok = ok and oracle.ok
            for line in oracle.render().splitlines():
                print(f"  {line}", file=out)
        if not ok:
            status = 1
    return status


def _maybe_write_package(args, report, workload, run, out) -> None:
    if getattr(args, "out", None):
        from .core import write_outputs

        paths = write_outputs(
            report, args.out, structs=workload.target_structs(), run=run
        )
        print(f"wrote {len(paths)} files to {args.out}", file=out)


def _cmd_optimize(args, out) -> int:
    if args.cache and not args.out and not args.verify:
        return _cmd_optimize_via_runner(args, out)
    with _telemetry_scope(args, out):
        workload, monitor, run, bound = _monitored_run(args)
        report = OfflineAnalyzer().analyze(run)
        plans = derive_plans(report, workload.target_structs())
        safety = None
        withheld = {}
        if args.verify and plans:
            from .static import SAFE, verify_split_safety

            safety = verify_split_safety(bound, sorted(plans))
            withheld = {
                name: safety.verdict_for(name)
                for name in plans
                if safety.verdict_for(name).status != SAFE
            }
            plans = {n: p for n, p in plans.items() if n not in withheld}
        optimized = None
        if plans:
            optimized = monitor.run_unmonitored(
                workload.build_split(plans), num_threads=workload.num_threads
            )
    print(report.render(), file=out)
    _maybe_write_package(args, report, workload, run, out)
    if safety is not None:
        print(file=out)
        for name in sorted(safety.verdicts):
            verdict = safety.verdicts[name]
            print(f"split safety: {name}: {verdict.status}", file=out)
            if verdict.status != "SAFE":
                print(f"  at {verdict.site}: {verdict.reason}", file=out)
        for name in sorted(withheld):
            print(f"  advice for {name!r} withheld (not applied)", file=out)
    if not plans:
        if withheld:
            print("\nno safe split to apply: the advised split failed "
                  "verification", file=out)
        else:
            print("\nno split recommended", file=out)
        return 1
    for plan in plans.values():
        print(f"\nadvice: {plan.describe()}", file=out)
    print(f"speedup: {speedup(run.metrics, optimized):.2f}x", file=out)
    return 0


def _cmd_optimize_via_runner(args, out) -> int:
    """The optimize cycle as one runner task, so ``--cache`` warm runs
    print the identical report without executing the workload.

    (``--out`` needs the live run objects and therefore always takes
    the direct path.)
    """
    from .runner import TaskSpec, run_tasks

    runner = _runner(args)
    spec = TaskSpec(
        kind="optimize-report",
        name=args.workload,
        params={"scale": args.scale, "period": args.period},
    )
    with _telemetry_scope(args, out):
        (record,) = run_tasks([spec], runner=runner)
    _print_runner_summary(runner, args)
    print(record["report"], file=out)
    if not record["advice"]:
        print("\nno split recommended", file=out)
        return 1
    for advice in record["advice"]:
        print(f"\nadvice: {advice}", file=out)
    print(f"speedup: {record['speedup']:.2f}x", file=out)
    return 0


def _cmd_regroup(args, out) -> int:
    workload = RegroupingWorkload(scale=args.scale)
    monitor = Monitor(sampling_period=workload.recommended_period)
    run = monitor.run(workload.build_original())
    advice = recommend_regrouping(run.merged)
    if not advice:
        print("no regrouping opportunity found", file=out)
        return 1
    for entry in advice:
        print(entry.describe(), file=out)
    regrouped = monitor.run_unmonitored(
        workload.build_regrouped(advice[0].names)
    )
    print(f"speedup: {speedup(run.metrics, regrouped):.2f}x", file=out)
    return 0


def _cmd_table3(args, out) -> int:
    from .experiments import run_all, table3, table4
    from .experiments.optimization import results_json

    runner = _runner(args)
    with _telemetry_scope(args, out):
        results = run_all(scale=args.scale, runner=runner)
    _print_runner_summary(runner, args)
    if getattr(args, "json", False):
        _print_json(results_json(results), out)
        return 0
    print(table3(results).render(), file=out)
    print(file=out)
    print(table4(results).render(), file=out)
    return 0


def _cmd_trace(args, out) -> int:
    from . import telemetry

    name = resolve_workload(args.workload)
    if name is None:
        return _bad_workload(args.workload, out)
    workload = TABLE2_WORKLOADS[name](scale=args.scale)
    period = args.period or workload.recommended_period
    with telemetry.session() as session:
        result = optimize(workload, monitor=Monitor(sampling_period=period))
        paths = telemetry.write_telemetry(session, args.telemetry)
        stages = sorted(set(session.tracer.span_names()))
    print(
        f"traced {name}: speedup {result.speedup:.2f}x, "
        f"overhead {result.overhead_percent:.2f}% "
        f"({result.profiled.pmu}, period {result.profiled.sampling_period})",
        file=out,
    )
    print("stages: " + ", ".join(stages), file=out)
    for path in paths:
        print(f"wrote {path}", file=out)
    return 0


def _cmd_stats(args, out) -> int:
    from . import telemetry

    name = resolve_workload(args.workload)
    if name is None:
        return _bad_workload(args.workload, out)
    workload = TABLE2_WORKLOADS[name](scale=args.scale)
    period = args.period or workload.recommended_period
    with telemetry.session() as session:
        result = optimize(workload, monitor=Monitor(sampling_period=period))
        print(telemetry.prometheus_text(session.metrics), file=out)
        for account in session.overhead_accounts:
            print(account.render(), file=out)
            print(
                f"  reported overhead_percent: "
                f"{result.overhead_percent:.4f}% "
                f"(component sum: {account.overhead_percent:.4f}%)",
                file=out,
            )
        if args.telemetry:
            paths = telemetry.write_telemetry(session, args.telemetry)
            print(f"wrote {len(paths)} telemetry files to {args.telemetry}",
                  file=out)
    return 0


def _cmd_art(args, out) -> int:
    from .experiments import figure6, run_art_analysis, table5

    analysis = run_art_analysis(scale=args.scale)
    print(table5(analysis).render(), file=out)
    print(file=out)
    print(analysis.loop_rows.render(), file=out)
    print(file=out)
    affinities, dot = figure6(analysis)
    print(affinities.render(), file=out)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
        print(f"wrote {args.dot}", file=out)
    return 0


def _cmd_overhead(args, out) -> int:
    from .experiments import run_suite_overheads

    runner = _runner(args)
    result = run_suite_overheads(args.suite, runner=runner)
    _print_runner_summary(runner, args)
    print(result.chart(), file=out)
    return 0


def _cmd_accuracy(args, out) -> int:
    from .experiments import run_accuracy_sweep

    print(run_accuracy_sweep(trials=args.trials).render(), file=out)
    return 0


def _cmd_views(args, out) -> int:
    from .core import code_centric_view, data_centric_view

    _, _, run, _ = _monitored_run(args)
    print("=== code-centric view ===", file=out)
    print(code_centric_view(run.merged, run.loop_map).render(), file=out)
    print(file=out)
    print("=== data-centric view ===", file=out)
    print(data_centric_view(run.merged, run.loop_map).render(), file=out)
    return 0


def _cmd_sensitivity(args, out) -> int:
    from .experiments import sensitivity_table, sweep_sampling_period

    runner = _runner(args)
    workload = TABLE2_WORKLOADS[args.workload](scale=args.scale)
    points = sweep_sampling_period(workload, args.periods, runner=runner)
    _print_runner_summary(runner, args)
    print(sensitivity_table(workload.name, points).render(), file=out)
    return 0


def _cmd_cache(args, out) -> int:
    """``repro cache --stats``: the result cache at a glance."""
    from pathlib import Path

    directory = Path(args.cache)
    entries = list(directory.glob("*.json")) if directory.is_dir() else []
    total = sum(p.stat().st_size for p in entries)
    print(f"result cache {directory}: {len(entries)} entries, "
          f"{total:,} bytes", file=out)
    return 0


def _cmd_summary(args, out) -> int:
    from .experiments import run_complete_evaluation

    runner = _runner(args)
    report = run_complete_evaluation(
        scale=args.scale,
        include_suites=not args.no_suites,
        progress=lambda message: print(message, file=out),
        runner=runner,
    )
    _print_runner_summary(runner, args)
    print(file=out)
    print(report.render(), file=out)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "verify": _cmd_verify,
    "optimize": _cmd_optimize,
    "regroup": _cmd_regroup,
    "table3": _cmd_table3,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "art": _cmd_art,
    "overhead": _cmd_overhead,
    "accuracy": _cmd_accuracy,
    "views": _cmd_views,
    "sensitivity": _cmd_sensitivity,
    "cache": _cmd_cache,
    "summary": _cmd_summary,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _live_scope(args):
            return _COMMANDS[args.command](args, out or sys.stdout)
    except BrokenPipeError:
        # Output was piped into something like `head`; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
