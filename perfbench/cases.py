"""The benchmark's workloads, passes, output checks and layer rollup.

A *pass* runs every operation of one workload once, in the default
configuration (batched engine, one process, no pipeline, no trace
store).  An *operation* is one full ``optimize()`` cycle or one
``measure_period_point`` sweep point.  Benchmark ``i`` of Table 2
samples with ``seed + i``, as ``run_all`` does, so seed 0 reproduces
``repro table3``; the sweep samples every period at ``seed``.

Outputs are checked against ``reference.json``, written once by
``make_reference.py`` with the scalar engine (the oracle).  The parts
that do not depend on the seed are checked on every run: the monitored
run's ``RunMetrics`` equal the scalar *unmonitored* original (the
sampler is passive), cycle overheads (priced from eligible accesses),
and the split run whenever the advised plan is the reference's.  At the
reference's own seed every recorded field is checked.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.analyzer import OfflineAnalyzer
from repro.core.pipeline import optimize
from repro.experiments import sensitivity
from repro.experiments.optimization import PAPER_TABLE3
from repro.profiler.monitor import Monitor
from repro.workloads import TABLE2_WORKLOADS, workload_zoo

import spans

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class Op(NamedTuple):
    """One operation: a full cycle (``period`` None) or a sweep point."""

    benchmark: str
    period: Optional[int] = None

    @property
    def key(self) -> str:
        return self.benchmark if self.period is None else f"{self.benchmark}@{self.period}"


WORKLOADS: Dict[str, Tuple[Op, ...]] = {
    "table3-single": tuple(Op(n) for n in ("179.ART", "462.libquantum", "TSP", "Mser")),
    "table3-coherent": tuple(Op(n) for n in ("CLOMP 1.2", "Health", "NN")),
    "coherent-writes": (Op("OverlapView"),),
    "sampling-sweep": tuple(Op("179.ART", p) for p in (3, 7, 31, 499)),
}

#: Table 2 rank of each benchmark: its sampling-seed offset.
RANK = {name: rank for rank, name in enumerate(TABLE2_WORKLOADS)}


def construct(workload: str, scale: float = 1.0):
    """``(objects, analyzer)``: the workload objects one pass needs, by
    benchmark name, and the analyzer every operation shares."""
    zoo = workload_zoo()
    objects = {op.benchmark: zoo[op.benchmark](scale=scale) for op in WORKLOADS[workload]}
    return objects, OfflineAnalyzer()


# -- layer access: plain or traced -----------------------------------------


class Plain:
    """Untraced pass: every layer is called directly."""

    def workload(self, workload):
        return workload

    def monitor(self, **kwargs) -> Monitor:
        return Monitor(**kwargs)

    def analyzer(self, analyzer):
        return analyzer

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def layers(self):
        return spans.patched()


class Traced(Plain):
    """Traced pass: spans around every public call into a layer."""

    def __init__(self) -> None:
        self.rec = spans.Recorder()

    def workload(self, workload):
        return spans.TracedProxy(workload, self.rec, {
            "build_original": "program.build_original",
            "build_split": "program.build_split",
        })

    def monitor(self, **kwargs) -> Monitor:
        return spans.traced_monitor(self.rec, Monitor(**kwargs))

    def analyzer(self, analyzer):
        analyze = self.rec.spanned("core.analyze", analyzer.analyze)
        counts = self.rec.counts

        def counted(run):
            report = analyze(run)
            counts["core.advised_objects"] += sum(
                1 for a in report.objects.values() if a.advice is not None
            )
            return report

        proxy = spans.TracedProxy(analyzer, self.rec, {})
        proxy.analyze = counted
        return proxy

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return self.rec.spanned(name, fn)(*args, **kwargs)

    def layers(self):
        return spans.layer_wrappers(self.rec)


# -- operations -------------------------------------------------------------


def metrics_dict(run_metrics) -> Dict[str, object]:
    out = asdict(run_metrics)
    del out["name"], out["variant"]
    return out


def _plans(plans) -> Dict[str, List[List[str]]]:
    return {name: [list(g) for g in plan.groups] for name, plan in sorted(plans.items())}


def _profile_counts(run) -> Dict[str, int]:
    """Sample, attribution and stream counts of one monitored run."""
    return {
        "samples": run.sample_count,
        "attributed": sum(
            s.sample_count for p in run.profiles.values() for s in p.streams.values()
        ),
        "streams": len(run.merged.streams),
    }


def run_cycle(op: Op, workload, seed: int, tools: Plain, analyzer) -> Dict[str, object]:
    monitor = tools.monitor(
        sampling_period=workload.recommended_period, seed=seed + RANK.get(op.benchmark, 0)
    )
    result = tools.call(
        "core.optimize", optimize, tools.workload(workload),
        monitor=monitor, analyzer=tools.analyzer(analyzer),
    )
    return {
        "original": metrics_dict(result.original),
        "split": metrics_dict(result.optimized),
        "plans": _plans(result.plans),
        "overhead_percent": result.overhead_percent,
        "sample_count": result.profiled.sample_count,
        "paper_plan": sensitivity._plans_equal(result.plans, workload.paper_plans()),
        "speedup": result.speedup,
        "_counts": _profile_counts(result.profiled),
    }


def run_point(op: Op, workload, seed: int, tools: Plain, analyzer, bound) -> Dict[str, object]:
    runs = []

    def capturing_monitor(**kwargs):
        monitor = tools.monitor(**kwargs)
        run = monitor.run

        def captured(*args, **kw):
            runs.append(run(*args, **kw))
            return runs[-1]

        monitor.run = captured
        return monitor

    with spans.patched((sensitivity, "Monitor", capturing_monitor)):
        point = tools.call(
            "experiments.measure_period_point", sensitivity.measure_period_point,
            tools.workload(workload), op.period, analyzer=tools.analyzer(analyzer),
            seed=seed, bound=bound,
        )
    (run,) = runs
    return {
        "original": metrics_dict(run.metrics),
        "overhead_percent": point.overhead_percent,
        "sample_count": point.sample_count,
        "paper_plan": point.plan_matches,
        "_counts": _profile_counts(run),
    }


class Stopwatch:
    """Times one operation in host seconds."""

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.start


class PassResult(NamedTuple):
    wall_s: float
    outputs: Dict[str, Dict[str, object]]
    errors: Dict[str, str]
    op_walls: Dict[str, float]


def run_pass(
    workload: str, objects, seed: int, tools: Plain, analyzer,
    stopwatch: Callable[[], Stopwatch] = Stopwatch,
) -> PassResult:
    """Every operation of ``workload`` once, each timed by a fresh
    ``stopwatch()``; the pass wall time is the sum of their times.  An
    operation that raises is recorded in ``errors``."""
    outputs: Dict[str, Dict[str, object]] = {}
    errors: Dict[str, str] = {}
    op_walls: Dict[str, float] = {}
    with tools.layers():
        bound = None
        for op in WORKLOADS[workload]:
            target = objects[op.benchmark]
            with stopwatch() as watch:
                try:
                    if op.period is None:
                        outputs[op.key] = run_cycle(op, target, seed, tools, analyzer)
                    else:
                        if bound is None:
                            bound = tools.workload(target).build_original()
                        outputs[op.key] = run_point(op, target, seed, tools, analyzer, bound)
                except Exception as exc:  # counted as a failed operation
                    errors[op.key] = f"{type(exc).__name__}: {exc}"
            op_walls[op.key] = watch.seconds
    return PassResult(sum(op_walls.values()), outputs, errors, op_walls)


# -- checks -----------------------------------------------------------------


def load_reference(path: Path = REFERENCE) -> Dict[str, object]:
    return json.loads(path.read_text())


def check(
    key: str, out: Dict[str, object], ref: Dict[str, object], at_reference_seed: bool
) -> List[str]:
    """Mismatches of one operation's outputs against the oracle's.

    ``at_reference_seed`` adds the seed-dependent fields: plans, sample
    count, whether the plan is the paper's, and the sweep's overhead
    (priced from the samples drawn).
    """
    entry = ref["operations"].get(key)
    if entry is None:
        return [f"{key}: no reference entry"]
    fields = ["original"]
    if "split" in entry:
        fields.append("overhead_percent")
        if out["plans"] == entry["plans"]:
            fields.append("split")
    if at_reference_seed:
        fields += [f for f in ("plans", "sample_count", "paper_plan") if f in entry]
        if "split" not in entry:
            fields.append("overhead_percent")
    return [
        f"{key}: {field} {out[field]!r} != reference {entry[field]!r}"
        for field in fields
        if out[field] != entry[field]
    ]


def public(out: Dict[str, object]) -> Dict[str, object]:
    """An operation's checked outputs, without its profile counts."""
    return {k: v for k, v in out.items() if not k.startswith("_")}


# -- metrics ----------------------------------------------------------------


def fidelity(outputs: Dict[str, Dict[str, object]]) -> Optional[Dict[str, float]]:
    """Mean |simulated - paper| Table 3 speedup and overhead, or None
    when no operation is a Table 3 cycle."""
    rows = [(PAPER_TABLE3[k], out) for k, out in outputs.items() if k in PAPER_TABLE3]
    if not rows:
        return None
    return {
        "speedup_err": statistics.fmean(abs(o["speedup"] - p[0]) for p, o in rows),
        "overhead_err_pp": statistics.fmean(abs(o["overhead_percent"] - p[1]) for p, o in rows),
    }


def layer_metrics(rec: spans.Recorder, result: PassResult) -> Dict[str, float]:
    """Per-layer numbers of one traced pass, from its spans and counts."""
    own = rec.self_seconds()
    counts = rec.counts
    profiled = Counter()
    for out in result.outputs.values():
        profiled.update(out["_counts"])
    accesses = counts["program.batched_accesses"] + counts["program.scalar_accesses"]
    layers = {
        "program.build_s": own["program.build_original"] + own["program.build_split"],
        "binary.structure_s": own["binary.loop_map"] + own["binary.line_map"]
        + own["binary.registry"],
        "program.interpret_s": own["program.next"],
        "memsim.walk_s": own["memsim.walk"],
        "memsim.engine_self_s": own["memsim.simulate"],
        "sampling.observe_s": own["sampling.observe"],
        "profiler.collect_s": own["profiler.collect"],
        "profiler.merge_s": own["profiler.merge"],
        "core.analyze_s": own["core.analyze"],
    }
    accounted = sum(layers.values()) + own["layout.derive_plans"]
    paper = [out["paper_plan"] for out in result.outputs.values()]
    layers.update({
        "program.accesses": accesses,
        "program.batched_share": counts["program.batched_accesses"] / max(1, accesses),
        "memsim.accesses": counts["memsim.accesses"],
        "memsim.batches": counts["memsim.batches"],
        "memsim.ns_per_access": 1e9 * own["memsim.walk"] / max(1, counts["memsim.accesses"]),
        **{f"memsim.{f}": counts[f"memsim.{f}"] for f in spans.SIMULATE_COUNTS},
        "sampling.samples": profiled["samples"],
        "sampling.ns_per_access": 1e9 * own["sampling.observe"]
        / max(1, counts["sampling.observed"]),
        "profiler.attributed_share": profiled["attributed"] / max(1, profiled["samples"]),
        "profiler.streams": profiled["streams"],
        "core.advised_objects": counts["core.advised_objects"],
        "core.plan_match_share": sum(paper) / max(1, len(paper)),
        "layout.split_s": own["layout.derive_plans"] + own["program.build_split"],
        "trace.pass_s": result.wall_s,
        "trace.unattributed_s": result.wall_s - accounted,
    })
    return layers


#: Unit of every per-layer metric ``layer_metrics`` reports.
LAYER_UNITS = {
    **{name: "s" for name in (
        "program.build_s", "binary.structure_s", "program.interpret_s",
        "memsim.walk_s", "memsim.engine_self_s", "sampling.observe_s",
        "profiler.collect_s", "profiler.merge_s", "core.analyze_s",
        "layout.split_s", "trace.pass_s", "trace.unattributed_s",
    )},
    **{name: "count" for name in (
        "program.accesses", "memsim.accesses", "memsim.batches",
        *(f"memsim.{f}" for f in spans.SIMULATE_COUNTS),
        "sampling.samples", "profiler.streams", "core.advised_objects",
    )},
    **{name: "ratio" for name in (
        "program.batched_share", "profiler.attributed_share",
        "core.plan_match_share", "trace.overhead_share",
    )},
    "memsim.ns_per_access": "ns",
    "sampling.ns_per_access": "ns",
}


def median_metrics(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}
