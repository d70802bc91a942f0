"""Write ``reference.json``: every benchmark operation run once through
the scalar engine, the reproduction's oracle.

    python3 perfbench/make_reference.py

Per operation it records the scalar *unmonitored* run of the original
program (what the batched monitored run must equal), the overhead, the
plans, the sample count and, for cycles, the split run.  It takes a few
minutes at scale 1.0.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_reference(seed: int = 0, scale: float = 1.0) -> dict:
    import cases
    import spans
    from repro.experiments import sensitivity
    from repro.profiler.monitor import Monitor

    scalar = functools.partial(Monitor, engine="scalar")
    operations = {}
    with spans.patched((cases, "Monitor", scalar), (sensitivity, "Monitor", scalar)):
        for workload in cases.WORKLOADS:
            objects, analyzer = cases.construct(workload, scale)
            result = cases.run_pass(workload, objects, seed, cases.Plain(), analyzer)
            if result.errors:
                raise RuntimeError(f"{workload}: {result.errors}")
            for op in cases.WORKLOADS[workload]:
                target = objects[op.benchmark]
                out = cases.public(result.outputs[op.key])
                original = cases.metrics_dict(
                    scalar().run_unmonitored(target.build_original(), num_threads=target.num_threads)
                )
                if out["original"] != original:
                    raise RuntimeError(f"{op.key}: monitored run differs from unmonitored")
                out.pop("speedup", None)
                operations[op.key] = out
    return {"engine": "scalar", "seed": seed, "scale": scale, "operations": operations}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    reference = build_reference()
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
