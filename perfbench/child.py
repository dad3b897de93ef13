"""One run of one workload in a fresh process.

Started by ``run.py`` once per measured run.  Prints one JSON object as
its last line of standard output: set-up and run times, peak RSS, the
output digest, any failed correctness checks and, with ``--trace 1``,
the per-layer metrics of a traced run, whose spans it writes to
``.perfbench/spans/<workload>.npz``.  With ``--setup-only`` it stops
after set-up and reports ``setup_s`` alone.

    python3 perfbench/child.py --workload fig2_telemetry --seed 0 \
        --trace 0 --t-spawn <time.monotonic() at spawn> --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS = ROOT / ".perfbench" / "spans"


def _import_repro() -> None:
    sys.path.insert(0, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")


def layer_metrics(inst, engine: dict, wall: float) -> dict:
    """Per-layer metric values of one traced run."""
    import numpy as np

    from layers import LAYERS
    from tracer import self_times, unattributed_share

    rec = inst.recorder
    arrays = rec.arrays()
    dur, own = self_times(arrays["start"], arrays["end"], arrays["parent"])
    layer_self = np.bincount(arrays["layer"], weights=own,
                             minlength=len(LAYERS))
    layer_calls = np.bincount(arrays["layer"], minlength=len(LAYERS))
    name_calls = np.bincount(arrays["name"], minlength=len(rec.names))
    name_time = np.bincount(arrays["name"], weights=dur,
                            minlength=len(rec.names))

    # Entry-point spans are named "call <module>:<Class.method>".
    index = {n.split(":", 1)[1]: i for i, n in enumerate(rec.names)
             if n.startswith("call ")}

    def calls(entry: str) -> int:
        i = index.get(entry)
        return int(name_calls[i]) if i is not None else 0

    def inclusive(entry: str) -> float:
        i = index.get(entry)
        return float(name_time[i]) if i is not None else 0.0

    def per(seconds: float, count: int) -> float:
        return seconds / count * 1e6 if count else 0.0

    out: dict = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(layer_self[i])
        out[f"{layer}.calls"] = int(layer_calls[i])
        out[f"{layer}.us_per_call"] = per(float(layer_self[i]),
                                          int(layer_calls[i]))
    self_of = {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS)}
    dispatched = engine["engine.events_dispatched"]
    flows = calls("FluidNetwork.start_flow")
    transfers = calls("ProtocolEngine.half_transfer")
    tasks = calls("RuntimeSystem.submit")
    out.update({
        "engine.events_dispatched": dispatched,
        "engine.stale_skips": engine["engine.stale_skips"],
        "engine.heap_compactions": engine["engine.heap_compactions"],
        "engine.us_per_event": per(self_of["engine"], dispatched),
        "fluid.flows_started": flows,
        "fluid.capacity_updates": inst.capacity_updates,
        "fluid.completions": inst.completions,
        "fluid.us_per_flow": per(self_of["fluid"], flows),
        "netmodel.transfers": transfers,
        "netmodel.us_per_transfer": per(self_of["netmodel"], transfers),
        "runtime.tasks": tasks,
        "runtime.us_per_task": per(self_of["runtime"], tasks),
        "hardware.activity_changes": calls("Machine.set_core_activity"),
        "sampler.samples": inst.samples,
        "obs.trace_events": inst.trace_events,
        "obs.export_s": (inclusive("Telemetry.export_trace")
                         + inclusive("Telemetry.export_metrics")),
        "executor.points": inst.points,
        "executor.journal_records": calls("CampaignJournal.record"),
        "tracing.spans": len(rec),
        "tracing.traced_wall_s": wall,
        "tracing.unattributed_share":
            unattributed_share(wall, dur, arrays["parent"]),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_repro()
    from workloads import WORKLOADS, EngineWatch, run_digest

    workload = WORKLOADS[args.workload]()
    args.workdir.mkdir(parents=True, exist_ok=True)
    with EngineWatch() as watch:
        workload.prepare(args.seed, args.workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": time.monotonic() - args.t_spawn}))
            return 0
        if args.trace:
            from layers import unmapped_modules
            from tracer import Instrumentation
            missing = unmapped_modules(SRC)
            if missing:
                raise SystemExit(f"modules without a layer: {missing}")
            # No span around the run itself: driver code between the
            # wrapped entry points is the unattributed remainder.
            with Instrumentation() as inst:
                t0 = time.monotonic()
                workload.run()
                t1 = time.monotonic()
        else:
            t0 = time.monotonic()
            workload.run()
            t1 = time.monotonic()
    engine = watch.totals()
    out = {
        "setup_s": t0 - args.t_spawn,
        "wall_s": t1 - t0,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": run_digest(workload, engine),
        "failures": workload.failures(),
    }
    if args.trace:
        from tracer import wrapper_cost_us
        out["layers"] = layer_metrics(inst, engine, t1 - t0)
        out["layers"]["tracing.wrapper_us"] = wrapper_cost_us()
        SPANS.mkdir(parents=True, exist_ok=True)
        inst.recorder.save(SPANS / f"{workload.name}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
