"""The repo benchmark: run one workload in fresh processes and report.

    python3 perfbench/run.py --workload fig2_telemetry --seed 0 \
        --seconds 40 --trace 0

Each measured run is a fresh ``child.py`` process, so set-up time and
peak RSS are those of a real invocation.  Children run back to back
until ``--seconds`` is spent (at least three untraced ones; with
``--trace 1`` untraced and traced children alternate, at least one of
each).  An untraced run also spends part of its time on set-up-only
children, which stop after set-up: a set-up takes a few tenths of a
second, so they give ``setup_s`` far more samples than the full runs.
The process and its children stay on one CPU, and ``calibrate.py``'s
reference loop is timed between children, so that ``wall_s`` and
``setup_s`` are reported at a fixed reference host speed.
Every child's output digest is checked against the reference
committed for the seed (``reference.json``) or, for a seed without one,
against the run's first child; a child that raises, records a failed
point or disagrees is a failure.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the medians of the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced children with ``--trace 1``.  ``--workload all`` runs every
workload both ways and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, calibrate                # noqa: E402
from layers import LAYERS                                   # noqa: E402
from workloads import WORKLOADS, expected_digest, load_reference  # noqa: E402

#: Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0
MIN_UNTRACED = 3
#: Set-up-only children get this much time per second spent on full
#: runs, and the time left over once no further full run fits.
SETUP_SHARE = 0.1
MIN_SETUP = 5
#: Calibration passes (see calibrate.py) get this much time per second
#: spent on children, between children, so that they sample the host
#: evenly over the run; one more comes first and one last.
CAL_SHARE = 0.12
#: How much the workloads slow down when the reference loop does: the
#: slope of log median wall time on log mean pass time over the runs
#: behind README.md's "Host speed and the reference loop".
SENSITIVITY = 0.85

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.us_per_call"] = "us"
    for name in ("engine.events_dispatched", "engine.stale_skips",
                 "engine.heap_compactions", "fluid.flows_started",
                 "fluid.capacity_updates", "fluid.completions",
                 "netmodel.transfers", "runtime.tasks",
                 "hardware.activity_changes", "sampler.samples",
                 "obs.trace_events", "executor.points",
                 "executor.journal_records", "tracing.spans"):
            units[name] = "count"
    for name in ("engine.us_per_event", "fluid.us_per_flow",
                 "netmodel.us_per_transfer", "runtime.us_per_task",
                 "tracing.wrapper_us"):
        units[name] = "us"
    units["obs.export_s"] = "s"
    units["tracing.traced_wall_s"] = "s"
    units["tracing_overhead_s"] = "s"
    units["tracing.unattributed_share"] = "share"
    return units


PER_LAYER = per_layer_units()


def _env() -> dict:
    """The caller's environment minus the ``REPRO_*`` knobs, which would
    change what the program runs (invariant checks, sampler mode...)."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_")}


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that
    the calibration passes time the CPU the children run on: on a shared
    host each CPU changes speed on its own (see calibrate.py)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(workload: str, seed: int, kind: str, index: int,
              timeout: float) -> Optional[dict]:
    """One fresh-process run of *kind* ``plain``, ``traced`` or
    ``setup``; its JSON report, or None if it failed."""
    workdir = WORK / "work" / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(kind == "traced")),
           "--workdir", str(workdir)]
    if kind == "setup":
        cmd.append("--setup-only")
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env=_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] {workload}: child timed out after "
              f"{timeout:.0f}s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    print(f"[perfbench] {workload}: child exited {proc.returncode} "
          f"without a report", file=sys.stderr)
    return None


def next_kind(children: List[dict], trace: bool, elapsed: float,
              seconds: float, last: Dict[str, float]) -> Optional[str]:
    """The kind of the next child, or None when the run is over."""
    n_plain = sum(1 for c in children if c["kind"] == "plain")
    n_traced = sum(1 for c in children if c["kind"] == "traced")
    setup_spent = [c["elapsed"] for c in children if c["kind"] == "setup"]
    full_spent = sum(c["elapsed"] for c in children if c["kind"] != "setup")

    def fits(kind: str) -> bool:
        est = last.get(kind, max(last.values(), default=0.0))
        return elapsed + est <= seconds

    if trace:
        full = "traced" if n_traced < n_plain else "plain"
        return full if (n_plain < 1 or n_traced < 1 or fits(full)) \
            else None
    if n_plain == 0:
        return "plain"
    if sum(setup_spent) < SETUP_SHARE * full_spent:
        return "setup"
    if n_plain < MIN_UNTRACED or fits("plain"):
        return "plain"
    if len(setup_spent) < MIN_SETUP or fits("setup"):
        return "setup"
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict, deadline: float) -> dict:
    """Run children for about *seconds*; check and collect them."""
    expected = expected_digest(reference, workload, seed)
    children: List[dict] = []
    cal: List[float] = [calibrate()]
    owed = 0.0      # seconds of calibration passes due
    failed = 0
    last: Dict[str, float] = {}
    t_start = time.monotonic()
    while True:
        kind = next_kind(children, trace, time.monotonic() - t_start,
                         seconds, last)
        left = deadline - time.monotonic()
        if kind is None or left < 1.0:
            break
        t0 = time.monotonic()
        while owed > 0.0:
            cal.append(calibrate())
            owed -= cal[-1]
        passes_before = len(cal)
        t_child = time.monotonic()
        report = run_child(workload, seed, kind, len(children), left)
        owed += CAL_SHARE * (time.monotonic() - t_child)
        last[kind] = time.monotonic() - t0
        problems: List[str] = []
        if report is None:
            problems.append("child failed")
            report = {}
        elif kind != "setup":
            problems += report["failures"]
            if expected is None:
                expected = report["digest"]
            elif report["digest"] != expected:
                problems.append(f"digest {report['digest']} != {expected}")
        failed += bool(problems)
        report["kind"] = kind
        report["passes_before"] = passes_before
        report["elapsed"] = last[kind]
        report["ok"] = not problems
        children.append(report)
        if kind == "setup" and not problems:
            continue    # summarized in one line below
        detail = (f"wall {report['wall_s']:.3f} s, setup "
                  f"{report['setup_s']:.3f} s, rss "
                  f"{report['peak_rss_mb']:.1f} MB, digest "
                  f"{report['digest']}") if "digest" in report \
            else "no report"
        if problems:
            detail += "  FAILED: " + "; ".join(problems)
        print(f"[perfbench] {workload} seed {seed} #{len(children)} "
              f"{kind}: {detail}")
        if len(children) == 1 and "digest" not in report:
            break   # the very first child could not run at all
    setups = [c["setup_s"] for c in children
              if c["kind"] == "setup" and c["ok"]]
    if setups:
        print(f"[perfbench] {workload} seed {seed}: {len(setups)} "
              f"set-up-only children, setup {min(setups):.3f}-"
              f"{max(setups):.3f} s")
    cal.append(calibrate())     # the host speed at the end of the run
    print(f"[perfbench] {workload} seed {seed}: {len(cal)} calibration "
          f"passes, {min(cal):.4f}-{max(cal):.4f} s, mean "
          f"{statistics.mean(cal):.4f} s")
    return {"workload": workload, "children": children, "failed": failed,
            "cal": cal}


def speed_scale(cal: List[float]) -> float:
    """Factor that takes times to the reference host speed, given the
    calibration passes timed around them (see calibrate.py)."""
    return (REFERENCE_S / statistics.mean(cal)) ** SENSITIVITY


def nearest_passes(run: dict) -> List[List[float]]:
    """For each child, the passes timed right before and right after it
    (the host can change speed within one run), or all of the run's
    passes if there were none: short children may get no pass between
    them."""
    cal = run["cal"]
    marks = [0] + [c["passes_before"] for c in run["children"]] + [len(cal)]
    return [cal[marks[i]:marks[i + 2]] or cal
            for i in range(len(run["children"]))]


def summarize(run: dict, trace: bool) -> Dict[str, float]:
    """Metric values of one measured run (medians over children)."""
    ok = [c for c in run["children"] if c["ok"]]
    plain = [c for c in ok if c["kind"] == "plain"]
    traced = [c for c in ok if c["kind"] == "traced"]
    if not plain or (trace and not traced):
        return {}
    if not trace:
        out = {name: statistics.median(c[name] for c in plain)
               for name in END_TO_END}
        # Set-up-only children stop where a full run starts measuring.
        out["setup_s"] = statistics.median(
            c["setup_s"] for c in ok if c["kind"] in ("plain", "setup"))
        print(f"[perfbench] {run['workload']} measured medians: wall "
              f"{out['wall_s']:.4f} s, setup {out['setup_s']:.4f} s")
        # Reported at the reference host speed: each full run by the
        # passes around it, set-up (short children spread over the whole
        # run) by all of the run's passes.
        out["wall_s"] = statistics.median(
            c["wall_s"] * speed_scale(passes)
            for c, passes in zip(run["children"], nearest_passes(run))
            if c["ok"] and c["kind"] == "plain")
        out["setup_s"] *= speed_scale(run["cal"])
        return out
    out = {}
    for name in PER_LAYER:
        if name == "tracing_overhead_s":
            out[name] = statistics.median(c["wall_s"] for c in traced) \
                - statistics.median(c["wall_s"] for c in plain)
        else:
            out[name] = statistics.median(c["layers"][name] for c in traced)
    return out


def report_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values}})


def print_table(title: str, values: Dict[str, float],
                units: Dict[str, str]) -> None:
    print(f"[perfbench] {title}")
    for name, unit in units.items():
        if name in values:
            print(f"    {name:<30} {values[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a perfbench workload in fresh processes.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digest as the reference "
                             "for (workload, seed)")
    args = parser.parse_args(argv)
    # A terminated run unwinds through subprocess.run, which kills and
    # reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    reference = load_reference(REFERENCE)

    if args.workload == "all":
        # Every workload, untraced then traced; names get a prefix.
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    values: Dict[str, float] = {}
    units: Dict[str, str] = {}
    attempted = failed = 0
    for workload, trace in plan:
        run = measure(workload, args.seed, args.seconds, trace, reference,
                      time.monotonic() + RUN_DEADLINE_S)
        if args.record_reference:
            record_reference(workload, args.seed, run)
        attempted += len(run["children"])
        failed += run["failed"]
        got = summarize(run, trace)
        metric_units = PER_LAYER if trace else END_TO_END
        print_table(f"{workload} seed {args.seed} "
                    f"({'traced' if trace else 'untraced'})",
                    got, metric_units)
        prefix = f"{workload}." if len(plan) > 1 else ""
        for name, unit in metric_units.items():
            units[prefix + name] = unit
            if name in got:
                values[prefix + name] = got[name]
    print(f"[perfbench] fail_ratio = {failed}/{attempted} "
          f"= {failed / max(attempted, 1):g}")
    correct = failed == 0 and len(values) == len(units)
    print(report_line(correct, attempted, failed, values, units))
    return 0    # a printed result carries its verdict in "correct"


def record_reference(workload: str, seed: int, run: dict) -> None:
    digests = {c.get("digest") for c in run["children"]
               if c["kind"] != "setup"}
    if run["failed"] or len(digests) != 1:
        raise SystemExit(f"not recording: failed={run['failed']}, "
                         f"digests={sorted(map(str, digests))}")
    table = load_reference(REFERENCE)
    key = str(seed) if WORKLOADS[workload].seeded else "*"
    table.setdefault(workload, {})[key] = digests.pop()
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
