"""The benchmark's workloads, their inputs and their output digests.

A workload is prepared (set-up: inputs generated from the seed, and for
``fabric_uniform`` the fabric built), then run once (the measured part,
including the artifacts it writes), then reduced to a digest of its
simulated outputs.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import Patcher

#: fabric_uniform shape: a 128-node dragonfly, 16 apps of 8 nodes each.
FABRIC_NODES = 128
FABRIC_GROUP_SIZE = 8
FABRIC_APPS = 16
FABRIC_APP_NODES = 8
FABRIC_MESSAGE = 1 << 20
FABRIC_WARMUP = 1
FABRIC_REPS = 1
FABRIC_BASE_SEED = 0


def fabric_placements(seed: int) -> List[Tuple[int, ...]]:
    """Seeded disjoint placements that share one contention structure.

    A fixed shuffle of every node, cut into app-sized slices, is relabelled
    by a seeded symmetry of the dragonfly. Host ``(group g, router r)``
    moves to ``(sigma(g), pi(r))``, where ``pi`` permutes routers the same
    way in every group. ``sigma`` sends the groups whose global links
    leave from router ``c`` to the groups served by router ``pi(c)``, so
    every route maps onto a route of the same shape. Each seed places the
    apps on different nodes, with their own noise streams, but on the same
    link-sharing pattern. Independent shuffles would also change that
    pattern, and with it the fluid solver's work, by about 8% from seed to
    seed.
    """
    gs = FABRIC_GROUP_SIZE
    nodes = list(range(FABRIC_NODES))
    random.Random(FABRIC_BASE_SEED).shuffle(nodes)
    rng = random.Random(seed)
    pi = rng.sample(range(gs), gs)
    per_class = FABRIC_NODES // gs // gs      # groups per gateway router
    order = [rng.sample(range(per_class), per_class) for _ in range(gs)]

    def relabel(host: int) -> int:
        g, r = divmod(host, gs)
        return (pi[g % gs] + gs * order[g % gs][g // gs]) * gs + pi[r]

    return [tuple(relabel(h) for h in nodes[i:i + FABRIC_APP_NODES])
            for i in range(0, FABRIC_APPS * FABRIC_APP_NODES,
                           FABRIC_APP_NODES)]


def plain(value):
    """*value* with numpy scalars/arrays turned into Python numbers, so
    ``json.dumps`` writes every float exactly (shortest repr)."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if hasattr(value, "tolist"):
        return plain(value.tolist())
    return value


def digest(outputs: dict) -> str:
    text = json.dumps(plain(outputs), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class EngineWatch(Patcher):
    """Last-seen engine counters and clock of every simulator.

    ``Simulator.run`` and ``step`` are wrapped to note the simulator's
    public :meth:`engine_stats` and ``now`` after each call, keyed by
    creation order, so the totals survive the simulator itself.
    """

    def __init__(self) -> None:
        super().__init__()
        self._index: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._stats: Dict[int, Tuple[dict, float]] = {}

    def note(self, sim) -> None:
        idx = self._index.get(sim)
        if idx is None:
            idx = self._index[sim] = len(self._stats)
        self._stats[idx] = (sim.engine_stats(), sim.now)

    def _install(self) -> None:
        from repro.sim.engine import Simulator
        for attr in ("run", "step"):
            self._patch(Simulator, attr,
                        self._watched(Simulator.__dict__[attr]))

    def _watched(self, orig):
        note = self.note

        @functools.wraps(orig)
        def watched(sim, *args, **kwargs):
            try:
                return orig(sim, *args, **kwargs)
            finally:
                note(sim)
        return watched

    def totals(self) -> dict:
        out = {"engine.events_dispatched": 0, "engine.stale_skips": 0,
               "engine.heap_compactions": 0}
        for stats, _now in self._stats.values():
            for key in out:
                out[key] += stats[key]
        out["final_times"] = [self._stats[i][1]
                              for i in sorted(self._stats)]
        return out


def _result_outputs(result) -> dict:
    return {
        "series": {key: [s.x, s.median, s.p10, s.p90]
                   for key, s in result.series.items()},
        "observations": result.observations,
    }


class Workload:
    """Base: ``prepare`` is set-up, ``run`` is measured."""

    name = ""
    seeded = True

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def outputs(self) -> dict:
        raise NotImplementedError

    def failures(self) -> List[str]:
        """Why this run's outputs are wrong; empty when they are not."""
        raise NotImplementedError


class Fig10Campaign(Workload):
    """fig10 --fast through the campaign layer, fresh journal, serial."""

    name = "fig10_campaign"

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro.core import registry
        self.defn = registry.get("fig10")
        self.overrides = {"cg_kwargs": {"seed": seed},
                          "gemm_kwargs": {"seed": seed}}
        self.journal_path = workdir / "fig10.journal.jsonl"
        self.report_path = workdir / "fig10.md"
        self.result = None

    def run(self) -> None:
        from repro.core.campaign import CampaignJournal
        with CampaignJournal(self.journal_path) as journal:
            self.result = self.defn.run(fast=True, journal=journal,
                                        overrides=self.overrides)
        self.report_path.write_text(self.defn.render(self.result))

    def outputs(self) -> dict:
        return _result_outputs(self.result)

    def failures(self) -> List[str]:
        out = [f"point {key} failed" for key in self.result.failures]
        sweep = self.result.meta.get("sweep", {})
        if not sweep.get("points") or sweep.get("failed"):
            out.append(f"sweep {sweep}")
        return out


class Fig2Telemetry(Workload):
    """fig2 --fast with the trace and metrics sinks on, both exported."""

    name = "fig2_telemetry"
    seeded = False

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro.core import registry
        self.defn = registry.get("fig2")
        self.trace_path = workdir / "fig2.trace.json"
        self.metrics_path = workdir / "fig2.metrics.json"
        self.report_path = workdir / "fig2.md"
        self.result = None

    def run(self) -> None:
        from repro.obs.telemetry import telemetry_context
        with telemetry_context(trace=True, metrics=True) as tele:
            tele.set_run(self.defn.name)
            self.result = self.defn.run(fast=True)
            text = self.defn.render(self.result) + "\n" + \
                tele.render_attribution()
            self.report_path.write_text(text)
            self.trace_events = tele.export_trace(self.trace_path)
            tele.export_metrics(self.metrics_path)

    def outputs(self) -> dict:
        return _result_outputs(self.result)

    def failures(self) -> List[str]:
        out = [f"point {key} failed" for key in self.result.failures]
        if not self.trace_events:
            out.append("empty trace export")
        return out


class FabricUniform(Workload):
    """16 co-scheduled uniform apps on a 128-node dragonfly."""

    name = "fabric_uniform"

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro.core.apps import AppSpec
        from repro.hardware.fabric import Dragonfly
        from repro.hardware.topology import Cluster
        self.specs = [
            AppSpec(name=f"app{i:02d}", pattern="uniform", nodes=nodes,
                    size=FABRIC_MESSAGE, reps=FABRIC_REPS,
                    warmup=FABRIC_WARMUP)
            for i, nodes in enumerate(fabric_placements(seed))]
        self.cluster = Cluster(
            "henri", n_nodes=FABRIC_NODES,
            topology=Dragonfly(group_size=FABRIC_GROUP_SIZE))
        self.results_path = workdir / "fabric.apps.json"
        self.results = None

    def run(self) -> None:
        from repro.core.apps import run_apps
        self.results = run_apps(self.cluster, self.specs)
        self.results_path.write_text(json.dumps(plain(self.outputs())))

    def outputs(self) -> dict:
        return {name: {"latencies": r.latencies,
                       "bytes_moved": r.bytes_moved,
                       "duration": r.duration}
                for name, r in self.results.items()}

    def failures(self) -> List[str]:
        out = []
        peers = FABRIC_APP_NODES - 1
        for name, r in self.results.items():
            sent = FABRIC_APP_NODES * peers * (FABRIC_WARMUP + FABRIC_REPS)
            if r.bytes_moved != sent * FABRIC_MESSAGE:
                out.append(f"{name} moved {r.bytes_moved} bytes")
            timed = FABRIC_APP_NODES * peers * FABRIC_REPS
            if len(r.latencies) != timed or not all(
                    math.isfinite(x) and x > 0 for x in r.latencies):
                out.append(f"{name} latencies malformed")
        return out


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Fig10Campaign, Fig2Telemetry, FabricUniform)}


def run_digest(workload: Workload, engine: dict) -> str:
    """Digest of the run's simulated outputs plus its engine totals."""
    return digest({"outputs": workload.outputs(),
                   "events_dispatched": engine["engine.events_dispatched"],
                   "final_times": engine["final_times"]})


def load_reference(path: Path) -> Dict[str, Dict[str, str]]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def expected_digest(reference: Dict[str, Dict[str, str]], workload: str,
                    seed: int) -> Optional[str]:
    """The committed digest for (*workload*, *seed*), if any.  A
    workload without random input has one digest for every seed."""
    table = reference.get(workload, {})
    return table.get("*", table.get(str(seed)))
