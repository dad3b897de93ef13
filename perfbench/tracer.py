"""Outside-in span tracing of the ``repro`` layers.

Nothing under ``src/`` knows about this module.  :class:`Instrumentation`
patches the public entry points of each layer for the length of one run
and records a span around every call:

* every callback registered through ``Simulator.schedule``,
  ``schedule_at`` and ``reschedule`` is registered as a call of
  :attr:`SpanRecorder.run` instead, which times it when it is dispatched
  and attributes it to the layer owning the callback's module;
* every generator handed to ``Simulator.process`` is wrapped in a
  :class:`GeneratorProxy` that times each ``send``/``throw``/``close``,
  attributed to the generator's module;
* the mutating public entry points in :data:`ENTRY_POINTS` are wrapped
  in place, and so are the ``Telemetry.on_*`` recording hooks.  Per-cycle
  getters (``core_hz`` and friends) and the bare-increment
  ``Telemetry.on_sim_event`` are left alone: a span costs about a
  microsecond, more than the call itself.

Spans live in flat arrays (name, layer, start, end, parent) and are
written out after the run.  A span's self time is its duration minus
the durations of its direct children; a layer's self time is the sum
over its spans, so the layers partition the time covered by root spans.
Time the run spends outside every span (driver code between entry
points) is the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from layers import LAYERS, LayerMapError, layer_of

LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: Public entry points wrapped in place, as (module, attribute path).
#: The layer of each comes from the module, through the layer map.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "Simulator.run"),
    ("repro.sim.engine", "Simulator.step"),
    ("repro.sim.fluid", "FluidNetwork.start_flow"),
    ("repro.sim.fluid", "FluidNetwork.stop_flow"),
    ("repro.sim.fluid", "FluidNetwork.set_demand"),
    ("repro.sim.fluid", "FluidNetwork.update"),
    ("repro.sim.trace", "PeriodicSampler.stop"),
    ("repro.hardware.topology", "Cluster.__init__"),
    ("repro.hardware.topology", "Cluster.route"),
    ("repro.hardware.topology", "Machine.set_core_activity"),
    ("repro.netmodel.protocols", "ProtocolEngine.half_transfer"),
    ("repro.mpi.comm", "CommWorld.__init__"),
    ("repro.runtime.runtime", "RuntimeSystem.submit"),
    ("repro.runtime.apps", "run_cg"),
    ("repro.runtime.apps", "run_gemm"),
    ("repro.core.campaign", "SweepGuard.run_specs"),
    ("repro.core.campaign", "CampaignJournal.record"),
    ("repro.obs.telemetry", "Telemetry.render_attribution"),
    ("repro.obs.telemetry", "Telemetry.export_trace"),
    ("repro.obs.telemetry", "Telemetry.export_metrics"),
) + tuple(("repro.obs.telemetry", f"Telemetry.{hook}") for hook in (
    "on_engine_stats", "on_flow_start", "on_flow_end", "on_flow_stop_noop",
    "on_invariant_check", "on_invariant_violation", "on_rates_changed",
    "on_transfer", "on_retransmit", "on_transport_error", "on_task_done",
    "on_steal", "on_kernel_done", "on_freq_change", "on_fault"))

#: Calls per round when timing one empty span.
WRAPPER_COST_CALLS = 200_000


class SpanRecorder:
    """In-memory span store; :attr:`run` times one call as a span."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._code_ids: Dict[object, Tuple[int, int]] = {}
        self._stack: List[int] = [-1]
        self.run = self._make_run()

    def _make_run(self) -> Callable:
        layer_append = self.layer.append
        name_append = self.name.append
        start_append = self.start.append
        end_append = self.end.append
        parent_append = self.parent.append
        end = self.end
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter

        def run(layer: int, name: int, fn: Callable, *args, **kwargs):
            i = len(end)
            layer_append(layer)
            name_append(name)
            parent_append(stack[-1])
            end_append(0.0)
            push(i)
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                pop()
        return run

    def __len__(self) -> int:
        return len(self.end)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def ids(self, key: object, module: Optional[str], qualname: str,
            kind: str) -> Tuple[int, int]:
        """(layer id, name id) for code *key* defined in *module*; the
        span name is ``"<kind> <module>:<qualname>"``."""
        ids = self._code_ids.get(key)
        if ids is None:
            layer = layer_of(module)
            if layer is None:
                raise LayerMapError(
                    f"{qualname} from module {module!r} maps to no layer; "
                    f"add it to perfbench/layers.py")
            ids = self._code_ids[key] = (
                LAYER_INDEX[layer],
                self.name_id(f"{kind} {module}:{qualname}"))
        return ids

    def callable_ids(self, fn: Callable) -> Tuple[int, int]:
        target = getattr(fn, "__func__", fn)
        if isinstance(target, functools.partial):
            target = getattr(target.func, "__func__", target.func)
        key = getattr(target, "__code__", target)
        return self.ids(key, getattr(target, "__module__", None),
                        getattr(target, "__qualname__", repr(target)), "cb")

    def generator_ids(self, gen) -> Tuple[int, int]:
        code = getattr(gen, "gi_code", None)
        if code is None:
            return self.callable_ids(type(gen).send)
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__") if frame is not None \
            else None
        return self.ids(code, module,
                        getattr(code, "co_qualname", code.co_name), "gen")

    def wrap(self, fn: Callable, layer: int, name: str) -> Callable:
        nid = self.name_id(name)
        run = self.run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return run(layer, nid, fn, *args, **kwargs)
        return traced

    def arrays(self) -> Dict[str, np.ndarray]:
        # Copies: a buffer view would pin the arrays against growth.
        return {
            "layer": np.array(self.layer, dtype=np.int8),
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(LAYERS),
                 **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(duration, self time) of every span: a span's self time is its
    duration minus the durations of its direct children."""
    dur = end - start
    own = dur.copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], dur[child])
    return dur, own


def unattributed_share(wall: float, dur: np.ndarray,
                       parent: np.ndarray) -> float:
    """Share of *wall* seconds that no root span covers."""
    return (wall - float(dur[parent < 0].sum())) / wall


class GeneratorProxy:
    """A process generator whose every resume is a span.

    Behaves like the wrapped generator for ``send``, ``throw`` and
    ``close``, which is all the engine uses.
    """

    __slots__ = ("_gen", "_run", "_layer", "_name", "__name__")

    def __init__(self, gen, run: Callable, layer: int, name: int):
        self._gen = gen
        self._run = run
        self._layer = layer
        self._name = name
        self.__name__ = getattr(gen, "__name__", "process")

    def send(self, value):
        return self._run(self._layer, self._name, self._gen.send, value)

    def throw(self, *args):
        return self._run(self._layer, self._name, self._gen.throw, *args)

    def close(self):
        return self._run(self._layer, self._name, self._gen.close)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Patcher:
    """Replaces class attributes for the length of a ``with`` block.

    Subclasses make their replacements in :meth:`_install` through
    :meth:`_patch`; leaving the block, or a failed install, restores
    every original in reverse order.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def _install(self) -> None:
        raise NotImplementedError

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Instrumentation(Patcher):
    """Patches the layers' entry points for the length of a ``with``."""

    def __init__(self) -> None:
        super().__init__()
        self.recorder = SpanRecorder()
        self.completions = 0          # finite flows whose done event fired
        self.capacity_updates = 0     # Resource.set_capacity calls
        self.samples = 0              # samples in stopped sampler traces
        self.trace_events = 0         # events written by export_trace
        self.points = 0               # sweep points run by run_specs

    def _install(self) -> None:
        from repro.sim.engine import Simulator
        rec = self.recorder
        run = rec.run
        callable_ids = rec.callable_ids
        generator_ids = rec.generator_ids

        orig_schedule = Simulator.schedule
        orig_schedule_at = Simulator.schedule_at
        orig_reschedule = Simulator.reschedule
        orig_process = Simulator.process

        def schedule(sim, delay, callback, *args, daemon=False):
            return orig_schedule(sim, delay, run,
                                 *callable_ids(callback), callback, *args,
                                 daemon=daemon)

        def schedule_at(sim, when, callback, *args, daemon=False):
            return orig_schedule_at(sim, when, run,
                                    *callable_ids(callback), callback,
                                    *args, daemon=daemon)

        def reschedule(sim, handle, when, callback, *args):
            return orig_reschedule(sim, handle, when, run,
                                   *callable_ids(callback), callback, *args)

        def process(sim, generator, daemon=False):
            proxy = GeneratorProxy(generator, run, *generator_ids(generator))
            return orig_process(sim, proxy, daemon=daemon)

        for attr, value in (("schedule", schedule),
                            ("schedule_at", schedule_at),
                            ("reschedule", reschedule),
                            ("process", process)):
            self._patch(Simulator, attr, functools.wraps(
                Simulator.__dict__[attr])(value))

        counters = self._counters()
        for module, path in ENTRY_POINTS:
            owner, attr = _resolve(module, path)
            traced = rec.wrap(owner.__dict__[attr],
                              LAYER_INDEX[layer_of(module)],
                              f"call {module}:{path}")
            counter = counters.get(path)
            self._patch(owner, attr,
                        counter(traced) if counter is not None else traced)

        # Counted, not timed: the setter itself is trivial and any
        # solver work it triggers runs inside FluidNetwork.update.
        from repro.sim.fluid import Resource
        set_capacity = Resource.set_capacity

        @functools.wraps(set_capacity)
        def count_capacity(res, capacity):
            self.capacity_updates += 1
            return set_capacity(res, capacity)
        self._patch(Resource, "set_capacity", count_capacity)

    def _counters(self) -> Dict[str, Callable[[Callable], Callable]]:
        """Post-call hooks that read work counts off return values."""
        def count_completions(traced):
            def bump(_event):
                self.completions += 1

            @functools.wraps(traced)
            def start_flow(net, flow):
                out = traced(net, flow)
                flow.done.add_callback(bump)
                return out
            return start_flow

        def count_samples(traced):
            @functools.wraps(traced)
            def stop(sampler):
                trace = traced(sampler)
                self.samples += sum(len(trace.times(n))
                                    for n in trace.names())
                return trace
            return stop

        def count_trace_events(traced):
            @functools.wraps(traced)
            def export_trace(tele, path):
                n = traced(tele, path)
                self.trace_events += n
                return n
            return export_trace

        def count_points(traced):
            @functools.wraps(traced)
            def run_specs(guard, specs):
                statuses = traced(guard, specs)
                self.points += len(statuses)
                return statuses
            return run_specs

        return {"FluidNetwork.start_flow": count_completions,
                "PeriodicSampler.stop": count_samples,
                "Telemetry.export_trace": count_trace_events,
                "SweepGuard.run_specs": count_points}


def wrapper_cost_us() -> float:
    """Microseconds one empty span adds to a call (best of three)."""
    rec = SpanRecorder()
    run = rec.run
    calls = range(WRAPPER_COST_CALLS)

    def empty():
        return None

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in calls:
            empty()
        t1 = time.perf_counter()
        for _ in calls:
            run(0, 0, empty)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / WRAPPER_COST_CALLS * 1e6)
        del rec.layer[:], rec.name[:], rec.start[:], rec.end[:], \
            rec.parent[:]
    return best
