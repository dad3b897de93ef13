"""Span arithmetic, generator proxies and the instrumentation's patches."""

import time

import numpy as np
import pytest

from layers import LayerMapError
from tracer import (GeneratorProxy, Instrumentation, SpanRecorder,
                    self_times, unattributed_share)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    dur, own = self_times(start, end, parent)
    assert dur.tolist() == [10.0, 3.0, 1.0, 4.0]
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    # Self times partition the root spans' time.
    assert own.sum() == dur[parent < 0].sum()


def test_recorder_links_nested_spans_to_their_parent():
    rec = SpanRecorder()

    def leaf():
        return "leaf"

    def outer():
        return [rec.run(1, 1, leaf), rec.run(2, 2, leaf)]

    assert rec.run(0, 0, outer) == ["leaf", "leaf"]
    arrays = rec.arrays()
    assert arrays["parent"].tolist() == [-1, 0, 0]
    assert arrays["layer"].tolist() == [0, 1, 2]
    assert (arrays["end"] >= arrays["start"]).all()
    dur, own = self_times(arrays["start"], arrays["end"], arrays["parent"])
    assert own.sum() == pytest.approx(dur[0])


def test_recorder_closes_a_span_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.run(0, 0, boom)
    rec.run(0, 0, lambda: None)
    assert rec.arrays()["parent"].tolist() == [-1, -1]
    assert rec.arrays()["end"][0] > 0.0


def _proxy(gen):
    rec = SpanRecorder()
    return rec, GeneratorProxy(gen, rec.run, 3, 0)


def test_proxy_send_and_return_value():
    def gen():
        got = yield "first"
        got2 = yield got * 2
        return got + got2

    rec, proxy = _proxy(gen())
    assert proxy.__name__ == "gen"
    assert proxy.send(None) == "first"
    assert proxy.send(5) == 10
    with pytest.raises(StopIteration) as stop:
        proxy.send(1)
    assert stop.value.value == 6
    assert len(rec) == 3
    assert rec.arrays()["layer"].tolist() == [3, 3, 3]


def test_proxy_throw_caught_and_uncaught():
    def gen():
        try:
            yield 1
        except ValueError as err:
            yield f"caught {err}"
        yield 2

    _, proxy = _proxy(gen())
    assert proxy.send(None) == 1
    assert proxy.throw(ValueError("v")) == "caught v"
    with pytest.raises(KeyError):
        proxy.throw(KeyError("k"))
    with pytest.raises(StopIteration):
        proxy.send(None)


def test_proxy_close_runs_finally_and_ends_the_generator():
    log = []

    def gen():
        try:
            yield 1
            yield 2
        finally:
            log.append("closed")

    rec, proxy = _proxy(gen())
    assert proxy.send(None) == 1
    proxy.close()
    assert log == ["closed"]
    with pytest.raises(StopIteration):
        proxy.send(None)
    # send, close and the failed send are all spans, all closed.
    assert len(rec) == 3
    assert (rec.arrays()["end"] > 0).all()


def _tiny_simulation():
    """A few flows and processes on one fluid network."""
    from repro.sim.engine import Simulator
    from repro.sim.fluid import FluidNetwork, Resource

    sim = Simulator()
    net = FluidNetwork(sim)
    link = Resource("link", 10.0)
    done = []

    def sender(size, delay):
        yield delay
        flow = net.transfer([link], size)
        yield flow.done
        done.append((size, sim.now))

    for size, delay in ((30.0, 0.0), (10.0, 0.5), (5.0, 1.0)):
        sim.process(sender(size, delay))
    sim.schedule(0.7, link.set_capacity, 20.0)
    sim.run()
    return done, sim.now, sim.engine_stats()


def test_instrumentation_keeps_the_execution_path_and_restores(
        monkeypatch):
    from repro.sim.engine import Simulator

    import layers
    monkeypatch.setitem(layers.MODULE_LAYERS, __name__, "core")
    before = {name: Simulator.__dict__[name]
              for name in ("schedule", "schedule_at", "reschedule",
                           "process", "run")}
    plain = _tiny_simulation()
    with Instrumentation() as inst:
        traced = _tiny_simulation()
    assert traced == plain
    for name, fn in before.items():
        assert Simulator.__dict__[name] is fn
    assert inst.completions == 3
    assert inst.capacity_updates == 1
    rec = inst.recorder
    spans = rec.arrays()
    by_name = np.bincount(spans["name"], minlength=len(rec.names))
    calls = dict(zip(rec.names, by_name.tolist()))
    assert calls[f"gen {__name__}:_tiny_simulation.<locals>.sender"] == 9
    assert calls["call repro.sim.fluid:FluidNetwork.start_flow"] == 3
    assert calls["cb repro.sim.fluid:Resource.set_capacity"] == 1
    assert calls["call repro.sim.engine:Simulator.run"] == 1
    # Every span runs inside the one run() call.
    assert (spans["parent"] < 0).sum() == 1


def test_unmapped_callback_is_an_error():
    from repro.sim.engine import Simulator

    def callback():
        pass

    sim = Simulator()
    with Instrumentation():
        with pytest.raises(LayerMapError):
            sim.schedule(1.0, callback)


def test_unattributed_share_is_wall_time_outside_root_spans():
    # Roots [0, 4] and [6, 9] (with a child) inside a 10 s run.
    start = np.array([0.0, 1.0, 6.0])
    end = np.array([4.0, 2.0, 9.0])
    parent = np.array([-1, 0, -1])
    dur, _ = self_times(start, end, parent)
    assert unattributed_share(10.0, dur, parent) == pytest.approx(0.3)


def test_driver_work_outside_entry_points_is_unattributed(monkeypatch):
    import layers
    monkeypatch.setitem(layers.MODULE_LAYERS, __name__, "core")
    with Instrumentation() as inst:
        t0 = time.perf_counter()
        time.sleep(0.05)        # no entry point wraps this
        _tiny_simulation()
        t1 = time.perf_counter()
    spans = inst.recorder.arrays()
    dur, _ = self_times(spans["start"], spans["end"], spans["parent"])
    share = unattributed_share(t1 - t0, dur, spans["parent"])
    assert 0.5 < share < 1.0


def test_telemetry_hooks_are_obs_spans(monkeypatch):
    from repro.obs.telemetry import telemetry_context

    import layers
    from tracer import LAYER_INDEX
    monkeypatch.setitem(layers.MODULE_LAYERS, __name__, "core")
    with Instrumentation() as inst:
        with telemetry_context(trace=True, metrics=True):
            _tiny_simulation()
    rec = inst.recorder
    spans = rec.arrays()
    hook = rec.names.index("call repro.obs.telemetry:Telemetry.on_flow_start")
    hooked = spans["name"] == hook
    assert hooked.sum() == 3
    assert (spans["layer"][hooked] == LAYER_INDEX["obs"]).all()
