"""Fluid-solver / engine invariant guard (--check-invariants).

The guard (:mod:`repro.sim.invariants`) is strictly pay-for-what-you-
use: with the flag off the hot paths check one module-level bool.  On,
every rate solve verifies usage caches, rate bounds and capacity
conservation, every ``sample``-th solve cross-checks the fast path
bitwise against the scalar reference on the same dirty flows and every
component against a from-scratch solve, and the event loop asserts
heap monotonicity.  Violations raise :class:`InvariantViolation` naming
the offending connected component.
"""

import math
import random

import pytest

from repro.sim import Flow, FluidNetwork, Resource, Simulator
from repro.sim import invariants as inv
from repro.sim.invariants import InvariantViolation, invariant_checks


def _net():
    sim = Simulator()
    return sim, FluidNetwork(sim)


# -- context manager --------------------------------------------------------

def test_invariant_checks_context_saves_and_restores():
    prev_enabled, prev_sample = inv.ENABLED, inv.SAMPLE_EVERY
    with invariant_checks(sample=4):
        assert inv.ENABLED is True
        assert inv.SAMPLE_EVERY == 4
        with invariant_checks():
            assert inv.ENABLED is True
            assert inv.SAMPLE_EVERY == 4  # inherited, not reset
    assert inv.ENABLED == prev_enabled
    assert inv.SAMPLE_EVERY == prev_sample


def test_guard_restored_even_when_body_raises():
    prev = inv.ENABLED
    with pytest.raises(RuntimeError, match="boom"):
        with invariant_checks(sample=2):
            raise RuntimeError("boom")
    assert inv.ENABLED == prev


# -- clean runs pass --------------------------------------------------------

def test_clean_fluid_run_passes_under_guard():
    sim, net = _net()
    link = Resource("link", 100.0)
    with invariant_checks(sample=1):
        flows = [net.transfer([link], size=100.0) for _ in range(4)]
        sim.run()
    for f in flows:
        assert f.done.triggered
        assert f.transferred == pytest.approx(100.0)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_churn_under_guard(seed):
    """Acceptance stress: start/finish/capacity/demand churn across
    shared links, every solve checked and every 4th cross-checked
    globally — the incremental solver must never diverge."""
    rng = random.Random(seed)
    sim, net = _net()
    links = [Resource(f"l{i}", rng.uniform(10.0, 100.0)) for i in range(4)]
    flows = []

    def churn():
        for step in range(60):
            yield rng.uniform(0.01, 0.3)
            roll = rng.random()
            active = [f for f in flows if f.active]
            if roll < 0.55 or not active:
                path = rng.sample(links, rng.randint(1, 3))
                demand = math.inf if rng.random() < 0.5 \
                    else rng.uniform(5.0, 50.0)
                flows.append(net.transfer(
                    path, size=rng.uniform(1.0, 50.0), demand=demand,
                    label=f"f{step}"))
            elif roll < 0.8:
                net.set_demand(rng.choice(active), rng.uniform(1.0, 80.0))
            else:
                rng.choice(links).set_capacity(rng.uniform(5.0, 120.0))

    with invariant_checks(sample=4):
        sim.process(churn())
        sim.run()
    assert all(f.done.triggered for f in flows)


# -- corruption is caught and named -----------------------------------------

def test_corrupted_usage_cache_names_component():
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=100.0, label="victim")
    flow._usages = (2.0,)  # noqa: SLF001 - deliberate corruption
    with invariant_checks():
        with pytest.raises(InvariantViolation) as err:
            net.set_demand(flow, 50.0)
    message = str(err.value)
    assert "usage cache" in message
    assert "victim" in message
    assert "component[" in message


@pytest.mark.parametrize("field", ["denominator", "key"])
def test_corrupted_row_names_component(field):
    """A resource's solver row that drifts from a re-derivation from
    its flows' paths is caught on the next checked solve."""
    sim, net = _net()
    link, side = Resource("link", 100.0), Resource("side", 100.0)
    victim = net.transfer([side, link], size=1e6, label="victim")
    net.transfer([link], size=1e6, label="peer")
    if field == "denominator":
        link._denom = math.nextafter(link._denom, 0.0)  # noqa: SLF001
    else:
        link._key += 1  # noqa: SLF001 - a later path position
    with invariant_checks():
        with pytest.raises(InvariantViolation) as err:
            net.set_demand(victim, 50.0)
    message = str(err.value)
    assert f"row of resource 'link' is stale: {field}" in message
    assert "victim" in message
    assert "component[" in message


def test_rate_above_demand_cap_detected():
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=1e6, demand=10.0, label="greedy")
    flow.rate = 20.0
    with pytest.raises(InvariantViolation, match="exceeds its demand cap"):
        net._check_invariants([flow], [*flow.resources])  # noqa: SLF001


def test_invalid_rates_detected():
    sim, net = _net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=1e6)
    for bad in (-1.0, float("nan"), float("inf")):
        flow.rate = bad
        with pytest.raises(InvariantViolation, match="invalid rate"):
            net._check_invariants([flow], [*flow.resources])  # noqa: SLF001


def test_capacity_overcommit_names_resource():
    sim, net = _net()
    link = Resource("downlink", 100.0)
    flow = net.transfer([link], size=1e6)
    flow.rate = 250.0
    with pytest.raises(InvariantViolation,
                       match="'downlink' over capacity"):
        net._check_invariants([flow], [*flow.resources])  # noqa: SLF001


def test_sampled_global_cross_check_catches_divergence():
    """Corrupt a flow in a *different* component: the cheap per-dirty
    checks cannot see it, the sampled from-scratch solve does."""
    sim, net = _net()
    link_a, link_b = Resource("a", 100.0), Resource("b", 100.0)
    flow_a = net.transfer([link_a], size=1e6, label="stale")
    flow_b = net.transfer([link_b], size=1e6, label="trigger")
    flow_a.rate = 50.0  # silently wrong; still within every cheap bound
    with invariant_checks(sample=1):
        with pytest.raises(InvariantViolation,
                           match="diverged from global solve"):
            net.set_demand(flow_b, 40.0)


def test_fast_path_divergence_from_scalar_reference_detected(monkeypatch):
    """A fast path that rounds one rate differently from the scalar
    reference is caught on the very solve it ran."""
    solve = FluidNetwork._assign_rates_small  # noqa: SLF001

    def off_by_one_ulp(net, dirty, rows, touched):
        solve(net, dirty, rows, touched)
        dirty[0].rate = math.nextafter(dirty[0].rate, 0.0)

    monkeypatch.setattr(FluidNetwork, "_assign_rates_small", off_by_one_ulp)
    sim, net = _net()
    link = Resource("link", 90.0)
    net.transfer([link], size=1e6)
    net.transfer([link], size=1e6)
    with invariant_checks(sample=1):
        with pytest.raises(InvariantViolation,
                           match="diverged from the scalar reference"):
            net.transfer([link], size=1e6, label="third")


def test_cross_check_reference_solves_components_separately():
    """Minimised from a 32-node co-scheduled dragonfly run.  Solving
    two components together (the stop seeds both) and solving one
    alone round its unconstrained flow differently in the last bit.
    Neither is a divergence: the reference re-solves each component on
    its own, and a jointly solved set agrees with it to the solver's
    tolerance.  A single pass over all flows as the reference reported
    the second solve as diverged."""
    sim, net = _net()
    a, b = Resource("a", 3.0), Resource("b", 30.0)
    with invariant_checks(sample=1):
        bridge = net.transfer([a, b], size=1e9, label="bridge")
        for demand in (math.inf, 0.3, 2.9):
            net.transfer([a], size=1e9, demand=demand)
        free, *capped = [net.transfer([b], size=1e9, demand=demand)
                         for demand in (math.inf, 3.3, 5.9, 0.7)]
        net.stop_flow(bridge)
        joint = free.rate
        net.set_demand(capped[-1], 0.7)
    assert joint == 20.1
    assert free.rate == 20.099999999999998


# -- engine heap monotonicity -----------------------------------------------

def test_engine_detects_time_moving_backwards():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with invariant_checks():
        sim._now = 5.0  # noqa: SLF001 - simulate heap corruption
        with pytest.raises(InvariantViolation, match="moved backwards"):
            sim.run()


def test_engine_clean_run_unaffected():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    with invariant_checks():
        sim.run()
    assert fired == [1, 2]


# -- observability ----------------------------------------------------------

def test_invariant_counters_exported():
    from repro.obs import telemetry_context

    with telemetry_context(trace=False, metrics=True) as tele:
        with invariant_checks(sample=1):
            sim, net = _net()
            net.transfer([Resource("link", 100.0)], size=100.0)
            sim.run()
        checks = tele.registry.counter("fluid.invariant_checks").value
        assert checks >= 1.0
        assert tele.registry.counter(
            "fluid.invariant_violations").value == 0.0


def test_violation_counter_increments():
    from repro.obs import telemetry_context

    with telemetry_context(trace=False, metrics=True) as tele:
        sim, net = _net()
        flow = net.transfer([Resource("link", 100.0)], size=1e6)
        flow.rate = -1.0
        with pytest.raises(InvariantViolation):
            net._check_invariants([flow], [*flow.resources])  # noqa: SLF001
        assert tele.registry.counter(
            "fluid.invariant_violations").value == 1.0
