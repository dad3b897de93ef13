"""Unit + property tests for the fluid bandwidth-sharing model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Flow, FluidNetwork, Resource, Simulator


def make_net():
    sim = Simulator()
    return sim, FluidNetwork(sim)


def test_single_flow_full_capacity():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=1000.0, label="f")
    assert flow.rate == pytest.approx(100.0)
    sim.run()
    assert flow.done.triggered
    assert sim.now == pytest.approx(10.0)


def test_demand_cap_limits_rate():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=100.0, demand=20.0)
    assert flow.rate == pytest.approx(20.0)
    sim.run()
    assert sim.now == pytest.approx(5.0)


def test_equal_sharing_two_flows():
    sim, net = make_net()
    link = Resource("link", 100.0)
    f1 = net.transfer([link], size=500.0)
    f2 = net.transfer([link], size=500.0)
    assert f1.rate == pytest.approx(50.0)
    assert f2.rate == pytest.approx(50.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_weighted_sharing():
    sim, net = make_net()
    link = Resource("link", 90.0)
    f1 = net.transfer([link], size=1e9, weight=2.0)
    f2 = net.transfer([link], size=1e9, weight=1.0)
    assert f1.rate == pytest.approx(60.0)
    assert f2.rate == pytest.approx(30.0)


def test_demand_limited_flow_releases_capacity():
    sim, net = make_net()
    link = Resource("link", 100.0)
    f1 = net.transfer([link], size=1e9, demand=10.0)
    f2 = net.transfer([link], size=1e9)
    assert f1.rate == pytest.approx(10.0)
    assert f2.rate == pytest.approx(90.0)


def test_usage_multiplier_consumes_more_capacity():
    sim, net = make_net()
    link = Resource("link", 100.0)
    dma = net.transfer([link], size=1e9, usage=2.0)
    # Alone: rate limited so that usage (2x rate) == capacity.
    assert dma.rate == pytest.approx(50.0)
    stream = net.transfer([link], size=1e9)
    # Fair level u solves u*(2*1) + u*1 = 100 -> u = 100/3.
    assert dma.rate == pytest.approx(100.0 / 3.0)
    assert stream.rate == pytest.approx(100.0 / 3.0)
    assert net.utilization(link) == pytest.approx(1.0)


def test_multi_resource_path_bottleneck():
    sim, net = make_net()
    wide = Resource("wide", 1000.0)
    narrow = Resource("narrow", 10.0)
    flow = net.transfer([wide, narrow], size=100.0)
    assert flow.rate == pytest.approx(10.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_crossing_flows_different_bottlenecks():
    sim, net = make_net()
    r1 = Resource("r1", 100.0)
    r2 = Resource("r2", 30.0)
    fa = net.transfer([r1], size=1e9)          # only r1
    fb = net.transfer([r1, r2], size=1e9)      # r1 and r2
    # fb limited by r2 at 30; fa then gets the rest of r1 (70).
    assert fb.rate == pytest.approx(30.0)
    assert fa.rate == pytest.approx(70.0)


def test_rates_recomputed_when_flow_finishes():
    sim, net = make_net()
    link = Resource("link", 100.0)
    short = net.transfer([link], size=100.0)   # 2 s at 50 B/s
    long = net.transfer([link], size=200.0)    # 2 s at 50, then 100
    assert short.rate == long.rate == pytest.approx(50.0)
    sim.run()
    # short finishes at t=2 (100B at 50), long has 100B left -> 1s at 100.
    assert short.done.value == pytest.approx(2.0)
    assert long.done.value == pytest.approx(3.0)


def test_continuous_flow_and_stop():
    sim, net = make_net()
    link = Resource("link", 40.0)
    bg = Flow([link], size=None, label="background")
    net.start_flow(bg)
    sim.run(until=2.5)
    transferred = net.stop_flow(bg)
    assert transferred == pytest.approx(100.0)
    assert not bg.active


def test_set_demand_midflight():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=100.0, demand=10.0)
    sim.run(until=5.0)  # 50 B transferred
    net.set_demand(flow, 50.0)
    sim.run()
    # Remaining 50 B at 50 B/s -> 1 s more.
    assert flow.done.value == pytest.approx(6.0)


def test_capacity_change_triggers_recompute():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=100.0)
    sim.run(until=0.5)  # 50 B done
    link.set_capacity(25.0)
    sim.run()
    assert flow.done.value == pytest.approx(0.5 + 50.0 / 25.0)


def test_empty_path_requires_finite_demand():
    with pytest.raises(ValueError):
        Flow([], size=10.0)


def test_empty_path_flow_runs_at_demand():
    sim, net = make_net()
    flow = net.transfer([], size=100.0, demand=10.0)
    assert flow.rate == pytest.approx(10.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_zero_size_flow_completes_immediately():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=0.0)
    assert flow.done.triggered
    assert flow.remaining == 0.0


def test_utilization_reporting():
    sim, net = make_net()
    link = Resource("link", 100.0)
    net.transfer([link], size=1e9, demand=30.0)
    assert net.utilization(link) == pytest.approx(0.3)
    net.transfer([link], size=1e9, demand=30.0)
    assert net.utilization(link) == pytest.approx(0.6)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Resource("r", 0.0)
    link = Resource("link", 1.0)
    with pytest.raises(ValueError):
        Flow([link], size=-1.0)
    with pytest.raises(ValueError):
        Flow([link], weight=0.0)
    with pytest.raises(ValueError):
        Flow([link], demand=0.0)


# A NaN capacity makes every ``lvl < level`` comparison false, so the
# solver would hand out wrong rates silently; non-finite inputs are
# rejected where they enter.

@pytest.mark.parametrize("capacity", [math.nan, math.inf])
def test_resource_rejects_non_finite_capacity(capacity):
    with pytest.raises(ValueError):
        Resource("r", capacity)


@pytest.mark.parametrize("capacity", [math.nan, math.inf])
def test_set_capacity_rejects_non_finite_capacity(capacity):
    sim, net = make_net()
    link = Resource("link", 10.0)
    flow = net.transfer([link], size=100.0)
    with pytest.raises(ValueError):
        link.set_capacity(capacity)
    assert link.capacity == 10.0
    assert flow.rate == 10.0


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_flow_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError):
        Flow([Resource("link", 1.0)], weight=weight)


def test_flow_rejects_nan_demand():
    with pytest.raises(ValueError):
        Flow([Resource("link", 1.0)], demand=math.nan)


def test_set_demand_rejects_nan():
    sim, net = make_net()
    flow = net.transfer([Resource("link", 10.0)], size=100.0)
    with pytest.raises(ValueError):
        net.set_demand(flow, math.nan)


@pytest.mark.parametrize("size", [math.nan, math.inf])
def test_flow_rejects_non_finite_size(size):
    with pytest.raises(ValueError):
        Flow([Resource("link", 1.0)], size=size)


def test_infinite_demand_and_continuous_size_stay_legal():
    sim, net = make_net()
    flow = net.start_flow(
        Flow([Resource("link", 10.0)], size=None, demand=math.inf))
    assert flow.rate == 10.0


def test_resource_shared_between_networks_rejected():
    sim = Simulator()
    net1 = FluidNetwork(sim)
    net2 = FluidNetwork(sim)
    link = Resource("link", 10.0)
    net1.transfer([link], size=1.0)
    with pytest.raises(Exception):
        net2.transfer([link], size=1.0)


# ---------------------------------------------------------------------------
# Property-based tests: invariants of max-min fairness.
# ---------------------------------------------------------------------------

flow_spec = st.tuples(
    st.floats(min_value=0.1, max_value=100.0),   # demand
    st.floats(min_value=0.1, max_value=4.0),     # weight
    st.floats(min_value=0.5, max_value=3.0),     # usage multiplier
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3,
             unique=True),                        # resource indices
)


@settings(max_examples=120, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=200.0),
                  min_size=4, max_size=4),
    specs=st.lists(flow_spec, min_size=1, max_size=8),
)
def test_maxmin_allocation_invariants(caps, specs):
    sim = Simulator()
    net = FluidNetwork(sim)
    resources = [Resource(f"r{i}", caps[i]) for i in range(4)]
    flows = []
    for demand, weight, usage, idxs in specs:
        path = [resources[i] for i in idxs]
        flows.append(net.transfer(path, size=1e12, demand=demand,
                                  weight=weight, usage=usage))

    # Invariant 1: no resource is over capacity.
    for res in resources:
        used = sum(f.rate * f.usage_on(res) for f in flows
                   if res in f.resources)
        assert used <= res.capacity * (1 + 1e-6)

    # Invariant 2: no flow exceeds its demand.
    for f in flows:
        assert f.rate <= f.demand * (1 + 1e-6)

    # Invariant 3: every flow is either demand-limited or crosses at least
    # one saturated resource (Pareto optimality of max-min).
    for f in flows:
        if f.rate >= f.demand * (1 - 1e-6):
            continue
        saturated = any(
            sum(g.rate * g.usage_on(res) for g in flows
                if res in g.resources) >= res.capacity * (1 - 1e-6)
            for res in f.resources)
        assert saturated, f"flow {f} is neither demand- nor resource-limited"

    # Invariant 4: all rates are strictly positive (no starvation).
    for f in flows:
        assert f.rate > 0


@settings(max_examples=60, deadline=None)
@given(
    cap=st.floats(min_value=10.0, max_value=1000.0),
    sizes=st.lists(st.floats(min_value=1.0, max_value=1000.0),
                   min_size=1, max_size=6),
)
def test_conservation_of_bytes(cap, sizes):
    """Total bytes delivered equals total bytes requested."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = Resource("link", cap)
    flows = [net.transfer([link], size=s) for s in sizes]
    sim.run()
    for f, s in zip(flows, sizes):
        assert f.done.triggered
        assert f.transferred == pytest.approx(s, rel=1e-6)
    # Makespan >= serial lower bound (capacity conservation).
    assert sim.now * cap >= sum(sizes) * (1 - 1e-6)
    assert sim.now * cap == pytest.approx(sum(sizes), rel=1e-6)
