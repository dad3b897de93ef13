"""Tests for the incremental (dirty-component) fluid solver and the
accounting bugfixes that rode along with it.

Covers:

* regression tests for the three fluid-layer bugs — ``stop_flow`` not
  firing ``on_flow_end``, duplicate resources in a path being counted
  inconsistently, and ``set_demand`` silently mutating inactive flows;
* edge cases the incremental rework must not regress — zero-size flows,
  same-instant completion cascades, starved flows rescheduled after a
  capacity restore, deterministic same-instant completion order;
* a property test cross-checking dirty-component rates against a
  reference global recompute on randomized flow graphs;
* the engine's generation-based heap-entry reuse (``reschedule``);
* ``P2PContext.cancel`` for unmatched requests.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import telemetry_context
from repro.sim import Flow, FluidNetwork, Resource, Simulator
from repro.sim import fluid
from repro.sim.engine import SimulationError
from repro.sim.invariants import invariant_checks


def make_net():
    sim = Simulator()
    return sim, FluidNetwork(sim)


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------

def test_stop_flow_fires_flow_end_hook():
    """Stopped flows must close telemetry like completed ones (they used
    to vanish via _deactivate, leaking spans and skewing counters)."""
    with telemetry_context(trace=False) as tele:
        sim, net = make_net()
        link = Resource("link", 100.0)
        bg = net.start_flow(Flow([link], size=None, label="bg"))
        fg = net.transfer([link], size=50.0)
        sim.run(until=0.25)
        net.stop_flow(bg)
        sim.run()
        assert fg.done.triggered
        started = tele.registry.counter("fluid.flows_started").value
        completed = tele.registry.counter("fluid.flows_completed").value
        aborted = tele.registry.counter("fluid.flows_aborted").value
        assert started == completed == 2.0
        assert aborted == 1.0


def test_stop_flow_closes_wire_span_with_aborted_flag():
    """On a bound cluster the stopped flow's wire span carries aborted."""
    from repro.hardware import Cluster, HENRI
    with telemetry_context() as tele:
        cluster = Cluster(HENRI, 2)
        wire = cluster.wire(0, 1)
        bg = cluster.net.start_flow(Flow([wire], size=None, label="bg"))
        cluster.sim.run(until=0.1)
        cluster.net.stop_flow(bg)
        events = tele.tracer.to_payload()["traceEvents"]
        spans = [ev for ev in events
                 if ev.get("ph") == "X" and ev.get("name") == "bg"]
        assert len(spans) == 1
        assert spans[0]["args"]["aborted"] is True


def test_stop_inactive_flow_is_noop_and_fires_no_hook():
    with telemetry_context(trace=False) as tele:
        sim, net = make_net()
        link = Resource("link", 10.0)
        flow = net.transfer([link], size=10.0)
        sim.run()
        completed = tele.registry.counter("fluid.flows_completed").value
        assert net.stop_flow(flow) == flow.transferred
        assert tele.registry.counter("fluid.flows_completed").value \
            == completed
        assert tele.registry.counter("fluid.flows_aborted").value == 0.0


def test_duplicate_resource_in_path_counted_once():
    """A [membus, membus] path used to subtract capacity twice in _fix
    but count once in the denominator and utilization()."""
    sim, net = make_net()
    membus = Resource("membus", 100.0)
    flow = net.transfer([membus, membus], size=200.0)
    assert flow.resources == (membus,)
    assert flow.rate == pytest.approx(100.0)
    assert net.utilization(membus) == pytest.approx(1.0)
    sim.run()
    assert flow.done.value == pytest.approx(2.0)


def test_duplicate_resource_shares_consistently_with_second_flow():
    sim, net = make_net()
    membus = Resource("membus", 100.0)
    dup = net.transfer([membus, membus], size=1e9)
    other = net.transfer([membus], size=1e9)
    # Both are single-crossing flows of the same bus: equal split.
    assert dup.rate == pytest.approx(50.0)
    assert other.rate == pytest.approx(50.0)
    assert net.utilization(membus) == pytest.approx(1.0)


def test_set_demand_on_inactive_flow_raises():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = Flow([link], size=10.0, demand=5.0)
    with pytest.raises(SimulationError):
        net.set_demand(flow, 1.0)
    assert flow.demand == 5.0  # untouched


def test_set_demand_on_completed_flow_raises():
    sim, net = make_net()
    link = Resource("link", 100.0)
    flow = net.transfer([link], size=10.0)
    sim.run()
    assert flow.done.triggered
    with pytest.raises(SimulationError):
        net.set_demand(flow, 1.0)


# ---------------------------------------------------------------------------
# Edge cases the incremental solver must not regress
# ---------------------------------------------------------------------------

def test_zero_size_flow_does_not_disturb_others():
    sim, net = make_net()
    link = Resource("link", 100.0)
    other = net.transfer([link], size=1e9)
    assert other.rate == pytest.approx(100.0)
    zero = net.transfer([link], size=0.0)
    assert zero.done.triggered
    assert not zero.active
    assert other.rate == pytest.approx(100.0)


def test_same_instant_completion_cascade():
    """Flows sized to finish at the same instant complete in one
    fixed-point pass; the survivor picks up the freed capacity."""
    sim, net = make_net()
    link = Resource("link", 90.0)
    a = net.transfer([link], size=30.0)   # 30 each at t=0
    b = net.transfer([link], size=30.0)
    c = net.transfer([link], size=60.0)
    sim.run()
    assert a.done.value == pytest.approx(1.0)
    assert b.done.value == pytest.approx(1.0)
    # c: 30 B by t=1, remaining 30 B at full 90 B/s.
    assert c.done.value == pytest.approx(1.0 + 30.0 / 90.0)


def test_same_instant_completion_order_is_insertion_order():
    orders = []
    for _ in range(2):
        sim, net = make_net()
        link = Resource("link", 100.0)
        order = []
        flows = [net.transfer([link], size=50.0, label=f"f{i}")
                 for i in range(5)]
        for i, f in enumerate(flows):
            f.done.add_callback(lambda ev, i=i: order.append(i))
        sim.run()
        assert all(f.done.triggered for f in flows)
        orders.append(order)
    assert orders[0] == orders[1] == [0, 1, 2, 3, 4]


def test_starved_flow_rescheduled_after_capacity_restore():
    """A flow frozen at rate 0 has no completion event; restoring
    capacity must re-arm it."""
    sim, net = make_net()
    link = Resource("link", 10.0)
    # Demand-limited at exactly the full capacity (usage 2 x rate 5).
    hog = net.start_flow(Flow([link], size=None, demand=5.0, usage=2.0))
    # Negligible-usage flow: frozen at level 0 on the drained resource.
    starved = net.start_flow(
        Flow([link], size=100.0, demand=50.0, usage=1e-9))
    assert starved.rate == 0.0
    sim.run(until=1.0)
    assert starved.transferred == 0.0
    assert not starved.done.triggered
    link.set_capacity(20.0)
    assert starved.rate == pytest.approx(50.0)
    sim.run()
    assert starved.done.triggered
    assert starved.done.value == pytest.approx(3.0)  # 100 B at 50 B/s


def test_capacity_change_only_recomputes_touched_component():
    sim, net = make_net()
    r1 = Resource("r1", 100.0)
    r2 = Resource("r2", 100.0)
    a = net.transfer([r1], size=1e9)
    b = net.transfer([r2], size=1e9, demand=40.0)
    r1.set_capacity(50.0)
    assert a.rate == pytest.approx(50.0)
    assert b.rate == pytest.approx(40.0)


def test_components_merge_when_bridging_flow_starts():
    sim, net = make_net()
    r1 = Resource("r1", 100.0)
    r2 = Resource("r2", 60.0)
    a = net.transfer([r1], size=1e9)
    b = net.transfer([r2], size=1e9)
    assert (a.rate, b.rate) == (pytest.approx(100.0), pytest.approx(60.0))
    bridge = net.transfer([r1, r2], size=1e9)
    # One component now: r2 splits between b and bridge; a gets the rest
    # of r1.
    assert bridge.rate == pytest.approx(30.0)
    assert b.rate == pytest.approx(30.0)
    assert a.rate == pytest.approx(70.0)


def test_flows_through_uses_adjacency():
    sim, net = make_net()
    r1 = Resource("r1", 100.0)
    r2 = Resource("r2", 100.0)
    a = net.transfer([r1], size=1e9)
    b = net.transfer([r1, r2], size=1e9)
    assert net.flows_through(r1) == [a, b]
    assert net.flows_through(r2) == [b]
    net.stop_flow(a)
    assert net.flows_through(r1) == [b]
    assert net.flows_through(Resource("unused", 1.0)) == []


# ---------------------------------------------------------------------------
# Property test: dirty-component rates == reference global recompute
# ---------------------------------------------------------------------------

def _reference_global_rates(flows):
    """The pre-incremental solver: one global progressive-filling pass
    over *flows* (in activation order).  Returns {flow: rate} without
    touching the network's state."""
    _REL_TOL = 1e-9
    rates = {}
    unfixed = dict.fromkeys(flows)
    for flow in list(unfixed):
        if not flow.resources:
            rates[flow] = flow.demand
            unfixed.pop(flow)

    avail, res_flows = {}, {}
    for flow in unfixed:
        for res in flow.resources:
            if res not in avail:
                avail[res] = res.capacity
                res_flows[res] = {}
            res_flows[res][flow] = None

    def fix(flow, rate):
        rates[flow] = max(0.0, rate)
        for res in flow.resources:
            avail[res] = max(0.0, avail[res] - rates[flow]
                             * flow.usage_on(res))
            res_flows[res].pop(flow, None)

    while unfixed:
        level = math.inf
        for res, fset in res_flows.items():
            if not fset:
                continue
            denom = sum(f.weight * f.usage_on(res) for f in fset)
            if denom > 0:
                level = min(level, avail[res] / denom)
        if not math.isfinite(level):
            for flow in unfixed:
                fix(flow, flow.demand)
            break
        demand_limited = [f for f in unfixed
                          if f.demand <= f.weight * level * (1 + _REL_TOL)]
        if demand_limited:
            for flow in demand_limited:
                fix(flow, flow.demand)
                unfixed.pop(flow)
            continue
        froze = False
        for res, fset in list(res_flows.items()):
            if not fset:
                continue
            denom = sum(f.weight * f.usage_on(res) for f in fset)
            if denom <= 0:
                continue
            if avail[res] / denom <= level * (1 + _REL_TOL):
                for flow in list(fset):
                    if flow in unfixed:
                        fix(flow, flow.weight * level)
                        unfixed.pop(flow)
                        froze = True
        if not froze:
            for flow in list(unfixed):
                fix(flow, flow.weight * level)
            unfixed.clear()
    return rates


op_spec = st.tuples(
    st.sampled_from(["start", "stop", "demand", "capacity"]),
    st.floats(min_value=0.1, max_value=100.0),   # demand / new capacity
    st.floats(min_value=0.25, max_value=4.0),    # weight
    st.floats(min_value=0.5, max_value=2.0),     # usage multiplier
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3,
             unique=True),                        # resource indices
)


@settings(max_examples=120, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=1.0, max_value=200.0),
                  min_size=6, max_size=6),
    ops=st.lists(op_spec, min_size=1, max_size=24),
)
def test_dirty_component_rates_match_global_recompute(caps, ops):
    """After an arbitrary op sequence, the incrementally maintained
    rates equal (a) a from-scratch solve of the same flows on a fresh
    network, bit for bit, and (b) the reference global algorithm within
    1e-9 relative.

    (b) is not asserted exact: the global pass interleaves progressive-
    filling rounds of unrelated components, so its capacity subtractions
    can associate differently by a few ulps — the allocations are the
    same, the roundings need not be.
    """
    sim = Simulator()
    net = FluidNetwork(sim)
    resources = [Resource(f"r{i}", caps[i]) for i in range(6)]
    live = []
    for kind, value, weight, usage, idxs in ops:
        live = [f for f in live if f.active]
        if kind == "start" or not live:
            path = [resources[i] for i in idxs]
            live.append(net.transfer(
                path, size=1e12, demand=value, weight=weight, usage=usage))
        elif kind == "stop":
            net.stop_flow(live[len(idxs) % len(live)])
        elif kind == "demand":
            net.set_demand(live[len(idxs) % len(live)], value)
        else:
            resources[idxs[0]].set_capacity(value)

    active = [f for f in net._flows]  # noqa: SLF001 - activation order

    # (a) Fresh network, same flows in the same order: exact equality.
    # Any stale cache / adjacency / dirty-tracking bug shows up here.
    sim2 = Simulator()
    net2 = FluidNetwork(sim2)
    res_clone = {res: Resource(res.name, res.capacity)
                 for res in resources}
    clones = [Flow([res_clone[r] for r in f.resources], size=f.size,
                   demand=f.demand, weight=f.weight,
                   usage=f._usage_scalar)  # noqa: SLF001 - scalar usages only
              for f in active]
    for clone in clones:
        net2.start_flow(clone)
    # The last start already recomputed globally over everything it
    # connects to; isolated components were each solved on their start.
    for f, clone in zip(active, clones):
        assert f.rate == clone.rate, (f.rate, clone.rate)

    # (b) Reference global algorithm: equal within 1e-9 relative.
    reference = _reference_global_rates(active)
    for f in active:
        assert math.isclose(f.rate, reference[f], rel_tol=1e-9,
                            abs_tol=1e-12), (f.rate, reference[f])


@settings(max_examples=60, deadline=None)
@given(
    cap=st.floats(min_value=10.0, max_value=1000.0),
    sizes=st.lists(st.floats(min_value=1.0, max_value=1000.0),
                   min_size=1, max_size=6),
)
def test_conservation_with_incremental_solver(cap, sizes):
    sim, net = make_net()
    link = Resource("link", cap)
    flows = [net.transfer([link], size=s) for s in sizes]
    sim.run()
    for f, s in zip(flows, sizes):
        assert f.done.triggered
        assert f.transferred == pytest.approx(s, rel=1e-6)
    assert sim.now * cap == pytest.approx(sum(sizes), rel=1e-6)


# ---------------------------------------------------------------------------
# Property test: lazy-refresh kernel == scalar reference, bit for bit
# ---------------------------------------------------------------------------

kernel_op = st.tuples(
    st.sampled_from(["start", "stop", "stop", "demand", "capacity",
                     "advance"]),
    st.floats(min_value=0.1, max_value=100.0),   # demand / capacity / dt
    st.integers(min_value=0, max_value=5),       # resource / flow pick
)

kernel_flow = st.tuples(
    st.one_of(st.just(math.inf),
              st.floats(min_value=0.5, max_value=20.0)),   # demand
    st.floats(min_value=0.25, max_value=4.0),              # weight
    st.lists(st.integers(min_value=0, max_value=4), min_size=1,
             max_size=2, unique=True),                     # own links
    st.one_of(st.just(None),
              st.sampled_from([0.0, 0.5, 1.5, 2.0])),      # usage map
    st.floats(min_value=5.0, max_value=500.0),             # size
)


@settings(max_examples=40, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=20.0, max_value=400.0),
                  min_size=6, max_size=6),
    specs=st.lists(kernel_flow, min_size=40, max_size=64),
    ops=st.lists(kernel_op, max_size=16),
)
def test_kernel_solve_matches_scalar_bitwise(caps, specs, ops):
    """Components of 40+ flows (every flow crosses a shared trunk plus
    one or two of five links) go through starts, stops, demand and
    capacity changes and time advances.  After every step the kernel
    and the scalar reference re-solve all active flows and must agree
    bit for bit with each other and with the rates the incremental
    dispatch produced."""
    sim = Simulator()
    net = FluidNetwork(sim)
    res = [Resource(f"r{i}", cap) for i, cap in enumerate(caps)]
    trunk = res[5]
    flows = []
    for demand, weight, links, usage, size in specs:
        path = [trunk] + [res[i] for i in links]
        # The trunk keeps usage 1.0 so every flow stays bounded.
        flows.append(net.transfer(
            path, size=size, demand=demand, weight=weight,
            usage=1.0 if usage is None else {res[links[0]]: usage}))
    assert len(net._flows) >= fluid._KERNEL_MIN  # noqa: SLF001

    def check():
        active = sorted(net._flows, key=lambda f: f._seq)  # noqa: SLF001
        dispatched = [f.rate for f in active]
        net._assign_rates_kernel(  # noqa: SLF001
            fluid._Component(active), {})  # noqa: SLF001
        kernel = [f.rate for f in active]
        net._assign_rates_scalar(active, {})  # noqa: SLF001
        scalar = [f.rate for f in active]
        assert kernel == scalar
        assert dispatched == scalar

    check()
    for kind, value, pick in ops:
        live = [f for f in flows if f.active]
        if not live:
            break
        if kind == "advance":
            sim.run(until=sim.now + value / 50.0)
        elif kind == "stop":
            net.stop_flow(live[pick % len(live)])
        elif kind == "demand":
            net.set_demand(live[pick % len(live)], value)
        elif kind == "capacity":
            res[pick].set_capacity(value * 4.0)
        else:
            flows.append(net.transfer([trunk, res[pick % 5]], size=50.0,
                                      demand=value))
        check()


def _kernel_and_scalar(flows):
    net = FluidNetwork(Simulator())
    net._assign_rates_kernel(fluid._Component(flows), {})  # noqa: SLF001
    kernel = [f.rate for f in flows]
    net._assign_rates_scalar(flows, {})  # noqa: SLF001
    return kernel, [f.rate for f in flows]


def test_kernel_refreshes_touched_candidate_row():
    """Row ``rj`` starts the pass within the guard (ratio 1 + 0.9e-9
    against level 1), but freezing ``k`` on the lower row ``r0``
    raises its ratio past the guard.  The walk must re-sum the stale
    row instead of freezing ``m`` on its round-start ratio."""
    r0, rj = Resource("r0", 1.0), Resource("rj", 2.0000000018)
    k, m = Flow([r0, rj]), Flow([rj])
    kernel, scalar = _kernel_and_scalar([k, m])
    assert kernel == scalar
    assert m.rate > 1.0 * (1 + 1e-9)


def test_kernel_walks_higher_rows_touched_in_the_pass():
    """Row ``rj`` starts the pass one rounding above the guard, and
    freezing ``k`` (a tiny usage on ``rj``) re-sums its denominator so
    that it rounds to a bottleneck.  The scalar solver freezes ``rj``'s
    flows in the same pass, so the walk must visit every higher row a
    freeze touched, not only the round-start candidates."""
    r0, rj = Resource("r0", 1.0), Resource("rj", 5.153663815024264)
    k = Flow([r0, rj], usage={rj: 3e-9})
    m1 = Flow([rj], weight=2.91670375202997)
    m2 = Flow([rj], weight=2.2369600548406297)
    kernel, scalar = _kernel_and_scalar([k, m1, m2])
    assert kernel == scalar
    assert (m1.rate, m2.rate) == (m1.weight, m2.weight)


def test_kernel_demand_guard_rounds_like_the_scalar():
    """``weight * level * (1 + tol)`` is left-associative in the scalar
    solver.  This demand equals ``weight * (level * (1 + tol))`` and
    is one rounding above the left-associative guard, so the flow is
    bottleneck-limited, not demand-limited."""
    flow = Flow([Resource("r", 31.03)], weight=2.416,
                demand=31.030000031030006)
    kernel, scalar = _kernel_and_scalar([flow])
    assert kernel == scalar
    assert flow.rate < flow.demand


def test_coscheduled_dragonfly_cross_checks_every_solve(monkeypatch):
    """Five uniform all-to-all apps on a 40-node dragonfly: the fabric
    forms components well past the kernel threshold, and every solve
    is cross-checked against the scalar reference."""
    from repro.core.apps import AppSpec, run_apps
    from repro.hardware.fabric import Dragonfly
    from repro.hardware.topology import Cluster

    sizes = []
    solve = FluidNetwork._assign_rates  # noqa: SLF001

    def counting(net, component, touched):
        sizes.append(len(component.flows))
        return solve(net, component, touched)

    monkeypatch.setattr(FluidNetwork, "_assign_rates", counting)
    specs = [AppSpec(name=f"app{i}", pattern="uniform",
                     nodes=tuple(range(i, 40, 5)), size=1 << 20, reps=1,
                     warmup=1)
             for i in range(5)]
    cluster = Cluster("henri", n_nodes=40,
                      topology=Dragonfly(group_size=4))
    with invariant_checks(sample=1):
        results = run_apps(cluster, specs)
    assert max(sizes) >= fluid._KERNEL_MIN  # noqa: SLF001
    for result in results.values():
        assert result.bytes_moved == 8 * 7 * 2 * (1 << 20)


def test_stop_noops_counter_ticks_on_completed_flow():
    """Stopping an already-finished flow is an explicit no-op: the
    ``fluid.stop_noops`` counter ticks, ``on_flow_end`` does not fire a
    second time, and repeated stops keep counting."""
    with telemetry_context(trace=False) as tele:
        sim, net = make_net()
        link = Resource("link", 10.0)
        flow = net.transfer([link], size=10.0)
        sim.run()
        assert flow.done.triggered
        got = net.stop_flow(flow)
        assert got == flow.transferred
        net.stop_flow(flow)
        reg = tele.registry
        assert reg.counter("fluid.stop_noops").value == 2.0
        assert reg.counter("fluid.flows_completed").value == 1.0
        assert reg.counter("fluid.flows_aborted").value == 0.0


# ---------------------------------------------------------------------------
# Engine: generation-based heap-entry reuse
# ---------------------------------------------------------------------------

def test_reschedule_supersedes_previous_entry():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(5.0, fired.append, "late")
    sim.reschedule(handle, 3.0, fired.append, "early")
    sim.run()
    assert fired == ["early"]
    assert sim.now == 3.0
    assert handle.fired


def test_reschedule_after_fire_rearms():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(1.0, fired.append, 1)
    sim.run()
    sim.reschedule(handle, 2.0, fired.append, 2)
    sim.run()
    assert fired == [1, 2]


def test_reschedule_cancelled_handle_revives_it():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(1.0, fired.append, 1)
    handle.cancel()
    sim.reschedule(handle, 4.0, fired.append, 2)
    sim.run()
    assert fired == [2]
    assert sim.now == 4.0


def test_reschedule_into_past_raises():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.reschedule(handle, 0.5, lambda: None)


def test_peek_skips_superseded_entries():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda *a: None, daemon=False)
    sim.reschedule(handle, 7.0, lambda *a: None)
    assert sim.peek() == 7.0


# ---------------------------------------------------------------------------
# P2P: cancelling unmatched requests
# ---------------------------------------------------------------------------

def test_p2p_cancel_unmatched_request():
    from repro.faults.reliability import TransportError
    from repro.hardware import Cluster, HENRI
    from repro.mpi import CommWorld, P2PContext
    world = CommWorld(Cluster(HENRI, 2), comm_placement="near")
    p2p = P2PContext(world)
    req = p2p.isend(0, 1, world.rank(0).buffer(1024), tag=7)
    assert p2p.cancel(req)
    assert req.done.triggered
    with pytest.raises(TransportError):
        _ = req.done.value
    # A matching irecv posted later must NOT pair with the cancelled
    # send: it waits for a fresh partner instead.
    recv = p2p.irecv(1, 0, world.rank(1).buffer(1024), tag=7)
    send2 = p2p.isend(0, 1, world.rank(0).buffer(1024), tag=7)
    world.sim.run()
    assert recv.done.triggered and recv.done.ok
    assert send2.done.triggered and send2.done.ok
    # Cancelling a completed request is refused.
    assert not p2p.cancel(send2)
