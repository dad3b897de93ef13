"""Seeded inputs, digests, failure accounting and the layer map."""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import workloads
from layers import LAYERS, layer_of, repro_modules, unmapped_modules
from workloads import (FABRIC_APP_NODES, FABRIC_GROUP_SIZE, FABRIC_NODES,
                       digest, expected_digest, fabric_placements)

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_fabric_placements_are_disjoint_and_spread(seed):
    apps = fabric_placements(seed)
    nodes = [n for app in apps for n in app]
    assert sorted(nodes) == list(range(FABRIC_NODES))
    assert all(len(app) == FABRIC_APP_NODES for app in apps)
    for app in apps:
        assert len({n // FABRIC_GROUP_SIZE for n in app}) > 1


def test_fabric_placements_are_stable_per_seed():
    assert fabric_placements(3) == fabric_placements(3)
    assert fabric_placements(3) != fabric_placements(4)
    # Pinned: the same seed gives the same inputs on every host.
    assert fabric_placements(0)[0] == (14, 104, 42, 62, 5, 121, 9, 28)


def _link_loads(placements):
    """Sorted per-link counts of the in-app (src, dst) routes crossing
    each dragonfly link."""
    from repro.hardware.fabric import Dragonfly
    topo = Dragonfly(group_size=FABRIC_GROUP_SIZE).build(FABRIC_NODES, 1.0)
    loads = {}
    for app in placements:
        for src in app:
            for dst in app:
                if src != dst:
                    for res in topo.route(src, dst):
                        loads[res.name] = loads.get(res.name, 0) + 1
    return sorted(loads.values())


def test_fabric_placements_share_one_link_sharing_pattern():
    base = _link_loads(fabric_placements(0))
    for seed in (1, 2, 99):
        assert _link_loads(fabric_placements(seed)) == base


def test_digest_is_exact_and_numpy_agnostic():
    a = {"lat": np.array([1.0, 2.5]), "n": np.int64(3)}
    b = {"lat": [1.0, 2.5], "n": 3}
    assert digest(a) == digest(b)
    c = {"lat": [1.0, math.nextafter(2.5, 3.0)], "n": 3}
    assert digest(c) != digest(b)


def test_expected_digest_per_seed_or_seed_free():
    table = {"seeded": {"0": "aa"}, "free": {"*": "bb"}}
    assert expected_digest(table, "seeded", 0) == "aa"
    assert expected_digest(table, "seeded", 1) is None
    assert expected_digest(table, "free", 99) == "bb"
    assert expected_digest(table, "missing", 0) is None


def _fake_children(monkeypatch, reports, setups=(), host=(1.0,)):
    """Make measure() consume canned child reports instead of processes:
    *reports* for full runs, then *setups* and endless good set-up-only
    reports for set-up-only children.  The calibration passes take
    *host* (cycled) times the reference time."""
    full = iter(reports)
    setup = itertools.chain(setups, itertools.repeat({"setup_s": 0.5}))
    passes = itertools.cycle(host)

    def fake_run_child(workload, seed, kind, index, timeout):
        report = next(setup if kind == "setup" else full)
        return None if report is None else dict(report)
    monkeypatch.setattr(bench, "run_child", fake_run_child)
    monkeypatch.setattr(bench, "calibrate",
                        lambda: next(passes) * bench.REFERENCE_S)


def _report(digest_, failures=()):
    return {"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 40.0,
            "digest": digest_, "failures": list(failures)}


def _full(run):
    return [c for c in run["children"] if c["kind"] != "setup"]


def test_digest_mismatch_counts_as_a_failure(monkeypatch):
    _fake_children(monkeypatch, [_report("good"), _report("bad"),
                                 _report("good")])
    run = bench.measure("fabric_uniform", 0, 0.0, False,
                        {"fabric_uniform": {"0": "good"}}, deadline=1e12)
    assert [c["ok"] for c in _full(run)] == [True, False, True]
    assert run["failed"] == 1
    values = bench.summarize(run, trace=False)
    assert values["wall_s"] == 1.0


def test_without_a_reference_children_must_agree(monkeypatch):
    _fake_children(monkeypatch, [_report("x"), _report("x"), _report("y")])
    run = bench.measure("fabric_uniform", 99, 0.0, False, {}, deadline=1e12)
    assert run["failed"] == 1


def test_crashed_child_and_failed_point_are_failures(monkeypatch):
    _fake_children(monkeypatch, [_report("x"), None,
                                 _report("x", ["point workers=8 failed"])])
    run = bench.measure("fig10_campaign", 99, 0.0, False, {}, deadline=1e12)
    assert run["failed"] == 2
    assert [c["ok"] for c in _full(run)] == [True, False, False]


def test_setup_s_pools_set_up_only_children(monkeypatch):
    _fake_children(monkeypatch, [_report("x")] * 3, setups=[None])
    run = bench.measure("fig10_campaign", 0, 0.0, False, {}, deadline=1e12)
    setups = [c for c in run["children"] if c["kind"] == "setup"]
    assert len(setups) >= bench.MIN_SETUP
    assert run["failed"] == 1      # the crashed set-up-only child
    values = bench.summarize(run, trace=False)
    # 0.1 s from three full runs, 0.5 s from at least four set-ups.
    assert values["setup_s"] == 0.5
    assert values["wall_s"] == 1.0


def test_times_are_rescaled_to_the_reference_host_speed(monkeypatch):
    # Every calibration pass ran at half the reference speed.
    _fake_children(monkeypatch, [_report("x")] * 3, host=(2.0,))
    run = bench.measure("fig10_campaign", 0, 0.0, False, {}, deadline=1e12)
    # One pass first and one last; in between, passes take CAL_SHARE of
    # the children's time, which is next to nothing for fake children.
    assert 2 <= len(run["cal"]) < len(run["children"])
    values = bench.summarize(run, trace=False)
    scale = 0.5 ** bench.SENSITIVITY
    assert values["wall_s"] == pytest.approx(1.0 * scale)
    assert values["setup_s"] == pytest.approx(0.5 * scale)
    assert values["peak_rss_mb"] == 40.0


def test_each_full_run_is_rescaled_by_the_passes_around_it():
    ref = bench.REFERENCE_S
    # Passes: one first, two after the first child, none after the
    # second, one last.  The third child ran on a host at half speed.
    children = [dict(_report("x"), kind="plain", ok=True, wall_s=w,
                     passes_before=p)
                for w, p in ((1.0, 1), (1.0, 3), (2.0, 3))]
    run = {"workload": "fig10_campaign", "children": children,
           "cal": [ref, ref, ref, 2 * ref]}
    assert bench.nearest_passes(run) == [[ref] * 3, [ref] * 2,
                                         [2 * ref]]
    values = bench.summarize(run, trace=False)
    assert values["wall_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(
        0.1 * (1 / 1.25) ** bench.SENSITIVITY)


def test_speed_scale_uses_the_mean_pass_time():
    ref = bench.REFERENCE_S
    assert bench.speed_scale([ref] * 5) == pytest.approx(1.0)
    assert bench.speed_scale([ref, 3 * ref]) == \
        pytest.approx(0.5 ** bench.SENSITIVITY)
    assert bench.speed_scale([ref / 2] * 2) > 1.0


def test_calibration_pass_is_timed_with_the_cyclic_gc_off():
    import gc

    from calibrate import calibrate
    assert gc.isenabled()
    assert 0.0 < calibrate() < 60.0
    assert gc.isenabled()


def test_set_up_only_children_share_the_time_and_fill_the_rest():
    def kids(*kinds_elapsed):
        return [{"kind": k, "elapsed": e} for k, e in kinds_elapsed]

    last = {"plain": 4.0, "setup": 0.3}
    assert bench.next_kind([], False, 0.0, 40.0, {}) == "plain"
    one = kids(("plain", 4.0))
    assert bench.next_kind(one, False, 4.0, 40.0, last) == "setup"
    more = one + kids(*[("setup", 0.3)] * 3)
    assert bench.next_kind(more, False, 4.9, 40.0, last) == "plain"
    late = kids(*[("plain", 4.0)] * 8, *[("setup", 0.3)] * 17)
    assert bench.next_kind(late, False, 38.0, 40.0, last) == "setup"
    assert bench.next_kind(late, False, 39.9, 40.0, last) is None
    # Traced runs alternate and have no set-up-only children.
    assert bench.next_kind(one, True, 4.0, 40.0, last) == "traced"
    assert bench.next_kind(one, True, 39.0, 40.0, last) == "traced"
    both = one + kids(("traced", 6.0))
    assert bench.next_kind(both, True, 39.0, 40.0,
                           dict(last, traced=6.0)) is None


def test_traced_run_reports_layer_medians_and_overhead(monkeypatch):
    layers = {name: 1.0 for name in bench.PER_LAYER
              if name != "tracing_overhead_s"}
    traced = dict(_report("x"), wall_s=1.5, layers=layers)
    _fake_children(monkeypatch, [_report("x"), traced])
    run = bench.measure("fig2_telemetry", 0, 0.0, True, {}, deadline=1e12)
    assert [c["kind"] for c in run["children"]] == ["plain", "traced"]
    values = bench.summarize(run, trace=True)
    assert set(values) == set(bench.PER_LAYER)
    assert values["tracing_overhead_s"] == 0.5
    assert values["fluid.calls"] == 1.0


def test_every_repro_module_maps_to_a_layer():
    src = ROOT / "src"
    assert len(repro_modules(src)) > 50
    assert unmapped_modules(src) == []


def test_layer_map_rules():
    assert layer_of("repro.sim.fluid") == "fluid"
    assert layer_of("repro.sim.trace") == "sampler"
    assert layer_of("repro.core.campaign") == "executor"
    assert layer_of("repro.core.experiments") == "core"
    assert layer_of("repro.runtime.apps.cg") == "runtime"
    assert layer_of("repro.faults.chaos") == "executor"
    # The sim package is mapped module by module: a new one is unmapped.
    assert layer_of("repro.sim.newmodule") is None
    assert layer_of("numpy") is None
    assert set(bench.PER_LAYER) >= {f"{layer}.self_s" for layer in LAYERS}


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2_telemetry",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
