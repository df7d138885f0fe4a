"""Tests for the data-driven cluster topology layer.

Three groups of guarantees:

* **Degeneracy** — a single-cluster topology is bit-identical to the
  monolithic baseline, and the canned two-cluster topology reproduces the
  existing golden ladder pins exactly (the topology refactor must not move
  the paper's design point by one cycle).
* **Generalisation** — multi-helper, wider-helper and mixed-clock topologies
  simulate deterministically with N clock domains.
* **Cache-key contract** — the result-cache key is derived from the full
  canonical config (``to_key_dict``), so *any* config field change changes
  the key (the stale-cache bugfix).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import (
    ClusterSpec,
    MachineConfig,
    Topology,
    baseline_config,
    helper_cluster_config,
    helper_topology,
    monolithic_topology,
    topology_config,
)
from repro.core.steering import make_policy
from repro.pipeline.clocking import ClockingModel
from repro.sim.engine import SweepEngine, SweepJob
from repro.sim.experiment import (
    ExperimentRunner,
    build_topology_grid,
    run_spec_suite,
)
from repro.sim.simulator import simulate
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace

from test_golden_ladder import MINI_LADDER_SPEEDUPS


# ---------------------------------------------------------------------------
# ClusterSpec / Topology construction
# ---------------------------------------------------------------------------
class TestTopologyConstruction:
    def test_paper_topology_shape(self):
        topology = helper_topology()
        assert len(topology) == 2
        assert topology.host.datapath_width == 32
        assert topology.host.has_fp
        helper = topology.helpers[0]
        assert helper.datapath_width == 8
        assert helper.clock_ratio == 2
        assert not helper.has_fp
        assert topology.narrow_width == 8
        assert topology.max_clock_ratio == 2

    def test_multi_helper_names_and_counts(self):
        topology = helper_topology(helpers=3)
        assert topology.num_helpers == 3
        assert [spec.name for spec in topology.helpers] == [
            "narrow0", "narrow1", "narrow2"]

    def test_host_must_run_at_ratio_one(self):
        with pytest.raises(ValueError):
            Topology((ClusterSpec(name="wide", clock_ratio=2),))

    def test_helper_cannot_be_wider_than_host(self):
        host = ClusterSpec(name="wide", datapath_width=16, has_fp=True)
        with pytest.raises(ValueError):
            Topology((host, ClusterSpec(name="narrow", datapath_width=32)))

    def test_cluster_names_unique(self):
        host = ClusterSpec(name="wide", has_fp=True)
        with pytest.raises(ValueError):
            Topology((host, ClusterSpec(name="wide", datapath_width=8)))

    def test_host_must_have_fp_units(self):
        # Steering keeps FP/MUL/DIV in the host; an FP-less host would
        # deadlock the simulator on the first FP uop, so it is rejected.
        with pytest.raises(ValueError, match="FP"):
            Topology((ClusterSpec(name="wide"),))

    def test_with_scheduler_reaches_explicit_topology(self):
        config = topology_config(helper_topology()).with_scheduler(
            queue_size=16, issue_width=2)
        for spec in config.topology.clusters:
            assert spec.queue_size == 16
            assert spec.issue_width == 2

    def test_per_cluster_flush_penalty_reaches_recovery(self):
        from repro.pipeline.recovery import RecoveryManager

        manager = RecoveryManager(clock_ratio=2)
        paper = manager.trigger(1, 1, fast_cycle=100, penalty_slow=5)
        assert paper.refetch_ready_cycle == 110
        slow = manager.trigger(2, 2, fast_cycle=100, penalty_slow=20)
        assert slow.refetch_ready_cycle == 140

    def test_derived_topology_matches_shim(self):
        config = helper_cluster_config(narrow_width=16, clock_ratio=4)
        topology = config.topology
        assert topology.num_helpers == 1
        assert topology.helpers[0].datapath_width == 16
        assert topology.helpers[0].clock_ratio == 4
        assert config.narrow_width == 16
        assert config.clock_ratio == 4

    def test_mixed_helper_topology_shapes_and_names(self):
        from repro.core.config import mixed_helper_topology

        topology = mixed_helper_topology([(8, 2), (16, 1), (8, 2)])
        assert [spec.name for spec in topology.helpers] == [
            "n8x2", "n16x1", "n8x2_1"]
        assert topology.narrow_width == 8
        assert topology.max_clock_ratio == 2
        with pytest.raises(ValueError):
            mixed_helper_topology([])


# ---------------------------------------------------------------------------
# N-domain clocking
# ---------------------------------------------------------------------------
class TestMultiDomainClocking:
    def test_from_ratios_paper_point(self):
        clk = ClockingModel.from_ratios([1, 2])
        assert clk.ratio == 2
        assert clk.periods == (2, 1)

    def test_from_ratios_mixed(self):
        clk = ClockingModel.from_ratios([1, 2, 4])
        assert clk.ratio == 4
        assert clk.periods == (4, 2, 1)
        # Domain 1 (2x clock) is active every second fast cycle.
        active = [t for t in range(8) if clk.domain_active(1, t)]
        assert active == [0, 2, 4, 6]
        assert clk.exec_latency(0, 1) == 4
        assert clk.exec_latency(1, 1) == 2
        assert clk.exec_latency(2, 1) == 1
        assert clk.next_active_cycle(1, 3) == 4

    def test_from_ratios_requires_host_at_one(self):
        with pytest.raises(ValueError):
            ClockingModel.from_ratios([2, 2])

    def test_default_model_is_two_domain(self):
        clk = ClockingModel(ratio=3)
        assert clk.periods == (3, 1)


# ---------------------------------------------------------------------------
# Degeneracy: topologies reproduce the original machines bit-identically
# ---------------------------------------------------------------------------
class TestTopologyDegeneracy:
    def test_single_cluster_equals_monolithic_baseline(self, tiny_trace):
        mono = simulate(tiny_trace, config=baseline_config(),
                        policy=make_policy("baseline"))
        topo = simulate(tiny_trace, config=topology_config(monolithic_topology()),
                        policy=make_policy("baseline"))
        assert topo == mono

    def test_two_cluster_topology_equals_shim_config(self, tiny_trace):
        for policy in ("n888", "ir"):
            canned = simulate(tiny_trace, config=helper_cluster_config(),
                              policy=make_policy(policy))
            topo = simulate(tiny_trace, config=topology_config(helper_topology()),
                            policy=make_policy(policy))
            assert topo == canned, f"topology run drifted for {policy}"

    def test_two_cluster_topology_reproduces_golden_pins(self):
        """The canned topology must hit the golden ladder pins exactly."""
        policies = list(MINI_LADDER_SPEEDUPS)
        sweep = run_spec_suite(policies, trace_uops=2500, seed=2006,
                               benchmarks=["gcc"],
                               config=topology_config(helper_topology()))
        for policy, expected in MINI_LADDER_SPEEDUPS.items():
            value = sweep.speedup_series(policy)["gcc"]
            assert value == pytest.approx(expected["gcc"], rel=1e-12), (
                f"gcc/{policy} under the canned topology drifted: "
                f"{value:.12f} != {expected['gcc']:.12f}")


# ---------------------------------------------------------------------------
# Generalised machines actually work
# ---------------------------------------------------------------------------
class TestGeneralisedTopologies:
    def test_two_helper_machine_runs_and_uses_both(self, tiny_trace):
        config = topology_config(helper_topology(helpers=2))
        result = simulate(tiny_trace, config=config, policy=make_policy("ir"))
        assert result.committed_uops == len(tiny_trace)
        assert result.helper_fraction > 0.0
        occ = result.cluster_occupancy
        assert set(occ) == {"wide", "narrow0", "narrow1"}
        assert occ["narrow0"] > 0.0 and occ["narrow1"] > 0.0

    def test_sixteen_bit_helper_one_line_config(self, tiny_trace):
        result = simulate(tiny_trace,
                          config=topology_config(helper_topology(narrow_width=16)),
                          policy=make_policy("ir"))
        assert result.helper_fraction > 0.0
        assert result.slow_cycles > 0

    def test_mixed_clock_ratio_topology(self, tiny_trace):
        host = helper_topology().host
        topology = Topology((
            host,
            ClusterSpec(name="n8", datapath_width=8, clock_ratio=2),
            ClusterSpec(name="n16", datapath_width=16, clock_ratio=4),
        ))
        result = simulate(tiny_trace, config=topology_config(topology),
                          policy=make_policy("ir"))
        # Fast cycles are lcm(1,2,4)=4 per slow cycle.
        assert result.slow_cycles == pytest.approx(result.fast_cycles / 4)
        assert result.helper_fraction > 0.0

    def test_multi_helper_is_deterministic(self, tiny_trace):
        config = topology_config(helper_topology(helpers=2))
        first = simulate(tiny_trace, config=config, policy=make_policy("ir"))
        second = simulate(tiny_trace, config=config, policy=make_policy("ir"))
        assert first == second


# ---------------------------------------------------------------------------
# Design-space exploration through the engine
# ---------------------------------------------------------------------------
class TestTopologyGrid:
    def test_default_grid_has_twelve_points(self):
        points = build_topology_grid()
        assert len(points) == 12
        assert "w8x2h1" in {p.name for p in points}

    def test_grid_sweep_serial_parallel_and_cache(self, tmp_path):
        points = build_topology_grid(widths=[8], ratios=[1, 2],
                                     helper_counts=[1, 2])
        profiles = [get_profile("gcc")]

        serial = ExperimentRunner(trace_uops=1500, seed=2006, jobs=1)
        serial_sweep = serial.run_topology_grid(points, profiles, policy="ir")

        cache_dir = tmp_path / "cache"
        parallel = ExperimentRunner(trace_uops=1500, seed=2006, jobs=2,
                                    cache_dir=str(cache_dir),
                                    allow_oversubscribe=True)
        parallel_sweep = parallel.run_topology_grid(points, profiles, policy="ir")
        for point in points:
            assert parallel_sweep.speedup(point.name, "gcc") == \
                serial_sweep.speedup(point.name, "gcc")

        # A second run over the same grid must be served from the cache.
        rerun = ExperimentRunner(trace_uops=1500, seed=2006, jobs=2,
                                 cache_dir=str(cache_dir),
                                 allow_oversubscribe=True)
        rerun_sweep = rerun.run_topology_grid(points, profiles, policy="ir")
        assert rerun.cache.hits == len(points) + 1  # points + shared baseline
        assert rerun.cache.misses == 0
        for point in points:
            assert rerun_sweep.speedup(point.name, "gcc") == \
                serial_sweep.speedup(point.name, "gcc")


# ---------------------------------------------------------------------------
# Cache-key contract: any config change changes the key
# ---------------------------------------------------------------------------
class TestCanonicalCacheKey:
    def _key(self, config: MachineConfig) -> str:
        engine = SweepEngine(config=config)
        job = SweepJob("gcc", "ir", 1000, 2006)
        return engine.key_for(job)

    def test_any_config_field_change_changes_key(self):
        base = helper_cluster_config()
        base_key = self._key(base)
        variants = {
            "fetch_width": replace(base, fetch_width=8),
            "commit_width": replace(base, commit_width=4),
            "rob_size": replace(base, rob_size=64),
            "scheduler.queue_size": base.with_scheduler(queue_size=16),
            "scheduler.issue_width": base.with_scheduler(issue_width=4),
            "predictor.table_entries": base.with_predictor(table_entries=512),
            "predictor.use_confidence": base.with_predictor(use_confidence=False),
            "predictor.confidence_threshold":
                base.with_predictor(confidence_threshold=3),
            "helper.narrow_width": base.with_topology(
                helper_topology(narrow_width=16)),
            "helper.clock_ratio": base.with_topology(
                helper_topology(clock_ratio=1)),
            "helper.flush_penalty_slow": base.with_topology(
                helper_topology(flush_penalty_slow=7)),
            "memory.main_memory_latency": replace(
                base, memory=replace(base.memory, main_memory_latency=300)),
            "memory.dl0.hit_latency": replace(
                base, memory=replace(base.memory,
                                     dl0=replace(base.memory.dl0, hit_latency=2))),
            "trace_cache.miss_penalty": replace(
                base, trace_cache=replace(base.trace_cache, miss_penalty=20)),
            "topology.helpers": base.with_topology(helper_topology(helpers=2)),
            "topology.cluster_queue": base.with_topology(Topology((
                helper_topology().host,
                replace(helper_topology().helpers[0], queue_size=16)))),
        }
        keys = {"base": base_key}
        for label, config in variants.items():
            key = self._key(config)
            assert key != base_key, f"{label} change did not change the cache key"
            keys[label] = key
        assert len(set(keys.values())) == len(keys), "distinct configs collided"

    def test_key_stable_for_equal_configs(self):
        assert self._key(helper_cluster_config()) == \
            self._key(helper_cluster_config())

    def test_paper_topology_and_canned_config_share_a_key(self):
        # One machine, one description: the canned constructor is the
        # paper topology, so both spellings share cache entries.
        canned = self._key(helper_cluster_config())
        explicit = self._key(topology_config(helper_topology()))
        assert canned == explicit

    def test_job_carried_config_overrides_engine_config(self):
        engine = SweepEngine(config=helper_cluster_config())
        plain = SweepJob("gcc", "ir", 1000, 2006)
        carried = SweepJob("gcc", "ir", 1000, 2006,
                           config=topology_config(helper_topology(helpers=2)))
        assert engine.key_for(plain) != engine.key_for(carried)

    def test_baseline_key_ignores_helper_config(self):
        # The baseline policy always runs the monolithic machine, so two
        # engines that differ only in helper topology share baseline entries.
        job = SweepJob("gcc", "baseline", 1000, 2006)
        first = SweepEngine(config=helper_cluster_config()).key_for(job)
        second = SweepEngine(
            config=topology_config(helper_topology(helpers=2))).key_for(job)
        assert first == second
