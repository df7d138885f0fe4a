"""Tests for the Wattch-like power model and energy-delay² accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    ClusterSpec,
    mixed_helper_topology,
    monolithic_topology,
)
from repro.power.energy import EnergyReport, compare_ed2, energy_delay_squared, report_from_activity
from repro.power.wattch import ActivityCounts, ClusterActivity, PowerConfig, PowerModel


def activity(**overrides) -> ActivityCounts:
    base = ActivityCounts(
        wide_cycles=1000, fast_cycles=2000, fetched_uops=5000, committed_uops=5000,
        wide_alu_ops=2000, narrow_alu_ops=1000, wide_agu_ops=800, narrow_agu_ops=200,
        fpu_ops=100, wide_regfile_accesses=9000, narrow_regfile_accesses=3000,
        wide_scheduler_ops=3000, narrow_scheduler_ops=1500, rename_ops=5000,
        rob_ops=5000, dl0_accesses=1500, ul1_accesses=100, memory_accesses=10,
        predictor_accesses=5000, copies=500, helper_present=True)
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestPowerModel:
    def test_total_positive(self):
        breakdown = PowerModel().evaluate(activity())
        assert breakdown.total > 0

    def test_narrow_structures_cheaper_per_access(self):
        config = PowerConfig()
        model = PowerModel(config)
        wide_only = model.evaluate(activity(narrow_alu_ops=0, wide_alu_ops=1000))
        narrow_only = model.evaluate(activity(narrow_alu_ops=1000, wide_alu_ops=0))
        assert narrow_only.per_structure["narrow_execute"] < wide_only.per_structure["wide_execute"]

    def test_width_scale(self):
        assert PowerConfig().width_scale(8) == pytest.approx(0.25)
        assert PowerConfig().width_scale(16) == pytest.approx(0.5)

    def test_no_helper_no_narrow_clock(self):
        breakdown = PowerModel().evaluate(activity(helper_present=False))
        assert breakdown.per_structure["narrow_clock"] == 0.0

    def test_helper_adds_clock_energy(self):
        breakdown = PowerModel().evaluate(activity())
        assert breakdown.per_structure["narrow_clock"] > 0

    def test_fraction(self):
        breakdown = PowerModel().evaluate(activity())
        assert 0 < breakdown.fraction("memory") < 1
        assert breakdown.fraction("nonexistent") == 0.0

    def test_energy_monotone_in_activity(self):
        small = PowerModel().evaluate(activity(copies=0))
        large = PowerModel().evaluate(activity(copies=10_000))
        assert large.total > small.total

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_total_nonnegative(self, alu_ops):
        breakdown = PowerModel().evaluate(activity(wide_alu_ops=alu_ops))
        assert breakdown.total >= 0


def cluster_activity(name="c", width=32, ratio=1, **overrides) -> ClusterActivity:
    base = ClusterActivity(name=name, datapath_width=width, clock_ratio=ratio,
                           cycles=1000, alu_ops=400, agu_ops=150, fpu_ops=0,
                           regfile_accesses=1800, scheduler_ops=600)
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestPerClusterScaling:
    """Per-cluster coefficient derivation from ClusterSpec (§2.1 scaling).

    The paper's argument: narrow-structure access energy scales linearly
    with datapath width, and a faster-clocked helper burns proportionally
    more clock energy.  Pinned here per cluster, including the asymmetric
    ``8@2+16@1`` mix of the ROADMAP.
    """

    #: the mixed machine's helpers: (cluster name, width, clock ratio)
    MIXED_HELPERS = [("n8x2", 8, 2), ("n16x1", 16, 1)]

    @pytest.fixture(scope="class")
    def mixed(self):
        return mixed_helper_topology([(8, 2), (16, 1)])

    @pytest.mark.parametrize("name,width,ratio", MIXED_HELPERS)
    def test_access_energy_scales_linearly_with_width(self, mixed, name,
                                                      width, ratio):
        """A w-bit cluster's regfile/ALU access energy is w/32 of the wide
        cluster's, per access, on the mixed topology."""
        model = PowerModel()
        host = mixed.host
        spec = next(s for s in mixed.helpers if s.name == name)
        counts = dict(cycles=0, alu_ops=1000, agu_ops=500, regfile_accesses=3000)
        wide = model.evaluate_cluster(
            host, cluster_activity(name="wide", **counts), is_host=True)
        narrow = model.evaluate_cluster(
            spec, cluster_activity(name=name, width=width, ratio=ratio,
                                   **counts))
        scale = width / 32
        assert narrow.per_structure["regfile"] == pytest.approx(
            scale * wide.per_structure["regfile"])
        assert narrow.per_structure["execute"] == pytest.approx(
            scale * wide.per_structure["execute"])
        assert narrow.per_structure["scheduler"] == pytest.approx(
            scale * wide.per_structure["scheduler"])

    def test_eight_bit_regfile_is_quarter_of_wide(self, mixed):
        """The paper design point's 8/32 factor, spelled out."""
        model = PowerModel()
        spec = next(s for s in mixed.helpers if s.name == "n8x2")
        act = cluster_activity(name="n8x2", width=8, ratio=2,
                               cycles=0, regfile_accesses=1)
        act.alu_ops = act.agu_ops = act.scheduler_ops = 0
        wide_act = cluster_activity(name="wide", cycles=0, regfile_accesses=1)
        wide_act.alu_ops = wide_act.agu_ops = wide_act.scheduler_ops = 0
        narrow = model.evaluate_cluster(spec, act)
        wide = model.evaluate_cluster(mixed.host, wide_act, is_host=True)
        assert narrow.total == pytest.approx(wide.total * 8 / 32)

    @pytest.mark.parametrize("name,width,ratio", MIXED_HELPERS)
    def test_clock_energy_scales_with_clock_ratio(self, mixed, name, width,
                                                  ratio):
        """Over a fixed host-cycle window a ratio-r helper clocks r times as
        often, so its clock-network energy scales with ``clock_ratio``."""
        model = PowerModel()
        spec = next(s for s in mixed.helpers if s.name == name)
        host_cycles = 500
        act = cluster_activity(name=name, width=width, ratio=ratio,
                               cycles=host_cycles * ratio,
                               alu_ops=0, agu_ops=0, regfile_accesses=0,
                               scheduler_ops=0)
        reference = cluster_activity(name=name, width=width, ratio=1,
                                     cycles=host_cycles, alu_ops=0, agu_ops=0,
                                     regfile_accesses=0, scheduler_ops=0)
        clocked = model.evaluate_cluster(spec, act)
        unclocked = model.evaluate_cluster(spec, reference)
        assert clocked.per_structure["clock"] == pytest.approx(
            ratio * unclocked.per_structure["clock"])

    def test_helper_clock_coefficient_matches_legacy_at_ref_width(self):
        """At the 8-bit reference width the derived helper clock coefficient
        is exactly the legacy ``narrow_clock_per_cycle``."""
        cfg = PowerConfig()
        model = PowerModel(cfg)
        spec = ClusterSpec(name="h", datapath_width=8, clock_ratio=2)
        co = model.coefficients_for(spec, is_host=False)
        assert co.clock_per_cycle == cfg.narrow_clock_per_cycle
        sixteen = ClusterSpec(name="h16", datapath_width=16, clock_ratio=1)
        assert model.coefficients_for(sixteen, False).clock_per_cycle == \
            pytest.approx(2 * cfg.narrow_clock_per_cycle)

    def test_scheduler_energy_scales_with_queue_size(self):
        model = PowerModel()
        small = ClusterSpec(name="s", datapath_width=8, clock_ratio=2,
                            queue_size=16)
        big = ClusterSpec(name="b", datapath_width=8, clock_ratio=2,
                          queue_size=32)
        act = cluster_activity(name="x", width=8, ratio=2)
        assert model.evaluate_cluster(small, act).per_structure["scheduler"] \
            == pytest.approx(
                0.5 * model.evaluate_cluster(big, act).per_structure["scheduler"])

    def test_fp_capable_helper_pays_fp_clock_adder(self):
        cfg = PowerConfig()
        model = PowerModel(cfg)
        plain = ClusterSpec(name="p", datapath_width=16, clock_ratio=1)
        fp = ClusterSpec(name="f", datapath_width=16, clock_ratio=1, has_fp=True)
        assert model.coefficients_for(fp, False).clock_per_cycle == \
            pytest.approx(model.coefficients_for(plain, False).clock_per_cycle
                          + cfg.fp_clock_per_cycle)

    def test_evaluate_topology_covers_every_cluster(self, mixed):
        model = PowerModel()
        acts = {spec.name: cluster_activity(name=spec.name,
                                            width=spec.datapath_width,
                                            ratio=spec.clock_ratio)
                for spec in mixed.clusters}
        breakdowns = model.evaluate_topology(mixed, acts)
        assert set(breakdowns) == {"wide", "n8x2", "n16x1"}
        assert all(b.total > 0 for b in breakdowns.values())

    def test_monolithic_topology_single_breakdown(self):
        model = PowerModel()
        topo = monolithic_topology()
        breakdowns = model.evaluate_topology(
            topo, {"wide": cluster_activity(name="wide")})
        assert set(breakdowns) == {"wide"}


class TestEnergyDelay:
    def test_ed2_definition(self):
        report = EnergyReport(label="x", energy=10.0, delay_cycles=4.0)
        assert report.energy_delay == 40.0
        assert report.energy_delay_squared == 160.0

    def test_energy_delay_squared_builder(self):
        breakdown = PowerModel().evaluate(activity())
        report = energy_delay_squared(breakdown, delay_cycles=100, label="run")
        assert report.energy == pytest.approx(breakdown.total)

    def test_invalid_delay(self):
        breakdown = PowerModel().evaluate(activity())
        with pytest.raises(ValueError):
            energy_delay_squared(breakdown, delay_cycles=0)

    def test_report_from_activity(self):
        report = report_from_activity(activity(), delay_cycles=1000, label="helper")
        assert report.label == "helper"
        assert report.energy > 0

    def test_compare_ed2_sign(self):
        baseline = EnergyReport("base", energy=100.0, delay_cycles=10.0)
        better = EnergyReport("helper", energy=105.0, delay_cycles=9.0)
        worse = EnergyReport("bad", energy=150.0, delay_cycles=11.0)
        assert compare_ed2(baseline, better) > 0
        assert compare_ed2(baseline, worse) < 0

    def test_compare_ed2_invalid_baseline(self):
        with pytest.raises(ValueError):
            compare_ed2(EnergyReport("b", 0.0, 1.0), EnergyReport("c", 1.0, 1.0))

    def test_faster_but_bigger_machine_can_win_ed2(self):
        """The helper cluster adds energy per cycle but reduces cycles; ED²
        rewards the trade exactly as §3.7 argues."""
        base_activity = activity(helper_present=False, narrow_alu_ops=0,
                                 narrow_scheduler_ops=0, narrow_regfile_accesses=0,
                                 copies=0, fast_cycles=1000)
        helper_activity = activity()
        base = report_from_activity(base_activity, delay_cycles=1200, label="baseline")
        helper = report_from_activity(helper_activity, delay_cycles=1000, label="helper")
        # With an ~17% cycle reduction the quadratic delay term dominates the
        # added helper energy.
        assert compare_ed2(base, helper) > 0
