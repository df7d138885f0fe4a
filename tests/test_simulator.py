"""Integration tests for the helper-cluster timing simulator.

These run small synthetic traces through the full machine and check
architectural and accounting invariants rather than absolute cycle counts.
"""

import pytest

from repro.core.config import baseline_config, helper_cluster_config
from repro.core.steering import make_policy
from repro.pipeline.clocking import ClockDomain
from repro.sim.baseline import baseline_pair, simulate_baseline
from repro.sim.metrics import speedup
from repro.sim.simulator import HelperClusterSimulator, simulate
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace


class TestBaselineRun:
    def test_all_uops_commit(self, tiny_trace):
        result = simulate_baseline(tiny_trace)
        assert result.committed_uops == len(tiny_trace)

    def test_no_helper_activity(self, tiny_trace):
        result = simulate_baseline(tiny_trace)
        assert result.helper_uops == 0
        assert result.copies == 0
        assert result.recoveries == 0
        assert result.helper_fraction == 0.0

    def test_positive_ipc(self, tiny_trace):
        result = simulate_baseline(tiny_trace)
        assert 0.0 < result.ipc <= 6.0
        assert result.slow_cycles > 0
        assert result.fast_cycles == result.slow_cycles  # ratio 1 in baseline

    def test_deterministic(self, tiny_trace):
        a = simulate_baseline(tiny_trace)
        b = simulate_baseline(tiny_trace)
        assert a.slow_cycles == b.slow_cycles
        assert a.committed_uops == b.committed_uops


class TestHelperRun:
    @pytest.mark.parametrize("policy_name", ["n888", "n888_br_lr", "n888_br_lr_cr",
                                             "n888_br_lr_cr_cp", "ir", "ir_nodest"])
    def test_all_uops_commit_under_every_policy(self, tiny_trace, policy_name):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy(policy_name))
        assert result.committed_uops == len(tiny_trace)
        assert result.policy == policy_name

    def test_helper_gets_work(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("ir"))
        assert result.helper_uops > 0
        assert 0.0 < result.helper_fraction < 1.0

    def test_fast_cycles_track_clock_ratio(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888"))
        assert result.fast_cycles == pytest.approx(result.slow_cycles * 2)

    def test_prediction_breakdown_sums(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888_br_lr_cr"))
        breakdown = result.prediction
        assert breakdown.total > 0
        assert breakdown.correct + breakdown.non_fatal + breakdown.fatal == breakdown.total
        assert breakdown.accuracy > 0.6

    def test_fatal_mispredictions_trigger_recoveries(self, bzip2_trace_small):
        result = simulate(bzip2_trace_small, config=helper_cluster_config(),
                          policy=make_policy("n888_br_lr_cr"))
        # fatal rate and recoveries must be consistent: every recovery stems
        # from a narrow-steered misprediction (width or carry).
        assert result.recoveries >= 0
        if result.prediction.fatal > 0:
            assert result.recoveries > 0

    def test_copies_only_with_helper(self, tiny_trace):
        helper = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888"))
        assert helper.copies >= 0
        assert helper.copy_fraction < 1.0

    def test_steer_reasons_cover_all_commits(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("ir"))
        assert sum(result.steer_reasons.values()) == result.committed_uops

    def test_activity_counts_filled(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888"))
        activity = result.activity
        assert activity.fetched_uops >= len(tiny_trace)
        assert activity.committed_uops == len(tiny_trace)
        assert activity.wide_cycles > 0
        assert activity.dl0_accesses > 0
        assert activity.helper_present

    def test_cluster_activity_per_cluster(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888"))
        assert set(result.cluster_activity) == {"wide", "narrow"}
        wide = result.cluster_activity["wide"]
        narrow = result.cluster_activity["narrow"]
        # The aggregate view is exactly the per-cluster counts folded down.
        activity = result.activity
        assert activity.wide_alu_ops == wide.alu_ops
        assert activity.narrow_alu_ops == narrow.alu_ops
        assert activity.wide_scheduler_ops == wide.scheduler_ops
        assert activity.narrow_regfile_accesses == narrow.regfile_accesses
        # A 2x helper clocks twice per host cycle over the same run.
        assert wide.cycles == activity.wide_cycles
        assert narrow.cycles == activity.fast_cycles
        assert narrow.clock_ratio == 2 and narrow.datapath_width == 8

    def test_energy_attached_by_default(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888"))
        assert result.has_energy
        assert set(result.power) == {"wide", "narrow"}
        assert result.energy > 0 and result.ed2 > 0
        assert result.shared_power.per_structure["frontend"] > 0
        assert result.selector == "least_loaded"

    def test_imbalance_rates_bounded(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888_br_lr_cr"))
        assert 0.0 <= result.wide_to_narrow_imbalance <= 1.0
        assert 0.0 <= result.narrow_to_wide_imbalance <= 1.0

    def test_simulator_object_reusable_state(self, tiny_trace):
        sim = HelperClusterSimulator(tiny_trace, config=helper_cluster_config(),
                                     policy=make_policy("n888"))
        result = sim.run()
        assert result.committed_uops == len(tiny_trace)
        assert sim.rob.is_empty()
        assert len(sim.wide.issue_queue) == 0
        assert len(sim.helpers[0].issue_queue) == 0


class TestSpeedupRelations:
    def test_helper_cluster_helps_narrow_heavy_workload(self):
        trace = generate_trace(get_profile("gzip"), 4000, seed=3)
        base, helper, gain = baseline_pair(trace, "n888_br_lr_cr")
        assert base.committed_uops == helper.committed_uops
        assert gain > 0.0

    def test_speedup_helper_function(self, tiny_trace):
        base = simulate_baseline(tiny_trace)
        helper = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888"))
        gain = speedup(base, helper)
        assert gain == pytest.approx(base.slow_cycles / helper.slow_cycles - 1.0)

    def test_speedup_requires_positive_cycles(self, tiny_trace):
        base = simulate_baseline(tiny_trace)
        broken = simulate_baseline(tiny_trace)
        broken.slow_cycles = 0
        with pytest.raises(ValueError):
            speedup(base, broken)

    def test_clock_ratio_one_is_not_faster_than_two(self):
        """With the same steering, a 2x-clocked helper should never lose to a
        1x symmetric helper on a narrow-friendly trace."""
        trace = generate_trace(get_profile("gzip"), 3000, seed=5)
        fast = simulate(trace, config=helper_cluster_config(clock_ratio=2),
                        policy=make_policy("n888_br_lr_cr"))
        slow = simulate(trace, config=helper_cluster_config(clock_ratio=1),
                        policy=make_policy("n888_br_lr_cr"))
        assert fast.slow_cycles <= slow.slow_cycles * 1.05

    def test_baseline_equals_helper_disabled(self, tiny_trace):
        mono = simulate_baseline(tiny_trace)
        disabled = simulate(tiny_trace, config=baseline_config(),
                            policy=make_policy("ir"))
        # With the helper disabled the steering policy cannot send anything to
        # the narrow cluster, so cycle counts must match the baseline.
        assert disabled.helper_uops == 0
        assert disabled.slow_cycles == mono.slow_cycles


class TestLoadReplication:
    def test_lr_reduces_or_keeps_copies(self):
        trace = generate_trace(get_profile("gzip"), 4000, seed=9)
        without = simulate(trace, config=helper_cluster_config(),
                           policy=make_policy("n888_br"))
        with_lr = simulate(trace, config=helper_cluster_config(),
                           policy=make_policy("n888_br_lr"))
        assert with_lr.copies <= without.copies * 1.10
        assert with_lr.replicated_loads >= 0


class TestRecoveryBehaviour:
    def test_confidence_gate_reduces_fatal_rate(self):
        """§3.2: the 2-bit confidence estimator reduces the fraction of
        mispredictions that require recovery."""
        trace = generate_trace(get_profile("parser"), 4000, seed=13)
        gated = simulate(trace, config=helper_cluster_config(use_confidence=True),
                         policy=make_policy("n888"))
        ungated = simulate(trace, config=helper_cluster_config(use_confidence=False),
                           policy=make_policy("n888"))
        assert gated.prediction.fatal_rate <= ungated.prediction.fatal_rate
        assert gated.recoveries <= ungated.recoveries

    def test_recovered_uops_still_commit(self):
        trace = generate_trace(get_profile("parser"), 3000, seed=17)
        result = simulate(trace, config=helper_cluster_config(use_confidence=False),
                          policy=make_policy("n888_br_lr_cr"))
        assert result.committed_uops == len(trace)
        assert result.recoveries > 0
        assert result.squashed_uops >= result.recoveries
