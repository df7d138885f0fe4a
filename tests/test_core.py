"""Tests for config, cluster/backends, imbalance, copy engine and splitting."""

import pytest

from repro.core.cluster import Backend
from repro.core.config import (
    TABLE_1_PARAMETERS,
    ClusterSpec,
    MachineConfig,
    PredictorConfig,
    baseline_config,
    helper_cluster_config,
    helper_topology,
    topology_config,
)
from repro.core.copy_engine import CopyEngine
from repro.core.imbalance import ImbalanceMonitor, ImbalanceSample
from repro.core.selection import ClusterRequirement
from repro.core.splitting import InstructionSplitter
from repro.isa.opcodes import Opcode
from repro.isa.registers import ArchReg
from repro.isa.uop import UopBuilder
from repro.isa.values import join_bytes, split_bytes
from repro.pipeline.clocking import ClockDomain


class TestConfig:
    def test_baseline_has_no_helper(self):
        config = baseline_config()
        assert config.topology.num_helpers == 0
        assert config.clock_ratio == 1
        # Host-only machines classify values at the paper's 8-bit width.
        assert config.narrow_width == 8

    def test_helper_config_defaults_match_paper(self):
        config = helper_cluster_config()
        assert config == topology_config(helper_topology())
        helper = config.topology.helpers[0]
        assert config.topology.num_helpers == 1
        assert helper.datapath_width == 8
        assert helper.clock_ratio == 2
        assert config.predictor.table_entries == 256
        for spec in config.topology:
            assert spec.queue_size == 32
            assert spec.issue_width == 3
        assert config.commit_width == 6

    def test_default_machine_is_the_paper_topology(self):
        assert MachineConfig().topology == helper_topology()
        assert MachineConfig() == helper_cluster_config()

    def test_table1_text(self):
        assert "Main Memory" in TABLE_1_PARAMETERS
        assert TABLE_1_PARAMETERS["Commit Width"] == "6 instructions"

    def test_split_chunks(self):
        assert ClusterSpec(name="n", datapath_width=8).split_chunks == 4
        assert ClusterSpec(name="n", datapath_width=16).split_chunks == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="n", datapath_width=0)
        with pytest.raises(ValueError):
            ClusterSpec(name="n", clock_ratio=0)
        with pytest.raises(ValueError):
            ClusterSpec(name="n", queue_size=0)
        with pytest.raises(ValueError):
            PredictorConfig(table_entries=100)
        with pytest.raises(ValueError):
            MachineConfig(fetch_width=0)

    def test_with_helpers(self):
        config = helper_cluster_config()
        ablation = config.with_topology(helper_topology(clock_ratio=1)) \
            .with_predictor(table_entries=64)
        assert ablation.topology.helpers[0].clock_ratio == 1
        assert ablation.clock_ratio == 1
        assert ablation.predictor.table_entries == 64
        assert config.clock_ratio == 2  # original untouched

    def test_with_scheduler(self):
        config = helper_cluster_config().with_scheduler(queue_size=16)
        assert [spec.queue_size for spec in config.topology] == [16, 16]
        assert [spec.issue_width for spec in config.topology] == [3, 3]
        # Only the scheduler fields: other cluster fields go through
        # with_topology.
        with pytest.raises(TypeError):
            helper_cluster_config().with_scheduler(datapath_width=16)


def _backend(index, config=None):
    config = config or helper_cluster_config()
    return Backend(config.topology[index], config, index=index)


class TestBackend:
    def test_wide_backend_properties(self):
        backend = _backend(0)
        assert backend.domain is ClockDomain.WIDE
        assert backend.datapath_width == 32
        assert backend.units.supports(Opcode.FADD)

    def test_narrow_backend_properties(self):
        backend = _backend(1)
        assert backend.domain is ClockDomain.NARROW
        assert backend.datapath_width == 8
        assert not backend.units.supports(Opcode.FADD)
        assert backend.units.supports(Opcode.ADD)

    def test_activity_schedule(self):
        config = helper_cluster_config()
        wide = _backend(0, config)
        narrow = _backend(1, config)
        assert wide.active(0) and not wide.active(1)
        assert narrow.active(0) and narrow.active(1)

    def test_width_check(self):
        narrow = _backend(1)
        assert ClusterRequirement(min_width=8).satisfied_by(narrow.spec)
        assert not ClusterRequirement(min_width=9).satisfied_by(narrow.spec)

    def test_reset(self):
        backend = _backend(1)
        backend.stats.dispatched = 5
        backend.reset()
        assert backend.stats.dispatched == 0


class TestImbalanceMonitor:
    @staticmethod
    def sample(wide_blocked=0, narrow_blocked=0, wide_free=3, narrow_free=3,
               wide_occ=0, narrow_occ=0, cycle=0):
        return ImbalanceSample(fast_cycle=cycle, wide_ready_blocked=wide_blocked,
                               narrow_ready_blocked=narrow_blocked,
                               wide_free_slots=wide_free, narrow_free_slots=narrow_free,
                               wide_occupancy=wide_occ, narrow_occupancy=narrow_occ)

    def test_empty_monitor(self):
        monitor = ImbalanceMonitor()
        assert monitor.wide_to_narrow_imbalance() == 0.0
        assert monitor.narrow_to_wide_imbalance() == 0.0

    def test_wide_to_narrow_nready(self):
        monitor = ImbalanceMonitor()
        monitor.record(self.sample(wide_blocked=4, narrow_free=3, wide_occ=10,
                                   narrow_occ=1))
        assert monitor.wide_to_narrow_nready == 3  # capped by free narrow slots
        assert monitor.wide_to_narrow_imbalance() > 0

    def test_narrow_to_wide_nready(self):
        monitor = ImbalanceMonitor()
        monitor.record(self.sample(narrow_blocked=2, wide_free=1, wide_occ=1,
                                   narrow_occ=10))
        assert monitor.narrow_to_wide_nready == 1

    def test_underutilised_requires_congested_wide_queue(self):
        monitor = ImbalanceMonitor(queue_size=32)
        monitor.record(self.sample(wide_occ=10, narrow_occ=2))
        assert not monitor.helper_underutilised()   # wide queue not congested
        monitor.record(self.sample(wide_occ=30, narrow_occ=2))
        assert monitor.helper_underutilised()

    def test_underutilised_requires_gap(self):
        monitor = ImbalanceMonitor(queue_size=32)
        monitor.record(self.sample(wide_occ=30, narrow_occ=29))
        assert not monitor.helper_underutilised()

    def test_overloaded(self):
        monitor = ImbalanceMonitor(queue_size=32)
        monitor.record(self.sample(wide_occ=2, narrow_occ=30))
        assert monitor.helper_overloaded()
        assert not monitor.helper_underutilised()

    def test_mean_occupancies(self):
        monitor = ImbalanceMonitor()
        monitor.record(self.sample(wide_occ=10, narrow_occ=4))
        monitor.record(self.sample(wide_occ=20, narrow_occ=8))
        assert monitor.mean_wide_occupancy() == 15
        assert monitor.mean_narrow_occupancy() == 6

    def test_reset(self):
        monitor = ImbalanceMonitor()
        monitor.record(self.sample(wide_occ=10, narrow_occ=1, wide_blocked=3))
        monitor.reset()
        assert monitor.samples == 0
        assert monitor.wide_to_narrow_imbalance() == 0.0


class TestCopyEngine:
    def test_unknown_value_is_available_everywhere(self):
        engine = CopyEngine()
        assert not engine.needs_copy(42, ClockDomain.WIDE)

    def test_produced_value_needs_copy_in_other_cluster(self):
        engine = CopyEngine()
        engine.note_produced(1, ClockDomain.NARROW, ready_cycle=10)
        assert not engine.needs_copy(1, ClockDomain.NARROW)
        assert engine.needs_copy(1, ClockDomain.WIDE)
        assert engine.availability(1, ClockDomain.NARROW) == 10
        assert engine.availability(1, ClockDomain.WIDE) is None

    def test_copy_lifecycle(self):
        engine = CopyEngine()
        engine.note_produced(1, ClockDomain.NARROW, 10)
        request = engine.request_copy(1, ClockDomain.NARROW, ClockDomain.WIDE)
        assert engine.copy_in_flight(1, ClockDomain.WIDE)
        assert not engine.needs_copy(1, ClockDomain.WIDE)  # already pending
        engine.complete_copy(request, ready_cycle=14)
        assert not engine.copy_in_flight(1, ClockDomain.WIDE)
        assert engine.availability(1, ClockDomain.WIDE) == 14

    def test_cancel_copy(self):
        engine = CopyEngine()
        engine.note_produced(1, ClockDomain.NARROW, 10)
        request = engine.request_copy(1, ClockDomain.NARROW, ClockDomain.WIDE)
        engine.cancel_copy(request)
        assert not engine.copy_in_flight(1, ClockDomain.WIDE)
        assert engine.availability(1, ClockDomain.WIDE) is None

    def test_same_domain_copy_rejected(self):
        engine = CopyEngine()
        with pytest.raises(ValueError):
            engine.request_copy(1, ClockDomain.WIDE, ClockDomain.WIDE)

    def test_replication_makes_both_clusters_available(self):
        engine = CopyEngine()
        engine.note_produced(5, ClockDomain.WIDE, 20)
        engine.note_replicated(5, 20)
        assert engine.availability(5, ClockDomain.NARROW) is not None
        assert engine.stats.replicated_loads == 1

    def test_stats(self):
        engine = CopyEngine()
        engine.note_produced(1, ClockDomain.NARROW, 0)
        engine.request_copy(1, ClockDomain.NARROW, ClockDomain.WIDE)
        engine.request_copy(2, ClockDomain.WIDE, ClockDomain.NARROW, prefetch=True)
        engine.note_prefetch_useful()
        assert engine.stats.copies_generated == 2
        assert engine.stats.demand_copies == 1
        assert engine.stats.prefetched_copies == 1
        assert engine.stats.prefetch_accuracy == 1.0

    def test_retire_and_reset(self):
        engine = CopyEngine()
        engine.note_produced(1, ClockDomain.WIDE, 0)
        engine.retire_value(1)
        assert not engine.available_anywhere(1)
        engine.note_produced(2, ClockDomain.WIDE, 0)
        engine.reset()
        assert not engine.available_anywhere(2)

    def test_domains_available(self):
        engine = CopyEngine()
        engine.note_produced(1, ClockDomain.WIDE, 0)
        assert engine.domains_available(1) == [ClockDomain.WIDE]
        assert engine.domains_available(99) == []


class TestInstructionSplitter:
    def _uop(self, opcode=Opcode.ADD, dest=ArchReg.EAX):
        builder = UopBuilder()
        return builder.make(opcode, srcs=(ArchReg.EBX, ArchReg.ECX), dest=dest)

    def test_add_splits_into_chained_chunks(self):
        splitter = InstructionSplitter()
        plan = splitter.plan(self._uop(Opcode.ADD))
        assert plan is not None
        assert plan.num_chunks == 4
        assert not plan.chunks[0].depends_on_previous
        assert all(c.depends_on_previous for c in plan.chunks[1:])
        assert plan.copy_backs == 4
        assert plan.total_uops == 8

    def test_logic_chunks_independent(self):
        splitter = InstructionSplitter()
        plan = splitter.plan(self._uop(Opcode.XOR))
        assert plan is not None
        assert all(not c.depends_on_previous for c in plan.chunks)

    def test_mul_not_splittable(self):
        splitter = InstructionSplitter()
        assert splitter.plan(self._uop(Opcode.MUL)) is None
        assert splitter.stats.rejected_not_splittable == 1

    def test_no_dest_mode_rejects_dest_ops(self):
        splitter = InstructionSplitter(require_no_dest=True)
        assert splitter.plan(self._uop(Opcode.ADD)) is None
        assert splitter.stats.rejected_has_dest == 1

    def test_no_dest_mode_accepts_compare(self):
        splitter = InstructionSplitter(require_no_dest=True)
        builder = UopBuilder()
        cmp_uop = builder.make(Opcode.CMP, srcs=(ArchReg.EAX, ArchReg.EBX))
        plan = splitter.plan(cmp_uop)
        assert plan is not None
        assert plan.copy_backs == 0

    def test_store_splittable_without_copy_backs(self):
        splitter = InstructionSplitter()
        builder = UopBuilder()
        store = builder.store(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX)
        plan = splitter.plan(store)
        assert plan is not None and plan.copy_backs == 0

    def test_chunk_values_roundtrip(self):
        splitter = InstructionSplitter()
        value = 0xDEADBEEF
        chunks = splitter.chunk_values(value)
        assert chunks == split_bytes(value)
        assert join_bytes(chunks) == value

    def test_wider_narrow_width(self):
        splitter = InstructionSplitter(narrow_width=16)
        plan = splitter.plan(self._uop(Opcode.ADD))
        assert plan is not None and plan.num_chunks == 2

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            InstructionSplitter(narrow_width=12)

    def test_stats_and_reset(self):
        splitter = InstructionSplitter()
        splitter.plan(self._uop(Opcode.ADD))
        assert splitter.stats.split_instructions == 1
        assert splitter.stats.chunks_created == 4
        splitter.reset()
        assert splitter.stats.split_instructions == 0
