"""Tests for the data-width aware steering policies (§3.2-§3.7)."""

import pytest

from repro.core.config import baseline_config, helper_cluster_config
from repro.core.copy_engine import CopyEngine
from repro.core.imbalance import ImbalanceMonitor, ImbalanceSample
from repro.core.predictors import WidthPredictor
from repro.core.splitting import InstructionSplitter
from repro.core.steering import (
    POLICY_LADDER,
    BaselineSteering,
    DataWidthSteering,
    Scheme,
    SteeringContext,
    make_policy,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import ArchReg
from repro.isa.uop import UopBuilder
from repro.pipeline.clocking import ClockDomain
from repro.pipeline.frontend import FetchedUop
from repro.pipeline.rename import RenameTable


@pytest.fixture()
def ctx():
    config = helper_cluster_config()
    return SteeringContext(
        config=config,
        width_predictor=WidthPredictor(),
        rename=RenameTable(),
        imbalance=ImbalanceMonitor(queue_size=config.topology.helpers[0].queue_size),
        copy_engine=CopyEngine(),
        splitter=InstructionSplitter(),
    )


def fetched(uop, seq=0, resolved=True):
    return FetchedUop(uop=uop, seq=seq, target_resolved_in_frontend=resolved)


def train_narrow(predictor, pc, times=4, narrow=True):
    for _ in range(times):
        predictor.update(pc, narrow)


def alu_uop(pc=0x400000, dest=ArchReg.EAX, srcs=(ArchReg.EBX,), imm=None):
    return UopBuilder().make(Opcode.ADD, pc=pc, srcs=srcs, dest=dest, imm=imm)


class TestPolicyLadder:
    def test_ladder_names(self):
        assert list(POLICY_LADDER)[0] == "baseline"
        assert "ir" in POLICY_LADDER and "ir_nodest" in POLICY_LADDER

    def test_ladder_is_cumulative(self):
        previous = frozenset()
        for name, schemes in POLICY_LADDER.items():
            assert previous <= schemes
            previous = schemes

    def test_make_policy(self):
        assert isinstance(make_policy("baseline"), BaselineSteering)
        policy = make_policy("ir")
        assert isinstance(policy, DataWidthSteering)
        assert Scheme.IR in policy.schemes

    def test_make_policy_unknown(self):
        with pytest.raises(KeyError):
            make_policy("bogus")

    def test_make_policy_unknown_lists_policies_and_schemes(self):
        with pytest.raises(KeyError) as excinfo:
            make_policy("bogus")
        message = str(excinfo.value)
        for name in POLICY_LADDER:
            assert name in message
        for scheme in Scheme:
            assert scheme.name.lower() in message

    def test_make_policy_ad_hoc_scheme_combo(self):
        policy = make_policy("n888+cr")
        assert isinstance(policy, DataWidthSteering)
        assert policy.schemes == frozenset({Scheme.N888, Scheme.CR})
        assert policy.name == "n888+cr"

    def test_ladder_policies_resolve_through_registry(self):
        from repro.core.steering import policy_registry

        assert policy_registry.ladder_names() == list(POLICY_LADDER)
        for name, schemes in POLICY_LADDER.items():
            assert policy_registry.get(name).schemes == schemes


class TestBaselineSteering:
    def test_everything_goes_wide(self, ctx):
        policy = BaselineSteering()
        decision = policy.steer(fetched(alu_uop()), ctx)
        assert decision.domain is ClockDomain.WIDE
        assert policy.stats.to_wide == 1


class TestN888(object):
    def test_narrow_sources_and_confident_narrow_result_go_narrow(self, ctx):
        policy = make_policy("n888")
        uop = alu_uop(pc=0x400000)
        train_narrow(ctx.width_predictor, uop.pc)
        decision = policy.steer(fetched(uop), ctx)
        assert decision.to_helper
        assert decision.predicted_narrow
        assert decision.reason == "n888"

    def test_low_confidence_keeps_wide(self, ctx):
        policy = make_policy("n888")
        uop = alu_uop(pc=0x400100)
        # single update: predicted narrow but not confident yet
        ctx.width_predictor.update(uop.pc, True)
        decision = policy.steer(fetched(uop), ctx)
        assert not decision.to_helper
        assert policy.stats.rejected_low_confidence >= 1

    def test_wide_source_blocks_narrow_steer(self, ctx):
        policy = make_policy("n888")
        uop = alu_uop(pc=0x400200, srcs=(ArchReg.ESI,))
        train_narrow(ctx.width_predictor, uop.pc)
        # the width table says ESI holds a wide value
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, predicted_narrow=False)
        decision = policy.steer(fetched(uop), ctx)
        assert not decision.to_helper

    def test_wide_immediate_blocks_narrow_steer(self, ctx):
        policy = make_policy("n888")
        uop = alu_uop(pc=0x400300, imm=0x10000)
        train_narrow(ctx.width_predictor, uop.pc)
        assert not policy.steer(fetched(uop), ctx).to_helper

    def test_wide_result_prediction_blocks(self, ctx):
        policy = make_policy("n888")
        uop = alu_uop(pc=0x400400)
        train_narrow(ctx.width_predictor, uop.pc, narrow=False)
        assert not policy.steer(fetched(uop), ctx).to_helper

    def test_fp_and_muldiv_never_narrow(self, ctx):
        policy = make_policy("ir")
        fp = UopBuilder().make(Opcode.FADD, pc=0x1000, dest=ArchReg.TMP3)
        mul = UopBuilder().make(Opcode.MUL, pc=0x1004, dest=ArchReg.EAX,
                                srcs=(ArchReg.EAX,))
        assert not policy.steer(fetched(fp), ctx).to_helper
        assert not policy.steer(fetched(mul), ctx).to_helper

    def test_branches_not_steered_by_n888(self, ctx):
        policy = make_policy("n888")
        br = UopBuilder().branch(pc=0x400500, conditional=True)
        decision = policy.steer(fetched(br), ctx)
        assert not decision.to_helper

    def test_helper_disabled_goes_wide(self, ctx):
        ctx.config = baseline_config()
        policy = make_policy("n888")
        uop = alu_uop()
        train_narrow(ctx.width_predictor, uop.pc)
        assert not policy.steer(fetched(uop), ctx).to_helper


class TestBR:
    def test_branch_follows_narrow_flag_producer(self, ctx):
        policy = make_policy("n888_br")
        ctx.rename.allocate(ArchReg.FLAGS, 5, ClockDomain.NARROW, True)
        br = UopBuilder().branch(pc=0x400600, conditional=True)
        decision = policy.steer(fetched(br, resolved=True), ctx)
        assert decision.to_helper and decision.via_br

    def test_branch_with_wide_flag_producer_stays_wide(self, ctx):
        policy = make_policy("n888_br")
        ctx.rename.allocate(ArchReg.FLAGS, 5, ClockDomain.WIDE, True)
        br = UopBuilder().branch(pc=0x400604, conditional=True)
        assert not policy.steer(fetched(br), ctx).to_helper

    def test_branch_needs_frontend_resolved_target(self, ctx):
        policy = make_policy("n888_br")
        ctx.rename.allocate(ArchReg.FLAGS, 5, ClockDomain.NARROW, True)
        br = UopBuilder().branch(pc=0x400608, conditional=True)
        assert not policy.steer(fetched(br, resolved=False), ctx).to_helper

    def test_unconditional_branch_stays_wide(self, ctx):
        policy = make_policy("n888_br")
        jmp = UopBuilder().branch(pc=0x40060C, conditional=False)
        assert not policy.steer(fetched(jmp), ctx).to_helper


class TestLR:
    def test_narrow_predicted_load_replicates(self, ctx):
        policy = make_policy("n888_br_lr")
        load = UopBuilder().load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX, pc=0x400700)
        train_narrow(ctx.width_predictor, load.pc)
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, predicted_narrow=False)
        decision = policy.steer(fetched(load), ctx)
        assert decision.replicate_load

    def test_wide_predicted_load_not_replicated(self, ctx):
        policy = make_policy("n888_br_lr")
        load = UopBuilder().load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX, pc=0x400704)
        train_narrow(ctx.width_predictor, load.pc, narrow=False)
        assert not policy.steer(fetched(load), ctx).replicate_load

    def test_lr_disabled_in_plain_n888(self, ctx):
        policy = make_policy("n888")
        load = UopBuilder().load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX, pc=0x400708)
        train_narrow(ctx.width_predictor, load.pc)
        assert not policy.steer(fetched(load), ctx).replicate_load
        assert not policy.uses_load_replication


class TestCR:
    def _carry_trained_load(self, ctx, pc=0x400800):
        load = UopBuilder().make(Opcode.LOAD, pc=pc, srcs=(ArchReg.ESI,),
                                 dest=ArchReg.EAX, imm=0x10)
        # Wide base in the width table, wide result prediction, carry-safe bit
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, predicted_narrow=False)
        for _ in range(4):
            ctx.width_predictor.update(pc, False)          # result wide
            ctx.width_predictor.update_carry(pc, True)     # carry never propagates
        return load

    def test_carry_safe_load_steered_narrow(self, ctx):
        policy = make_policy("n888_br_lr_cr")
        load = self._carry_trained_load(ctx)
        decision = policy.steer(fetched(load), ctx)
        assert decision.to_helper and decision.via_cr

    def test_cr_disabled_without_scheme(self, ctx):
        policy = make_policy("n888_br_lr")
        load = self._carry_trained_load(ctx, pc=0x400810)
        assert not policy.steer(fetched(load), ctx).to_helper

    def test_untrained_carry_bit_stays_wide(self, ctx):
        policy = make_policy("n888_br_lr_cr")
        load = UopBuilder().make(Opcode.LOAD, pc=0x400820, srcs=(ArchReg.ESI,),
                                 dest=ArchReg.EAX, imm=0x10)
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, predicted_narrow=False)
        assert not policy.steer(fetched(load), ctx).to_helper

    def test_memory_cr_requires_immediate_offset(self, ctx):
        policy = make_policy("n888_br_lr_cr")
        pc = 0x400830
        load = UopBuilder().load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX, pc=pc)
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, predicted_narrow=False)
        for _ in range(4):
            ctx.width_predictor.update(pc, False)
            ctx.width_predictor.update_carry(pc, True)
        assert not policy.steer(fetched(load), ctx).to_helper


class TestIR:
    def _congest_wide(self, ctx):
        ctx.imbalance.record(ImbalanceSample(
            fast_cycle=0, wide_ready_blocked=3, narrow_ready_blocked=0,
            wide_free_slots=0, narrow_free_slots=3,
            wide_occupancy=30, narrow_occupancy=2))

    def test_split_when_wide_congested(self, ctx):
        policy = make_policy("ir")
        self._congest_wide(ctx)
        uop = alu_uop(pc=0x400900, srcs=(ArchReg.ESI, ArchReg.EDI))
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, False)
        ctx.rename.allocate(ArchReg.EDI, 2, ClockDomain.WIDE, False)
        decision = policy.steer(fetched(uop), ctx)
        assert decision.split and decision.to_helper

    def test_no_split_without_imbalance(self, ctx):
        policy = make_policy("ir")
        uop = alu_uop(pc=0x400904, srcs=(ArchReg.ESI, ArchReg.EDI))
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, False)
        decision = policy.steer(fetched(uop), ctx)
        assert not decision.split

    def test_ir_nodest_only_splits_destless_ops(self, ctx):
        policy = make_policy("ir_nodest")
        self._congest_wide(ctx)
        add = alu_uop(pc=0x400908, srcs=(ArchReg.ESI, ArchReg.EDI))
        ctx.rename.allocate(ArchReg.ESI, 1, ClockDomain.WIDE, False)
        ctx.rename.allocate(ArchReg.EDI, 2, ClockDomain.WIDE, False)
        assert not policy.steer(fetched(add), ctx).split
        cmp_uop = UopBuilder().make(Opcode.CMP, pc=0x40090C,
                                    srcs=(ArchReg.ESI, ArchReg.EDI))
        assert policy.steer(fetched(cmp_uop), ctx).split

    def test_overload_steers_back_to_wide(self, ctx):
        policy = make_policy("ir")
        ctx.imbalance.record(ImbalanceSample(
            fast_cycle=0, wide_ready_blocked=0, narrow_ready_blocked=3,
            wide_free_slots=3, narrow_free_slots=0,
            wide_occupancy=2, narrow_occupancy=30))
        uop = alu_uop(pc=0x400910)
        train_narrow(ctx.width_predictor, uop.pc)
        decision = policy.steer(fetched(uop), ctx)
        assert not decision.to_helper
        assert policy.stats.rebalanced_to_wide >= 1


class TestStats:
    def test_narrow_fraction_accounting(self, ctx):
        policy = make_policy("n888")
        uop = alu_uop(pc=0x400A00)
        train_narrow(ctx.width_predictor, uop.pc)
        policy.steer(fetched(uop), ctx)
        policy.steer(fetched(UopBuilder().make(Opcode.MUL, pc=0x400A04,
                                               dest=ArchReg.EAX, srcs=(ArchReg.EAX,))), ctx)
        assert policy.stats.steered == 2
        assert policy.stats.to_narrow == 1
        assert policy.stats.narrow_fraction == 0.5

    def test_policy_reset(self, ctx):
        policy = make_policy("n888")
        policy.steer(fetched(alu_uop()), ctx)
        policy.reset()
        assert policy.stats.steered == 0
