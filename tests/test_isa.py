"""Tests for registers, opcodes (semantics) and the MicroOp record."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.isa.opcodes import (
    OPCODE_INFO,
    FunctionalUnit,
    OpClass,
    Opcode,
    execute,
    opcode_info,
)
from repro.isa.registers import ArchReg, Flags, GPR_REGS, NUM_ARCH_REGS, RegisterFile
from repro.isa.uop import MicroOp, UopBuilder, cr_carry_crosses, cr_operated_narrow
from repro.isa.values import NARROW_WIDTH, WIDE_MASK, is_narrow, truncate

u32 = st.integers(min_value=0, max_value=WIDE_MASK)


class TestRegisters:
    def test_gpr_set(self):
        assert len(GPR_REGS) == 8
        assert ArchReg.EAX in GPR_REGS
        assert ArchReg.FLAGS not in GPR_REGS

    def test_register_kind_predicates(self):
        assert ArchReg.EAX.is_gpr
        assert ArchReg.TMP1.is_temp
        assert ArchReg.FLAGS.is_flags
        assert not ArchReg.FLAGS.is_gpr

    def test_register_file_read_default_zero(self):
        rf = RegisterFile()
        assert rf.read(ArchReg.EBX) == 0

    def test_register_file_write_read(self):
        rf = RegisterFile()
        rf.write(ArchReg.EAX, 0x1234)
        assert rf.read(ArchReg.EAX) == 0x1234

    def test_register_file_truncates(self):
        rf = RegisterFile()
        rf.write(ArchReg.EAX, 1 << 35)
        assert rf.read(ArchReg.EAX) == truncate(1 << 35)

    def test_snapshot_restore(self):
        rf = RegisterFile()
        rf.write(ArchReg.EAX, 1)
        snap = rf.snapshot()
        rf.write(ArchReg.EAX, 2)
        rf.restore(snap)
        assert rf.read(ArchReg.EAX) == 1

    def test_reset(self):
        rf = RegisterFile()
        rf.write(ArchReg.ECX, 9)
        rf.reset()
        assert rf.read(ArchReg.ECX) == 0

    def test_len(self):
        assert len(RegisterFile()) == NUM_ARCH_REGS

    def test_flags_pack_unpack(self):
        value = Flags.pack(cf=True, zf=False, sf=True, of=False)
        unpacked = Flags.unpack(value)
        assert unpacked == {"cf": True, "zf": False, "sf": True, "of": False}


class TestOpcodeInfo:
    def test_every_opcode_has_info(self):
        for opcode in Opcode:
            assert opcode in OPCODE_INFO

    def test_latencies_positive(self):
        for info in OPCODE_INFO.values():
            assert info.latency >= 1

    def test_branch_reads_flags(self):
        assert opcode_info(Opcode.BR_COND).reads_flags
        assert not opcode_info(Opcode.BR_UNCOND).reads_flags

    def test_memory_classification(self):
        assert opcode_info(Opcode.LOAD).is_memory
        assert opcode_info(Opcode.STORE).is_memory
        assert not opcode_info(Opcode.ADD).is_memory

    def test_mul_div_not_splittable(self):
        assert not opcode_info(Opcode.MUL).splittable
        assert not opcode_info(Opcode.DIV).splittable

    def test_add_is_splittable_and_cr_eligible(self):
        info = opcode_info(Opcode.ADD)
        assert info.splittable and info.cr_eligible

    def test_mul_div_not_cr_eligible(self):
        # §3.5: the carry signal cannot flag mispredictions for mul/div.
        assert not opcode_info(Opcode.MUL).cr_eligible
        assert not opcode_info(Opcode.IDIV).cr_eligible

    def test_fp_uses_fpu(self):
        assert opcode_info(Opcode.FADD).unit is FunctionalUnit.FPU


class TestSemantics:
    def test_add(self):
        result, flags = execute(Opcode.ADD, 2, 3)
        assert result == 5
        assert not (flags & Flags.ZF)

    def test_add_wraps_and_sets_carry(self):
        result, flags = execute(Opcode.ADD, 0xFFFFFFFF, 1)
        assert result == 0
        assert flags & Flags.CF
        assert flags & Flags.ZF

    def test_sub_borrow(self):
        result, flags = execute(Opcode.SUB, 1, 2)
        assert result == truncate(-1)
        assert flags & Flags.CF

    def test_cmp_is_sub_flags_only(self):
        _, flags_cmp = execute(Opcode.CMP, 7, 7)
        assert flags_cmp & Flags.ZF

    def test_logic(self):
        assert execute(Opcode.AND, 0xF0, 0x3C)[0] == 0x30
        assert execute(Opcode.OR, 0xF0, 0x0F)[0] == 0xFF
        assert execute(Opcode.XOR, 0xFF, 0x0F)[0] == 0xF0

    def test_shifts(self):
        assert execute(Opcode.SHL, 1, 4)[0] == 16
        assert execute(Opcode.SHR, 16, 4)[0] == 1
        assert execute(Opcode.SAR, truncate(-16), 2)[0] == truncate(-4)

    def test_mov_and_movi(self):
        assert execute(Opcode.MOV, 42, 0)[0] == 42
        assert execute(Opcode.MOVI, 0, 99)[0] == 99

    def test_inc_dec_neg_not(self):
        assert execute(Opcode.INC, 5, 0)[0] == 6
        assert execute(Opcode.DEC, 5, 0)[0] == 4
        assert execute(Opcode.NEG, 5, 0)[0] == truncate(-5)
        assert execute(Opcode.NOT, 0, 0)[0] == WIDE_MASK

    def test_mul_div(self):
        assert execute(Opcode.MUL, 6, 7)[0] == 42
        assert execute(Opcode.DIV, 42, 6)[0] == 7

    def test_div_by_zero_is_total(self):
        assert execute(Opcode.DIV, 42, 0)[0] == 0

    def test_no_semantics_opcodes_return_zero(self):
        assert execute(Opcode.BR_COND, 1, 2) == (0, 0)
        assert execute(Opcode.NOP, 1, 2) == (0, 0)

    @given(u32, u32)
    def test_add_matches_python(self, a, b):
        assert execute(Opcode.ADD, a, b)[0] == truncate(a + b)

    @given(u32, u32)
    def test_sub_matches_python(self, a, b):
        assert execute(Opcode.SUB, a, b)[0] == truncate(a - b)

    @given(u32, u32)
    def test_zero_flag_consistency(self, a, b):
        result, flags = execute(Opcode.XOR, a, b)
        assert bool(flags & Flags.ZF) == (result == 0)


class TestMicroOp:
    def test_builder_assigns_increasing_uids(self):
        builder = UopBuilder()
        a = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX,))
        b = builder.alu(Opcode.SUB, ArchReg.EAX, (ArchReg.EBX,))
        assert b.uid == a.uid + 1

    def test_builder_start_uid(self):
        builder = UopBuilder(start_uid=100)
        assert builder.make(Opcode.NOP).uid == 100

    def test_load_shorthand(self):
        builder = UopBuilder()
        load = builder.load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX, byte=True)
        assert load.opcode is Opcode.LOADB
        assert load.mem_size == 1
        assert load.info.is_load

    def test_store_shorthand(self):
        builder = UopBuilder()
        store = builder.store(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX)
        assert store.info.is_store and not store.has_dest

    def test_branch_shorthand(self):
        builder = UopBuilder()
        br = builder.branch(conditional=True, taken=True)
        assert br.info.is_cond_branch and br.info.reads_flags and br.is_taken
        jmp = builder.branch(conditional=False)
        assert jmp.info.is_branch and not jmp.info.is_cond_branch

    def test_width_helpers(self):
        builder = UopBuilder()
        uop = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX, ArchReg.ECX))
        uop = uop.with_values([3, 5], 8)
        assert (uop.src_width, uop.imm_width, uop.result_width) == (3, 1, 4)
        # The 8-8-8 oracle (§3.2): all sources and the result narrow.
        assert uop.src_width <= NARROW_WIDTH and uop.result_width <= NARROW_WIDTH

    def test_wide_source_detection(self):
        builder = UopBuilder()
        uop = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX, ArchReg.ECX))
        uop = uop.with_values([3, 0x10000], 0x10003)
        assert uop.src_width > NARROW_WIDTH
        assert uop.result_width > NARROW_WIDTH
        assert is_narrow(uop.src_values[0])
        assert not is_narrow(uop.src_values[1])

    def test_wide_immediate_blocks_narrowness(self):
        builder = UopBuilder()
        uop = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX,), imm=0x12345)
        uop = uop.with_values([1], 0x12346)
        assert uop.imm_width > NARROW_WIDTH
        assert uop.src_width > NARROW_WIDTH

    def test_latency_from_info(self):
        builder = UopBuilder()
        assert builder.make(Opcode.DIV, dest=ArchReg.EAX).info.latency == 20

    def test_class_predicates(self):
        builder = UopBuilder()
        assert builder.make(Opcode.FADD, dest=ArchReg.TMP3).info.op_class is OpClass.FP
        assert builder.make(Opcode.COPY, dest=ArchReg.EAX).info.op_class is OpClass.COPY
        assert builder.make(Opcode.ADD, dest=ArchReg.EAX).info.op_class is OpClass.ALU

    def test_opcode_class_predicates_follow_op_class(self):
        for info in OPCODE_INFO.values():
            assert info.is_load == (info.op_class is OpClass.LOAD)
            assert info.is_store == (info.op_class is OpClass.STORE)
            assert info.is_branch == (info.op_class in (OpClass.BRANCH, OpClass.JUMP))
            assert info.is_cond_branch == (info.op_class is OpClass.BRANCH)

    def test_no_instance_dict(self):
        # Facts are derived into slots at construction; with no __dict__ a
        # per-uop memo has nowhere to live.
        uop = UopBuilder().alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX,))
        assert "__slots__" in vars(MicroOp)
        assert not hasattr(uop, "__dict__")
        with pytest.raises(AttributeError):
            uop._memo = 1

    def test_effective_producers_follow_the_constructor(self):
        builder = UopBuilder()
        br = replace(builder.branch(conditional=True),
                     producer_uids=(), flags_producer_uid=7)
        assert br.effective_producers == (7,)  # FLAGS source slot uncovered
        linked = replace(br, producer_uids=(5,))
        assert linked.effective_producers == (5,)  # slot covered by its producer
        live_in = replace(builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX, ArchReg.ECX)),
                          producer_uids=(None, 3))
        assert live_in.effective_producers == (3,)

    def test_pickle_rederives_facts(self):
        uop = replace(UopBuilder().alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX,), imm=0x1234)
                      .with_values([0x10000], 0x11234), producer_uids=(2,))
        loaded = pickle.loads(pickle.dumps(uop, protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded == uop
        derived = ("info", "has_dest", "effective_producers",
                   "src_width", "imm_width", "result_width")
        assert ([getattr(loaded, name) for name in derived]
                == [getattr(uop, name) for name in derived])

    def test_cr_oracles(self):
        builder = UopBuilder()
        load = builder.load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX)
        no_carry = load.with_values([0x08000000, 0x10], 0x5)
        assert not cr_carry_crosses(no_carry, 8)
        assert cr_operated_narrow(no_carry, 8)
        carry = load.with_values([0x080000F0, 0x20], 0x5)
        assert cr_carry_crosses(carry, 8)
        assert not cr_operated_narrow(carry, 8)
        both_narrow = load.with_values([0x10, 0x20], 0x5)
        assert not cr_operated_narrow(both_narrow, 8)
        both_wide = load.with_values([0x08000000, 0x10000], 0x5)
        assert not cr_operated_narrow(both_wide, 8)
