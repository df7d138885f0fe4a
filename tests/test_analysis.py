"""Tests for the trace characterisation analyses (Figures 1, 11, 13)."""

from dataclasses import replace

import pytest

from repro.analysis.carry import analyze_carry, carry_fractions, carry_not_propagated
from repro.analysis.distance import producer_consumer_distance
from repro.analysis.narrowness import (
    analyze_narrowness,
    narrow_dependence_fraction,
    operand_narrowness_breakdown,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import ArchReg
from repro.isa.uop import UopBuilder
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace


def _chain_trace():
    """producer -> consumer chain with known values for exact assertions."""
    builder = UopBuilder()
    trace = Trace(name="chain")
    producer = builder.alu(Opcode.MOVI, ArchReg.EAX, (), imm=5).with_values([], 5)
    consumer = replace(
        builder.alu(Opcode.ADD, ArchReg.EBX, (ArchReg.EAX,)).with_values([5], 6),
        producer_uids=(producer.uid,))
    wide_prod = builder.alu(Opcode.MOVI, ArchReg.ECX, (), imm=0x10000).with_values([], 0x10000)
    wide_cons = replace(
        builder.alu(Opcode.ADD, ArchReg.EDX, (ArchReg.ECX,)).with_values([0x10000], 0x10001),
        producer_uids=(wide_prod.uid,))
    trace.uops.extend([producer, consumer, wide_prod, wide_cons])
    return trace


class TestNarrowness:
    def test_exact_fraction_on_chain(self):
        report = analyze_narrowness(_chain_trace())
        # Two register operands observed: one narrow producer, one wide.
        assert report.total_register_operands == 2
        assert report.narrow_dependent_operands == 1
        assert report.narrow_dependence_fraction == 0.5

    def test_fraction_in_unit_range(self, gcc_trace_small):
        fraction = narrow_dependence_fraction(gcc_trace_small)
        assert 0.0 < fraction < 1.0

    def test_figure1_ordering_gzip_vs_crafty(self):
        gzip = narrow_dependence_fraction(generate_trace(get_profile("gzip"), 5000, seed=4))
        crafty = narrow_dependence_fraction(generate_trace(get_profile("crafty"), 5000, seed=4))
        assert gzip > crafty

    def test_substantial_narrow_dependence(self, gcc_trace_small):
        # The paper's Figure 1 average is ~65%; the synthetic gcc profile
        # should land in the same broad band.
        assert narrow_dependence_fraction(gcc_trace_small) > 0.4

    def test_alu_breakdown_fractions_sum_below_one(self, gcc_trace_small):
        breakdown = operand_narrowness_breakdown(gcc_trace_small)
        assert set(breakdown) == {"one_narrow_operand", "two_narrow_wide_result",
                                  "two_narrow_narrow_result"}
        assert 0.0 <= sum(breakdown.values()) <= 1.0
        assert breakdown["two_narrow_narrow_result"] > 0

    def test_empty_trace(self):
        report = analyze_narrowness(Trace(name="empty"))
        assert report.narrow_dependence_fraction == 0.0


class TestCarry:
    def test_carry_not_propagated_helper(self):
        assert carry_not_propagated(0x1C, 0xFFFC4A02)
        assert not carry_not_propagated(0xFF, 0x000000FF)

    def test_exact_counts_on_hand_built_trace(self):
        builder = UopBuilder()
        trace = Trace(name="carry")
        ld = builder.load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX, addr=0x08000010)
        ld = ld.with_values([0x08000000, 0x10], 0x5)
        no_carry_add = builder.alu(Opcode.ADD, ArchReg.EBX, (ArchReg.ESI, ArchReg.ECX))
        no_carry_add = no_carry_add.with_values([0x08000000, 0x10], 0x08000010)
        carry_add = builder.alu(Opcode.ADD, ArchReg.EBX, (ArchReg.ESI, ArchReg.ECX))
        carry_add = carry_add.with_values([0x080000F0, 0x20], 0x08000110)
        trace.uops.extend([ld, no_carry_add, carry_add])
        report = analyze_carry(trace)
        assert report.load_candidates == 1 and report.load_no_carry == 1
        assert report.arith_candidates == 2 and report.arith_no_carry == 1

    def test_fractions_in_range(self, gcc_trace_small):
        fractions = carry_fractions(gcc_trace_small)
        assert 0.0 <= fractions["arith"] <= 1.0
        assert 0.0 <= fractions["load"] <= 1.0

    def test_loads_have_high_no_carry_fraction(self, gcc_trace_small):
        # Figure 11: loads (base + small displacement) mostly do not carry.
        report = analyze_carry(gcc_trace_small)
        assert report.load_candidates > 0
        assert report.load_fraction > 0.5

    def test_narrow_result_arith_excluded(self):
        builder = UopBuilder()
        trace = Trace(name="x")
        narrow_result = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX, ArchReg.ECX))
        narrow_result = narrow_result.with_values([0x10000, 0x3], 0x7)
        trace.uops.append(narrow_result)
        assert analyze_carry(trace).arith_candidates == 0


class TestDistance:
    def test_exact_distance_on_chain(self):
        report = producer_consumer_distance(_chain_trace())
        assert report.pairs == 2
        assert report.mean_distance == 1.0

    def test_first_consumer_only_flag(self):
        builder = UopBuilder()
        trace = Trace(name="fanout")
        producer = builder.alu(Opcode.MOVI, ArchReg.EAX, (), imm=1).with_values([], 1)
        c1 = replace(builder.alu(Opcode.ADD, ArchReg.EBX, (ArchReg.EAX,)).with_values([1], 2),
                     producer_uids=(producer.uid,))
        c2 = replace(builder.alu(Opcode.ADD, ArchReg.ECX, (ArchReg.EAX,)).with_values([1], 2),
                     producer_uids=(producer.uid,))
        trace.uops.extend([producer, c1, c2])
        first_only = producer_consumer_distance(trace, first_consumer_only=True)
        all_pairs = producer_consumer_distance(trace, first_consumer_only=False)
        assert first_only.pairs == 1
        assert all_pairs.pairs == 2

    def test_mean_distance_matches_figure13_band(self, gcc_trace_small):
        # Figure 13 reports averages of a few uops across SPEC Int.
        report = producer_consumer_distance(gcc_trace_small)
        assert 1.0 <= report.mean_distance <= 12.0

    def test_fraction_within(self, gcc_trace_small):
        report = producer_consumer_distance(gcc_trace_small)
        assert report.fraction_within(report.max_bucket) == pytest.approx(1.0)
        assert 0.0 <= report.fraction_within(2) <= 1.0

    def test_empty_trace(self):
        report = producer_consumer_distance(Trace(name="empty"))
        assert report.pairs == 0
        assert report.mean_distance == 0.0
        assert report.fraction_within(5) == 0.0
