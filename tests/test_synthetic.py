"""Tests for the synthetic trace generator (the trace substrate).

The key properties: determinism for a (profile, seed) pair, dataflow
consistency (values actually computed through the register file), and the
statistical knobs having the intended direction of effect.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import OpClass, Opcode, execute
from repro.isa.values import is_narrow
from repro.trace.profiles import SPEC_INT_NAMES, get_profile
from repro.trace.synthetic import SyntheticTraceGenerator, generate_trace


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace(get_profile("gcc"), 2000, seed=3)
        b = generate_trace(get_profile("gcc"), 2000, seed=3)
        assert len(a) == len(b)
        assert all(x.opcode == y.opcode and x.pc == y.pc and x.result_value == y.result_value
                   for x, y in zip(a.uops, b.uops))

    def test_different_seeds_differ(self):
        a = generate_trace(get_profile("gcc"), 2000, seed=3)
        b = generate_trace(get_profile("gcc"), 2000, seed=4)
        assert any(x.result_value != y.result_value or x.opcode != y.opcode
                   for x, y in zip(a.uops, b.uops))

    def test_different_benchmarks_differ(self):
        a = generate_trace(get_profile("gcc"), 2000, seed=3)
        b = generate_trace(get_profile("gzip"), 2000, seed=3)
        assert [u.pc for u in a.uops[:50]] != [u.pc for u in b.uops[:50]]


class TestStructure:
    def test_requested_length_reached(self):
        trace = generate_trace(get_profile("parser"), 5000, seed=1)
        assert len(trace) >= 5000

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(get_profile("gcc"), 0)

    def test_trace_validates(self, gcc_trace_small):
        gcc_trace_small.validate()

    def test_every_benchmark_generates(self):
        for name in SPEC_INT_NAMES:
            trace = generate_trace(get_profile(name), 600, seed=5)
            trace.validate()
            assert len(trace) >= 600

    def test_static_pcs_recorded(self, gcc_trace_small):
        assert gcc_trace_small.static_pcs > 0
        observed = {uop.pc for uop in gcc_trace_small.uops}
        assert len(observed) <= gcc_trace_small.static_pcs

    def test_memory_uops_have_addresses(self, gcc_trace_small):
        for uop in gcc_trace_small.uops:
            if uop.info.op_class in (OpClass.LOAD, OpClass.STORE):
                assert uop.mem_addr is not None

    def test_cond_branches_read_flags(self, gcc_trace_small):
        for uop in gcc_trace_small.uops:
            if uop.info.is_cond_branch:
                assert uop.flags_producer_uid is not None or uop.srcs


class TestDataflowConsistency:
    def test_alu_results_recomputable(self, gcc_trace_small):
        """Every emitted ALU result must equal the opcode semantics applied to
        the recorded source values (the generator really emulates)."""
        checked = 0
        for uop in gcc_trace_small.uops:
            if uop.opcode not in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                                  Opcode.XOR, Opcode.INC, Opcode.DEC):
                continue
            if uop.result_value is None or not uop.src_values:
                continue
            a = uop.src_values[0]
            if uop.opcode in (Opcode.INC, Opcode.DEC):
                expected, _ = execute(uop.opcode, a, 0)
            else:
                b = uop.imm if (uop.imm is not None and len(uop.src_values) < 2) else (
                    uop.src_values[1] if len(uop.src_values) > 1 else 0)
                expected, _ = execute(uop.opcode, a, b)
            assert uop.result_value == expected
            checked += 1
        assert checked > 50

    def test_producer_links_are_register_consistent(self, gcc_trace_small):
        """The recorded producer of a source register must be the most recent
        earlier writer of that register."""
        last_writer = {}
        for uop in gcc_trace_small.uops:
            for reg, producer in zip(uop.srcs, uop.producer_uids):
                assert last_writer.get(reg) == producer
            if uop.has_dest:
                last_writer[uop.dest] = uop.uid
            if uop.info.writes_flags:
                from repro.isa.registers import ArchReg
                last_writer[ArchReg.FLAGS] = uop.uid

    def test_loop_branches_mostly_taken(self, gcc_trace_small):
        stats = gcc_trace_small.stats()
        assert stats.cond_branch_count > 0
        assert stats.taken_branch_count / stats.cond_branch_count > 0.4


class TestStatisticalKnobs:
    def test_narrow_fraction_orders_benchmarks(self):
        narrow = generate_trace(get_profile("gzip"), 4000, seed=9).stats()
        wide = generate_trace(get_profile("crafty"), 4000, seed=9).stats()
        assert narrow.narrow_result_fraction > wide.narrow_result_fraction

    def test_byte_load_knob(self):
        heavy = get_profile("gzip")
        light = get_profile("vpr")
        heavy_stats = generate_trace(heavy, 4000, seed=2).stats()
        light_stats = generate_trace(light, 4000, seed=2).stats()
        heavy_frac = heavy_stats.byte_load_count / max(1, heavy_stats.load_count)
        light_frac = light_stats.byte_load_count / max(1, light_stats.load_count)
        assert heavy_frac > light_frac

    def test_fp_fraction_follows_mix(self):
        fp_heavy = generate_trace(get_profile("eon"), 4000, seed=2).stats()
        fp_light = generate_trace(get_profile("gzip"), 4000, seed=2).stats()
        assert fp_heavy.class_fraction(OpClass.FP) >= fp_light.class_fraction(OpClass.FP)

    def test_extreme_narrow_profile(self):
        profile = get_profile("gcc").scaled(narrow_data_fraction=0.99,
                                            pointer_arith_fraction=0.0,
                                            width_locality=0.99)
        stats = generate_trace(profile, 3000, seed=1).stats()
        wide_profile = get_profile("gcc").scaled(narrow_data_fraction=0.01,
                                                 width_locality=0.99)
        wide_stats = generate_trace(wide_profile, 3000, seed=1).stats()
        assert stats.narrow_result_fraction > wide_stats.narrow_result_fraction + 0.1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_any_seed_generates_valid_trace(self, seed):
        trace = generate_trace(get_profile("mcf"), 400, seed=seed)
        trace.validate()
        assert len(trace) >= 400
