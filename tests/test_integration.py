"""Cross-module integration and failure-injection tests.

These exercise paths that unit tests do not: the packaged entry points, the
workload-suite end-to-end flow, simulation of hand-built (non-generator)
traces, and robustness to degenerate configurations.
"""

from dataclasses import replace

import pytest

from repro import quick_speedup
from repro.core.config import helper_cluster_config
from repro.core.steering import make_policy
from repro.isa.opcodes import Opcode
from repro.isa.registers import ArchReg
from repro.isa.uop import UopBuilder
from repro.power.energy import report_from_activity
from repro.sim.baseline import simulate_baseline
from repro.sim.simulator import simulate
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace
from repro.trace.workloads import build_workload_suite


def _hand_built_trace(n_iterations=40):
    """A tiny hand-written loop trace (independent of the generator)."""
    builder = UopBuilder()
    trace = Trace(name="handmade")
    last = {reg: None for reg in ArchReg}

    def emit(uop, result=None, flags=None, srcs_vals=()):
        # Producer links go through the constructor, so the uop's derived
        # effective_producers see them.
        uop = replace(
            uop.with_values(srcs_vals, result, flags),
            producer_uids=tuple(last.get(reg) for reg in uop.srcs),
            flags_producer_uid=(last[ArchReg.FLAGS] if uop.info.reads_flags
                                else None))
        trace.uops.append(uop)
        if uop.has_dest:
            last[uop.dest] = uop.uid
        if uop.info.writes_flags:
            last[ArchReg.FLAGS] = uop.uid
        return uop

    emit(builder.make(Opcode.MOVI, pc=0x1000, dest=ArchReg.ESI, imm=0x08000000),
         result=0x08000000)
    emit(builder.make(Opcode.MOVI, pc=0x1004, dest=ArchReg.ECX, imm=0), result=0)
    counter = 0
    for i in range(n_iterations):
        addr = 0x08000000 + counter
        load = builder.make(Opcode.LOADB, pc=0x1010, srcs=(ArchReg.ESI, ArchReg.ECX),
                            dest=ArchReg.EAX, mem_addr=addr, mem_size=1)
        emit(load, result=(i * 7) & 0xFF, srcs_vals=(0x08000000, counter))
        add = builder.make(Opcode.ADD, pc=0x1014, srcs=(ArchReg.EAX,),
                           dest=ArchReg.EBX, imm=3)
        emit(add, result=((i * 7) & 0xFF) + 3, flags=0, srcs_vals=(((i * 7) & 0xFF),))
        counter += 1
        inc = builder.make(Opcode.INC, pc=0x1018, srcs=(ArchReg.ECX,), dest=ArchReg.ECX)
        emit(inc, result=counter, flags=0, srcs_vals=(counter - 1,))
        cmp_uop = builder.make(Opcode.CMP, pc=0x101C, srcs=(ArchReg.ECX,),
                               imm=n_iterations)
        emit(cmp_uop, flags=0x2 if counter == n_iterations else 0,
             srcs_vals=(counter,))
        br = builder.make(Opcode.BR_COND, pc=0x1020, srcs=(ArchReg.FLAGS,),
                          is_taken=counter < n_iterations)
        emit(br, srcs_vals=(0,))
    trace.validate()
    return trace


class TestHandBuiltTrace:
    def test_baseline_executes_handmade_trace(self):
        trace = _hand_built_trace()
        result = simulate_baseline(trace)
        assert result.committed_uops == len(trace)

    def test_helper_executes_handmade_trace_and_uses_narrow_cluster(self):
        trace = _hand_built_trace()
        result = simulate(trace, config=helper_cluster_config(),
                          policy=make_policy("n888_br_lr_cr"))
        assert result.committed_uops == len(trace)
        # The loop body is entirely narrow (byte loads, small adds, a counter
        # below 256), so a substantial share must reach the helper cluster.
        assert result.helper_fraction > 0.2

    def test_branches_follow_flags_producer(self):
        trace = _hand_built_trace()
        result = simulate(trace, config=helper_cluster_config(),
                          policy=make_policy("n888_br"))
        assert result.steer_reasons.get("br_narrow_flag", 0) > 0


class TestWorkloadSuiteEndToEnd:
    def test_one_app_per_category_simulates(self):
        apps = build_workload_suite(apps_per_category=1)
        assert len(apps) == 7
        for app in apps[:3]:
            trace = generate_trace(app.profile, 800, seed=app.seed)
            base = simulate_baseline(trace)
            helper = simulate(trace, config=helper_cluster_config(),
                              policy=make_policy("n888_br_lr_cr"))
            assert base.committed_uops == helper.committed_uops == len(trace)


class TestEnergyIntegration:
    def test_energy_reports_from_simulation(self, tiny_trace):
        base = simulate_baseline(tiny_trace)
        helper = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("ir"))
        base_report = report_from_activity(base.activity, base.slow_cycles, "base")
        helper_report = report_from_activity(helper.activity, helper.slow_cycles, "ir")
        assert base_report.energy > 0
        assert helper_report.energy > 0
        # The helper machine fetches/executes the same committed work plus
        # copies, so its raw energy is at least comparable to the baseline's.
        assert helper_report.energy >= base_report.energy * 0.8


class TestDegenerateConfigurations:
    def test_tiny_scheduler_still_completes(self, tiny_trace):
        config = helper_cluster_config().with_scheduler(queue_size=4, issue_width=1)
        result = simulate(tiny_trace, config=config, policy=make_policy("n888"))
        assert result.committed_uops == len(tiny_trace)

    def test_tiny_rob_still_completes(self, tiny_trace):
        from dataclasses import replace
        config = replace(helper_cluster_config(), rob_size=16)
        result = simulate(tiny_trace, config=config, policy=make_policy("n888_br_lr_cr"))
        assert result.committed_uops == len(tiny_trace)

    def test_predictor_of_one_entry_rejected(self):
        with pytest.raises(ValueError):
            helper_cluster_config(predictor_entries=3)

    def test_quick_speedup_with_custom_config(self):
        config = helper_cluster_config(narrow_width=16)
        result = quick_speedup("gzip", policy="n888", trace_uops=800, seed=2,
                               config=config)
        assert "speedup" in result
