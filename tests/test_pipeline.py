"""Tests for the pipeline substrate: clocking, rename, ROB, scheduler, MOB,
execution units, frontend and recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ClusterSpec, helper_cluster_config
from repro.core.steering import make_policy
from repro.isa.opcodes import Opcode
from repro.isa.registers import ArchReg
from repro.memory.tracecache import TraceCache, TraceCacheConfig
from repro.pipeline.clocking import ClockDomain, ClockingModel
from repro.pipeline.execute import ExecutionUnitPool
from repro.pipeline.frontend import Frontend
from repro.pipeline.mob import MemoryOrderBuffer
from repro.pipeline.rename import RenameTable
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.scheduler import IssueQueue
from repro.sim.simulator import HelperClusterSimulator, _DynUop
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace
from test_scheduler_random import Record, wake


def helper_simulator():
    """An unstarted helper-cluster simulator (clock ratio 2, flush penalty
    5 slow cycles) over a short trace."""
    trace = generate_trace(get_profile("gzip"), 200, seed=3)
    return HelperClusterSimulator(trace, config=helper_cluster_config(),
                                  policy=make_policy("n888"))


class TestClocking:
    def test_default_ratio(self):
        assert ClockingModel().ratio == 2

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            ClockingModel(ratio=0)

    def test_wide_cycles(self):
        clk = ClockingModel(ratio=2)
        assert clk.is_wide_cycle(0)
        assert not clk.is_wide_cycle(1)
        assert clk.is_wide_cycle(2)

    def test_narrow_always_active(self):
        clk = ClockingModel(ratio=2)
        assert all(clk.is_narrow_cycle(t) for t in range(10))

    def test_exec_latency_scaling(self):
        clk = ClockingModel(ratio=2)
        assert clk.exec_latency(ClockDomain.WIDE, 1) == 2
        assert clk.exec_latency(ClockDomain.NARROW, 1) == 1
        assert clk.exec_latency(ClockDomain.WIDE, 3) == 6

    def test_exec_latency_rejects_zero(self):
        with pytest.raises(ValueError):
            ClockingModel().exec_latency(ClockDomain.WIDE, 0)

    def test_conversions(self):
        clk = ClockingModel(ratio=2)
        assert clk.slow_to_fast(3) == 6
        assert clk.fast_to_slow(6) == 3.0

    def test_next_active_cycle(self):
        clk = ClockingModel(ratio=2)
        assert clk.next_active_cycle(ClockDomain.WIDE, 3) == 4
        assert clk.next_active_cycle(ClockDomain.WIDE, 4) == 4
        assert clk.next_active_cycle(ClockDomain.NARROW, 3) == 3

    def test_ratio_one_degenerates(self):
        clk = ClockingModel(ratio=1)
        assert clk.is_wide_cycle(3)
        assert clk.exec_latency(ClockDomain.WIDE, 1) == 1


class TestRenameTable:
    def test_defaults(self):
        table = RenameTable()
        entry = table.entry(ArchReg.EAX)
        assert entry.written_back and entry.narrow

    def test_allocate_and_writeback(self):
        table = RenameTable()
        table.allocate(ArchReg.EAX, 7, ClockDomain.NARROW, predicted_narrow=True)
        assert not table.source_width_known(ArchReg.EAX)
        assert table.producer_domain(ArchReg.EAX) is ClockDomain.NARROW
        table.writeback(ArchReg.EAX, 7, narrow=False)
        assert table.source_width_known(ArchReg.EAX)
        assert not table.source_is_narrow(ArchReg.EAX)

    def test_stale_writeback_ignored(self):
        table = RenameTable()
        table.allocate(ArchReg.EAX, 7, ClockDomain.NARROW, True)
        table.allocate(ArchReg.EAX, 9, ClockDomain.WIDE, False)
        table.writeback(ArchReg.EAX, 7, narrow=True)
        assert not table.source_width_known(ArchReg.EAX)
        assert table.producer_uid(ArchReg.EAX) == 9

    def test_cr_refcount_lifecycle(self):
        table = RenameTable()
        table.link_upper_bits(ArchReg.EAX, ArchReg.ESI)
        table.link_upper_bits(ArchReg.EBX, ArchReg.ESI)
        assert table.upper_bits_refcount(ArchReg.ESI) == 2
        assert not table.can_deallocate(ArchReg.ESI)
        table.release_upper_bits(ArchReg.ESI)
        table.release_upper_bits(ArchReg.ESI)
        assert table.can_deallocate(ArchReg.ESI)

    def test_rename_releases_previous_cr_link(self):
        table = RenameTable()
        table.link_upper_bits(ArchReg.EAX, ArchReg.ESI)
        assert table.upper_bits_refcount(ArchReg.ESI) == 1
        table.allocate(ArchReg.EAX, 3, ClockDomain.WIDE, True)
        assert table.upper_bits_refcount(ArchReg.ESI) == 0

    def test_reset(self):
        table = RenameTable()
        table.allocate(ArchReg.EAX, 1, ClockDomain.NARROW, False)
        table.link_upper_bits(ArchReg.EAX, ArchReg.ESI)
        table.reset()
        assert table.source_width_known(ArchReg.EAX)
        assert table.upper_bits_refcount(ArchReg.ESI) == 0


class TestROB:
    @staticmethod
    def allocate(rob, uid, completed=False):
        record = Record(dyn_id=uid, seq=uid, completed=completed)
        rob.allocate(uid, record)
        return record

    def test_allocate_commit_in_order(self):
        rob = ReorderBuffer(size=8, commit_width=2)
        first = self.allocate(rob, 1)
        second = self.allocate(rob, 2)
        second.completed = True
        assert rob.commit() == []           # head not complete
        first.completed = True
        assert rob.commit() == [first, second]

    def test_commit_width_respected(self):
        rob = ReorderBuffer(size=16, commit_width=3)
        for i in range(6):
            self.allocate(rob, i, completed=True)
        assert len(rob.commit()) == 3
        assert len(rob.commit()) == 3

    def test_capacity(self):
        rob = ReorderBuffer(size=2)
        self.allocate(rob, 1)
        self.allocate(rob, 2)
        assert rob.is_full()
        with pytest.raises(RuntimeError):
            self.allocate(rob, 3)

    def test_out_of_order_allocation_rejected(self):
        rob = ReorderBuffer()
        self.allocate(rob, 5)
        with pytest.raises(ValueError):
            self.allocate(rob, 4)


class TestIssueQueue:
    @staticmethod
    def entry(uid, seq, remaining=0, memory=False):
        return Record(dyn_id=uid, seq=seq, remaining_sources=remaining,
                      is_memory=memory)

    def test_insert_and_capacity(self):
        queue = IssueQueue(size=2, issue_width=1)
        queue.insert(self.entry(1, 1))
        queue.insert(self.entry(2, 2))
        assert queue.is_full()
        with pytest.raises(RuntimeError):
            queue.insert(self.entry(3, 3))

    def test_forced_insert_overrides_capacity(self):
        queue = IssueQueue(size=1, issue_width=1)
        queue.insert(self.entry(1, 1))
        queue.insert(self.entry(2, 2), force=True)
        assert len(queue) == 2

    def test_duplicate_uid_rejected(self):
        queue = IssueQueue()
        queue.insert(self.entry(1, 1))
        with pytest.raises(ValueError):
            queue.insert(self.entry(1, 2))

    def test_select_oldest_first(self):
        queue = IssueQueue(size=8, issue_width=2)
        queue.insert(self.entry(10, 5))
        queue.insert(self.entry(11, 3))
        queue.insert(self.entry(12, 4))
        selected = queue.select()
        assert [e.seq for e in selected] == [3, 4]

    def test_select_skips_not_ready(self):
        queue = IssueQueue(size=8, issue_width=4)
        queue.insert(self.entry(1, 1, remaining=1))
        queue.insert(self.entry(2, 2))
        assert [e.dyn_id for e in queue.select()] == [2]

    def test_wakeup_enables_selection(self):
        queue = IssueQueue()
        record = self.entry(1, 1, remaining=2)
        queue.insert(record)
        wake(queue, record)
        assert queue.select() == []
        wake(queue, record)
        assert queue.select() == [record]

    def test_wakeup_unknown_uid_is_noop(self):
        # The simulator's wake step: a key nothing waits on wakes nothing,
        # and a waiter the queue does not hold is skipped untouched.
        sim = helper_simulator()
        queue = sim.clusters[1].issue_queue
        resident = _DynUop(dyn_id=1, kind="trace", seq=1, domain=1,
                           opcode=Opcode.ADD, remaining_sources=1)
        stray = _DynUop(dyn_id=999, kind="trace", seq=2, domain=1,
                        opcode=Opcode.ADD, remaining_sources=1)
        queue.insert(resident)
        sim._wake((999, 1))
        sim._waiters[(5, 1)] = [stray]
        sim._wake((5, 1))
        assert stray.remaining_sources == 1
        assert resident.remaining_sources == 1
        assert len(queue) == 1
        assert queue.select() == []

    def test_memory_port_limit(self):
        queue = IssueQueue(size=8, issue_width=4)
        queue.insert(self.entry(1, 1, memory=True))
        queue.insert(self.entry(2, 2, memory=True))
        queue.insert(self.entry(3, 3, memory=True))
        selected = queue.select(memory_slots=2)
        assert len(selected) == 2

    def test_flush_from(self):
        queue = IssueQueue()
        for i in range(6):
            queue.insert(self.entry(i, i))
        squashed = queue.flush_from(3)
        assert [e.seq for e in squashed] == [3, 4, 5]
        assert len(queue) == 3

    def test_occupancy_sampling(self):
        queue = IssueQueue()
        queue.insert(self.entry(1, 1))
        queue.sample_occupancy()
        queue.sample_occupancy()
        assert queue.mean_occupancy == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50,
                    unique=True))
    @settings(max_examples=50, deadline=None)
    def test_select_never_exceeds_width(self, seqs):
        queue = IssueQueue(size=64, issue_width=3)
        for i, seq in enumerate(seqs):
            queue.insert(self.entry(i, seq))
        assert len(queue.select()) <= 3


class TestMOB:
    def test_allocate_release(self):
        mob = MemoryOrderBuffer(load_entries=1, store_entries=1)
        mob.allocate(1, 1, is_store=False, addr=0x10)
        assert not mob.can_allocate(is_store=False)
        mob.release(1)
        assert mob.can_allocate(is_store=False)

    def test_capacity(self):
        mob = MemoryOrderBuffer(load_entries=1, store_entries=1)
        mob.allocate(1, 1, is_store=False, addr=0x10)
        assert not mob.can_allocate(is_store=False)
        with pytest.raises(RuntimeError):
            mob.allocate(2, 2, is_store=False, addr=0x20)
        assert mob.can_allocate(is_store=True)

    def test_forwarding(self):
        mob = MemoryOrderBuffer()
        mob.allocate(1, 1, is_store=True, addr=0x40)
        mob.allocate(3, 3, is_store=True, addr=0x40)
        assert mob.forwarding_store(load_seq=5, addr=0x40) == 3
        assert mob.forwarding_store(load_seq=2, addr=0x40) == 1
        assert mob.forwarding_store(load_seq=5, addr=0x44) is None

    def test_forwarding_ignores_younger_stores(self):
        mob = MemoryOrderBuffer()
        mob.allocate(9, 9, is_store=True, addr=0x40)
        assert mob.forwarding_store(load_seq=5, addr=0x40) is None


class TestExecutionUnits:
    def test_narrow_pool_has_no_fpu(self):
        pool = ExecutionUnitPool(domain=ClockDomain.NARROW, clocking=ClockingModel(),
                                 has_fp=False)
        assert not pool.supports(Opcode.FADD)
        assert pool.supports(Opcode.ADD)

    def test_latency_scaling_by_domain(self):
        clk = ClockingModel(ratio=2)
        wide = ExecutionUnitPool(domain=ClockDomain.WIDE, clocking=clk)
        narrow = ExecutionUnitPool(domain=ClockDomain.NARROW, clocking=clk, has_fp=False)
        assert wide.exec_latency(Opcode.ADD) == 2
        assert narrow.exec_latency(Opcode.ADD) == 1

    def test_issue_returns_completion(self):
        pool = ExecutionUnitPool(domain=ClockDomain.WIDE, clocking=ClockingModel())
        assert pool.try_issue(Opcode.ADD, 10) == 12

    def test_non_pipelined_divider(self):
        pool = ExecutionUnitPool(domain=ClockDomain.WIDE, clocking=ClockingModel())
        assert pool.try_issue(Opcode.DIV, 0) is not None
        assert pool.try_issue(Opcode.DIV, 1) is None  # single divider busy
        assert pool.structural_stalls == 1

    def test_alus_pipelined(self):
        pool = ExecutionUnitPool(domain=ClockDomain.WIDE, clocking=ClockingModel())
        for i in range(3):
            assert pool.try_issue(Opcode.ADD, 0) is not None
        # only 3 IALUs per cycle
        assert pool.try_issue(Opcode.ADD, 0) is None
        # next cycle they accept again
        assert pool.try_issue(Opcode.ADD, 1) is not None

    def test_reset(self):
        pool = ExecutionUnitPool(domain=ClockDomain.WIDE, clocking=ClockingModel())
        pool.try_issue(Opcode.DIV, 0)
        pool.reset()
        assert pool.try_issue(Opcode.DIV, 0) is not None


class TestFrontend:
    def _frontend(self, n=200, fetch_width=6):
        trace = generate_trace(get_profile("gcc"), n, seed=3)
        return Frontend(trace, fetch_width=fetch_width)

    @staticmethod
    def _fetch_warm(frontend, start_cycle=0, max_cycles=200):
        """Fetch groups until one is non-empty (the first access cold-misses
        the trace cache and stalls the frontend for the rebuild penalty)."""
        cycle = start_cycle
        while cycle < start_cycle + max_cycles:
            group = frontend.fetch(cycle)
            if group:
                return group, cycle
            cycle += 1
        raise AssertionError("frontend never produced a fetch group")

    def test_fetch_width_respected(self):
        frontend = self._frontend()
        fetched, _ = self._fetch_warm(frontend)
        assert 0 < len(fetched) <= 6

    def test_cold_trace_cache_stalls_first_fetch(self):
        frontend = self._frontend()
        assert frontend.fetch(0) == []
        assert frontend.tc_stall_cycles > 0

    def test_sequential_seq_numbers(self):
        frontend = self._frontend()
        first, cycle = self._fetch_warm(frontend)
        second, _ = self._fetch_warm(frontend, start_cycle=cycle + 1)
        seqs = [f.seq for f in first + second]
        assert seqs == list(range(len(seqs)))

    def test_exhaustion(self):
        frontend = self._frontend(n=30)
        cycle = 0
        while not frontend.exhausted and cycle < 10_000:
            frontend.fetch(cycle)
            cycle += 1
        assert frontend.exhausted
        assert frontend.fetched == len(frontend.trace)

    def test_max_uops_cap(self):
        frontend = self._frontend()
        for cycle in range(200):
            group = frontend.fetch(cycle, max_uops=2)
            assert len(group) <= 2
            if group:
                break

    def test_reset(self):
        frontend = self._frontend()
        frontend.fetch(0)
        frontend.reset()
        assert frontend.fetched == 0
        assert not frontend.exhausted

    def test_invalid_parameters(self):
        trace = generate_trace(get_profile("gcc"), 100, seed=1)
        with pytest.raises(ValueError):
            Frontend(trace, fetch_width=0)
        with pytest.raises(ValueError):
            Frontend(trace, frontend_branch_resolution_fraction=1.5)

    def test_branch_target_resolution_flag(self):
        frontend = self._frontend(n=2000)
        resolved = 0
        branches = 0
        for cycle in range(2000):
            if frontend.exhausted:
                break
            for fetched in frontend.fetch(cycle):
                if fetched.uop.info.is_cond_branch:
                    branches += 1
                    resolved += fetched.target_resolved_in_frontend
        assert branches > 0
        assert resolved > 0


class TestRecovery:
    def test_trigger_blocks_dispatch(self):
        # A fatal misprediction detected at fast cycle 100 in a helper with
        # a 5-slow-cycle penalty at clock ratio 2 blocks dispatch (the
        # re-dispatch of the squashed trigger included) until cycle 110.
        sim = helper_simulator()
        uop = sim.trace[0]
        trigger = _DynUop(dyn_id=7, kind="trace", seq=7, domain=1,
                          opcode=uop.opcode, uop=uop)
        sim._recover(trigger, 100)
        assert sim._dispatch_blocked_until == 110
        assert sim.result.recoveries == 1
        sim._dispatch(105)
        assert len(sim._redispatch) == 1
        assert all(len(backend.issue_queue) == 0 for backend in sim.clusters)
        sim._dispatch(110)
        assert len(sim._redispatch) == 0
        assert len(sim.wide.issue_queue) == 1

    def test_invalid_penalty(self):
        # The penalty is a per-cluster parameter, validated on the spec.
        with pytest.raises(ValueError):
            ClusterSpec(name="narrow", flush_penalty_slow=-1)
