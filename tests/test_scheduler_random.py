"""Oracle tests of the issue queue and the ROB, and randomized simulator runs.

The component oracles follow coreblocks, which tests its scheduler with every
neighbour mocked and checks random stimulus against a plain Python model:
hypothesis drives the real :class:`IssueQueue` and :class:`ReorderBuffer`
with random operation sequences, and every observable result is compared
with a small reference model.  The models import nothing from
``repro.pipeline``, ``repro.core`` or ``repro.sim``, and the structures are
fed the plain :class:`Record` below rather than the simulator's own record,
so the oracles pin the structures' semantics independently of the code that
uses them:

* select is oldest first, breaking ``seq`` ties by dispatch order, within the
  issue width and the memory-port (``memory_slots``) budget;
* only entries with no outstanding sources are selectable, and a forced
  insert may exceed the capacity;
* ``flush_from`` removes exactly the entries at or after the flush point;
* the ROB retires the longest completed prefix, at most ``commit_width`` at a
  time, and rejects allocations past its size or out of program order.

The seeded whole-simulator trials then check that commit retires trace uops
strictly in program order, that nothing issues with outstanding operands,
and that copy uops consume real issue slots in their cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import helper_cluster_config
from repro.core.steering import make_policy
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.scheduler import IssueQueue
from repro.sim.simulator import HelperClusterSimulator
from repro.trace.profiles import SPEC_INT_NAMES, get_profile
from repro.trace.synthetic import generate_trace

N_SIM_TRIALS = 6


@dataclass(eq=False)
class Record:
    """A plain in-flight operation: the fields the queue and the ROB read."""

    dyn_id: int
    seq: int
    remaining_sources: int = 0
    is_memory: bool = False
    order: int = 0
    completed: bool = False


# ---------------------------------------------------------------------------
# reference models
# ---------------------------------------------------------------------------
class QueueModel:
    """An issue queue as a list of ``[key, seq, sources, memory]`` entries
    kept in dispatch order, so a stable sort on ``seq`` is oldest first."""

    def __init__(self, size: int, issue_width: int) -> None:
        self.size = size
        self.issue_width = issue_width
        self.live: list = []

    def insert(self, key, seq, sources, memory, force=False) -> bool:
        if len(self.live) >= self.size and not force:
            return False
        self.live.append([key, seq, sources, memory])
        return True

    def wake(self, key) -> None:
        for entry in self.live:
            if entry[0] == key:
                entry[2] = max(0, entry[2] - 1)

    def ready(self) -> set:
        return {entry[0] for entry in self.live if entry[2] == 0}

    def _remove(self, chosen) -> list:
        keys = [entry[0] for entry in chosen]
        self.live = [entry for entry in self.live if entry[0] not in keys]
        return keys

    def select(self, memory_slots) -> list:
        memory_budget = self.issue_width if memory_slots is None else memory_slots
        chosen = []
        for entry in sorted(self.live, key=lambda e: e[1]):
            if len(chosen) == self.issue_width:
                break
            if entry[2]:
                continue
            if entry[3]:
                if memory_budget == 0:
                    continue
                memory_budget -= 1
            chosen.append(entry)
        return self._remove(chosen)

    def flush_from(self, seq) -> list:
        return self._remove(sorted((e for e in self.live if e[1] >= seq),
                                   key=lambda e: e[1]))


class ROBModel:
    """A reorder buffer as a list of ``[key, seq, completed]`` entries in
    program order."""

    def __init__(self, size: int, commit_width: int) -> None:
        self.size = size
        self.commit_width = commit_width
        self.live: list = []

    def allocate(self, key, seq):
        """None on success, else the error the allocation must raise."""
        if len(self.live) >= self.size:
            return RuntimeError
        if self.live and seq <= self.live[-1][1]:
            return ValueError
        self.live.append([key, seq, False])
        return None

    def complete(self, key) -> None:
        for entry in self.live:
            if entry[0] == key:
                entry[2] = True

    def commit(self) -> list:
        count = 0
        while (count < min(len(self.live), self.commit_width)
               and self.live[count][2]):
            count += 1
        retired, self.live = self.live[:count], self.live[count:]
        return [entry[0] for entry in retired]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------
def wake(queue: IssueQueue, record: Record) -> None:
    """One source of ``record`` becomes ready: the simulator's wake step,
    written against the queue's documented live views."""
    if record.dyn_id not in queue.entries:
        return
    remaining = record.remaining_sources - 1
    if remaining <= 0:
        remaining = 0
        queue.ready_entries[record.dyn_id] = record
    record.remaining_sources = remaining


_SEQS = st.integers(min_value=0, max_value=5)   # narrow, so seq ties are common
#: (operation, seq, outstanding sources, memory?, force / re-insert?, memory
#: slots, wake target); each operation reads the fields it needs
_QUEUE_OPS = st.lists(st.tuples(
    st.sampled_from(("insert", "insert", "insert", "wake", "wake", "select",
                     "select", "flush")),
    _SEQS, st.integers(0, 2), st.booleans(), st.booleans(),
    st.none() | st.integers(0, 2), st.integers(0, 63)),
    min_size=20, max_size=80)
#: (operation, seq step / completion target)
_ROB_OPS = st.lists(st.tuples(
    st.sampled_from(("allocate", "allocate", "complete", "complete", "commit")),
    st.integers(0, 63)), min_size=20, max_size=80)


class TestIssueQueueRandomized:
    """The real issue queue against :class:`QueueModel`."""

    @given(size=st.integers(1, 6), width=st.integers(1, 3), ops=_QUEUE_OPS)
    @settings(max_examples=300, deadline=None)
    def test_random_operation_sequences(self, size, width, ops):
        queue = IssueQueue(size=size, issue_width=width)
        model = QueueModel(size, width)
        records = []
        for kind, seq, sources, memory, flag, slots, target in ops:
            if kind == "insert":
                record = Record(dyn_id=len(records), seq=seq,
                                remaining_sources=sources, is_memory=memory)
                records.append(record)
                if model.insert(record.dyn_id, seq, sources, memory, flag):
                    queue.insert(record, force=flag)
                else:
                    with pytest.raises(RuntimeError):
                        queue.insert(record)
            elif kind == "wake" and records:
                record = records[target % len(records)]
                wake(queue, record)
                model.wake(record.dyn_id)
            elif kind == "select":
                selected = queue.select(memory_slots=slots)
                assert [r.dyn_id for r in selected] == model.select(slots)
                assert all(r.remaining_sources == 0 for r in selected)
                if flag and selected:
                    # A functional-unit hazard: the simulator puts the record
                    # back, forced, and it takes a fresh dispatch-order stamp.
                    record = selected[-1]
                    queue.insert(record, force=True)
                    model.insert(record.dyn_id, record.seq, 0,
                                 record.is_memory, force=True)
            elif kind == "flush":
                squashed = queue.flush_from(seq)
                assert [r.dyn_id for r in squashed] == model.flush_from(seq)
            assert sorted(queue.entries) == sorted(e[0] for e in model.live)
            assert set(queue.ready_entries) == model.ready()
            assert len(queue) == len(model.live)
            assert queue.free_slots == size - len(model.live)
            assert queue.is_full() == (len(model.live) >= size)


class TestReorderBufferRandomized:
    """The real ROB against :class:`ROBModel`."""

    @given(size=st.integers(1, 8), width=st.integers(1, 3), ops=_ROB_OPS)
    @settings(max_examples=300, deadline=None)
    def test_random_operation_sequences(self, size, width, ops):
        rob = ReorderBuffer(size=size, commit_width=width)
        model = ROBModel(size, width)
        records = []
        last_seq = 0
        for kind, number in ops:
            if kind == "allocate":
                seq = last_seq + number % 3   # a step of 0 repeats a seq
                record = Record(dyn_id=len(records), seq=seq)
                error = model.allocate(record.dyn_id, seq)
                if error is None:
                    rob.allocate(record.dyn_id, record)
                    records.append(record)
                    last_seq = seq
                else:
                    with pytest.raises(error):
                        rob.allocate(record.dyn_id, record)
            elif kind == "complete" and records:
                record = records[number % len(records)]
                record.completed = True
                model.complete(record.dyn_id)
            elif kind == "commit":
                retired = rob.commit()
                assert [r.dyn_id for r in retired] == model.commit()
            assert list(rob.by_uid) == [e[0] for e in model.live]
            assert len(rob) == len(model.live)
            assert rob.is_full() == (len(model.live) >= size)
            assert rob.is_empty() == (not model.live)


class TestSimulatorRandomizedInvariants:
    """Whole-simulator invariants over randomized traces and seeds."""

    def _build_sim(self, trial: int) -> HelperClusterSimulator:
        benchmark = SPEC_INT_NAMES[trial % len(SPEC_INT_NAMES)]
        trace = generate_trace(get_profile(benchmark), 700, seed=1000 + trial)
        return HelperClusterSimulator(trace, config=helper_cluster_config(),
                                      policy=make_policy("ir"))

    def test_commit_is_in_order_and_issue_waits_for_operands(self):
        random.seed(42)
        for trial in range(N_SIM_TRIALS):
            sim = self._build_sim(trial)

            committed_seqs = []
            original_commit = sim.rob.commit

            def commit_spy():
                retired = original_commit()
                committed_seqs.extend(entry.seq for entry in retired)
                return retired

            sim.rob.commit = commit_spy

            for queue in (sim.helpers[0].issue_queue, sim.wide.issue_queue):
                original_select = queue.select

                def select_spy(*args, _orig=original_select, **kwargs):
                    selected = _orig(*args, **kwargs)
                    # Invariant: nothing issues with outstanding operands.
                    assert all(e.remaining_sources == 0 for e in selected)
                    return selected

                queue.select = select_spy

            result = sim.run()
            # Invariant: in-order retirement.
            assert committed_seqs == sorted(committed_seqs)
            assert result.committed_uops == len(sim.trace)

    def test_copy_uops_consume_issue_slots(self):
        random.seed(42)
        saw_copies = False
        for trial in range(N_SIM_TRIALS):
            sim = self._build_sim(trial)
            result = sim.run()
            narrow, wide = sim.helpers[0].stats, sim.wide.stats
            copies = narrow.copies_executed + wide.copies_executed
            saw_copies = saw_copies or copies > 0
            # Issue-slot accounting covers copies: total issues include them
            # and never exceed each cluster's issue opportunities.
            assert narrow.issued >= narrow.copies_executed
            assert wide.issued >= wide.copies_executed
            width = sim.topology.host.issue_width
            assert narrow.issued <= (result.fast_cycles + 1) * width
            wide_cycles = result.fast_cycles // sim.clocking.ratio + 1
            assert wide.issued <= wide_cycles * width
            # Copy traffic is visible in the run metrics as well.
            assert result.copies >= copies - result.squashed_uops
        assert saw_copies, "no trial exercised inter-cluster copies"
