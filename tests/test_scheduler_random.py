"""Randomized, seeded stress tests of the scheduler and simulator invariants.

Coreblocks-style randomized testing: each trial seeds ``random`` explicitly,
drives the unit with a random operation sequence, and asserts structural
invariants rather than exact outputs.  These guard the issue-queue ready-set
bookkeeping and the simulator's out-of-order machinery:

* an entry never issues (selects) before all its source operands are ready;
* select is oldest-first and never exceeds the issue width / memory ports;
* commit retires trace uops strictly in program order;
* copy uops consume real issue slots in their cluster (issue-slot accounting
  covers them).
"""

from __future__ import annotations

import random

from repro.core.config import helper_cluster_config
from repro.core.steering import make_policy
from repro.pipeline.scheduler import IssueQueue, IssueQueueEntry
from repro.sim.simulator import HelperClusterSimulator
from repro.trace.profiles import SPEC_INT_NAMES, get_profile
from repro.trace.synthetic import generate_trace

N_QUEUE_TRIALS = 25
N_SIM_TRIALS = 6


class TestIssueQueueRandomized:
    """Random insert/wakeup/select/flush sequences against a model."""

    def _random_entry(self, uid: int) -> IssueQueueEntry:
        return IssueQueueEntry(
            uid=uid,
            seq=random.randint(0, 40),       # deliberate seq ties
            remaining_sources=random.randint(0, 3),
            is_memory=random.random() < 0.3,
        )

    def test_random_operation_sequences(self):
        random.seed(14)
        for _ in range(N_QUEUE_TRIALS):
            queue = IssueQueue(size=16, issue_width=3)
            live = {}                        # uid -> entry (the model)
            next_uid = 0
            order_of = {}                    # uid -> insertion order
            insert_counter = 0
            for _ in range(200):
                op = random.random()
                if op < 0.45 and not queue.is_full():
                    entry = self._random_entry(next_uid)
                    queue.insert(entry)
                    live[entry.uid] = entry
                    order_of[entry.uid] = insert_counter
                    insert_counter += 1
                    next_uid += 1
                elif op < 0.70 and live:
                    queue.wakeup(random.choice(list(live)))
                elif op < 0.90:
                    memory_slots = random.randint(0, 2)
                    before_ready = sorted(
                        (uid for uid, e in live.items() if e.remaining_sources == 0),
                        key=lambda uid: (live[uid].seq, order_of[uid]))
                    selected = queue.select(memory_slots=memory_slots)
                    # Invariant: every selected entry was ready.
                    assert all(e.remaining_sources == 0 for e in selected)
                    # Invariant: width and memory-port limits hold.
                    assert len(selected) <= queue.issue_width
                    assert sum(e.is_memory for e in selected) <= memory_slots
                    # Invariant: oldest-first among the ready (modulo memory
                    # entries skipped by the port limit).
                    non_memory = [e.uid for e in selected if not e.is_memory]
                    expected_order = [uid for uid in before_ready
                                      if not live[uid].is_memory]
                    assert non_memory == expected_order[:len(non_memory)]
                    for entry in selected:
                        del live[entry.uid]
                else:
                    seq = random.randint(0, 40)
                    squashed = queue.flush_from(seq)
                    assert all(e.seq >= seq for e in squashed)
                    for entry in squashed:
                        del live[entry.uid]
                # Bookkeeping invariants after every operation.
                assert len(queue) == len(live)
                assert queue.ready_count() == sum(
                    1 for e in live.values() if e.remaining_sources == 0)

    def test_drain_returns_everything_in_age_order(self):
        random.seed(7)
        for _ in range(10):
            queue = IssueQueue(size=32, issue_width=3)
            entries = [self._random_entry(uid) for uid in range(20)]
            for entry in entries:
                queue.insert(entry)
            drained = queue.drain()
            assert len(drained) == 20 and len(queue) == 0
            seqs = [e.seq for e in drained]
            assert seqs == sorted(seqs)


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
