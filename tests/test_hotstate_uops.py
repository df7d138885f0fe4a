"""Recovery leaves no stranded waiters.

A squashed consumer stays on the waiter list of every (producer value,
cluster) key it resolved against, and the re-executed producer completes in
the wide cluster, so some of those helper-cluster lists are never woken
again.  Flushing recovery prunes squashed uops from every list they can sit
on; this pins that, by the end of a recovery-heavy run, the simulator's
waiter map is empty.
"""

from __future__ import annotations

from repro.fuzz.generate import generate_case
from repro.sim.simulator import HelperClusterSimulator


class TestRecoveryDrainsWaiters:
    def test_squash_leaves_the_waiter_map_empty(self):
        # fuzz seed 319 produces dozens of width-misprediction recoveries
        # across three helper clusters (dense squash + redispatch traffic)
        case = generate_case(319)
        sim = HelperClusterSimulator(case.build_trace(),
                                     config=case.machine_config(),
                                     policy=case.policy.build(),
                                     reference_loop=False)
        result = sim.run()
        assert result.recoveries > 0
        assert sim._waiters == {}
        assert not sim._prefetched_values
