"""Recovery leaves no stranded waiters.

A squashed consumer stays on the waiter list of every (producer value,
cluster) key it resolved against, and the re-executed producer completes in
the wide cluster, so some of those helper-cluster lists are never woken
again.  Flushing recovery prunes squashed uops from every list they can sit
on; this pins that, by the end of a recovery-heavy run, the simulator's
waiter map is empty.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fuzz.generate import case_from_dict
from repro.sim.simulator import HelperClusterSimulator

#: 58 width-misprediction recoveries across three helper clusters (dense
#: squash + redispatch traffic); pinned as data so the scenario does not
#: move when the fuzz generator's seed mapping does.
RECOVERY_HEAVY = Path(__file__).parent / "fuzz_corpus" / "recovery-heavy.json"


class TestRecoveryDrainsWaiters:
    def test_squash_leaves_the_waiter_map_empty(self):
        case = case_from_dict(
            json.loads(RECOVERY_HEAVY.read_text(encoding="utf-8"))["case"])
        sim = HelperClusterSimulator(case.build_trace(),
                                     config=case.machine_config(),
                                     policy=case.policy.build(),
                                     reference_loop=False)
        result = sim.run()
        assert result.recoveries > 0
        assert sim._waiters == {}
        assert not sim._prefetched_values
