"""Flushing recovery for fatal width mispredictions (§3.2).

Recovery is only needed when an instruction *steered to the narrow backend*
turns out to need wide resources (a *fatal* misprediction).  A misprediction
in the other direction — a narrow value executed in the wide backend — is a
missed opportunity, not an error.

The paper adopts a simple flushing scheme: all instructions starting from the
mispredicted one are squashed in the narrow backend and re-steered into the
wide backend.  Although simple, this has a high per-event cost, which is why
the confidence estimator is added to push the fatal misprediction rate from
2.11% down to 0.83%.

The :class:`RecoveryManager` tracks pending recovery events, tells the
frontend/dispatch when they are blocked by an ongoing recovery, and records
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class RecoveryEvent:
    """One fatal-misprediction flush."""

    trigger_uid: int
    trigger_seq: int
    fast_cycle: int
    squashed_uids: List[int] = field(default_factory=list)
    refetch_ready_cycle: int = 0


class RecoveryManager:
    """Coordinates flushing recovery events.

    Parameters
    ----------
    clock_ratio:
        Fast cycles per slow cycle, to convert the penalty.
    """

    def __init__(self, clock_ratio: int = 2) -> None:
        self.clock_ratio = clock_ratio
        self.events: List[RecoveryEvent] = []
        self._blocked_until_fast_cycle = 0

    # ------------------------------------------------------------------ flush
    def trigger(self, trigger_uid: int, trigger_seq: int, fast_cycle: int,
                squashed_uids: Optional[List[int]] = None, *,
                penalty_slow: int) -> RecoveryEvent:
        """Register a fatal misprediction detected at ``fast_cycle``.

        ``penalty_slow`` is the number of wide-cluster cycles between
        detecting the misprediction and the squashed instructions being
        re-dispatched to the wide backend (re-steer + re-rename latency):
        the ``flush_penalty_slow`` of the cluster that detected it.
        """
        event = RecoveryEvent(
            trigger_uid=trigger_uid,
            trigger_seq=trigger_seq,
            fast_cycle=fast_cycle,
            squashed_uids=list(squashed_uids or []),
            refetch_ready_cycle=fast_cycle + penalty_slow * self.clock_ratio,
        )
        self.events.append(event)
        self._blocked_until_fast_cycle = max(self._blocked_until_fast_cycle,
                                             event.refetch_ready_cycle)
        return event

    # ------------------------------------------------------------------ state
    def dispatch_blocked(self, fast_cycle: int) -> bool:
        """True while dispatch must wait for an ongoing recovery to finish."""
        return fast_cycle < self._blocked_until_fast_cycle

    @property
    def num_recoveries(self) -> int:
        return len(self.events)

    @property
    def total_squashed(self) -> int:
        return sum(len(e.squashed_uids) for e in self.events)

    def reset(self) -> None:
        self.events.clear()
        self._blocked_until_fast_cycle = 0
