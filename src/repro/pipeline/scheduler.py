"""Per-cluster issue queue (scheduler) with wakeup/select.

Table 1 gives each backend a 32-entry scheduler with an issue width of 3.
Entries wait for their source operands to become ready (wakeup) and are then
selected oldest-first up to the issue width (select).  The helper cluster's
queue is identical in structure but is clocked at the fast frequency, so it
gets a select opportunity every fast cycle.

The queue maintains an explicit *ready set* so the simulator's inner loop
never scans the whole scheduler: ``ready_count`` is O(1) and ``select`` only
orders the entries that are actually ready.  Selection order is identical to
a stable oldest-first sort over the whole queue: ties on the sequence number
are broken by dispatch (insertion) order, tracked with a monotonically
increasing counter.

The issue queue also exposes the occupancy and ready-but-not-issued counts
that the NREADY load-imbalance metric (§3.7) and the IR splitting heuristic
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional


@dataclass(slots=True)
class IssueQueueEntry:
    """One scheduler entry."""

    uid: int
    seq: int                      # program order sequence number (age)
    remaining_sources: int        # outstanding source operands
    is_memory: bool = False
    payload: object = None        # opaque reference back to the simulator's record
    #: dispatch-order stamp assigned by :meth:`IssueQueue.insert`; breaks seq
    #: ties the way a stable sort over the insertion-ordered entry dict used to
    order: int = 0

    @property
    def ready(self) -> bool:
        return self.remaining_sources == 0


#: Oldest-first selection key: program order, then dispatch order on ties.
_age_key = attrgetter("seq", "order")


class IssueQueue:
    """A bounded issue queue with explicit wakeup and oldest-first select."""

    def __init__(self, size: int = 32, issue_width: int = 3) -> None:
        if size <= 0 or issue_width <= 0:
            raise ValueError("issue queue size and width must be positive")
        self.size = size
        self.issue_width = issue_width
        self._entries: Dict[int, IssueQueueEntry] = {}
        #: dispatch-order counter; stamped onto entries at insert
        self._order_counter = 0
        #: uid -> entry for entries with no outstanding sources
        self._ready: Dict[int, IssueQueueEntry] = {}
        #: Public *live views* of the queue state, part of the hot-path
        #: contract: the simulator's event wheel reads these dicts directly
        #: (occupancy = len(entries), readiness = bool(ready_entries)) instead
        #: of paying a method call per cycle, and its wakeup path decrements
        #: ``remaining_sources`` in place.  They map uid -> entry and alias
        #: the internal dicts for the queue's whole lifetime — mutate only
        #: through the queue's methods (or the documented wake sequence in
        #: :mod:`repro.sim.simulator`).
        self.entries = self._entries
        self.ready_entries = self._ready
        # Statistics for imbalance measurement.
        self.total_occupancy_samples = 0
        self.occupancy_accum = 0
        self.ready_not_issued_accum = 0

    # --------------------------------------------------------------- capacity
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_slots(self) -> int:
        return self.size - len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.size

    def __contains__(self, uid: int) -> bool:
        return uid in self._entries

    # ----------------------------------------------------------------- insert
    # hot-path
    def insert(self, entry: IssueQueueEntry, force: bool = False) -> None:
        """Dispatch an entry into the queue.

        Raises if the queue is full unless ``force`` is set.  Forced inserts
        are reserved for flushing-recovery re-dispatch, which must make
        forward progress even when the scheduler is congested (the real
        machine reserves entries for re-steered instructions).  Every insert
        (forced re-inserts included) takes a fresh dispatch-order stamp.
        """
        entries = self._entries
        if len(entries) >= self.size and not force:
            raise RuntimeError("issue queue full")
        uid = entry.uid
        if uid in entries:
            raise ValueError(
                f"uid {uid} already in issue queue")  # lint: disable=REP004(raise-only path: the f-string is built only when the duplicate-uid invariant is already broken)
        entries[uid] = entry
        entry.order = self._order_counter
        self._order_counter += 1
        if entry.remaining_sources == 0:
            self._ready[uid] = entry

    # ----------------------------------------------------------------- wakeup
    # hot-path
    def wakeup(self, uid: int, count: int = 1) -> None:
        """Mark ``count`` source operands of ``uid`` as ready."""
        entry = self._entries.get(uid)
        if entry is None:
            return
        remaining = entry.remaining_sources - count
        if remaining <= 0:
            remaining = 0
            self._ready[uid] = entry
        entry.remaining_sources = remaining

    # ----------------------------------------------------------------- select
    # hot-path
    def select(self, max_issue: Optional[int] = None,
               memory_slots: Optional[int] = None) -> List[IssueQueueEntry]:
        """Select up to ``issue_width`` ready entries, oldest first.

        ``memory_slots`` optionally caps how many memory operations may issue
        this cycle (DL0 port limit); non-memory entries are unaffected.
        Selected entries are removed from the queue.
        """
        ready = self._ready
        if not ready:
            return []
        budget = self.issue_width if max_issue is None else min(max_issue, self.issue_width)
        if budget <= 0:
            return []
        mem_budget = memory_slots if memory_slots is not None else budget
        entries = self._entries
        if len(ready) == 1:
            uid, entry = ready.popitem()
            if entry.is_memory and mem_budget <= 0:
                ready[uid] = entry
                return []
            del entries[uid]
            return [entry]
        selected: List[IssueQueueEntry] = []
        for entry in sorted(ready.values(), key=_age_key):
            if entry.is_memory:
                if mem_budget <= 0:
                    continue
                mem_budget -= 1
            selected.append(entry)
            if len(selected) >= budget:
                break
        for entry in selected:
            del entries[entry.uid]
            del ready[entry.uid]
        return selected

    def _remove(self, uid: int) -> None:
        del self._entries[uid]
        self._ready.pop(uid, None)

    # ------------------------------------------------------------------ flush
    def flush_from(self, seq: int) -> List[IssueQueueEntry]:
        """Remove and return all entries with sequence number >= ``seq``.

        This implements the paper's flushing recovery (§3.2): on a fatal width
        misprediction every instruction starting from the mispredicted one is
        squashed in the narrow backend.
        """
        doomed = sorted((e for e in self._entries.values() if e.seq >= seq),
                        key=_age_key)
        for entry in doomed:
            self._remove(entry.uid)
        return doomed

    def drain(self) -> List[IssueQueueEntry]:
        """Remove and return everything (used at simulation teardown)."""
        entries = sorted(self._entries.values(), key=_age_key)
        self._entries.clear()
        self._ready.clear()
        return entries

    # -------------------------------------------------------------- statistics
    # hot-path
    def sample_occupancy(self, cycles: int = 1) -> None:
        """Record occupancy and ready-but-unissued counts for ``cycles`` cycles.

        ``cycles > 1`` is used by the simulator when it fast-forwards over a
        stretch of cycles during which the queue provably does not change: the
        aggregate statistics are exactly what per-cycle sampling would have
        recorded.
        """
        self.total_occupancy_samples += cycles
        self.occupancy_accum += len(self._entries) * cycles
        self.ready_not_issued_accum += len(self._ready) * cycles

    @property
    def mean_occupancy(self) -> float:
        if self.total_occupancy_samples == 0:
            return 0.0
        return self.occupancy_accum / self.total_occupancy_samples

    def ready_count(self) -> int:
        """Number of currently ready (issuable) entries."""
        return len(self._ready)
