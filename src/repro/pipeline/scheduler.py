"""Per-cluster issue queue (scheduler) with wakeup/select.

Table 1 gives each backend a 32-entry scheduler with an issue width of 3.
Entries wait for their source operands to become ready (wakeup) and are then
selected oldest-first up to the issue width (select).  The helper cluster's
queue is identical in structure but is clocked at the fast frequency, so it
gets a select opportunity every fast cycle.

The queue holds the simulator's own in-flight records, keyed by ``dyn_id``;
it reads and writes only the fields of :class:`QueueRecord`, so tests can
drive it with any plain record that has them.  It maintains an explicit
*ready set* so the simulator's inner loop never scans the whole scheduler:
``select`` only orders the entries that are actually ready.  Selection order
is identical to a stable oldest-first sort over the whole queue: ties on the
sequence number are broken by dispatch (insertion) order, tracked with a
monotonically increasing counter.

The issue queue also exposes the occupancy and ready-but-not-issued counts
that the NREADY load-imbalance metric (§3.7) and the IR splitting heuristic
consume.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Protocol


class QueueRecord(Protocol):
    """The fields of an in-flight operation the issue queue reads or writes."""

    dyn_id: int                   # the queue's key
    seq: int                      # program order sequence number (age)
    remaining_sources: int        # outstanding source operands
    is_memory: bool               # counts against the DL0-port budget
    #: dispatch-order stamp written by :meth:`IssueQueue.insert`; breaks seq
    #: ties the way a stable sort over the insertion-ordered queue would
    order: int


#: Oldest-first selection key: program order, then dispatch order on ties.
_age_key = attrgetter("seq", "order")


class IssueQueue:
    """A bounded issue queue with explicit wakeup and oldest-first select."""

    def __init__(self, size: int = 32, issue_width: int = 3) -> None:
        if size <= 0 or issue_width <= 0:
            raise ValueError("issue queue size and width must be positive")
        self.size = size
        self.issue_width = issue_width
        self._entries: Dict[int, QueueRecord] = {}
        #: dispatch-order counter; stamped onto records at insert
        self._order_counter = 0
        #: dyn_id -> record for records with no outstanding sources
        self._ready: Dict[int, QueueRecord] = {}
        #: Public *live views* of the queue state, part of the hot-path
        #: contract: the simulator's event wheel reads these dicts directly
        #: (occupancy = len(entries), readiness = bool(ready_entries)) instead
        #: of paying a method call per cycle.  They map dyn_id -> record and
        #: alias the internal dicts for the queue's whole lifetime.  Besides
        #: the queue's methods, only the simulator's wake step mutates them:
        #: for a resident record it decrements ``remaining_sources`` and, at
        #: zero, adds the record to ``ready_entries``.
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

    # ----------------------------------------------------------------- insert
    # hot-path
    def insert(self, record: QueueRecord, force: bool = False) -> None:
        """Dispatch a record into the queue.

        Raises if the queue is full unless ``force`` is set.  Forced inserts
        are reserved for flushing-recovery re-dispatch, which must make
        forward progress even when the scheduler is congested (the real
        machine reserves entries for re-steered instructions).  Every insert
        (forced re-inserts included) takes a fresh dispatch-order stamp.
        """
        entries = self._entries
        if len(entries) >= self.size and not force:
            raise RuntimeError("issue queue full")
        key = record.dyn_id
        if key in entries:
            raise ValueError(
                f"dyn_id {key} already in issue queue")  # lint: disable=REP004(raise-only path: the f-string is built only when the duplicate-key invariant is already broken)
        entries[key] = record
        record.order = self._order_counter
        self._order_counter += 1
        if record.remaining_sources == 0:
            self._ready[key] = record

    # ----------------------------------------------------------------- select
    # hot-path
    def select(self, memory_slots: Optional[int] = None) -> List[QueueRecord]:
        """Select up to ``issue_width`` ready records, oldest first.

        ``memory_slots`` optionally caps how many memory operations may issue
        this cycle (DL0 port limit); non-memory records are unaffected.
        Selected records are removed from the queue.
        """
        ready = self._ready
        if not ready:
            return []
        budget = self.issue_width
        mem_budget = memory_slots if memory_slots is not None else budget
        entries = self._entries
        if len(ready) == 1:
            key, record = ready.popitem()
            if record.is_memory and mem_budget <= 0:
                ready[key] = record
                return []
            del entries[key]
            return [record]
        selected: List[QueueRecord] = []
        for record in sorted(ready.values(), key=_age_key):
            if record.is_memory:
                if mem_budget <= 0:
                    continue
                mem_budget -= 1
            selected.append(record)
            if len(selected) >= budget:
                break
        for record in selected:
            del entries[record.dyn_id]
            del ready[record.dyn_id]
        return selected

    # ------------------------------------------------------------------ flush
    def flush_from(self, seq: int) -> List[QueueRecord]:
        """Remove and return all records with sequence number >= ``seq``,
        oldest first.

        This implements the paper's flushing recovery (§3.2): on a fatal width
        misprediction every instruction starting from the mispredicted one is
        squashed in the narrow backend.
        """
        doomed = sorted((r for r in self._entries.values() if r.seq >= seq),
                        key=_age_key)
        for record in doomed:
            del self._entries[record.dyn_id]
            self._ready.pop(record.dyn_id, None)
        return doomed

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
