"""Reorder buffer and in-order commit (Table 1: commit width 6).

The ROB bounds the number of in-flight uops and retires them in program order
at up to ``commit_width`` per wide-cluster cycle.  Commit happens in the wide
clock domain regardless of which cluster executed the uop.

The ROB holds the simulator's own records, each under the uid of the trace
uop it stands for, and reads only the fields of :class:`ROBRecord`: a record
is retirable once the simulator sets its ``completed`` flag.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Protocol


class ROBRecord(Protocol):
    """The fields of an in-flight operation the ROB reads."""

    seq: int              # program order; allocations must be increasing
    completed: bool       # retirable once set


class ReorderBuffer:
    """A bounded, in-order reorder buffer."""

    def __init__(self, size: int = 128, commit_width: int = 6) -> None:
        if size <= 0 or commit_width <= 0:
            raise ValueError("ROB size and commit width must be positive")
        self.size = size
        self.commit_width = commit_width
        #: uids in program order (the head is ``[0]``)
        self._order: Deque[int] = deque()
        #: Public live view mapping uid -> record, in program order.  The
        #: simulator resolves producer clusters and sequence numbers through
        #: it and marks a re-executed uop's original record completed.  Only
        #: the buffer's methods add or remove keys.
        self.by_uid: Dict[int, ROBRecord] = {}

    # --------------------------------------------------------------- capacity
    def __len__(self) -> int:
        return len(self._order)

    def is_full(self) -> bool:
        return len(self._order) >= self.size

    def is_empty(self) -> bool:
        return not self._order

    # ---------------------------------------------------------------- allocate
    def allocate(self, uid: int, record: ROBRecord) -> None:
        """Allocate ``record`` at the tail under ``uid``.

        Raises if the ROB is full or ``record`` is not younger than the tail.
        """
        order = self._order
        if len(order) >= self.size:
            raise RuntimeError("ROB full")
        if order and record.seq <= self.by_uid[order[-1]].seq:
            raise ValueError("ROB allocations must be in program order")
        order.append(uid)
        self.by_uid[uid] = record

    # ------------------------------------------------------------------ commit
    def commit(self) -> List[ROBRecord]:
        """Retire and return up to ``commit_width`` completed records from
        the head."""
        order = self._order
        by_uid = self.by_uid
        retired: List[ROBRecord] = []
        while order and len(retired) < self.commit_width:
            record = by_uid[order[0]]
            if not record.completed:
                break
            del by_uid[order.popleft()]
            retired.append(record)
        return retired
