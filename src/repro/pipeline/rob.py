"""Reorder buffer and in-order commit (Table 1: commit width 6).

The ROB bounds the number of in-flight uops and retires them in program order
at up to ``commit_width`` per wide-cluster cycle.  Commit happens in the wide
clock domain regardless of which cluster executed the uop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional


@dataclass(slots=True)
class ROBEntry:
    """One reorder-buffer entry."""

    uid: int
    seq: int
    completed: bool = False
    squashed: bool = False
    payload: object = None


class ReorderBuffer:
    """A bounded, in-order reorder buffer."""

    def __init__(self, size: int = 128, commit_width: int = 6) -> None:
        if size <= 0 or commit_width <= 0:
            raise ValueError("ROB size and commit width must be positive")
        self.size = size
        self.commit_width = commit_width
        self._entries: Deque[ROBEntry] = deque()
        self._by_uid: Dict[int, ROBEntry] = {}
        #: Public live view of the uid index, mapping uid -> entry (the
        #: simulator resolves producer clusters per source operand through
        #: it, reading the entry's ``payload`` / ``seq``).  Aliases the
        #: internal dict for the buffer's lifetime — mutate only through the
        #: buffer's methods.
        self.by_uid = self._by_uid
        self.committed = 0

    # --------------------------------------------------------------- capacity
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_slots(self) -> int:
        return self.size - len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.size

    def is_empty(self) -> bool:
        return not self._entries

    # ---------------------------------------------------------------- allocate
    def allocate(self, uid: int, seq: int, payload: object = None) -> ROBEntry:
        """Allocate an entry at the tail.  Raises if the ROB is full."""
        entries = self._entries
        if len(entries) >= self.size:
            raise RuntimeError("ROB full")
        if entries and seq <= entries[-1].seq:
            raise ValueError("ROB allocations must be in program order")
        entry = ROBEntry(uid=uid, seq=seq, payload=payload)
        entries.append(entry)
        self._by_uid[uid] = entry
        return entry

    # ---------------------------------------------------------------- complete
    def mark_completed(self, uid: int) -> None:
        entry = self._by_uid.get(uid)
        if entry is not None:
            entry.completed = True

    def mark_squashed(self, uid: int) -> None:
        """Squashed entries still occupy their slot until commit drains them.

        The flushing recovery re-executes the squashed work in the wide
        cluster under a new uid; the original entry is retired as a bubble.
        """
        entry = self._by_uid.get(uid)
        if entry is not None:
            entry.squashed = True
            entry.completed = True

    # ------------------------------------------------------------------ commit
    def commit(self) -> List[ROBEntry]:
        """Retire up to ``commit_width`` completed entries from the head."""
        entries = self._entries
        if not entries or not entries[0].completed:
            return []
        by_uid = self._by_uid
        retired: List[ROBEntry] = []
        width = self.commit_width
        while entries and entries[0].completed and len(retired) < width:
            head = entries.popleft()
            del by_uid[head.uid]
            retired.append(head)
            if not head.squashed:
                self.committed += 1
        return retired

    def head_seq(self) -> Optional[int]:
        """Sequence number of the oldest in-flight uop (None when empty)."""
        return self._entries[0].seq if self._entries else None

    def occupancy(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        self._entries.clear()
        self._by_uid.clear()
        self.committed = 0
