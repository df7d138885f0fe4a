"""Memory Order Buffer shared by both clusters (§3.4).

The paper notes that there is a single MOB, which is what makes load
replication (LR) possible: a load's result register can be allocated in both
clusters because the memory access itself is not cluster-private.

The model tracks in-flight loads and stores, enforces a simple capacity
limit, and provides store-to-load forwarding detection so the simulator can
short-circuit the DL0 latency when a load hits a pending store to the same
address (a minor effect, but it keeps the structure honest).  A load is kept
as its uid alone (capacity and release); a store as its sequence number and
address, which forwarding reads.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple


class MemoryOrderBuffer:
    """A single, shared load/store queue."""

    def __init__(self, load_entries: int = 48, store_entries: int = 32) -> None:
        if load_entries <= 0 or store_entries <= 0:
            raise ValueError("MOB capacities must be positive")
        self.load_capacity = load_entries
        self.store_capacity = store_entries
        self._loads: Set[int] = set()
        #: store uid -> (seq, address)
        self._stores: Dict[int, Tuple[int, Optional[int]]] = {}

    # --------------------------------------------------------------- capacity
    def can_allocate(self, is_store: bool) -> bool:
        if is_store:
            return len(self._stores) < self.store_capacity
        return len(self._loads) < self.load_capacity

    def allocate(self, uid: int, seq: int, is_store: bool,
                 addr: Optional[int]) -> None:
        """Allocate an entry at dispatch.  Raises when the queue is full."""
        if not self.can_allocate(is_store):
            raise RuntimeError("MOB full")
        if is_store:
            self._stores[uid] = (seq, addr)
        else:
            self._loads.add(uid)

    def release(self, uid: int) -> None:
        """Free the entry at commit (or squash)."""
        self._loads.discard(uid)
        self._stores.pop(uid, None)

    # ------------------------------------------------------------- forwarding
    def forwarding_store(self, load_seq: int, addr: Optional[int]) -> Optional[int]:
        """Return the uid of the youngest older store to the same address,
        if any."""
        if addr is None:
            return None
        best: Optional[int] = None
        best_seq = 0
        for uid, (seq, store_addr) in self._stores.items():
            if (store_addr == addr and seq < load_seq
                    and (best is None or seq > best_seq)):
                best, best_seq = uid, seq
        return best
