"""Workload-imbalance measurement: the NREADY metric (§3.7).

Following Parcerisa & González, the workload imbalance at a given instant is
the number of *ready* instructions that cannot issue in their own cluster but
could have issued in another cluster with spare issue slots.  If the helper
clusters are underutilised there is wide-to-narrow imbalance (ready wide
work that an idle helper could have absorbed); if they are overutilised the
narrow-to-wide imbalance dominates.

The monitor also tracks the issue-queue occupancy discrepancy, which is the
signal the IR splitting heuristic actually uses at dispatch time ("whenever
wide-to-narrow imbalance exists, as indicated by the discrepancy of the issue
queue occupancy rates of the clusters").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ImbalanceSample:
    """One per-cycle imbalance observation."""

    fast_cycle: int
    wide_ready_blocked: int
    narrow_ready_blocked: int
    wide_free_slots: int
    narrow_free_slots: int
    wide_occupancy: int
    narrow_occupancy: int


@dataclass
class ImbalanceMonitor:
    """Accumulates NREADY imbalance and occupancy statistics.

    Parameters
    ----------
    occupancy_threshold:
        Relative issue-queue occupancy gap (wide minus narrow, normalised by
        queue size) above which the IR heuristic considers the helper cluster
        underutilised and enables splitting.
    """

    queue_size: int = 32
    #: wide-cluster scheduler capacity; defaults to ``queue_size`` (the two
    #: clusters of the paper's machine have identical schedulers).  With
    #: several helper clusters ``queue_size`` is the *aggregate* helper
    #: capacity, which no longer equals the wide queue's own size.
    wide_queue_size: Optional[int] = None
    #: occupancy gap (wide minus narrow, normalised by queue size) above which
    #: the IR heuristic splits wide instructions toward the narrow cluster
    occupancy_threshold: float = 0.15
    #: reverse gap above which narrow-eligible work is steered back to the
    #: wide cluster (the helper cluster is overloaded, §1 item 5)
    overload_threshold: float = 0.50
    samples: int = 0
    issue_opportunities: int = 0
    wide_to_narrow_nready: int = 0
    narrow_to_wide_nready: int = 0
    wide_occupancy_accum: int = 0
    narrow_occupancy_accum: int = 0
    #: documented live-view aliases (REP003): the simulator's sampling
    #: fast path writes these directly instead of building an
    #: ImbalanceSample per wide cycle, and the IR heuristics read them
    last_wide_occupancy: int = 0
    last_narrow_occupancy: int = 0

    # ----------------------------------------------------------------- sample
    def record(self, sample: ImbalanceSample) -> None:
        """Record one cycle's observation.

        ``wide_ready_blocked`` counts ready instructions in the wide queue
        that could not issue this cycle; they count toward wide-to-narrow
        imbalance only insofar as the narrow cluster had free issue slots,
        and vice versa (that is the NREADY definition).
        """
        self.record_cycle(sample.wide_ready_blocked, sample.narrow_ready_blocked,
                          sample.wide_free_slots, sample.narrow_free_slots,
                          sample.wide_occupancy, sample.narrow_occupancy)

    def record_cycle(self, wide_ready_blocked: int, narrow_ready_blocked: int,
                     wide_free_slots: int, narrow_free_slots: int,
                     wide_occupancy: int, narrow_occupancy: int) -> None:
        """Scalar fast path of :meth:`record` (no sample object allocation)."""
        self.samples += 1
        self.issue_opportunities += max(1, wide_occupancy + narrow_occupancy)
        self.wide_to_narrow_nready += min(wide_ready_blocked, narrow_free_slots)
        self.narrow_to_wide_nready += min(narrow_ready_blocked, wide_free_slots)
        self.wide_occupancy_accum += wide_occupancy
        self.narrow_occupancy_accum += narrow_occupancy
        self.last_wide_occupancy = wide_occupancy
        self.last_narrow_occupancy = narrow_occupancy

    def record_idle_cycles(self, wide_occupancy: int, narrow_occupancy: int,
                           cycles: int) -> None:
        """Record ``cycles`` consecutive idle observations in one call.

        Used when the simulator fast-forwards over cycles during which
        provably nothing issues, completes or dispatches: the queues are
        frozen, no active backend has blocked-ready work, so every skipped
        cycle would have contributed identical occupancy terms and zero
        NREADY terms.  The aggregate equals per-cycle sampling exactly.
        """
        self.samples += cycles
        self.issue_opportunities += cycles * max(1, wide_occupancy + narrow_occupancy)
        self.wide_occupancy_accum += cycles * wide_occupancy
        self.narrow_occupancy_accum += cycles * narrow_occupancy
        self.last_wide_occupancy = wide_occupancy
        self.last_narrow_occupancy = narrow_occupancy

    # ------------------------------------------------------------------ rates
    def wide_to_narrow_imbalance(self) -> float:
        """Fraction of issue opportunities lost to wide-to-narrow imbalance."""
        if self.issue_opportunities == 0:
            return 0.0
        return self.wide_to_narrow_nready / self.issue_opportunities

    def narrow_to_wide_imbalance(self) -> float:
        """Fraction of issue opportunities lost to narrow-to-wide imbalance."""
        if self.issue_opportunities == 0:
            return 0.0
        return self.narrow_to_wide_nready / self.issue_opportunities

    def mean_wide_occupancy(self) -> float:
        return self.wide_occupancy_accum / self.samples if self.samples else 0.0

    def mean_narrow_occupancy(self) -> float:
        return self.narrow_occupancy_accum / self.samples if self.samples else 0.0

    # ------------------------------------------------------------ IR decision
    def helper_underutilised(self) -> bool:
        """Dispatch-time signal for the IR scheme: is there wide-to-narrow imbalance?

        Uses the instantaneous issue-queue occupancy discrepancy, which is
        what the paper's heuristic consults ("indicated by the discrepancy of
        the issue queue occupancy rates of the clusters").  Splitting only
        pays off when the wide scheduler is genuinely congested, so an
        absolute occupancy floor is required as well.
        """
        wide_capacity = (self.wide_queue_size if self.wide_queue_size is not None
                         else self.queue_size)
        if self.last_wide_occupancy < 0.75 * wide_capacity:
            return False
        if self.last_narrow_occupancy > 0.5 * self.queue_size:
            return False
        gap = (self.last_wide_occupancy - self.last_narrow_occupancy) / max(1, self.queue_size)
        return gap > self.occupancy_threshold

    def helper_overloaded(self) -> bool:
        """Opposite condition: steer narrow work back to the wide cluster (§1, item 5)."""
        gap = (self.last_narrow_occupancy - self.last_wide_occupancy) / max(1, self.queue_size)
        return gap > self.overload_threshold

    def reset(self) -> None:
        self.samples = 0
        self.issue_opportunities = 0
        self.wide_to_narrow_nready = 0
        self.narrow_to_wide_nready = 0
        self.wide_occupancy_accum = 0
        self.narrow_occupancy_accum = 0
        self.last_wide_occupancy = 0
        self.last_narrow_occupancy = 0
