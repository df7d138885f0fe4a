"""Inter-cluster copy generation, load replication and copy prefetching.

Values produced in one backend and consumed in the other must be moved with
explicit *copy* instructions (the Canal/Parcerisa/González scheme the paper
adopts): the consumer generates a copy uop that is steered to the *producer's*
backend, waits there for the value, and writes it into the consumer backend's
register file.  Copies cost issue slots and latency, so the steering schemes
try to minimise both their number (BR, LR) and their latency (CP).

The :class:`CopyEngine` tracks where each in-flight value is available, decides
when a copy is needed, implements load replication (§3.4: narrow loads write
their result into both clusters through the shared MOB) and copy prefetching
(§3.6: generate the copy at the producer, predicted by the CP bit, instead of
waiting for the consumer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.pipeline.clocking import ClockDomain


@dataclass(slots=True)
class CopyRequest:
    """A copy uop to be injected by the simulator.

    Attributes
    ----------
    value_uid:
        uid of the producer whose value is being copied.
    from_domain / to_domain:
        Producer cluster (where the copy executes) and consumer cluster
        (where the value is delivered).
    prefetch:
        True when generated at the producer by the CP scheme rather than on
        demand by a consumer.
    """

    value_uid: int
    from_domain: ClockDomain
    to_domain: ClockDomain
    prefetch: bool = False


@dataclass
class CopyStats:
    """Copy activity counters."""

    copies_generated: int = 0
    demand_copies: int = 0
    prefetched_copies: int = 0
    useful_prefetches: int = 0
    replicated_loads: int = 0

    @property
    def prefetch_accuracy(self) -> float:
        if self.prefetched_copies == 0:
            return 0.0
        return self.useful_prefetches / self.prefetched_copies


class CopyEngine:
    """Tracks value availability per cluster and generates copy requests.

    Domains are cluster indices (:class:`ClockDomain` members for the paper's
    wide + narrow pair, plain ints for further helper clusters); the engine
    never assumes there are only two.
    """

    def __init__(self, num_domains: int = 2) -> None:
        if num_domains < 1:
            raise ValueError("a machine has at least one cluster")
        self.num_domains = num_domains
        #: value_uid -> {domain: fast cycle at which the value is available there}
        self._availability: Dict[int, Dict[ClockDomain, int]] = {}
        #: value_uid -> domain of a copy already in flight toward that domain
        self._pending: Dict[int, set] = {}
        #: Public live views for the simulator's per-dependence fast path
        #: (one dict probe instead of a method call per source operand).
        #: They alias the internal maps for the engine's lifetime — mutate
        #: only through the engine's methods.
        self.availability_map = self._availability
        self.pending_map = self._pending
        self.stats = CopyStats()

    # --------------------------------------------------------------- tracking
    def note_produced(self, value_uid: int, domain: ClockDomain,
                      ready_cycle: int) -> None:
        """Record that ``value_uid`` will be available in ``domain`` at ``ready_cycle``."""
        slots = self._availability.get(value_uid)
        if slots is None:
            slots = self._availability[value_uid] = {}
        slots[domain] = ready_cycle

    def note_replicated(self, value_uid: int, ready_cycle: int,
                        extra_latency: int = 0) -> None:
        """Load replication (§3.4): the value appears in *every* cluster.

        The replicas become available ``extra_latency`` fast cycles after the
        primary (register-file write port scheduling).
        """
        slots = self._availability.setdefault(value_uid, {})
        for domain in range(self.num_domains):
            if domain in slots:
                continue
            base = min(slots.values()) if slots else ready_cycle
            slots[domain] = max(base, ready_cycle) + extra_latency
        self.stats.replicated_loads += 1

    def availability(self, value_uid: int, domain: ClockDomain) -> Optional[int]:
        """Fast cycle at which the value is available in ``domain`` (None = not there)."""
        slots = self._availability.get(value_uid)
        return None if slots is None else slots.get(domain)

    def domains_available(self, value_uid: int) -> list:
        """Clusters in which the value is (or will be) available."""
        slots = self._availability.get(value_uid)
        return [] if slots is None else list(slots)

    def available_anywhere(self, value_uid: int) -> bool:
        return value_uid in self._availability

    # ------------------------------------------------------------------ copies
    def needs_copy(self, value_uid: int, to_domain: ClockDomain) -> bool:
        """True if the value is not (and will not be) available in ``to_domain``."""
        slots = self._availability.get(value_uid)
        if slots is None:
            # Unknown value (e.g. architectural live-in): treat as available
            # everywhere — live-ins are committed state visible to both
            # register files.
            return False
        if to_domain in slots:
            return False
        pending = self._pending.get(value_uid)
        return pending is None or to_domain not in pending

    def copy_in_flight(self, value_uid: int, to_domain: ClockDomain) -> bool:
        pending = self._pending.get(value_uid)
        return pending is not None and to_domain in pending

    def request_copy(self, value_uid: int, from_domain: ClockDomain,
                     to_domain: ClockDomain, prefetch: bool = False) -> CopyRequest:
        """Create a copy request and record it as pending."""
        if from_domain == to_domain:
            raise ValueError("copy source and destination clusters must differ")
        self._pending.setdefault(value_uid, set()).add(to_domain)
        self.stats.copies_generated += 1
        if prefetch:
            self.stats.prefetched_copies += 1
        else:
            self.stats.demand_copies += 1
        return CopyRequest(value_uid=value_uid, from_domain=from_domain,
                           to_domain=to_domain, prefetch=prefetch)

    def complete_copy(self, request: CopyRequest, ready_cycle: int) -> None:
        """Mark a copy as delivered: the value is now available in the target cluster."""
        self.note_produced(request.value_uid, request.to_domain, ready_cycle)
        pending = self._pending.get(request.value_uid)
        if pending is not None:
            pending.discard(request.to_domain)
            if not pending:
                del self._pending[request.value_uid]

    def cancel_copy(self, request: CopyRequest) -> None:
        """Abandon an in-flight copy (e.g. squashed by flushing recovery).

        Clears the pending marker without publishing any availability, so a
        later consumer can regenerate the copy if it is still needed.
        """
        pending = self._pending.get(request.value_uid)
        if pending is not None:
            pending.discard(request.to_domain)
            if not pending:
                del self._pending[request.value_uid]

    def note_prefetch_useful(self) -> None:
        """A consumer actually used a prefetched copy (CP accuracy accounting)."""
        self.stats.useful_prefetches += 1

    # ----------------------------------------------------------------- cleanup
    def retire_value(self, value_uid: int) -> None:
        """Drop tracking state once the producing uop has committed and its
        consumers have all dispatched (the simulator calls this lazily)."""
        self._availability.pop(value_uid, None)
        self._pending.pop(value_uid, None)

    def reset(self) -> None:
        self._availability.clear()
        self._pending.clear()
        self.stats = CopyStats()
