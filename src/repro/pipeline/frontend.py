"""Frontend: trace-cache fetch and decode bandwidth.

The frontend belongs to the wide clock domain.  Every wide cycle it supplies
up to ``fetch_width`` uops from the trace (through the trace cache), subject
to trace-cache misses which stall fetch for the rebuild penalty.  The §3.3 BR
scheme moves part of conditional-branch target resolution into the frontend;
that is modelled as a per-branch flag computed here (the branch's target can
be formed from CS + EIP + immediate without reading a general register),
which the steering policy then consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.isa.uop import MicroOp
from repro.memory.tracecache import TraceCache, TraceCacheConfig
from repro.trace.trace import Trace


@dataclass(slots=True)
class FetchedUop:
    """A uop leaving the frontend, annotated with frontend-derived facts."""

    uop: MicroOp
    seq: int
    #: §3.3: target address resolvable in the frontend (CS + EIP + immediate)
    target_resolved_in_frontend: bool = False


class Frontend:
    """Fetch/decode stage reading a trace through the trace cache."""

    def __init__(self, trace: Trace, fetch_width: int = 6,
                 trace_cache: Optional[TraceCache] = None,
                 frontend_branch_resolution_fraction: float = 0.9) -> None:
        if fetch_width <= 0:
            raise ValueError("fetch width must be positive")
        if not 0.0 <= frontend_branch_resolution_fraction <= 1.0:
            raise ValueError("frontend branch resolution fraction must be in [0,1]")
        self.trace = trace
        self.fetch_width = fetch_width
        self.trace_cache = trace_cache or TraceCache(TraceCacheConfig())
        self.frontend_branch_resolution_fraction = frontend_branch_resolution_fraction
        self._cursor = 0
        self._seq = 0
        self._stall_until_slow_cycle = 0
        self.fetched = 0
        self.tc_stall_cycles = 0

    # ------------------------------------------------------------------ state
    @property
    def exhausted(self) -> bool:
        """True when every trace uop has been fetched."""
        return self._cursor >= len(self.trace.uops)

    def remaining(self) -> int:
        return len(self.trace.uops) - self._cursor

    # ------------------------------------------------------------------ fetch
    def fetch(self, slow_cycle: int, max_uops: Optional[int] = None) -> List[FetchedUop]:
        """Fetch up to ``fetch_width`` uops for this wide cycle.

        Returns an empty list while the frontend is stalled on a trace-cache
        rebuild or once the trace is exhausted.
        """
        if self.exhausted or slow_cycle < self._stall_until_slow_cycle:
            return []
        budget = self.fetch_width if max_uops is None else min(self.fetch_width, max_uops)
        fetched: List[FetchedUop] = []
        uops = self.trace.uops
        total = len(uops)
        tc_fetch = self.trace_cache.fetch
        while budget > 0 and self._cursor < total:
            uop = uops[self._cursor]
            penalty = tc_fetch(uop.pc)
            if penalty > 0:
                # Miss: this fetch group stops here and the frontend stalls
                # while the trace segment is rebuilt from UL1.
                self._stall_until_slow_cycle = slow_cycle + penalty
                self.tc_stall_cycles += penalty
                break
            fetched.append(FetchedUop(
                uop=uop,
                seq=self._seq,
                target_resolved_in_frontend=self._resolves_in_frontend(uop),
            ))
            self._cursor += 1
            self._seq += 1
            self.fetched += 1
            budget -= 1
        return fetched

    def _resolves_in_frontend(self, uop: MicroOp) -> bool:
        """§3.3: immediate-relative conditional branches resolve in the frontend.

        Such branches add an immediate displacement to CS:EIP, both of which
        are available at decode, and are tagged by their unique operand
        pattern.  The synthetic traces mark those branches by carrying no
        general-register source other than FLAGS, which is the same condition.
        """
        if not uop.info.is_cond_branch:
            return False
        has_gpr_source = any(not r.is_flags for r in uop.srcs)
        if has_gpr_source:
            return False
        # Deterministic pseudo-random thinning lets experiments model an ISA
        # where a fraction of conditional branches use register-indirect
        # targets and cannot be resolved early.
        if self.frontend_branch_resolution_fraction >= 1.0:
            return True
        bucket = (uop.pc >> 2) % 1000 / 1000.0
        return bucket < self.frontend_branch_resolution_fraction

    def reset(self) -> None:
        self._cursor = 0
        self._seq = 0
        self._stall_until_slow_cycle = 0
        self.fetched = 0
        self.tc_stall_cycles = 0
        self.trace_cache.reset()
