"""Functional-unit pool and execution latencies.

Each backend owns integer ALUs and AGUs; only the wide backend has floating
point units (§2.1).  Latencies are defined per opcode in
:mod:`repro.isa.opcodes` in slow cycles; the pool converts them to fast
cycles using the cluster's clock domain and tracks structural availability of
the units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.opcodes import FunctionalUnit, Opcode, opcode_info
from repro.pipeline.clocking import ClockingModel

#: Baseline per-unit issue-to-result latencies in slow cycles, by unit kind.
#: Opcode-specific latencies from ``OPCODE_INFO`` take precedence; this table
#: is used for unit-occupancy (initiation interval) modelling.
FU_LATENCY: Dict[FunctionalUnit, int] = {
    FunctionalUnit.IALU: 1,
    FunctionalUnit.IMUL: 4,
    FunctionalUnit.IDIV: 20,
    FunctionalUnit.AGU: 1,
    FunctionalUnit.BRU: 1,
    FunctionalUnit.FPU: 4,
    FunctionalUnit.COPY: 1,
}

#: Default number of functional units per backend, by kind.  Matches a
#: 3-issue integer backend with a single long-latency unit of each kind.
DEFAULT_UNIT_COUNTS: Dict[FunctionalUnit, int] = {
    FunctionalUnit.IALU: 3,
    FunctionalUnit.IMUL: 1,
    FunctionalUnit.IDIV: 1,
    FunctionalUnit.AGU: 2,
    FunctionalUnit.BRU: 1,
    FunctionalUnit.FPU: 2,
    FunctionalUnit.COPY: 1,
}


@dataclass
class ExecutionUnitPool:
    """Tracks structural availability of one backend's functional units.

    Divide and multiply units are not pipelined (an operation occupies the
    unit for its full latency); everything else accepts a new operation every
    cycle of its own clock domain.

    ``domain`` is the owning cluster's index into the clocking model's
    per-domain periods (a :class:`ClockDomain` member for the paper's pair,
    a plain int for further helper clusters).
    """

    domain: int
    clocking: ClockingModel
    has_fp: bool = True
    unit_counts: Dict[FunctionalUnit, int] = field(
        default_factory=lambda: dict(DEFAULT_UNIT_COUNTS))
    #: fast cycle at which each unit instance becomes free
    _busy_until: Dict[FunctionalUnit, list] = field(default_factory=dict, repr=False)
    issued: int = 0
    structural_stalls: int = 0

    def __post_init__(self) -> None:
        if not self.has_fp:
            self.unit_counts = dict(self.unit_counts)
            self.unit_counts[FunctionalUnit.FPU] = 0
        for unit, count in self.unit_counts.items():
            self._busy_until[unit] = [0] * count
        # Per-opcode lookups are immutable for a given domain/clocking, so
        # they are memoised off the hot path.
        self._latency_cache: Dict[Opcode, int] = {}
        self._unit_cache: Dict[Opcode, FunctionalUnit] = {}

    # ------------------------------------------------------------------ query
    def supports(self, opcode: Opcode) -> bool:
        """Whether this backend has a unit capable of executing ``opcode``."""
        unit = opcode_info(opcode).unit
        return self.unit_counts.get(unit, 0) > 0

    def exec_latency(self, opcode: Opcode) -> int:
        """Issue-to-writeback latency of ``opcode`` in fast cycles."""
        latency = self._latency_cache.get(opcode)
        if latency is None:
            latency = self.clocking.exec_latency(self.domain, opcode_info(opcode).latency)
            self._latency_cache[opcode] = latency
        return latency

    def unit_for(self, opcode: Opcode) -> FunctionalUnit:
        """Functional-unit kind ``opcode`` executes on."""
        unit = self._unit_cache.get(opcode)
        if unit is None:
            unit = opcode_info(opcode).unit
            self._unit_cache[opcode] = unit
        return unit

    # ------------------------------------------------------------------ issue
    def try_issue(self, opcode: Opcode, fast_cycle: int,
                  unit: Optional[FunctionalUnit] = None) -> Optional[int]:
        """Attempt to issue ``opcode`` at ``fast_cycle``.

        Returns the completion (writeback) fast cycle on success, or ``None``
        if no unit of the required kind is free (structural hazard).
        ``unit`` may be passed by callers that precomputed the functional
        unit kind at dispatch time.
        """
        if unit is None:
            unit = self.unit_for(opcode)
        instances = self._busy_until.get(unit)
        if not instances:
            self.structural_stalls += 1
            return None
        latency = self._latency_cache.get(opcode)
        if latency is None:
            latency = self.exec_latency(opcode)
        for index, busy_until in enumerate(instances):
            if busy_until <= fast_cycle:
                pipelined = (unit is not FunctionalUnit.IDIV
                             and unit is not FunctionalUnit.IMUL)
                instances[index] = fast_cycle + (1 if pipelined else latency)
                self.issued += 1
                return fast_cycle + latency
        self.structural_stalls += 1
        return None

    def reset(self) -> None:
        for unit in self._busy_until:
            self._busy_until[unit] = [0] * self.unit_counts.get(unit, 0)
        self.issued = 0
        self.structural_stalls = 0
