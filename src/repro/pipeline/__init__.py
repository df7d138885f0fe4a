"""Out-of-order pipeline substrate.

These modules model the backend structures of the Pentium-4-like clustered
processor of §2: the two clock domains (§2.2), the rename stage with its
width table (§3.2) and CR reference counters (§3.5), per-cluster issue queues
and functional units, the reorder buffer, the shared memory order buffer and
the frontend fetch/decode machinery.  Flushing recovery on fatal width
mispredictions is part of the simulator (:mod:`repro.sim.simulator`).
"""

from repro.pipeline.clocking import ClockDomain, ClockingModel
from repro.pipeline.rename import RenameTable, RenameEntry
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.scheduler import IssueQueue
from repro.pipeline.execute import ExecutionUnitPool, FU_LATENCY
from repro.pipeline.mob import MemoryOrderBuffer
from repro.pipeline.frontend import Frontend, FetchedUop

__all__ = [
    "ClockDomain",
    "ClockingModel",
    "RenameTable",
    "RenameEntry",
    "ReorderBuffer",
    "IssueQueue",
    "ExecutionUnitPool",
    "FU_LATENCY",
    "MemoryOrderBuffer",
    "Frontend",
    "FetchedUop",
]
