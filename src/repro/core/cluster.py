"""Backend (cluster) model: one execution engine per topology cluster.

A :class:`Backend` bundles the per-cluster structures — issue queue,
functional-unit pool and statistics — together with the clock domain it lives
in.  Backends are built from :class:`~repro.core.config.ClusterSpec` records:
cluster 0 is the host (the paper's wide 32-bit backend, which also hosts the
floating point queue/units, §2.1), every further cluster is a helper backend
clocked at its spec's ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import ClusterSpec, MachineConfig
from repro.pipeline.clocking import ClockDomain, ClockingModel
from repro.pipeline.execute import ExecutionUnitPool
from repro.pipeline.scheduler import IssueQueue


@dataclass
class BackendStats:
    """Per-backend activity counters."""

    dispatched: int = 0
    issued: int = 0
    completed: int = 0
    copies_executed: int = 0
    squashed: int = 0
    split_chunks: int = 0


class Backend:
    """One execution backend (cluster).

    Parameters
    ----------
    spec:
        The cluster's :class:`ClusterSpec`.
    config:
        The machine configuration the backend belongs to.
    clocking:
        Clock model shared by all backends of a machine.
    index:
        Cluster index in the topology (0 = host).
    """

    def __init__(self, spec: ClusterSpec, config: MachineConfig,
                 clocking: Optional[ClockingModel] = None, *,
                 index: int) -> None:
        self.spec = spec
        self.index = index
        self.config = config
        self.clocking = clocking or ClockingModel(ratio=config.clock_ratio)
        self.issue_queue = IssueQueue(
            size=spec.queue_size,
            issue_width=spec.issue_width,
        )
        self.units = ExecutionUnitPool(
            domain=self.domain,
            clocking=self.clocking,
            has_fp=spec.has_fp,
        )
        self.stats = BackendStats()

    # ----------------------------------------------------------------- domain
    @property
    def domain(self) -> int:
        """Clock domain (= cluster index; a :class:`ClockDomain` member for
        the paper's pair so existing identity checks keep working)."""
        return ClockDomain(self.index) if self.index < 2 else self.index

    def active(self, fast_cycle: int) -> bool:
        """Whether this backend gets an issue opportunity this fast cycle."""
        return self.clocking.domain_active(self.domain, fast_cycle)

    # ------------------------------------------------------------------ width
    @property
    def datapath_width(self) -> int:
        """Datapath width in bits."""
        return self.spec.datapath_width

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        spec = self.spec
        self.issue_queue = IssueQueue(
            size=spec.queue_size,
            issue_width=spec.issue_width,
        )
        self.units.reset()
        self.stats = BackendStats()
