"""Simulation result records and derived metrics.

A :class:`SimulationResult` captures everything a single simulator run
produces: timing (cycles, IPC), steering behaviour (fraction of instructions
executed in the helper cluster, copy percentage), predictor accuracy broken
down the way Figure 5 reports it (correct / non-fatal misprediction / fatal
misprediction), the NREADY imbalance rates, the per-cluster activity counts
consumed by the power model, and the per-cluster
:class:`~repro.power.wattch.PowerBreakdown` map with the derived
``energy`` / ``ed`` / ``ed2`` metrics the sweep tables report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.power.wattch import ActivityCounts, ClusterActivity, PowerBreakdown


@dataclass
class PredictionBreakdown:
    """Width-prediction outcomes in Figure 5's three categories.

    * ``correct`` — prediction matched the actual width.
    * ``non_fatal`` — mispredicted, but the instruction had been steered to
      the wide backend, so the narrow opportunity was merely missed.
    * ``fatal`` — mispredicted for an instruction steered to the narrow
      backend; requires flushing recovery.
    """

    correct: int = 0
    non_fatal: int = 0
    fatal: int = 0

    @property
    def total(self) -> int:
        return self.correct + self.non_fatal + self.fatal

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def fatal_rate(self) -> float:
        return self.fatal / self.total if self.total else 0.0

    @property
    def non_fatal_rate(self) -> float:
        return self.non_fatal / self.total if self.total else 0.0


@dataclass
class SimulationResult:
    """Complete output of one simulator run."""

    benchmark: str
    policy: str
    #: name of the resolved cluster selector the run steered under (policy
    #: campaigns vary selectors, so results must be self-describing)
    selector: str = ""
    #: number of trace uops committed (copies and split chunks excluded)
    committed_uops: int = 0
    #: execution time in wide-cluster (slow) cycles
    slow_cycles: float = 0.0
    #: execution time in fast (helper) cycles
    fast_cycles: int = 0
    #: trace uops steered to (and executed in) the helper cluster
    helper_uops: int = 0
    #: trace uops split into narrow chunks by IR
    split_uops: int = 0
    #: inter-cluster copy uops generated (demand + prefetch + split copy-backs)
    copies: int = 0
    #: copies generated by the CP prefetcher
    prefetched_copies: int = 0
    #: loads whose result was replicated in both clusters (LR)
    replicated_loads: int = 0
    #: flushing recoveries triggered by fatal width mispredictions
    recoveries: int = 0
    #: uops squashed by those recoveries
    squashed_uops: int = 0
    prediction: PredictionBreakdown = field(default_factory=PredictionBreakdown)
    cp_prediction_accuracy: float = 0.0
    #: NREADY imbalance rates (§3.7)
    wide_to_narrow_imbalance: float = 0.0
    narrow_to_wide_imbalance: float = 0.0
    mean_wide_iq_occupancy: float = 0.0
    #: aggregate mean occupancy across all helper clusters
    mean_narrow_iq_occupancy: float = 0.0
    #: per-cluster mean issue-queue occupancy, keyed by cluster name
    cluster_occupancy: Dict[str, float] = field(default_factory=dict)
    dl0_hit_rate: float = 0.0
    activity: ActivityCounts = field(default_factory=ActivityCounts)
    #: per-cluster event counts, keyed by cluster name (host first)
    cluster_activity: Dict[str, ClusterActivity] = field(default_factory=dict)
    #: per-cluster energy breakdowns, keyed by cluster name (every simulated
    #: run fills it; only a hand-built result leaves it empty)
    power: Dict[str, PowerBreakdown] = field(default_factory=dict)
    #: energy of the machine-wide structures (frontend, rename, ROB, caches,
    #: predictors, inter-cluster copy wires)
    shared_power: Optional[PowerBreakdown] = None
    steer_reasons: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------- derived
    @property
    def ipc(self) -> float:
        """Committed trace uops per wide-cluster cycle."""
        return self.committed_uops / self.slow_cycles if self.slow_cycles else 0.0

    @property
    def helper_fraction(self) -> float:
        """Fraction of trace uops executed in the helper cluster (Figure 7)."""
        return self.helper_uops / self.committed_uops if self.committed_uops else 0.0

    @property
    def copy_fraction(self) -> float:
        """Copies as a fraction of trace uops (Figures 7-9)."""
        return self.copies / self.committed_uops if self.committed_uops else 0.0

    @property
    def recovery_rate(self) -> float:
        return self.recoveries / self.committed_uops if self.committed_uops else 0.0

    # -------------------------------------------------------------- energy
    @property
    def energy(self) -> float:
        """Total energy of the run (0.0 for a result without breakdowns)."""
        total = sum(breakdown.total for breakdown in self.power.values())
        if self.shared_power is not None:
            total += self.shared_power.total
        return total

    @property
    def ed(self) -> float:
        """Energy-delay product (delay in host cycles)."""
        return self.energy * self.slow_cycles

    @property
    def ed2(self) -> float:
        """Energy-delay² product, the paper's efficiency metric."""
        return self.energy * self.slow_cycles ** 2

    @property
    def has_energy(self) -> bool:
        """Whether the run carries energy figures."""
        return bool(self.power)

    def cluster_energy(self, name: str) -> float:
        """Total energy charged to one cluster (KeyError on unknown names)."""
        return self.power[name].total

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics (for reporting/CSV)."""
        return {
            "benchmark": self.benchmark,
            "policy": self.policy,
            "selector": self.selector,
            "energy": self.energy,
            "ed2": self.ed2,
            "committed_uops": self.committed_uops,
            "slow_cycles": self.slow_cycles,
            "ipc": self.ipc,
            "helper_fraction": self.helper_fraction,
            "copy_fraction": self.copy_fraction,
            "prediction_accuracy": self.prediction.accuracy,
            "fatal_rate": self.prediction.fatal_rate,
            "wide_to_narrow_imbalance": self.wide_to_narrow_imbalance,
            "narrow_to_wide_imbalance": self.narrow_to_wide_imbalance,
            "recoveries": self.recoveries,
        }


def speedup(baseline: SimulationResult, candidate: SimulationResult) -> float:
    """Relative performance increase of ``candidate`` over ``baseline``.

    Defined as the paper plots it: percentage improvement in execution time
    (equivalently IPC) over the monolithic baseline, as a fraction
    (0.062 = 6.2%).
    """
    if candidate.slow_cycles <= 0 or baseline.slow_cycles <= 0:
        raise ValueError("both runs must have positive cycle counts")
    return baseline.slow_cycles / candidate.slow_cycles - 1.0


def ed2_improvement(baseline: SimulationResult, candidate: SimulationResult) -> float:
    """Relative ED² improvement of ``candidate`` over ``baseline``.

    Defined like the paper's 5.1% claim: positive when the candidate is more
    ED²-efficient, as a fraction (0.051 = 5.1%).  Both runs must carry
    energy figures (simulated with energy accounting enabled).
    """
    base = baseline.ed2
    if base <= 0:
        raise ValueError(
            "baseline ED² must be positive (was the run simulated with "
            "energy accounting enabled?)")
    return (base - candidate.ed2) / base
