"""Energy, energy-delay and energy-delay² accounting.

ED² is the standard voltage-independent efficiency metric:
``ED² = total_energy x delay²`` where delay is execution time measured in
host (wide) cycles — every configuration shares the host clock, so delays
are directly comparable.  The paper's headline energy claim is that the
helper cluster in its most resource-aggressive configuration (IR) is 5.1%
more ED²-efficient than the monolithic baseline: the extra energy of the
narrow datapath, its clock network and the predictors is outweighed by the
squared benefit of the shorter execution time.

Since the per-cluster refactor, energy is computed *inside* the simulator:
every :class:`~repro.sim.metrics.SimulationResult` carries a per-cluster
:class:`~repro.power.wattch.PowerBreakdown` map plus derived
``energy``/``ed``/``ed2`` fields, travels through the result cache with
them, and the ``repro.cli energy`` subcommand reproduces the paper's
comparison straight from cached sweep results.  The helpers here build
:class:`EnergyReport` views for ad-hoc comparisons:

* :func:`report_from_result` — from a finished simulation result (the
  normal path);
* :func:`report_from_activity` — from raw aggregate activity counts via the
  legacy two-cluster model (kept for the original API and its tests);
* :func:`compare_ed2` — relative ED² improvement between two reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.power.wattch import ActivityCounts, PowerBreakdown, PowerModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class EnergyReport:
    """Energy metrics of one simulation run."""

    label: str
    energy: float
    delay_cycles: float

    @property
    def energy_delay(self) -> float:
        return self.energy * self.delay_cycles

    @property
    def energy_delay_squared(self) -> float:
        return self.energy * self.delay_cycles ** 2


def energy_delay_squared(breakdown: PowerBreakdown, delay_cycles: float,
                         label: str = "run") -> EnergyReport:
    """Build an :class:`EnergyReport` from a power breakdown and a delay."""
    if delay_cycles <= 0:
        raise ValueError("delay must be positive")
    return EnergyReport(label=label, energy=breakdown.total, delay_cycles=delay_cycles)


def report_from_activity(activity: ActivityCounts, delay_cycles: float,
                         label: str = "run", model: PowerModel | None = None) -> EnergyReport:
    """Convenience: evaluate the legacy two-cluster model and build a report.

    For results produced by the simulator, prefer :func:`report_from_result`
    (per-cluster accounting, no re-evaluation).
    """
    model = model or PowerModel()
    return energy_delay_squared(model.evaluate(activity), delay_cycles, label)


def report_from_result(result: "SimulationResult",
                       label: str | None = None) -> EnergyReport:
    """Energy report of a finished run, using its stored per-cluster energy."""
    if result.slow_cycles <= 0:
        raise ValueError("result has no positive delay (was the run finalised?)")
    if not result.power:
        raise ValueError(
            f"result {result.benchmark}/{result.policy} carries no energy "
            "figures (a hand-built result?)")
    return EnergyReport(label=label or f"{result.benchmark}/{result.policy}",
                        energy=result.energy, delay_cycles=result.slow_cycles)


def compare_ed2(baseline: EnergyReport, candidate: EnergyReport) -> float:
    """Relative ED² improvement of ``candidate`` over ``baseline``.

    Positive values mean the candidate is more ED²-efficient; the paper
    reports +5.1% for the IR helper-cluster configuration.
    """
    base = baseline.energy_delay_squared
    if base <= 0:
        raise ValueError("baseline ED² must be positive")
    return (base - candidate.energy_delay_squared) / base
