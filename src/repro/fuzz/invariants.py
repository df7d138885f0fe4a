"""Standalone invariant checks for co-simulated runs.

Differential comparison catches the wheel and the reference loop
*disagreeing*; these checks catch them agreeing on something impossible.
Two kinds:

* :class:`CommitOrderRecorder` attaches to the simulator's ``commit_hook``
  and verifies the dynamic retirement stream itself: program-order
  (strictly increasing ``seq``), monotone commit timestamps on the wide
  clock, and the commit-width bound per wide cycle.
* :func:`check_result_invariants` inspects a finished
  :class:`~repro.sim.metrics.SimulationResult` against the machine it ran
  on: conservation between committed/helper/split counts, clock-domain
  arithmetic, scheduler-occupancy bounds, per-cluster activity/energy
  consistency (every energy term >= 0, breakdowns keyed exactly by the
  topology's cluster names).

Both return violations as human-readable strings rather than raising, so
the harness can report every broken invariant of a case at once.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import MachineConfig, Topology
from repro.pipeline.clocking import ClockingModel
from repro.sim.metrics import SimulationResult

#: Tolerance for float identities (slow/fast cycle ratio arithmetic).
_EPS = 1e-9


class CommitOrderRecorder:
    """A ``commit_hook`` that checks the retirement stream as it happens."""

    def __init__(self, commit_width: int) -> None:
        self.commit_width = commit_width
        self.retired_entries = 0
        self.violations: List[str] = []
        self._last_seq: Optional[int] = None
        self._last_cycle: Optional[int] = None

    def __call__(self, retired, t: int) -> None:
        if len(retired) > self.commit_width:
            self.violations.append(
                f"commit width exceeded: {len(retired)} entries retired at "
                f"fast cycle {t} (commit_width={self.commit_width})")
        if self._last_cycle is not None and t < self._last_cycle:
            self.violations.append(
                f"commit timestamps regressed: cycle {t} after "
                f"{self._last_cycle}")
        self._last_cycle = t
        for entry in retired:
            self.retired_entries += 1
            if self._last_seq is not None and entry.seq <= self._last_seq:
                self.violations.append(
                    f"commit order violated: seq {entry.seq} retired after "
                    f"seq {self._last_seq} at fast cycle {t}")
            self._last_seq = entry.seq


def check_result_invariants(result: SimulationResult, config: MachineConfig,
                            trace_uops: int) -> List[str]:
    """Return every invariant the finished result violates (empty = clean)."""
    topology: Topology = config.topology
    violations: List[str] = []

    def bad(message: str) -> None:
        violations.append(message)

    # ---------------------------------------------------------- conservation
    if result.committed_uops != trace_uops:
        bad(f"committed_uops {result.committed_uops} != trace length "
            f"{trace_uops}")
    if not 0 <= result.helper_uops <= result.committed_uops:
        bad(f"helper_uops {result.helper_uops} outside "
            f"[0, {result.committed_uops}]")
    for name in ("copies", "prefetched_copies", "replicated_loads",
                 "recoveries", "squashed_uops", "split_uops"):
        if getattr(result, name) < 0:
            bad(f"{name} is negative: {getattr(result, name)}")
    if result.prefetched_copies > result.copies:
        bad(f"prefetched_copies {result.prefetched_copies} exceeds total "
            f"copies {result.copies}")
    prediction = result.prediction
    if min(prediction.correct, prediction.non_fatal, prediction.fatal) < 0:
        bad("width-prediction breakdown has a negative bucket")
    # Note: ``recoveries`` is NOT comparable to ``prediction.fatal`` — the
    # flush trigger is judged against the executing cluster's width (and
    # includes via-CR carries and dest-less uops), while the Figure 5
    # breakdown counts result-producing uops against the steer width.  What
    # must hold is that every flush squashes at least its trigger uop.
    if result.squashed_uops < result.recoveries:
        bad(f"{result.recoveries} recoveries squashed only "
            f"{result.squashed_uops} uops (each flush squashes >= 1)")

    # --------------------------------------------------------- clock domains
    clocking = ClockingModel.from_ratios(
        [spec.clock_ratio for spec in topology.clusters])
    if trace_uops and result.fast_cycles <= 0:
        bad(f"non-empty trace finished in {result.fast_cycles} fast cycles")
    if abs(result.fast_cycles - result.slow_cycles * clocking.ratio) > (
            _EPS * max(1.0, result.fast_cycles)):
        bad(f"clock arithmetic broken: fast_cycles {result.fast_cycles} != "
            f"slow_cycles {result.slow_cycles} x ratio {clocking.ratio}")

    # ----------------------------------------------------- occupancy bounds
    expected_names = {spec.name for spec in topology.clusters}
    if set(result.cluster_occupancy) != expected_names:
        bad(f"cluster_occupancy keyed by {sorted(result.cluster_occupancy)} "
            f"instead of the topology's {sorted(expected_names)}")
    for spec in topology.clusters:
        occupancy = result.cluster_occupancy.get(spec.name)
        if occupancy is None:
            continue
        if not -_EPS <= occupancy <= spec.queue_size + _EPS:
            bad(f"cluster {spec.name!r} mean occupancy {occupancy:.3f} "
                f"outside [0, queue_size={spec.queue_size}]")
    for name, value in (("wide_to_narrow_imbalance",
                         result.wide_to_narrow_imbalance),
                        ("narrow_to_wide_imbalance",
                         result.narrow_to_wide_imbalance),
                        ("dl0_hit_rate", result.dl0_hit_rate)):
        if not -_EPS <= value <= 1.0 + _EPS:
            bad(f"{name} {value} outside [0, 1]")

    # ------------------------------------------------- per-cluster activity
    if set(result.cluster_activity) != expected_names:
        bad(f"cluster_activity keyed by {sorted(result.cluster_activity)} "
            f"instead of the topology's {sorted(expected_names)}")
    else:
        for index, spec in enumerate(topology.clusters):
            cluster = result.cluster_activity[spec.name]
            expected = result.fast_cycles // clocking.periods[index]
            if cluster.cycles != expected:
                bad(f"cluster {spec.name!r} burned {cluster.cycles} clock "
                    f"cycles; its period {clocking.periods[index]} over "
                    f"{result.fast_cycles} fast cycles implies {expected}")

    # ----------------------------------------------------------- energy
    if set(result.power) != expected_names:
        bad(f"power breakdowns keyed by {sorted(result.power)} instead "
            f"of the topology's {sorted(expected_names)}")
    for name, breakdown in result.power.items():
        for structure, energy in breakdown.per_structure.items():
            if energy < 0:
                bad(f"cluster {name!r} has negative energy "
                    f"{energy} for structure {structure!r}")
    if result.shared_power is not None:
        for structure, energy in result.shared_power.per_structure.items():
            if energy < 0:
                bad(f"shared structure {structure!r} has negative "
                    f"energy {energy}")
    else:
        bad("shared_power is missing")
    if result.energy < 0:
        bad(f"total energy is negative: {result.energy}")

    return violations
