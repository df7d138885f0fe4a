"""Activity-based per-structure energy model (Wattch-style).

Energies are expressed in arbitrary units (aJ-like); only *relative*
comparisons between configurations are meaningful, which is all the paper
claims (helper cluster is 5.1% better in energy-delay² than the baseline in
its most aggressive configuration).

Width scaling follows the paper's §2.1 argument: the area (and switched
capacitance) of backend structures such as register files and ALUs scales at
least linearly with datapath width, so an 8-bit helper's structures cost
roughly ``8/32`` of their wide counterparts per access, and a cluster's
faster clock shows up as clock-network energy charged per cluster cycle.

The model is *topology-generic*: the simulator accumulates one
:class:`ClusterActivity` per cluster of the machine's
:class:`~repro.core.config.Topology`, and :class:`PowerModel` derives each
cluster's coefficients from its :class:`~repro.core.config.ClusterSpec` —
datapath width, clock ratio, scheduler resources and FU mix — so an
asymmetric ``8@2+16@1`` mix, a 16-bit helper, or any ``explore`` grid point
gets physically-consistent numbers with zero extra configuration.  Machine-
wide structures (frontend, rename, ROB, caches, predictors, inter-cluster
copy wires) are charged from the shared :class:`ActivityCounts`.

Legacy equivalence contract: for the paper's machines (the monolithic
baseline and the wide + 8-bit@2x pair) the per-cluster evaluation produces
*exactly* the same per-structure energies as the original two-cluster
:meth:`PowerModel.evaluate` — the coefficient derivations reduce to the old
constants there — which is what anchors the energy golden pins
(``tests/test_energy_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping

from repro.isa.values import MACHINE_WIDTH, NARROW_WIDTH

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config -> memory)
    from repro.core.config import ClusterSpec, Topology


@dataclass(frozen=True)
class PowerConfig:
    """Per-access and per-cycle energy coefficients (arbitrary units).

    The per-access constants describe the *full-width* (host) structures;
    per-cluster coefficients are derived from them and the cluster's
    :class:`~repro.core.config.ClusterSpec` (see
    :meth:`PowerModel.coefficients_for`).  The simulator always evaluates
    the default coefficients; this module is fingerprinted by lint rule
    REP005, so editing a coefficient needs a ``SIMULATOR_VERSION`` bump,
    which retires every cached energy figure.
    """

    #: energy of one ALU operation on the full-width datapath
    alu_access: float = 10.0
    #: energy of one AGU / memory-pipe operation (address add + TLB-ish)
    agu_access: float = 8.0
    #: energy of one FPU operation
    fpu_access: float = 25.0
    #: register file read/write on the full-width datapath
    regfile_access: float = 4.0
    #: issue queue insert/wakeup/select per instruction, for a
    #: ``ref_queue_size``-entry full-width scheduler
    scheduler_access: float = 6.0
    #: rename table access per instruction
    rename_access: float = 3.0
    #: reorder buffer allocate+commit per instruction
    rob_access: float = 3.0
    #: DL0 access
    dl0_access: float = 20.0
    #: UL1 access
    ul1_access: float = 60.0
    #: main memory access
    memory_access: float = 400.0
    #: width/carry/copy predictor lookup or update
    predictor_access: float = 0.6
    #: inter-cluster copy (drive the inter-cluster wires + RF write)
    copy_transfer: float = 6.0
    #: clock-network + leakage energy per host cycle for the host cluster
    wide_clock_per_cycle: float = 12.0
    #: clock-network + leakage energy per cluster cycle of a helper that is
    #: ``clock_ref_width`` bits wide; other helper widths scale linearly
    narrow_clock_per_cycle: float = 1.8
    #: datapath width (bits) at which ``narrow_clock_per_cycle`` is calibrated
    clock_ref_width: int = NARROW_WIDTH
    #: extra clock-network energy per cluster cycle when a *helper* carries
    #: FP units (the host's FP clock load is part of ``wide_clock_per_cycle``)
    fp_clock_per_cycle: float = 3.0
    #: scheduler queue size the ``scheduler_access`` coefficient describes;
    #: wakeup/select energy scales linearly with the actual queue size
    ref_queue_size: int = 32
    #: frontend (fetch/decode/trace cache) energy per fetched uop
    frontend_access: float = 7.0

    def width_scale(self, narrow_width: int = NARROW_WIDTH) -> float:
        """Linear width-scaling factor for narrow-datapath structures."""
        return narrow_width / MACHINE_WIDTH


@dataclass
class ClusterActivity:
    """Per-cluster event counts produced by one simulation run.

    One record per cluster of the topology, keyed by
    :attr:`~repro.core.config.ClusterSpec.name` in
    :attr:`~repro.sim.metrics.SimulationResult.cluster_activity`.  The spec
    facts needed to re-derive energy coefficients (width, clock ratio) ride
    along so a cached result is self-describing.
    """

    name: str
    datapath_width: int = MACHINE_WIDTH
    clock_ratio: int = 1
    #: cycles of this cluster's own clock elapsed over the run
    cycles: int = 0
    alu_ops: int = 0
    agu_ops: int = 0
    fpu_ops: int = 0
    regfile_accesses: int = 0
    scheduler_ops: int = 0


@dataclass
class ActivityCounts:
    """Machine-wide event counts produced by one simulation run.

    Shared structures (frontend, rename, ROB, caches, predictors, copy
    wires) are counted here; per-cluster execution counts live in
    :class:`ClusterActivity` records, with the legacy ``wide_*``/``narrow_*``
    aggregate fields folded back in at the end of a run (host = wide, all
    helpers summed = narrow) so the original two-cluster accounting remains
    available unchanged.
    """

    wide_cycles: int = 0
    fast_cycles: int = 0
    fetched_uops: int = 0
    committed_uops: int = 0
    wide_alu_ops: int = 0
    narrow_alu_ops: int = 0
    wide_agu_ops: int = 0
    narrow_agu_ops: int = 0
    fpu_ops: int = 0
    wide_regfile_accesses: int = 0
    narrow_regfile_accesses: int = 0
    wide_scheduler_ops: int = 0
    narrow_scheduler_ops: int = 0
    rename_ops: int = 0
    rob_ops: int = 0
    dl0_accesses: int = 0
    ul1_accesses: int = 0
    memory_accesses: int = 0
    predictor_accesses: int = 0
    copies: int = 0
    helper_present: bool = False
    narrow_width: int = NARROW_WIDTH


@dataclass
class PowerBreakdown:
    """Energy per structure group (same arbitrary units as the config)."""

    per_structure: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.per_structure.values())

    def fraction(self, key: str) -> float:
        total = self.total
        return self.per_structure.get(key, 0.0) / total if total else 0.0


@dataclass(frozen=True)
class ClusterCoefficients:
    """Per-access / per-cycle energy coefficients derived for one cluster."""

    #: linear datapath-width factor applied to ALU/AGU/regfile accesses
    width_scale: float
    #: width x queue-size factor applied to scheduler operations
    scheduler_scale: float
    #: clock-network + leakage energy per cluster cycle
    clock_per_cycle: float


class PowerModel:
    """Computes :class:`PowerBreakdown` records from activity counts.

    Two evaluation paths:

    * :meth:`evaluate_topology` / :meth:`evaluate_cluster` +
      :meth:`evaluate_shared` — the per-cluster, topology-generic model the
      simulator uses;
    * :meth:`evaluate` — the original two-cluster evaluation over the
      aggregate :class:`ActivityCounts`, kept (unchanged) as the reference
      the legacy-equivalence pins compare against.
    """

    def __init__(self, config: PowerConfig | None = None) -> None:
        self.config = config or PowerConfig()

    # -------------------------------------------------- per-cluster model
    def coefficients_for(self, spec: "ClusterSpec",
                         is_host: bool) -> ClusterCoefficients:
        """Derive a cluster's energy coefficients from its spec.

        * ALU/AGU/regfile accesses scale linearly with datapath width
          (``width_fraction``, §2.1: switched capacitance tracks area).
        * Scheduler operations additionally scale with queue size relative
          to the Table 1 reference (CAM wakeup touches every entry).
        * Clock energy per cluster cycle: the host pays the full
          ``wide_clock_per_cycle`` (its tree also drives frontend, commit
          and the FP units); a helper pays the ``clock_ref_width``-bit
          reference coefficient scaled linearly with its width, plus the FP
          adder when its FU mix includes floating point.  The clock *ratio*
          enters through the cycle count (a 2x helper clocks twice per host
          cycle), so faster domains burn proportionally more clock energy.

        For the host and the paper's 8-bit helper these derivations reduce
        exactly to the original two-cluster constants.
        """
        cfg = self.config
        width_scale = spec.width_fraction
        scheduler_scale = width_scale * (spec.queue_size / cfg.ref_queue_size)
        if is_host:
            clock = cfg.wide_clock_per_cycle
        else:
            clock = (cfg.narrow_clock_per_cycle
                     * (spec.datapath_width / cfg.clock_ref_width))
            if spec.has_fp:
                clock += cfg.fp_clock_per_cycle
        return ClusterCoefficients(width_scale=width_scale,
                                   scheduler_scale=scheduler_scale,
                                   clock_per_cycle=clock)

    def evaluate_cluster(self, spec: "ClusterSpec", activity: ClusterActivity,
                         is_host: bool = False) -> PowerBreakdown:
        """Energy of one cluster's structures over a run."""
        cfg = self.config
        co = self.coefficients_for(spec, is_host)
        scale = co.width_scale
        breakdown: Dict[str, float] = {}
        breakdown["execute"] = (scale * (cfg.alu_access * activity.alu_ops
                                         + cfg.agu_access * activity.agu_ops)
                                + cfg.fpu_access * activity.fpu_ops)
        breakdown["regfile"] = scale * cfg.regfile_access * activity.regfile_accesses
        breakdown["scheduler"] = (co.scheduler_scale * cfg.scheduler_access
                                  * activity.scheduler_ops)
        breakdown["clock"] = co.clock_per_cycle * activity.cycles
        return PowerBreakdown(per_structure=breakdown)

    def evaluate_shared(self, activity: ActivityCounts) -> PowerBreakdown:
        """Energy of the machine-wide (cluster-independent) structures."""
        cfg = self.config
        breakdown: Dict[str, float] = {}
        breakdown["frontend"] = cfg.frontend_access * activity.fetched_uops
        breakdown["rename"] = cfg.rename_access * activity.rename_ops
        breakdown["rob"] = cfg.rob_access * activity.rob_ops
        breakdown["dl0"] = cfg.dl0_access * activity.dl0_accesses
        breakdown["ul1"] = cfg.ul1_access * activity.ul1_accesses
        breakdown["memory"] = cfg.memory_access * activity.memory_accesses
        breakdown["predictors"] = cfg.predictor_access * activity.predictor_accesses
        breakdown["copies"] = cfg.copy_transfer * activity.copies
        return PowerBreakdown(per_structure=breakdown)

    def evaluate_topology(self, topology: "Topology",
                          cluster_activity: Mapping[str, ClusterActivity],
                          ) -> Dict[str, PowerBreakdown]:
        """Per-cluster breakdowns for every cluster of a topology."""
        return {spec.name: self.evaluate_cluster(
                    spec, cluster_activity[spec.name], is_host=(index == 0))
                for index, spec in enumerate(topology.clusters)}

    # ------------------------------------------------ legacy two-cluster
    def evaluate(self, activity: ActivityCounts) -> PowerBreakdown:
        """Original two-cluster evaluation over aggregate counts.

        Kept verbatim as the reference model: for the monolithic baseline
        and the wide + 8-bit pair the per-cluster path must reproduce these
        numbers exactly (``tests/test_energy_golden.py``).
        """
        cfg = self.config
        scale = cfg.width_scale(activity.narrow_width)
        breakdown: Dict[str, float] = {}
        breakdown["frontend"] = cfg.frontend_access * activity.fetched_uops
        breakdown["rename"] = cfg.rename_access * activity.rename_ops
        breakdown["rob"] = cfg.rob_access * activity.rob_ops
        breakdown["wide_execute"] = (cfg.alu_access * activity.wide_alu_ops
                                     + cfg.agu_access * activity.wide_agu_ops
                                     + cfg.fpu_access * activity.fpu_ops)
        breakdown["narrow_execute"] = scale * (cfg.alu_access * activity.narrow_alu_ops
                                               + cfg.agu_access * activity.narrow_agu_ops)
        breakdown["wide_regfile"] = cfg.regfile_access * activity.wide_regfile_accesses
        breakdown["narrow_regfile"] = scale * cfg.regfile_access * activity.narrow_regfile_accesses
        breakdown["wide_scheduler"] = cfg.scheduler_access * activity.wide_scheduler_ops
        breakdown["narrow_scheduler"] = scale * cfg.scheduler_access * activity.narrow_scheduler_ops
        breakdown["dl0"] = cfg.dl0_access * activity.dl0_accesses
        breakdown["ul1"] = cfg.ul1_access * activity.ul1_accesses
        breakdown["memory"] = cfg.memory_access * activity.memory_accesses
        breakdown["predictors"] = cfg.predictor_access * activity.predictor_accesses
        breakdown["copies"] = cfg.copy_transfer * activity.copies
        breakdown["wide_clock"] = cfg.wide_clock_per_cycle * activity.wide_cycles
        breakdown["narrow_clock"] = (cfg.narrow_clock_per_cycle * activity.fast_cycles
                                     if activity.helper_present else 0.0)
        return PowerBreakdown(per_structure=breakdown)
