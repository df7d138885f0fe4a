"""Machine configuration: data-driven cluster topologies plus the Table 1 baseline.

The machine description is a list of :class:`ClusterSpec` records — one per
execution cluster — bundled into a :class:`Topology`.  Cluster 0 is the *host*
(the paper's wide 32-bit backend; it owns the frontend, commit, and the FP
units by default) and every further cluster is a helper backend with its own
datapath width, clock ratio, scheduler resources and FU mix.  The paper's
machine is one point in that space: ``helper_topology()`` (a wide host plus
one 8-bit helper at a 2x clock); the monolithic baseline is
``monolithic_topology()`` (the host alone).

``MachineConfig`` bundles the topology with everything else the simulator
needs: frontend and memory parameters of the monolithic baseline (Table 1)
and the predictor configuration.  ``baseline_config()`` and
``helper_cluster_config()`` are the two canned machines, both built by
``topology_config()``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.isa.values import MACHINE_WIDTH, NARROW_WIDTH
from repro.memory.hierarchy import MemoryConfig
from repro.memory.tracecache import TraceCacheConfig


@dataclass(frozen=True)
class PredictorConfig:
    """Width / carry / copy-prefetch predictor parameters (§3.2, §3.5, §3.6)."""

    #: Number of entries in the PC-indexed tagless table ("a size of 256
    #: entries was found to be a good compromise", §3.2).
    table_entries: int = 256
    #: Use the 2-bit confidence estimator to gate narrow steering (§3.2).
    use_confidence: bool = True
    #: Confidence counter threshold at which a prediction counts as
    #: high-confidence (2-bit counter, so 0..3; the top two states qualify).
    confidence_threshold: int = 2

    def __post_init__(self) -> None:
        if self.table_entries <= 0 or (self.table_entries & (self.table_entries - 1)):
            raise ValueError("predictor table entries must be a positive power of two")
        if not 0 <= self.confidence_threshold <= 3:
            raise ValueError("confidence threshold must be within a 2-bit counter range")


@dataclass(frozen=True)
class ClusterSpec:
    """One execution cluster of the machine.

    Cluster 0 of a :class:`Topology` is the host (wide) cluster; it must run
    at ``clock_ratio`` 1 and hosts frontend/commit.  Every other cluster is a
    helper backend.
    """

    name: str
    #: Datapath width in bits (32 for the host, 8 for the paper's helper).
    datapath_width: int = MACHINE_WIDTH
    #: Clock multiplier relative to the host cluster (§2.2; 2 at the paper's
    #: design point — narrower datapaths close timing at higher frequency).
    clock_ratio: int = 1
    #: Scheduler resources (Table 1: 32-entry, 3-issue).  Memory issue is
    #: limited by the shared DL0 ports, not per cluster.
    issue_width: int = 3
    queue_size: int = 32
    #: Whether the cluster has FP units (§2.1: the helper backend has integer
    #: units only).
    has_fp: bool = False
    #: Recovery penalty of a flushing squash triggered in this cluster, in
    #: slow cycles (§3.2).
    flush_penalty_slow: int = 5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("cluster name must be non-empty")
        if self.datapath_width <= 0 or self.datapath_width > MACHINE_WIDTH:
            raise ValueError("cluster datapath width must be in (0, machine width]")
        if MACHINE_WIDTH % self.datapath_width:
            # The splitter chunks full-width values into datapath-width
            # pieces, so non-divisor widths (e.g. 24) have no well-defined
            # chunk count; reject them here rather than at simulator build.
            raise ValueError(
                f"cluster datapath width must divide the machine width "
                f"({MACHINE_WIDTH}), got {self.datapath_width}")
        if self.clock_ratio < 1:
            raise ValueError("cluster clock ratio must be >= 1")
        if self.issue_width <= 0 or self.queue_size <= 0:
            raise ValueError("cluster scheduler parameters must be positive")
        if self.flush_penalty_slow < 0:
            raise ValueError("flush penalty must be non-negative")

    @property
    def is_narrow(self) -> bool:
        return self.datapath_width < MACHINE_WIDTH

    @property
    def split_chunks(self) -> int:
        """Number of chunks a full-width value splits into on this datapath (§3.7)."""
        return max(1, MACHINE_WIDTH // self.datapath_width)

    @property
    def width_fraction(self) -> float:
        """Datapath width as a fraction of the machine width.

        The linear area/capacitance scaling factor the power model applies
        to this cluster's per-access energies (§2.1).
        """
        return self.datapath_width / MACHINE_WIDTH

    def to_key_dict(self) -> dict:
        """Canonical, JSON-serialisable form (cache keys, reports)."""
        return asdict(self)


@dataclass(frozen=True)
class Topology:
    """An ordered set of clusters: host first, helpers after."""

    clusters: Tuple[ClusterSpec, ...]

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("a topology needs at least one cluster (the host)")
        if not isinstance(self.clusters, tuple):
            object.__setattr__(self, "clusters", tuple(self.clusters))
        host = self.clusters[0]
        if host.clock_ratio != 1:
            raise ValueError("the host cluster must run at clock ratio 1")
        if not host.has_fp:
            # Steering keeps FP/MUL/DIV in the host (§2.1), so a host without
            # FP units would deadlock the simulator on the first FP uop.
            raise ValueError("the host cluster must have FP units (has_fp=True)")
        names = [spec.name for spec in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"cluster names must be unique, got {names}")
        for spec in self.clusters[1:]:
            if spec.datapath_width > host.datapath_width:
                raise ValueError("helper clusters cannot be wider than the host")

    # ------------------------------------------------------------- structure
    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def __getitem__(self, index: int) -> ClusterSpec:
        return self.clusters[index]

    @property
    def host(self) -> ClusterSpec:
        return self.clusters[0]

    @property
    def helpers(self) -> Tuple[ClusterSpec, ...]:
        return self.clusters[1:]

    @property
    def num_helpers(self) -> int:
        return len(self.clusters) - 1

    # --------------------------------------------------------------- derived
    @property
    def clock_ratios(self) -> Tuple[int, ...]:
        return tuple(spec.clock_ratio for spec in self.clusters)

    @property
    def max_clock_ratio(self) -> int:
        return max(self.clock_ratios)

    @property
    def narrow_width(self) -> Optional[int]:
        """Narrowest helper datapath width, or None for a host-only topology."""
        if not self.helpers:
            return None
        return min(spec.datapath_width for spec in self.helpers)

    def to_key_dict(self) -> dict:
        """Canonical, JSON-serialisable form (cache keys, reports)."""
        return {"clusters": [spec.to_key_dict() for spec in self.clusters]}


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine description."""

    #: Frontend fetch/decode width per wide cycle.
    fetch_width: int = 6
    #: In-order commit width per wide cycle (Table 1).
    commit_width: int = 6
    #: Reorder buffer capacity (in-flight uops).
    rob_size: int = 128
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    trace_cache: TraceCacheConfig = field(default_factory=TraceCacheConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    #: The execution clusters; the default is the paper's design point.
    topology: Topology = field(default_factory=lambda: helper_topology())

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.commit_width <= 0 or self.rob_size <= 0:
            raise ValueError("frontend/commit/ROB parameters must be positive")

    # ------------------------------------------------------------- derived
    @property
    def narrow_width(self) -> int:
        """Narrowest helper datapath width.

        A host-only machine classifies values at the paper's 8-bit width, so
        the width accounting (predictor training, Figure 5 statistics) of the
        monolithic baseline matches the helper machine's.
        """
        width = self.topology.narrow_width
        return NARROW_WIDTH if width is None else width

    @property
    def clock_ratio(self) -> int:
        return self.topology.max_clock_ratio

    def with_topology(self, topology: Topology) -> "MachineConfig":
        """Return a copy using another cluster topology."""
        return replace(self, topology=topology)

    def with_predictor(self, **overrides) -> "MachineConfig":
        """Return a copy with predictor fields overridden."""
        return replace(self, predictor=replace(self.predictor, **overrides))

    def with_scheduler(self, *, queue_size: Optional[int] = None,
                       issue_width: Optional[int] = None) -> "MachineConfig":
        """Return a copy with every cluster's queue size and/or issue width
        overridden (:meth:`with_topology` tunes clusters one by one)."""
        return self.with_topology(Topology(tuple(
            replace(spec,
                    queue_size=spec.queue_size if queue_size is None else queue_size,
                    issue_width=spec.issue_width if issue_width is None else issue_width)
            for spec in self.topology.clusters)))

    # -------------------------------------------------------------- caching
    def to_key_dict(self) -> dict:
        """Canonical, JSON-serialisable description of everything that can
        affect a simulation result.

        This is the cache-key contract (see DESIGN.md): the
        :class:`~repro.sim.cache.ResultCache` key is a SHA-256 over this
        dictionary's sorted-key JSON form, so *any* config field change —
        including nested memory/predictor/cluster fields — changes the key
        and can never be served a stale result.
        """
        return {
            "fetch_width": self.fetch_width,
            "commit_width": self.commit_width,
            "rob_size": self.rob_size,
            "memory": asdict(self.memory),
            "trace_cache": asdict(self.trace_cache),
            "predictor": asdict(self.predictor),
            "topology": self.topology.to_key_dict(),
        }


# ---------------------------------------------------------------- topologies
def _host_spec() -> ClusterSpec:
    """The paper's wide 32-bit host cluster with the FP units."""
    return ClusterSpec(name="wide", has_fp=True)


def monolithic_topology() -> Topology:
    """A host-only topology: the monolithic baseline of §3.1."""
    return Topology((_host_spec(),))


def helper_topology(narrow_width: int = NARROW_WIDTH, clock_ratio: int = 2,
                    helpers: int = 1,
                    has_fp: bool = False,
                    flush_penalty_slow: int = 5) -> Topology:
    """A wide host plus ``helpers`` identical narrow backends.

    ``helper_topology()`` with the defaults is the paper's design point; the
    2-helper and 16-bit-helper scenarios of the design-space exploration are
    one-argument variations.
    """
    if helpers < 0:
        raise ValueError("helper count must be non-negative")
    names = (["narrow"] if helpers == 1
             else [f"narrow{i}" for i in range(helpers)])
    specs = [ClusterSpec(
        name=name, datapath_width=narrow_width, clock_ratio=clock_ratio,
        has_fp=has_fp, flush_penalty_slow=flush_penalty_slow)
        for name in names]
    return Topology(tuple([_host_spec()] + specs))


def mixed_helper_topology(helper_shapes: Sequence[Tuple[int, int]],
                          has_fp: bool = False,
                          flush_penalty_slow: int = 5) -> Topology:
    """A wide host plus an asymmetric mix of helper backends.

    ``helper_shapes`` is a sequence of ``(datapath_width, clock_ratio)``
    pairs, one per helper, so the ROADMAP's 8-bit@2x + 16-bit@1x machine is
    ``mixed_helper_topology([(8, 2), (16, 1)])``.  Helpers are named
    ``n<width>x<ratio>`` (with an index suffix on repeats).
    """
    if not helper_shapes:
        raise ValueError("at least one helper shape is required")
    specs = [_host_spec()]
    seen: Dict[str, int] = {}
    for width, ratio in helper_shapes:
        name = f"n{width}x{ratio}"
        count = seen.get(name, 0)
        seen[name] = count + 1
        if count:
            name = f"{name}_{count}"
        specs.append(ClusterSpec(
            name=name, datapath_width=width, clock_ratio=ratio,
            has_fp=has_fp, flush_penalty_slow=flush_penalty_slow))
    return Topology(tuple(specs))


#: Parameter pools :func:`random_topology` draws from.  Kept module-level so
#: tests (and the fuzz corpus docs) can see exactly which machine space the
#: differential-fuzz campaign covers.
#: widths must divide MACHINE_WIDTH — the splitter's chunking contract
#: (a 24-bit draw was the first bug the fuzzer found: the simulator
#: rejected it only at construction time, long after config validation).
RANDOM_HELPER_WIDTHS = (4, 8, 16, 32)
RANDOM_CLOCK_RATIOS = (1, 2, 3, 4)
RANDOM_QUEUE_SIZES = (4, 8, 16, 32, 64)


def random_topology(rng, max_helpers: int = 3) -> Topology:
    """Draw a random-but-valid :class:`Topology` from ``rng``.

    The host is always the paper's wide 32-bit cluster at clock ratio 1
    with FP units (a :class:`Topology` invariant) and the default flush
    penalty (width recoveries only trigger in helpers, so the host's is
    never read); everything else is drawn from the pools above: helper
    count 0..``max_helpers``, datapath widths (full width included), clock
    ratios, per-cluster scheduler resources, helper FU mix (``has_fp``
    helpers included) and helper flush penalties.  Constraints
    the dataclass validators enforce — helper width <= host width, unique
    names, positive resources — hold by construction, so every returned
    topology is simulatable.

    ``rng`` is a ``random.Random``; the draw is a pure function of its
    state, which is how the fuzz harness regenerates byte-identical cases
    from a single case seed.
    """
    def scheduler_draw() -> dict:
        return {
            "issue_width": rng.randint(1, 4),
            "queue_size": rng.choice(RANDOM_QUEUE_SIZES),
        }

    host = ClusterSpec(
        name="wide", datapath_width=MACHINE_WIDTH, clock_ratio=1,
        has_fp=True, **scheduler_draw())
    specs = [host]
    for index in range(rng.randint(0, max_helpers)):
        width = rng.choice(RANDOM_HELPER_WIDTHS)
        ratio = rng.choice(RANDOM_CLOCK_RATIOS)
        specs.append(ClusterSpec(
            name=f"fz{index}_{width}x{ratio}",
            datapath_width=width, clock_ratio=ratio,
            has_fp=rng.random() < 0.2,
            flush_penalty_slow=rng.randint(0, 8),
            **scheduler_draw()))
    return Topology(tuple(specs))


def topology_config(topology: Topology, predictor_entries: int = 256,
                    use_confidence: bool = True) -> MachineConfig:
    """A :class:`MachineConfig` around ``topology``."""
    return MachineConfig(
        topology=topology,
        predictor=PredictorConfig(table_entries=predictor_entries,
                                  use_confidence=use_confidence),
    )


def baseline_config() -> MachineConfig:
    """The monolithic baseline: Table 1 resources, no helper cluster."""
    return topology_config(monolithic_topology())


def helper_cluster_config(narrow_width: int = NARROW_WIDTH, clock_ratio: int = 2,
                          predictor_entries: int = 256,
                          use_confidence: bool = True) -> MachineConfig:
    """The baseline augmented with the 8-bit helper cluster of §2."""
    return topology_config(helper_topology(narrow_width, clock_ratio),
                           predictor_entries, use_confidence)


#: Table 1 of the paper, as a report-friendly mapping.  Used by the
#: Table 1 benchmark and by the README.
TABLE_1_PARAMETERS = {
    "Trace Cache (TC)": "32K uops, 4-way",
    "Level-1 DCache (DL0)": "32KB, 8-way, 3 cycle, 2 R/W ports",
    "Level-2 Cache (UL1)": "4MB, 16-way, 13 cycle, 1 R/W port",
    "Integer Execution": "32 entry scheduler, 3 issue",
    "Fp Execution": "32 entry scheduler, 3 issue",
    "Commit Width": "6 instructions",
    "Main Memory": "450 cycles",
}
