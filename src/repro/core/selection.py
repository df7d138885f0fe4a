"""Cluster selection: resolving steering decisions to concrete clusters.

The steering API separates *intent* from *placement*.  A
:class:`~repro.core.steering.SteeringPolicy` returns a
:class:`~repro.core.steering.SteerDecision` that either names a concrete
``target_cluster`` (an index into the topology) or carries a declarative
:class:`ClusterRequirement` (minimum datapath width, FP need).  A shared, policy-visible :class:`ClusterSelector` — bound to the
simulator's backends at construction — resolves that intent to a cluster
index once per dispatched uop, replacing the helper-resolution logic that
used to live inside the simulator's hot loop.

Two selectors ship by default:

* :class:`LeastLoadedSelector` reproduces the original behaviour
  bit-identically: the single-helper machine of the paper trivially uses
  cluster 1, and with several helpers the least-loaded capable one wins
  (lowest index on ties).
* :class:`WidthAwareSelector` routes uops by *predicted value width*: the
  narrowest helper whose datapath fits the requirement wins, so on an
  asymmetric 8-bit + 16-bit machine 9-16-bit values land on the 16-bit
  helper instead of bouncing to the wide host, and 8-bit values keep the
  fast 8-bit helper.  It also widens the steering width horizon to the
  widest helper datapath and asks the simulator to track value widths in
  bits (rename width table and width predictor).

New selectors register by name in :data:`SELECTORS`;
:class:`~repro.core.steering.PolicySpec` records the selector name plus its
knobs, which is how selector choice reaches the result-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ClusterSpec, MachineConfig, Topology
from repro.isa.opcodes import Opcode


@dataclass(frozen=True)
class ClusterRequirement:
    """Declarative execution needs of one steered uop.

    ``min_width`` is the number of bits the uop's operand/result values are
    expected to need (two's-complement width, see
    :func:`repro.isa.values.value_width`); a cluster can host the uop only
    if its datapath is at least that wide.
    """

    min_width: int = 1
    needs_fp: bool = False

    def satisfied_by(self, spec: ClusterSpec, width_margin: int = 0) -> bool:
        """Whether a cluster of the given spec can execute the uop."""
        if spec.datapath_width < self.min_width + width_margin:
            return False
        if self.needs_fp and not spec.has_fp:
            return False
        return True


class ClusterSelector:
    """Base class: selectors map steering intent to a concrete cluster.

    A selector is *bound* to a simulator's topology and backend list once at
    simulator construction and consulted per dispatched uop.  It is shared
    state visible to the policy through the
    :class:`~repro.core.steering.SteeringContext`, which is how a policy can
    adapt its width classification to the selector's horizon.
    """

    name = "abstract"
    #: Ask the simulator to track value widths in bits (rename width table
    #: and width predictor) so requirements can carry precise widths.
    wants_width_bits = False

    def __init__(self) -> None:
        self._backends: List = []
        self._helpers: List = []
        self._single_helper = False

    # ------------------------------------------------------------------ bind
    def bind(self, topology: Topology, backends: Sequence) -> None:
        """Attach the selector to a machine's backend list (cluster order)."""
        self._backends = list(backends)
        self._helpers = self._backends[1:]
        self._single_helper = len(self._helpers) == 1

    # ------------------------------------------------------------- horizon
    def steering_width(self, config: MachineConfig, topology: Topology) -> int:
        """Value-width horizon (bits) below which a value counts as narrow
        for steering classification, predictor training and the rename
        width table.  The default is the machine's ``narrow_width`` (the
        narrowest helper datapath), the paper's classification."""
        return config.narrow_width

    # -------------------------------------------------------------- select
    def select(self, requirement: Optional[ClusterRequirement] = None,
               opcode: Optional[Opcode] = None) -> Optional[int]:
        """Pick a helper cluster index, or ``None`` when no helper fits."""
        raise NotImplementedError

    def resolve(self, decision, opcode: Optional[Opcode] = None) -> int:
        """Resolve a full :class:`SteerDecision` to a cluster index.

        Wide decisions map to the host (cluster 0).  An explicit
        ``target_cluster`` wins when it names a valid, capable helper — FU
        support *and* the decision's requirement, so a too-narrow target
        cannot silently invite a fatal width flush; otherwise (and when the
        target fails those checks) the requirement drives :meth:`select`,
        and a failed selection falls back to the host.
        """
        if not decision.to_helper:
            return 0
        target = decision.target_cluster
        requirement = decision.requirement
        if target is not None and 1 <= target < len(self._backends):
            backend = self._backends[target]
            if ((opcode is None or backend.units.supports(opcode))
                    and (requirement is None
                         or requirement.satisfied_by(backend.spec))):
                return target
        choice = self.select(requirement=requirement, opcode=opcode)
        return 0 if choice is None else choice

    # --------------------------------------------------------------- stats
    def reset(self) -> None:
        """Clear per-run statistics (policies call this from their reset)."""


class LeastLoadedSelector(ClusterSelector):
    """The original helper resolution: least-loaded capable helper.

    Bit-identical to the resolution the simulator used to perform inline:
    the single-helper machine of the paper trivially returns cluster 1, and
    with several helpers the one with the most free scheduler slots wins
    (lowest index on ties).  Requirements are honoured when present, but
    ladder policies under this selector do not emit them, preserving the
    original behaviour exactly.
    """

    name = "least_loaded"

    def select(self, requirement: Optional[ClusterRequirement] = None,
               opcode: Optional[Opcode] = None) -> Optional[int]:
        if self._single_helper and requirement is None:
            return 1
        best: Optional[int] = None
        best_free = -1
        for backend in self._helpers:
            if requirement is not None and not requirement.satisfied_by(backend.spec):
                continue
            if opcode is not None and not backend.units.supports(opcode):
                continue
            free = backend.issue_queue.free_slots
            if free > best_free:
                best = backend.index
                best_free = free
        return best


class WidthAwareSelector(ClusterSelector):
    """Route steered uops to the narrowest helper that fits their width.

    The tightest-fitting capable helper wins: a requirement of 9-16 bits on
    an 8-bit + 16-bit machine can only land on the 16-bit helper, while
    8-bit work keeps the (faster-clocked) 8-bit helper.  Among helpers of
    equal width the least-loaded wins (lowest index on ties), and when the
    narrowest fit has no free scheduler slot the work spills to the next
    narrowest helper that has one rather than stalling dispatch.

    ``width_margin`` demands that many spare bits of datapath beyond the
    requirement (a conservatism knob carried through
    :class:`~repro.core.steering.PolicySpec.knobs`).
    """

    name = "width_aware"
    wants_width_bits = True

    def __init__(self, width_margin: int = 0) -> None:
        super().__init__()
        if width_margin < 0:
            raise ValueError("width margin must be non-negative")
        self.width_margin = width_margin
        #: (requirement min_width, chosen cluster index) -> count; how the
        #: selector routed width-carrying requirements (test/report hook).
        self.routed: Dict[Tuple[int, int], int] = {}

    def steering_width(self, config: MachineConfig, topology: Topology) -> int:
        """Widest helper datapath: anything that fits *some* helper is a
        steering candidate; the requirement records how many bits it needs."""
        widths = [spec.datapath_width for spec in topology.helpers]
        return max(widths) if widths else config.narrow_width

    def select(self, requirement: Optional[ClusterRequirement] = None,
               opcode: Optional[Opcode] = None) -> Optional[int]:
        best: Optional[Tuple[Tuple[int, int, int], int]] = None
        best_with_room: Optional[Tuple[Tuple[int, int, int], int]] = None
        for backend in self._helpers:
            spec = backend.spec
            if requirement is not None and not requirement.satisfied_by(
                    spec, width_margin=self.width_margin):
                continue
            if opcode is not None and not backend.units.supports(opcode):
                continue
            free = backend.issue_queue.free_slots
            rank = (spec.datapath_width, -free, backend.index)
            if best is None or rank < best[0]:
                best = (rank, backend.index)
            if free > 0 and (best_with_room is None or rank < best_with_room[0]):
                best_with_room = (rank, backend.index)
        choice = best_with_room if best_with_room is not None else best
        if choice is None:
            return None
        cluster = choice[1]
        if requirement is not None:
            key = (requirement.min_width, cluster)
            self.routed[key] = self.routed.get(key, 0) + 1
        return cluster

    def reset(self) -> None:
        self.routed.clear()


#: Selector registry: :class:`~repro.core.steering.PolicySpec` names one of
#: these; register new selectors here to make them spec-addressable.
SELECTORS: Dict[str, type] = {
    LeastLoadedSelector.name: LeastLoadedSelector,
    WidthAwareSelector.name: WidthAwareSelector,
}


def make_selector(name: str, **knobs) -> ClusterSelector:
    """Instantiate a registered selector by name with its knobs."""
    cls = SELECTORS.get(name)
    if cls is None:
        raise KeyError(f"unknown cluster selector {name!r}; "
                       f"known: {', '.join(SELECTORS)}")
    return cls(**knobs)
