"""Data-width aware instruction steering policies (§1 items 1-5, §3.2-§3.7).

The steering stage sits between decode/rename and dispatch.  For every uop it
decides which backend the uop executes in, whether it is being steered under a
width *prediction* (and therefore may trigger a flushing recovery if the
prediction turns out fatally wrong), whether a load's result should be
replicated in both clusters (LR), and whether the uop should be split into
narrow chunks (IR).

Decision flow (policy → requirement → selector → cluster): a policy returns
a :class:`SteerDecision` that expresses *intent* — wide vs. helper, plus
optionally a concrete ``target_cluster`` or a declarative
:class:`~repro.core.selection.ClusterRequirement` — and the shared,
policy-visible :class:`~repro.core.selection.ClusterSelector` resolves it to
a concrete cluster of the topology.  The default least-loaded selector
reproduces the paper's behaviour bit-identically; the width-aware selector
routes uops by predicted value width on asymmetric helper mixes.

Policies are expressed as a set of :class:`Scheme` flags so the paper's
cumulative ladder (8-8-8 → +BR → +LR → +CR → +CP → +IR → IR-nodest) maps
directly onto configuration, and ablations can toggle any single scheme.
Policies are *described* by a serializable :class:`PolicySpec` (name, scheme
set, selector, knobs) held in a :class:`PolicyRegistry`; :func:`make_policy`
builds runnable policies from specs, registered names, or ad-hoc ``"+"``
scheme combos, and ``PolicySpec.to_key_dict()`` is what reaches the result
cache key so policies differing only in selector or knobs never alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.config import MachineConfig
from repro.core.copy_engine import CopyEngine
from repro.core.imbalance import ImbalanceMonitor
from repro.core.predictors import WidthPredictor, WidthPrediction
from repro.core.selection import (
    SELECTORS,
    ClusterRequirement,
    ClusterSelector,
    make_selector,
)
from repro.core.splitting import InstructionSplitter
from repro.isa.opcodes import OpClass
from repro.isa.registers import ArchReg
from repro.isa.uop import MicroOp
from repro.pipeline.clocking import ClockDomain
from repro.pipeline.frontend import FetchedUop
from repro.pipeline.rename import RenameTable


class Scheme(Enum):
    """The individual steering techniques proposed by the paper."""

    N888 = auto()       # §3.2: all sources and result narrow
    BR = auto()         # §3.3: branches dependent on narrow-value conditions
    LR = auto()         # §3.4: load replication
    CR = auto()         # §3.5: carry-width prediction
    CP = auto()         # §3.6: copy prefetching
    IR = auto()         # §3.7: instruction splitting for imbalance reduction
    IR_NODEST = auto()  # §3.7 fine tuning: split only destination-less uops


#: The cumulative policy ladder evaluated in the paper, in presentation order.
POLICY_LADDER: Dict[str, frozenset] = {
    "baseline": frozenset(),
    "n888": frozenset({Scheme.N888}),
    "n888_br": frozenset({Scheme.N888, Scheme.BR}),
    "n888_br_lr": frozenset({Scheme.N888, Scheme.BR, Scheme.LR}),
    "n888_br_lr_cr": frozenset({Scheme.N888, Scheme.BR, Scheme.LR, Scheme.CR}),
    "n888_br_lr_cr_cp": frozenset({Scheme.N888, Scheme.BR, Scheme.LR, Scheme.CR,
                                   Scheme.CP}),
    "ir": frozenset({Scheme.N888, Scheme.BR, Scheme.LR, Scheme.CR, Scheme.CP,
                     Scheme.IR}),
    "ir_nodest": frozenset({Scheme.N888, Scheme.BR, Scheme.LR, Scheme.CR, Scheme.CP,
                            Scheme.IR, Scheme.IR_NODEST}),
}


@dataclass(slots=True)
class SteerDecision:
    """Outcome of steering one uop.

    ``domain`` expresses the wide-vs-helper intent (kept for the paper's
    two-cluster API).  A helper-bound decision may additionally carry a
    concrete ``target_cluster`` (an index into the topology) or a
    declarative ``requirement`` that the machine's
    :class:`~repro.core.selection.ClusterSelector` resolves; with neither,
    the selector places the uop on capability and load alone.
    """

    domain: ClockDomain
    reason: str = "default_wide"
    #: concrete topology cluster index the policy demands, or ``None`` to
    #: let the selector choose
    target_cluster: Optional[int] = None
    #: declarative placement needs (min datapath width, FP)
    requirement: Optional[ClusterRequirement] = None
    #: the uop was steered narrow based on a width prediction (8-8-8); a
    #: wrong prediction is fatal and triggers flushing recovery
    predicted_narrow: bool = False
    #: the uop was steered narrow under the CR carry-width prediction; a
    #: propagated carry is fatal
    via_cr: bool = False
    #: the uop is a conditional branch steered narrow by the BR scheme
    via_br: bool = False
    #: LR: the load's result register is allocated in both clusters
    replicate_load: bool = False
    #: IR: the uop is split into narrow chunks (handled by the simulator)
    split: bool = False
    #: width-predictor lookup made while steering, forwarded so dispatch does
    #: not have to probe the table a second time
    prediction: Optional["WidthPrediction"] = None

    @property
    def to_helper(self) -> bool:
        return self.domain != ClockDomain.WIDE


@dataclass
class SteeringContext:
    """Everything a policy may consult when steering a uop."""

    config: MachineConfig
    width_predictor: WidthPredictor
    rename: RenameTable
    imbalance: ImbalanceMonitor
    copy_engine: CopyEngine
    splitter: InstructionSplitter
    #: the machine's shared cluster selector; ``None`` (unit tests, direct
    #: construction) behaves like the default least-loaded selector
    selector: Optional[ClusterSelector] = None

    def __post_init__(self) -> None:
        self._topology_of: Optional[MachineConfig] = None
        self._num_helpers = 0
        self._helper_fp_available = False
        self._steering_width = 0
        self._width_steering = False

    def _sync_topology(self) -> None:
        # Topology facts hoisted out of the per-uop steer loop; recomputed
        # only when the context's config object is swapped.
        if self._topology_of is not self.config:
            topology = self.config.topology
            self._topology_of = self.config
            self._num_helpers = topology.num_helpers
            self._helper_fp_available = any(spec.has_fp for spec in topology.helpers)
            selector = self.selector
            if selector is not None:
                self._steering_width = selector.steering_width(self.config, topology)
                self._width_steering = selector.wants_width_bits
            else:
                self._steering_width = self.config.narrow_width
                self._width_steering = False

    @property
    def num_helpers(self) -> int:
        self._sync_topology()
        return self._num_helpers

    @property
    def helper_fp_available(self) -> bool:
        self._sync_topology()
        return self._helper_fp_available

    @property
    def steering_width(self) -> int:
        """Width horizon (bits) the selector wants values classified at."""
        self._sync_topology()
        return self._steering_width

    @property
    def width_steering(self) -> bool:
        """Whether decisions should carry width requirements (and the
        simulator track value widths in bits) for the selector's benefit."""
        self._sync_topology()
        return self._width_steering


@dataclass
class SteeringStats:
    """Per-policy steering counters."""

    steered: int = 0
    to_narrow: int = 0
    to_wide: int = 0
    narrow_by_n888: int = 0
    narrow_by_br: int = 0
    narrow_by_cr: int = 0
    narrow_by_split: int = 0
    rejected_low_confidence: int = 0
    rebalanced_to_wide: int = 0

    @property
    def narrow_fraction(self) -> float:
        return self.to_narrow / self.steered if self.steered else 0.0


class SteeringPolicy:
    """Base class: policies map (uop, context) -> :class:`SteerDecision`."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = SteeringStats()
        #: the cluster selector this policy wants the machine to use;
        #: ``None`` means the simulator's default (least-loaded)
        self.selector: Optional[ClusterSelector] = None

    def steer(self, fetched: FetchedUop, ctx: SteeringContext) -> SteerDecision:
        raise NotImplementedError

    def _account(self, decision: SteerDecision,
                 prediction: Optional[WidthPrediction] = None) -> SteerDecision:
        decision.prediction = prediction
        self.stats.steered += 1
        if decision.to_helper:
            self.stats.to_narrow += 1
            if decision.split:
                self.stats.narrow_by_split += 1
            elif decision.via_br:
                self.stats.narrow_by_br += 1
            elif decision.via_cr:
                self.stats.narrow_by_cr += 1
            elif decision.predicted_narrow:
                self.stats.narrow_by_n888 += 1
        else:
            self.stats.to_wide += 1
        return decision

    def reset(self) -> None:
        self.stats = SteeringStats()
        if self.selector is not None:
            self.selector.reset()


class BaselineSteering(SteeringPolicy):
    """Monolithic baseline: every uop executes in the wide backend."""

    name = "baseline"

    def steer(self, fetched: FetchedUop, ctx: SteeringContext) -> SteerDecision:
        stats = self.stats
        stats.steered += 1
        stats.to_wide += 1
        return SteerDecision(domain=ClockDomain.WIDE, reason="baseline")


class DataWidthSteering(SteeringPolicy):
    """The paper's data-width aware steering with a configurable scheme set."""

    def __init__(self, schemes: frozenset | set = POLICY_LADDER["ir"],
                 name: Optional[str] = None,
                 selector: Optional[ClusterSelector] = None) -> None:
        super().__init__()
        self.schemes = frozenset(schemes)
        self.selector = selector
        self.name = name or "+".join(sorted(s.name for s in self.schemes)) or "wide_only"
        # Scheme membership tested once here instead of per steered uop.
        self._has_n888 = Scheme.N888 in self.schemes
        self._has_br = Scheme.BR in self.schemes
        self._has_lr = Scheme.LR in self.schemes
        self._has_cr = Scheme.CR in self.schemes
        self._has_ir = Scheme.IR in self.schemes
        self._has_ir_nodest = Scheme.IR_NODEST in self.schemes
        # Per-context facts hoisted out of the per-uop steer path; rebound
        # whenever the context — or any of its cached components — changes
        # identity (see :meth:`_ctx_stale`).
        self._ctx: Optional[SteeringContext] = None
        self._ctx_config: Optional[MachineConfig] = None
        self._ctx_rename: Optional[RenameTable] = None
        self._ctx_predictor: Optional[WidthPredictor] = None
        self._imbalance: Optional[ImbalanceMonitor] = None

    # ---------------------------------------------------------------- binding
    def _ctx_stale(self, ctx: SteeringContext) -> bool:
        """Must the per-context bindings be refreshed for this steer?

        ``SteeringContext`` is a plain mutable dataclass and callers do swap
        its fields between runs, so the guard covers every component the
        fast path caches — not just the context object itself.
        """
        return (ctx is not self._ctx
                or ctx.config is not self._ctx_config
                or ctx.rename is not self._ctx_rename
                or ctx.width_predictor is not self._ctx_predictor
                or ctx.imbalance is not self._imbalance)

    def _bind_ctx(self, ctx: SteeringContext) -> None:
        """Hoist per-machine facts consulted on every steer into attributes."""
        self._ctx = ctx
        self._ctx_config = ctx.config
        self._ctx_rename = ctx.rename
        self._ctx_predictor = ctx.width_predictor
        self._ctx_active = bool(ctx.num_helpers) and bool(self.schemes)
        self._ctx_fp = ctx.helper_fp_available
        self._ctx_width_steering = ctx.width_steering
        self._ctx_steering_width = ctx.steering_width
        self._ctx_narrow_width = ctx.config.narrow_width
        self._rename_entries = ctx.rename.table
        self._flags_entry = ctx.rename.table[ArchReg.FLAGS]
        self._predict = ctx.width_predictor.predict
        self._imbalance = ctx.imbalance

    # ------------------------------------------------------------------ helpers
    def _width_requirement(self, uop: MicroOp, ctx: SteeringContext,
                           prediction: Optional[WidthPrediction]
                           ) -> Optional[ClusterRequirement]:
        """Placement needs of a width-predicted narrow steer.

        Only built when the machine's selector routes by width (the default
        least-loaded selector places on capability and load alone, so the
        hot path pays nothing for requirements it would ignore).
        """
        if not ctx.width_steering:
            return None
        bits = uop.imm_width
        rename = ctx.rename
        for reg in uop.srcs:
            width = rename.source_width_bits(reg)
            if width > bits:
                bits = width
        if (uop.has_dest and prediction is not None
                and prediction.width_bits is not None
                and prediction.width_bits > bits):
            bits = prediction.width_bits
        return ClusterRequirement(min_width=bits)

    # -------------------------------------------------------------------- steer
    def steer(self, fetched: FetchedUop, ctx: SteeringContext) -> SteerDecision:
        # Flat fast path: per-machine facts are bound once per context, the
        # per-branch accounting of :meth:`SteeringPolicy._account` is inlined
        # at each return site, and width-table reads go straight at the
        # rename entries.  Decision content and every counter are identical
        # to the factored implementation.
        if self._ctx_stale(ctx):
            self._bind_ctx(ctx)
        uop = fetched.uop
        stats = self.stats
        stats.steered += 1

        if not self._ctx_active:
            stats.to_wide += 1
            return SteerDecision(domain=ClockDomain.WIDE,
                                 reason="helper_disabled")
        info = uop.info
        op_class = info.op_class
        if (op_class is OpClass.MUL or op_class is OpClass.DIV
                or (op_class is OpClass.FP and not self._ctx_fp)):
            stats.to_wide += 1
            return SteerDecision(domain=ClockDomain.WIDE,
                                 reason="no_unit_in_helper")

        # §1 item 5 / §3.7: if the helper cluster is overloaded, steer narrow
        # work back to the wide cluster until balance is restored.
        rebalance_to_wide = (self._has_ir
                             and self._imbalance.helper_overloaded())

        # --- BR: conditional branch depending on a narrow-cluster flag write.
        # Branches are never candidates for the width-prediction based
        # schemes (they have no register result); they go to the helper
        # cluster only under the BR rule.
        if info.is_branch:
            if self._has_br and info.is_cond_branch:
                # Domains may be plain cluster indices (>= 2) for extra
                # helper clusters, so compare by value, not identity.
                if (self._flags_entry.producer_domain != ClockDomain.WIDE
                        and fetched.target_resolved_in_frontend
                        and not rebalance_to_wide):
                    stats.to_narrow += 1
                    stats.narrow_by_br += 1
                    return SteerDecision(domain=ClockDomain.NARROW,
                                         reason="br_narrow_flag", via_br=True)
            stats.to_wide += 1
            return SteerDecision(domain=ClockDomain.WIDE, reason="branch_wide")

        prediction = self._predict(uop.pc)
        entries = self._rename_entries
        sources_narrow = True
        for reg in uop.srcs:
            if not entries[reg].narrow:
                sources_narrow = False
                break
        if sources_narrow and uop.imm_width > self._ctx_steering_width:
            sources_narrow = False

        # --- LR: loads predicted to fetch a narrow value have their result
        # register allocated in both clusters through the shared MOB (§3.4),
        # independent of which cluster executes the load.
        replicate = (self._has_lr and info.is_load
                     and prediction.narrow and prediction.confident)

        # --- 8-8-8: all sources narrow and result predicted narrow with
        # high confidence (§3.2).
        if self._has_n888 and sources_narrow and uop.srcs:
            narrow_confident = prediction.narrow and prediction.confident
            if uop.has_dest and prediction.narrow and not prediction.confident:
                stats.rejected_low_confidence += 1
            if ((not uop.has_dest or narrow_confident)
                    and not rebalance_to_wide):
                stats.to_narrow += 1
                stats.narrow_by_n888 += 1
                return SteerDecision(
                    domain=ClockDomain.NARROW, reason="n888",
                    predicted_narrow=True, replicate_load=replicate,
                    requirement=(self._width_requirement(uop, ctx, prediction)
                                 if self._ctx_width_steering else None),
                    prediction=prediction)

        # --- CR: one narrow and one wide source, wide result, carry predicted
        # not to propagate past the low byte (§3.5).
        if self._has_cr and info.cr_eligible and not rebalance_to_wide:
            source_widths = [entries[reg].narrow for reg in uop.srcs]
            wide_count = source_widths.count(False)
            result_predicted_wide = uop.has_dest and not prediction.narrow
            addresses_memory = info.is_memory  # address result is consumed wide
            # Memory operations additionally require the narrow operand to be
            # an immediate (field-style base+displacement addressing).  Index
            # registers sweep through values and routinely cross the carry
            # boundary mid-loop, which the per-PC carry bit cannot track; the
            # flushing recovery they would cause costs more than the narrow
            # execution saves.
            narrow_operand_ok = (uop.imm is not None if addresses_memory
                                 else wide_count < len(source_widths)
                                 or uop.imm is not None)
            if (wide_count == 1 and narrow_operand_ok
                    and (result_predicted_wide or addresses_memory)
                    and prediction.carry_safe):
                # CR work touches only the low narrow_width bits (the wide
                # source's upper bits are reused), so any helper at least
                # that wide qualifies regardless of the operand's full width.
                cr_requirement = (ClusterRequirement(
                    min_width=self._ctx_narrow_width)
                    if self._ctx_width_steering else None)
                stats.to_narrow += 1
                stats.narrow_by_cr += 1
                return SteerDecision(
                    domain=ClockDomain.NARROW, reason="cr_no_carry",
                    via_cr=True, replicate_load=replicate,
                    requirement=cr_requirement, prediction=prediction)

        # --- IR: split wide instructions into narrow chunks while the helper
        # cluster is underutilised (§3.7).
        if self._has_ir and self._imbalance.helper_underutilised():
            ctx.splitter.require_no_dest = self._has_ir_nodest
            if ctx.splitter.can_split(uop):
                stats.to_narrow += 1
                stats.narrow_by_split += 1
                return SteerDecision(domain=ClockDomain.NARROW,
                                     reason="ir_split", split=True,
                                     prediction=prediction)

        stats.to_wide += 1
        if rebalance_to_wide:
            stats.rebalanced_to_wide += 1
            return SteerDecision(domain=ClockDomain.WIDE,
                                 reason="helper_overloaded",
                                 replicate_load=replicate,
                                 prediction=prediction)
        return SteerDecision(domain=ClockDomain.WIDE, reason="default_wide",
                             replicate_load=replicate, prediction=prediction)

    # --------------------------------------------------------------- properties
    @property
    def uses_copy_prefetch(self) -> bool:
        return Scheme.CP in self.schemes

    @property
    def uses_load_replication(self) -> bool:
        return Scheme.LR in self.schemes


# ---------------------------------------------------------------------------
# Policy specs and the registry
# ---------------------------------------------------------------------------
#: Scheme tokens accepted in ad-hoc ``"+"`` combos (e.g. ``"n888+cr"``).
SCHEME_TOKENS: Dict[str, Scheme] = {s.name.lower(): s for s in Scheme}


@dataclass(frozen=True)
class PolicySpec:
    """Serializable description of a steering policy.

    A spec is everything :func:`make_policy` needs to build a runnable
    policy — name, scheme set, cluster-selector name and selector knobs —
    and everything the result cache needs to key its results:
    :meth:`to_key_dict` is folded into the
    :class:`~repro.sim.cache.ResultCache` key, so two policies differing
    only in selector or knobs can never alias a cache entry.
    """

    name: str
    schemes: frozenset = frozenset()
    selector: str = "least_loaded"
    #: selector constructor knobs, stored as a sorted item tuple so the
    #: spec stays hashable; pass a mapping, it is normalised here
    knobs: Tuple[Tuple[str, object], ...] = ()
    #: member of the paper's cumulative ladder (presentation flag only;
    #: deliberately *not* part of the cache key)
    in_ladder: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy name must be non-empty")
        object.__setattr__(self, "schemes",
                           frozenset(Scheme(s) for s in self.schemes))
        if not isinstance(self.knobs, tuple):
            object.__setattr__(self, "knobs",
                               tuple(sorted(dict(self.knobs).items())))

    # ------------------------------------------------------------- caching
    def to_key_dict(self) -> dict:
        """Canonical, JSON-serialisable form (the cache-key contract).

        Covers every field that can change simulation behaviour: the name,
        the sorted scheme set, the selector and its knobs.
        """
        return {
            "name": self.name,
            "schemes": sorted(s.name for s in self.schemes),
            "selector": self.selector,
            "knobs": {key: value for key, value in self.knobs},
        }

    # -------------------------------------------------------------- build
    def build(self) -> SteeringPolicy:
        """Construct the runnable policy this spec describes."""
        selector = make_selector(self.selector, **dict(self.knobs))
        if not self.schemes:
            policy: SteeringPolicy = BaselineSteering()
            policy.name = self.name
        else:
            policy = DataWidthSteering(self.schemes, name=self.name,
                                       selector=selector)
        policy.selector = selector
        return policy


class PolicyRegistry:
    """Name -> :class:`PolicySpec` registry.

    The registry is what the CLI, the experiment layer and the sweep engine
    consult instead of the hard-coded ladder dict: registering a spec makes
    the policy runnable everywhere (``--policy`` choices included) without
    touching any of those layers.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, PolicySpec] = {}

    # ---------------------------------------------------------- mutation
    def register(self, spec: PolicySpec, replace: bool = False) -> PolicySpec:
        """Add a spec; re-registering a name requires ``replace=True``."""
        if not replace and spec.name in self._specs:
            raise ValueError(f"policy {spec.name!r} is already registered "
                             "(pass replace=True to override)")
        self._specs[spec.name] = spec
        return spec

    # ------------------------------------------------------------ lookup
    def get(self, name: str) -> PolicySpec:
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(self.unknown_policy_message(name))
        return spec

    def names(self) -> List[str]:
        """All registered policy names, in registration order."""
        return list(self._specs)

    def helper_names(self) -> List[str]:
        """Registered policies that steer to helpers (non-empty scheme set)."""
        return [name for name, spec in self._specs.items() if spec.schemes]

    def ladder_names(self, include_baseline: bool = True) -> List[str]:
        """The paper's cumulative ladder, in presentation order."""
        return [name for name, spec in self._specs.items()
                if spec.in_ladder and (include_baseline or spec.schemes)]

    def unknown_policy_message(self, name: str) -> str:
        return (f"unknown policy {name!r}; known policies: "
                f"{', '.join(self._specs)}; known schemes (combine with '+'): "
                f"{', '.join(SCHEME_TOKENS)}")

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


#: The default registry: the paper's cumulative ladder plus the width-aware
#: variants used by asymmetric-topology exploration.
policy_registry = PolicyRegistry()
for _name, _schemes in POLICY_LADDER.items():
    policy_registry.register(PolicySpec(name=_name, schemes=_schemes,
                                        in_ladder=True))
policy_registry.register(PolicySpec(name="n888_wa",
                                    schemes=POLICY_LADDER["n888"],
                                    selector="width_aware"))
policy_registry.register(PolicySpec(name="ir_wa",
                                    schemes=POLICY_LADDER["ir"],
                                    selector="width_aware"))
del _name, _schemes


def random_policy_spec(rng, allow_baseline: bool = False) -> PolicySpec:
    """Draw a random-but-valid :class:`PolicySpec` from ``rng``.

    Three families, mirroring how policies reach the engine in practice:
    a registered spec straight from the registry, an ad-hoc scheme combo
    (the ``"n888+cr"``-style names the CLI accepts), or a fully synthetic
    spec with a random scheme subset, selector and selector knobs.  The
    draw is a pure function of the ``random.Random`` state, so the fuzz
    harness regenerates identical specs from a case seed.

    ``IR_NODEST`` only refines ``IR``, so synthetic scheme sets that draw
    it without ``IR`` have ``IR`` added — the combination is otherwise
    inert and would waste fuzz cases on duplicate behaviour.
    """
    scheme_pool = [s for s in Scheme]
    family = rng.random()
    if family < 0.4:
        names = [name for name in policy_registry.names()
                 if allow_baseline or policy_registry.get(name).schemes]
        return policy_registry.get(rng.choice(names))
    if family < 0.6:
        count = rng.randint(1, 3)
        tokens = sorted({rng.choice(list(SCHEME_TOKENS)) for _ in range(count)})
        return policy_spec("+".join(tokens))
    schemes = {s for s in scheme_pool if rng.random() < 0.45}
    if not schemes:
        schemes = {rng.choice(scheme_pool)}
    if Scheme.IR_NODEST in schemes:
        schemes.add(Scheme.IR)
    selector = rng.choice(sorted(SELECTORS))
    knobs: Dict[str, object] = {}
    if selector == "width_aware" and rng.random() < 0.5:
        knobs["width_margin"] = rng.randint(0, 8)
    return PolicySpec(
        name="fz_" + "_".join(sorted(s.name.lower() for s in schemes)),
        schemes=frozenset(schemes), selector=selector,
        knobs=tuple(sorted(knobs.items())))


def parse_scheme_combo(name: str) -> Optional[frozenset]:
    """Parse an ad-hoc ``"+"``-separated scheme combo, ``None`` if invalid."""
    tokens = [token.strip().lower() for token in name.split("+")]
    if not tokens or any(token not in SCHEME_TOKENS for token in tokens):
        return None
    return frozenset(SCHEME_TOKENS[token] for token in tokens)


def policy_spec(name: Union[str, PolicySpec],
                registry: Optional[PolicyRegistry] = None) -> PolicySpec:
    """Resolve a policy reference to its :class:`PolicySpec`.

    Accepts a spec (returned as-is), a registered name, or an ad-hoc scheme
    combo such as ``"n888+cr"``.  Anything else raises a ``KeyError`` whose
    message lists both the registered policy names and the known schemes.
    """
    if isinstance(name, PolicySpec):
        return name
    registry = registry if registry is not None else policy_registry
    if name in registry:
        return registry.get(name)
    schemes = parse_scheme_combo(name)
    if schemes is None:
        raise KeyError(registry.unknown_policy_message(name))
    return PolicySpec(name=name, schemes=schemes)


def make_policy(name: Union[str, PolicySpec],
                registry: Optional[PolicyRegistry] = None) -> SteeringPolicy:
    """Construct a policy from a spec, a registered name, or a scheme combo."""
    return policy_spec(name, registry=registry).build()
