"""The helper-cluster timing simulator.

``HelperClusterSimulator`` executes a trace on the clustered machine
described by a :class:`~repro.core.config.MachineConfig` — one
:class:`~repro.core.cluster.Backend` per cluster of its
:class:`~repro.core.config.Topology` — under a
:class:`~repro.core.steering.SteeringPolicy`, advancing time in *fast*
cycles (the least common multiple of the cluster clocks per host cycle).
The host (wide) backend, the frontend and the commit stage only act on fast
cycles that fall on the host clock, and every helper backend acts on
multiples of its own period, which is how the clocking advantage of narrow
helper backends (§2.2) is expressed.  The paper's machine is the two-cluster
case; the simulator itself just iterates the cluster list.

Per fast cycle the simulator performs, in order:

1. **writeback** — completion events: wake consumers, update the width /
   carry / copy-prefetch predictors, detect fatal width mispredictions and
   trigger flushing recovery (§3.2);
2. **issue** — per active backend (helpers first, host last), oldest-first
   select of ready scheduler entries subject to issue width, functional-unit
   and DL0-port constraints;
3. **commit** — on wide cycles, in-order retirement of up to the commit
   width;
4. **dispatch** — on wide cycles, fetch/decode/steer/rename of new trace uops
   (and re-dispatch of squashed ones), generation of inter-cluster copy uops,
   load replication (§3.4), copy prefetching (§3.6) and IR splitting (§3.7).
   Policies express intent (wide vs. helper, plus an optional concrete
   target or declarative width/FP requirement); the policy's shared
   :class:`~repro.core.selection.ClusterSelector` resolves that intent to a
   concrete cluster (the default selector is the original least-loaded
   capable resolution, bit-identically).

Copy uops and IR split chunks are modelled as first-class scheduler entries:
they occupy issue slots in the cluster they execute in, exactly the overhead
the paper's schemes try to minimise.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.cluster import Backend
from repro.core.config import MachineConfig, helper_cluster_config
from repro.core.copy_engine import CopyEngine, CopyRequest
from repro.core.imbalance import ImbalanceMonitor
from repro.core.predictors import WidthPredictor
from repro.core.selection import ClusterSelector, LeastLoadedSelector
from repro.core.splitting import InstructionSplitter
from repro.core.steering import (
    BaselineSteering,
    SteerDecision,
    SteeringContext,
    SteeringPolicy,
)
from repro.isa.opcodes import FunctionalUnit, Opcode
from repro.isa.registers import ArchReg
from repro.isa.uop import MicroOp, cr_carry_crosses, cr_operated_narrow
from repro.isa.values import is_narrow
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tracecache import TraceCache
from repro.pipeline.clocking import ClockDomain, ClockingModel
from repro.pipeline.frontend import FetchedUop, Frontend
from repro.pipeline.mob import MemoryOrderBuffer
from repro.pipeline.rename import RenameTable
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.scheduler import IssueQueue
from repro.power.wattch import ClusterActivity, PowerModel
from repro.sim.metrics import PredictionBreakdown, SimulationResult
from repro.trace.trace import Trace

#: Safety multiplier: a run is aborted (as a bug) if it exceeds this many
#: fast cycles per trace uop.
_MAX_CYCLES_PER_UOP = 400

#: The host (wide) cluster index.  Domains are cluster indices throughout the
#: simulator; ``ClockDomain.WIDE``/``NARROW`` compare equal to 0/1, so the
#: paper's two-cluster API interoperates.
_WIDE = 0

#: Functional-unit kind -> activity bucket (0 = ALU, 1 = AGU, 2 = FPU), the
#: dispatch-accounting classification precomputed off the hot path.
_UNIT_ACCOUNT = {
    FunctionalUnit.IALU: 0,
    FunctionalUnit.BRU: 0,
    FunctionalUnit.COPY: 0,
    FunctionalUnit.IMUL: 0,
    FunctionalUnit.IDIV: 0,
    FunctionalUnit.AGU: 1,
    FunctionalUnit.FPU: 2,
}


@dataclass(slots=True)
class _DynUop:
    """Per-in-flight-operation simulator state.

    The one record of an in-flight operation: issue queues hold it (keyed by
    ``dyn_id``), the ROB holds each trace uop's record under the trace uid,
    and waiter lists hold it until its sources wake it.
    """

    dyn_id: int
    kind: str                       # "trace" | "copy" | "chunk"
    seq: int
    domain: int                     # cluster index (0 = wide host)
    opcode: Opcode
    uop: Optional[MicroOp] = None
    decision: Optional[SteerDecision] = None
    value_uid: Optional[int] = None      # value produced (trace uid) if any
    copy_request: Optional[CopyRequest] = None
    chunk_index: int = 0
    parent: Optional["_DynUop"] = None
    predicted_narrow: Optional[bool] = None
    #: retirable: set on a trace record only when it (or the clone that
    #: re-executes it) completes without a fatal width misprediction
    completed: bool = False
    squashed: bool = False
    replicate_load: bool = False
    is_last_chunk: bool = False
    #: functional-unit kind of ``opcode``, precomputed at dispatch so the
    #: issue loop needs no opcode-info lookup
    unit: Optional[FunctionalUnit] = None
    # Issue-queue state (see repro.pipeline.scheduler.QueueRecord).
    remaining_sources: int = 0
    is_memory: bool = False
    order: int = 0


class HelperClusterSimulator:
    """Trace-driven timing simulator of the helper-cluster machine."""

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None,
                 policy: Optional[SteeringPolicy] = None,
                 reference_loop: Optional[bool] = None) -> None:
        self.trace = trace
        self.config = config or helper_cluster_config()
        self.policy = policy or BaselineSteering()
        self.topology = self.config.topology
        self.clocking = ClockingModel.from_ratios(
            [spec.clock_ratio for spec in self.topology.clusters])

        # Substrate structures.  One backend per topology cluster; cluster 0
        # is the host (wide) backend, everything after it a helper.
        self.frontend = Frontend(trace, fetch_width=self.config.fetch_width,
                                 trace_cache=TraceCache(self.config.trace_cache))
        self.clusters: List[Backend] = [
            Backend(spec, self.config, self.clocking, index=i)
            for i, spec in enumerate(self.topology.clusters)]
        self.wide = self.clusters[0]
        self.helpers: List[Backend] = self.clusters[1:]
        # Cluster-targeted steering: the policy's selector (or the default
        # least-loaded one) resolves steering decisions to concrete clusters.
        selector: Optional[ClusterSelector] = getattr(self.policy, "selector", None)
        self.selector = selector if selector is not None else LeastLoadedSelector()
        self.selector.bind(self.topology, self.clusters)
        self.rob = ReorderBuffer(size=self.config.rob_size,
                                 commit_width=self.config.commit_width)
        self.mob = MemoryOrderBuffer()
        self.memory = MemoryHierarchy(self.config.memory)
        self.rename = RenameTable()
        #: dispatch waits until this fast cycle after a flushing recovery
        self._dispatch_blocked_until = 0

        # Core mechanisms.
        self.width_predictor = WidthPredictor(
            entries=self.config.predictor.table_entries,
            use_confidence=self.config.predictor.use_confidence,
            confidence_threshold=self.config.predictor.confidence_threshold)
        self.copy_engine = CopyEngine(num_domains=len(self.clusters))
        helper_capacity = (sum(spec.queue_size for spec in self.topology.helpers)
                           or self.topology.host.queue_size)
        self.imbalance = ImbalanceMonitor(
            queue_size=helper_capacity,
            wide_queue_size=self.topology.host.queue_size)
        self._narrow_width = self.config.narrow_width
        self.splitter = InstructionSplitter(narrow_width=self._narrow_width)
        self.context = SteeringContext(
            config=self.config, width_predictor=self.width_predictor,
            rename=self.rename, imbalance=self.imbalance,
            copy_engine=self.copy_engine, splitter=self.splitter,
            selector=self.selector)

        # Dynamic state.  ``_completions`` is the completion calendar: fast
        # cycle -> bucket of completing dyn uops, in issue order.
        # ``_waiters`` maps (producer value uid, cluster) — or ("chunk",
        # predecessor dyn_id) for IR chunk chains — to the uops waiting on it.
        self._dyn_counter = 0
        self._completions: Dict[int, List[_DynUop]] = {}
        self._waiters: Dict[Tuple[object, int], List[_DynUop]] = {}
        self._redispatch: Deque[_DynUop] = deque()
        self._pending_fetch: Deque[FetchedUop] = deque()
        self._dl0_slots: Dict[int, int] = {}
        self._current_completing: List[_DynUop] = []
        self._copied_values: set = set()
        self._prefetched_values: set = set()

        # Result accumulation.  One activity record per cluster (keyed by
        # spec name in the result; indexed by cluster in the hot path) feeds
        # the per-cluster power model.
        self.result = SimulationResult(benchmark=trace.name, policy=self.policy.name,
                                       selector=self.selector.name)
        self._cluster_acts: List[ClusterActivity] = [
            ClusterActivity(name=spec.name, datapath_width=spec.datapath_width,
                            clock_ratio=spec.clock_ratio)
            for spec in self.topology.clusters]
        self._prediction = PredictionBreakdown()
        self._helper_committed = 0
        self._split_committed = 0

        # Hot-loop invariants, hoisted once.
        self._steer = self.policy.steer
        self._predict = self.width_predictor.predict
        self._activity = self.result.activity
        self._ratio = self.clocking.ratio
        self._periods = self.clocking.periods
        self._fetch_width = self.config.fetch_width
        self._dl0_hit_fast = (self.config.memory.dl0.hit_latency - 1) * self.clocking.ratio
        self._helper_enabled = bool(self.helpers)
        # Width horizon the selector wants values classified at (equals
        # config.narrow_width for the default selector, so the paper's
        # machines are untouched), plus per-cluster datapath widths for the
        # fatal-misprediction check against the executing cluster.
        self._steer_width = self.selector.steering_width(self.config, self.topology)
        self._track_width = self.selector.wants_width_bits
        self._cluster_widths = [spec.datapath_width
                                for spec in self.topology.clusters]
        self._uses_cp = getattr(self.policy, "uses_copy_prefetch", False)
        self._uses_lr = getattr(self.policy, "uses_load_replication", False)

        # Event wheel.  ``_completion_heap`` mirrors the keys of
        # ``_completions`` (a calendar of upcoming writeback cycles, with
        # lazily discarded stale heads), so the next completion is an O(1)
        # peek instead of a min() scan.  ``_helper_wheel`` pre-binds each
        # helper backend's issue queue, ready set and clock period for the
        # per-cycle issue/sampling/advance paths.
        self._completion_heap: List[int] = []
        self._helper_wheel: List[Tuple[Backend, IssueQueue, Dict, int]] = [
            (backend, backend.issue_queue, backend.issue_queue.ready_entries,
             self._periods[backend.index])
            for backend in self.helpers]
        #: optional commit observer: called as ``hook(retired, t)`` with the
        #: just-retired ROB records and the fast cycle.  The differential
        #: fuzz harness (repro.fuzz) attaches an in-order-retirement checker
        #: here; the default None costs one attribute test per retiring
        #: cycle and leaves results untouched.
        self.commit_hook = None
        #: run the straightforward per-cycle reference loop instead of the
        #: event wheel (REPRO_REFERENCE_LOOP=1); results are bit-identical
        if reference_loop is None:
            reference_loop = os.environ.get("REPRO_REFERENCE_LOOP", "") == "1"
        self._reference_loop = reference_loop

    # ======================================================================
    # public API
    # ======================================================================
    def run(self) -> SimulationResult:
        """Run the trace to completion and return the filled-in result.

        This is the event-wheel core: each iteration handles one *eventful*
        fast cycle (writeback → issue → commit/dispatch on wide edges →
        sampling) and then :meth:`_next_event` jumps straight to the next
        cycle on which anything can happen.  The straightforward per-cycle
        loop is kept behind ``REPRO_REFERENCE_LOOP=1``
        (:meth:`_run_reference`); both produce bit-identical results.
        """
        if self._reference_loop:
            return self._run_reference()
        limit = _MAX_CYCLES_PER_UOP * max(1, len(self.trace)) + 100_000
        stall_window = 60_000  # fast cycles with zero retirement => wedged
        t = 0
        last_progress_cycle = 0
        last_committed = 0
        ratio = self._ratio
        result = self.result
        completions = self._completions
        helper_wheel = self._helper_wheel
        wide_ready = self.wide.issue_queue.ready_entries
        helper_sampling = self._helper_enabled
        next_event = self._next_event
        while not self._done():
            if t > limit or t - last_progress_cycle > stall_window:
                raise RuntimeError(
                    f"no forward progress after {t - last_progress_cycle} fast cycles "
                    f"at cycle {t}; likely deadlock "
                    f"(trace={self.trace.name}, policy={self.policy.name})")
            if t in completions:
                self._writeback(t)
            for backend, _iq, ready, period in helper_wheel:
                if ready and (period == 1 or t % period == 0):
                    self._issue_backend(backend, t)
            if t % ratio == 0:
                if wide_ready:
                    self._issue_backend(self.wide, t)
                self._commit(t)
                self._dispatch(t)
            if helper_sampling:
                self._sample_imbalance(t)
            if result.committed_uops > last_committed:
                last_committed = result.committed_uops
                last_progress_cycle = t
            target, idle = next_event(t)
            if idle and helper_sampling and target > t + 1:
                self._record_idle_cycles(target - t - 1)
            t = target
        self._finalise(t)
        return self.result

    def _run_reference(self) -> SimulationResult:
        """The straightforward per-cycle loop (``REPRO_REFERENCE_LOOP=1``).

        Every fast cycle is visited and runs the full stage schedule.  The
        only accounting subtlety is inherited, not new: the pre-existing
        long-wait skip (nothing ready anywhere, completions pending) defines
        *semantics* — its cycles are unsampled and its frontend/commit
        schedule is pinned by the golden tests — so the reference loop walks
        those stretches cycle by cycle with writeback/issue (which provably
        no-op) and no sampling, exactly as the event wheel accounts them.
        Idle stretches are sampled one cycle at a time, which must equal the
        event wheel's single aggregate sample; the equivalence test pins the
        full :class:`SimulationResult` either way.
        """
        limit = _MAX_CYCLES_PER_UOP * max(1, len(self.trace)) + 100_000
        stall_window = 60_000  # fast cycles with zero retirement => wedged
        t = 0
        last_progress_cycle = 0
        last_committed = 0
        ratio = self._ratio
        result = self.result
        while not self._done():
            if t > limit or t - last_progress_cycle > stall_window:
                raise RuntimeError(
                    f"no forward progress after {t - last_progress_cycle} fast cycles "
                    f"at cycle {t}; likely deadlock "
                    f"(trace={self.trace.name}, policy={self.policy.name})")
            self._writeback(t)
            self._issue(t)
            if t % ratio == 0:
                self._commit(t)
                self._dispatch(t)
            if self._helper_enabled:
                self._sample_imbalance(t)
            if result.committed_uops > last_committed:
                last_committed = result.committed_uops
                last_progress_cycle = t
            target, idle = self._next_event(t)
            cursor = t + 1
            while cursor < target:
                # Walk the stretch the event wheel hops over: each cycle runs
                # writeback and issue (no completion is due and no active
                # backend has ready work, so both no-op) and contributes its
                # own single-cycle sample when the stretch is idle-sampled.
                self._writeback(cursor)
                self._issue(cursor)
                if idle and self._helper_enabled:
                    self._record_idle_cycles(1)
                cursor += 1
            t = target
        self._finalise(t)
        return self.result

    # ======================================================================
    # termination / time advance
    # ======================================================================
    def _done(self) -> bool:
        return (not self._completions and not self._redispatch
                and not self._pending_fetch and self.frontend.exhausted
                and self.rob.is_empty())

    def _next_completion(self) -> Optional[int]:
        """Earliest upcoming writeback cycle (the completion calendar's head).

        Stale heads — cycles already consumed by :meth:`_writeback` — are
        discarded lazily, so the amortised cost is O(log n) per completion
        instead of an O(n) ``min()`` scan per advance.
        """
        heap = self._completion_heap
        completions = self._completions
        while heap:
            head = heap[0]
            if head in completions:
                return head
            heappop(heap)
        return None

    # hot-path
    def _next_event(self, t: int) -> Tuple[int, bool]:
        """The next fast cycle on which anything can happen, and whether the
        cycles skipped to reach it are idle-sampled.

        The wheel consults three next-action times: the earliest clock edge
        of a helper backend with ready work, the completion calendar's head,
        and the next wide-domain dispatch/commit boundary (only when the wide
        backend has ready work, or dispatch could make progress).  Three
        cases, in order:

        * a helper scheduler with ready work is active on the very next fast
          cycle — time advances by one;
        * event skip (long memory waits): nothing is ready in any cluster
          active before the next event and completions are pending — jump to
          the next completion, or the next wide cycle if dispatch could make
          progress.  These skipped cycles are not sampled (``idle=False``),
          preserving the original accounting;
        * idle hop: no backend can act strictly before the next wide cycle
          (or completion, or ready helper's clock edge).  Hop there; the
          skipped cycles' — provably frozen — occupancy statistics fold in
          as one aggregate sample (``idle=True``).
        """
        next_t = t + 1
        # Earliest upcoming cycle at which a helper with ready work is active
        # (period-1 helpers, the common case, bound it to ``next_t``).
        helper_bound: Optional[int] = None
        for _backend, _iq, ready, period in self._helper_wheel:
            if not ready:
                continue
            if period == 1:
                return next_t, False
            remainder = next_t % period
            if remainder == 0:
                return next_t, False
            nxt = next_t + (period - remainder)
            if helper_bound is None or nxt < helper_bound:
                helper_bound = nxt
        completions = self._completions
        ratio = self._ratio
        if completions and not self.wide.issue_queue.ready_entries:
            next_event = self._next_completion()
            # Dispatch may still make progress at the next wide cycle if
            # there is anything to dispatch and room to put it.
            if ((not self.frontend.exhausted or self._redispatch
                 or self._pending_fetch) and not self.rob.is_full()):
                remainder = next_t % ratio
                next_wide = (next_t if remainder == 0
                             else next_t + (ratio - remainder))
                if next_wide < next_event:
                    next_event = next_wide
            if helper_bound is not None and helper_bound < next_event:
                next_event = helper_bound
            if next_event > next_t:
                return next_event, False
            return next_t, False
        remainder = next_t % ratio
        target = next_t if remainder == 0 else next_t + (ratio - remainder)
        next_completion = self._next_completion()
        if next_completion is not None and next_completion < target:
            target = next_completion
        if helper_bound is not None and helper_bound < target:
            target = helper_bound
        if target > next_t and self._done():
            # The machine may already be fully drained (the run loop is about
            # to observe completion); keep the original final-cycle count.
            return next_t, False
        return target, True

    # hot-path
    def _record_idle_cycles(self, cycles: int) -> None:
        """Fold ``cycles`` skipped no-op cycles into the sampling statistics.

        During an idle hop no queue changes and no active helper queue has
        anything ready, so each skipped cycle would have recorded the same
        occupancy terms and zero NREADY terms.
        """
        wide_iq = self.wide.issue_queue
        helper_occupancy = 0
        for backend in self.helpers:
            helper_occupancy += len(backend.issue_queue)
        self.imbalance.record_idle_cycles(len(wide_iq), helper_occupancy, cycles)
        wide_iq.sample_occupancy(cycles)
        for backend in self.helpers:
            backend.issue_queue.sample_occupancy(cycles)

    # ======================================================================
    # writeback stage
    # ======================================================================
    # hot-path
    def _writeback(self, t: int) -> None:
        completing = self._completions.pop(t, None)
        if not completing:
            return
        # Recovery must be able to squash same-cycle completions that are
        # younger than the mispredicted uop, so keep the list visible.
        self._current_completing = completing
        for dyn in completing:
            if dyn.squashed:
                continue
            kind = dyn.kind
            if kind == "trace":
                # Marks itself completed only if no recovery is triggered.
                self._complete_trace_uop(dyn, t)
                continue
            dyn.completed = True
            if kind == "copy":
                self._complete_copy(dyn, t)
            else:
                self._complete_chunk(dyn, t)

    def _complete_copy(self, dyn: _DynUop, t: int) -> None:
        request = dyn.copy_request
        assert request is not None
        self.copy_engine.complete_copy(request, t)
        backend = self._backend(dyn.domain)
        backend.stats.copies_executed += 1
        self._wake((request.value_uid, request.to_domain))

    def _complete_chunk(self, dyn: _DynUop, t: int) -> None:
        backend = self._backend(dyn.domain)
        backend.stats.split_chunks += 1
        self._wake(("chunk", dyn.dyn_id))
        parent = dyn.parent
        assert parent is not None
        if dyn.is_last_chunk:
            # The reassembled value becomes architecturally available in the
            # narrow cluster once the most-significant chunk completes.
            if parent.value_uid is not None:
                self.copy_engine.note_produced(parent.value_uid, dyn.domain, t)
                self._wake((parent.value_uid, dyn.domain))
                if parent.uop is not None and parent.uop.has_dest:
                    self.rename.writeback(parent.uop.dest, parent.value_uid,
                                          narrow=False, domain=dyn.domain)
                if parent.uop is not None and parent.uop.info.writes_flags:
                    self.rename.writeback(ArchReg.FLAGS, parent.value_uid,
                                          narrow=True, domain=dyn.domain)
            parent.completed = True

    # hot-path
    def _complete_trace_uop(self, dyn: _DynUop, t: int) -> None:
        uop = dyn.uop
        info = uop.info
        domain = dyn.domain
        decision = dyn.decision
        self.clusters[domain].stats.completed += 1

        result_width = uop.result_width
        actual_narrow = result_width <= self._steer_width
        has_dest = uop.has_dest

        # Fatal width misprediction detection: only instructions steered to
        # a narrow backend on a prediction can be fatally wrong (§3.2).  The
        # check is against the *executing* cluster's datapath width — on the
        # paper's machine every helper is narrow_width bits wide so this is
        # the original check; on asymmetric mixes a 12-bit value completing
        # on a 16-bit helper is correct, not a misprediction.
        fatal = False
        if domain != _WIDE and decision is not None:
            if decision.predicted_narrow:
                width = self._cluster_widths[domain]
                fatal = uop.src_width > width or result_width > width
            elif decision.via_cr:
                fatal = cr_carry_crosses(uop, self._narrow_width)

        # Figure 5 accounting: every result-producing uop whose width was
        # predicted contributes one outcome.
        predicted_narrow = dyn.predicted_narrow
        if has_dest and predicted_narrow is not None:
            if predicted_narrow == actual_narrow:
                self._prediction.correct += 1
            elif domain != _WIDE and predicted_narrow:
                self._prediction.fatal += 1
            else:
                self._prediction.non_fatal += 1

        # Predictor training happens at writeback regardless of cluster.
        track_width = self._track_width
        if has_dest:
            self.width_predictor.update(
                uop.pc, actual_narrow,
                width_bits=result_width if track_width else None)
        if info.cr_eligible:
            self.width_predictor.update_carry(
                uop.pc, cr_operated_narrow(uop, self._narrow_width))

        if fatal:
            self._recover(dyn, t)
            return

        # Successful completion: publish the value (register result and/or
        # FLAGS write travel together) and wake consumers in this cluster.
        value_uid = dyn.value_uid
        if value_uid is not None:
            self.copy_engine.note_produced(value_uid, domain, t)
            if has_dest:
                self.rename.writeback(
                    uop.dest, value_uid, narrow=actual_narrow,
                    domain=domain,
                    width_bits=result_width if track_width else None)
            if info.writes_flags:
                self.rename.writeback(ArchReg.FLAGS, value_uid, narrow=True,
                                      domain=domain)
            self._wake((value_uid, domain))
            if dyn.replicate_load and info.is_load and actual_narrow:
                # LR (§3.4): the narrow load value is written into every
                # cluster's register file through the shared MOB.  A value
                # too wide for a cluster's register file cannot be replicated
                # there; that case is simply a missed opportunity (on the
                # paper's machine every helper is narrow_width bits wide, so
                # the per-cluster fit check degenerates to the old gate).
                self.copy_engine.note_replicated(value_uid, t)
                widths = self._cluster_widths
                for other in range(len(self.clusters)):
                    if other != domain and result_width <= widths[other]:
                        self._wake((value_uid, other))
        dyn.completed = True
        # A re-executed uop retires through the record its squashed original
        # keeps in the ROB; a no-op if that original has already retired.
        record = self.rob.by_uid.get(uop.uid)
        if record is not None:
            record.completed = True

    # --------------------------------------------------------------- recovery
    def _recover(self, trigger: _DynUop, t: int) -> None:
        """Flushing recovery (§3.2): squash from the mispredicted uop onward.

        The flush covers every helper cluster: younger work in a sibling
        helper may depend (through copies) on values being squashed here, so
        partial flushes could strand waiters.
        """
        seq = trigger.seq
        # Dispatch waits out the detecting cluster's re-steer penalty.
        penalty_slow = self.topology.clusters[trigger.domain].flush_penalty_slow
        self._dispatch_blocked_until = max(self._dispatch_blocked_until,
                                           t + penalty_slow * self._ratio)
        # The trigger never marked itself completed, so flag it squashed now
        # for the in-flight scan below to skip; it is appended last instead.
        trigger.squashed = True
        squashed: List[_DynUop] = []
        cancelled: List[CopyRequest] = []
        for backend in self.helpers:
            for dyn in backend.issue_queue.flush_from(seq):
                if dyn.kind == "copy":
                    request = dyn.copy_request
                    assert request is not None
                    # A copy whose source value is already resident in the
                    # producer cluster is still architecturally useful (its
                    # producer is older than the flush point and not being
                    # re-executed), so it survives the flush.  Only copies of
                    # values that are themselves being squashed are dropped;
                    # their consumers elsewhere are woken by the re-executed
                    # producer instead.
                    if self.copy_engine.availability(request.value_uid,
                                                     request.from_domain) is not None:
                        backend.issue_queue.insert(dyn, force=True)
                    else:
                        dyn.squashed = True
                        self.copy_engine.cancel_copy(request)
                        cancelled.append(request)
                    continue
                dyn.squashed = True
                squashed.append(dyn)
        # In-flight (issued, not yet completed) helper-cluster work younger
        # than the trigger is squashed as well — including anything completing
        # later in this very cycle.
        in_flight_groups = list(self._completions.values())
        in_flight_groups.append(self._current_completing)
        for dyns in in_flight_groups:
            for dyn in dyns:
                if (dyn.domain != _WIDE and dyn.seq >= seq
                        and not dyn.completed and not dyn.squashed
                        and dyn.kind != "copy"):
                    dyn.squashed = True
                    squashed.append(dyn)

        # The trigger itself re-executes in the wide backend.
        squashed.append(trigger)

        # Squashed uops stay on the waiter lists they joined, and the
        # re-executed producer completes in the wide cluster, so some of
        # those lists are never woken again.  Prune the squashed entries
        # from every list the squashed work can sit on: its producers' keys
        # in its pre-flush cluster (the redispatch loop below rewrites
        # ``domain``, so this runs first), its own chunk-chain key, and both
        # keys of each cancelled copy.  Survivors keep their FIFO order.
        for request in cancelled:
            self._prune_waiters((request.value_uid, request.from_domain))
            self._prune_waiters((request.value_uid, request.to_domain))
        for dyn in squashed:
            domain = dyn.domain
            for producer_uid in dyn.uop.effective_producers:
                self._prune_waiters((producer_uid, domain))
            self._prune_waiters(("chunk", dyn.dyn_id))

        # Collapse chunk squashes onto their parents so the parent re-executes
        # as a single wide instruction.
        parents: Dict[int, _DynUop] = {}
        redispatch: List[_DynUop] = []
        for dyn in squashed:
            if dyn.kind == "chunk":
                parent = dyn.parent
                assert parent is not None
                if parent.dyn_id not in parents:
                    parents[parent.dyn_id] = parent
                continue
            redispatch.append(dyn)
        redispatch.extend(parents.values())
        redispatch.sort(key=lambda d: d.seq)
        for dyn in redispatch:
            # The original record stays in the ROB, where its clone marks it
            # completed; it now reflects wide-cluster execution for
            # commit-time accounting.
            dyn.domain = _WIDE
            fresh = self._clone_for_redispatch(dyn)
            self._redispatch.append(fresh)
        self.result.squashed_uops += len(redispatch)
        self.result.recoveries += 1

    def _prune_waiters(self, key: Tuple[object, int]) -> None:
        """Drop squashed uops from one waiter list (and the list if empty)."""
        waiters = self._waiters.get(key)
        if waiters is None:
            return
        live = [dyn for dyn in waiters if not dyn.squashed]
        if live:
            self._waiters[key] = live
        else:
            del self._waiters[key]

    def _clone_for_redispatch(self, dyn: _DynUop) -> _DynUop:
        """Prepare a squashed trace uop to re-execute in the wide backend."""
        self._dyn_counter += 1
        return _DynUop(
            dyn_id=self._dyn_counter,
            kind="trace",
            seq=dyn.seq,
            domain=_WIDE,
            opcode=dyn.opcode,
            uop=dyn.uop,
            decision=SteerDecision(domain=ClockDomain.WIDE, reason="recovery"),
            value_uid=dyn.value_uid,
            predicted_narrow=None,
            unit=dyn.unit,
        )

    # ======================================================================
    # issue stage
    # ======================================================================
    def _issue(self, t: int) -> None:
        periods = self._periods
        for backend in self.helpers:
            if backend.issue_queue.ready_entries:
                period = periods[backend.index]
                if period == 1 or t % period == 0:
                    self._issue_backend(backend, t)
        if t % self._ratio == 0 and self.wide.issue_queue.ready_entries:
            self._issue_backend(self.wide, t)

    # hot-path
    def _issue_backend(self, backend: Backend, t: int) -> None:
        slow_cycle = t // self._ratio
        dl0_free = self.memory.dl0_ports - self._dl0_slots.get(slow_cycle, 0)
        selected = backend.issue_queue.select(memory_slots=max(0, dl0_free))
        completions = self._completions
        for dyn in selected:
            completion = backend.units.try_issue(dyn.opcode, t, unit=dyn.unit)
            if completion is None:
                # Structural hazard on the functional unit: put the uop back
                # and retry next cycle.  Forced because the uop was resident
                # a moment ago (recovery may have over-filled the queue in
                # the meantime).
                backend.issue_queue.insert(dyn, force=True)
                continue
            if dyn.is_memory:
                completion = self._memory_access(dyn, t, completion, slow_cycle)
            backend.stats.issued += 1
            bucket = completions.get(completion)
            if bucket is None:
                completions[completion] = [dyn]
                heappush(self._completion_heap, completion)
            else:
                bucket.append(dyn)

    def _memory_access(self, dyn: _DynUop, t: int, completion: int,
                       slow_cycle: int) -> int:
        uop = dyn.uop
        assert uop is not None
        if uop.mem_addr is None:
            # Memory uops without a concrete address in the trace (e.g. FP
            # loads whose address the generator does not materialise) are
            # charged the DL0 hit latency.
            return completion + self._dl0_hit_fast
        self._dl0_slots[slow_cycle] = self._dl0_slots.get(slow_cycle, 0) + 1
        if uop.info.is_store:
            latency_slow = self.memory.store(uop.mem_addr)
            # Stores complete (for dependence purposes) once the address and
            # data are known; the cache write happens post-commit.
            return completion
        forwarding = self.mob.forwarding_store(dyn.seq, uop.mem_addr)
        if forwarding is not None:
            latency_slow = 1
        else:
            latency_slow = self.memory.load_latency(uop.mem_addr)
        return completion + (latency_slow - 1) * self._ratio

    # ======================================================================
    # commit stage
    # ======================================================================
    # hot-path
    def _commit(self, t: int) -> None:
        retired = self.rob.commit()
        if not retired:
            return
        if self.commit_hook is not None:
            self.commit_hook(retired, t)
        uses_cp = self._uses_cp
        result = self.result
        steer_reasons = result.steer_reasons
        copied_values = self._copied_values
        for dyn in retired:
            uop = dyn.uop
            decision = dyn.decision
            result.committed_uops += 1
            split = decision is not None and decision.split
            if dyn.domain != _WIDE or split or dyn.kind == "chunk":
                self._helper_committed += 1
            if split:
                self._split_committed += 1
            if uop.info.is_memory:
                self.mob.release(uop.uid)
            # Copy-prefetch predictor training: the producer "incurred a copy"
            # if any consumer demanded one before it retired (§3.6).
            if uses_cp and uop.has_dest:
                self.width_predictor.update_copy(uop.pc, uop.uid in copied_values)
            reason = decision.reason if decision is not None else "none"
            steer_reasons[reason] = steer_reasons.get(reason, 0) + 1

    # ======================================================================
    # dispatch stage
    # ======================================================================
    # hot-path
    def _dispatch(self, t: int) -> None:
        if t < self._dispatch_blocked_until:
            return
        slow_cycle = t // self._ratio
        budget = self._fetch_width

        # Re-dispatch squashed work first (it is older than anything new).
        # Re-dispatch must make forward progress even when the schedulers are
        # congested with younger dependents of the squashed values, so it may
        # temporarily exceed scheduler capacity (``force=True``).
        while budget > 0 and self._redispatch:
            dyn = self._redispatch[0]
            if not self._dispatch_dyn(dyn, t, force=True):
                return
            self._redispatch.popleft()
            budget -= 1

        # Then bring in new trace uops.
        while budget > 0:
            if not self._pending_fetch:
                fetched = self.frontend.fetch(slow_cycle, max_uops=budget)
                if not fetched:
                    break
                self._pending_fetch.extend(fetched)
            while budget > 0 and self._pending_fetch:
                fetched_uop = self._pending_fetch[0]
                consumed = self._dispatch_trace_uop(fetched_uop, t)
                if consumed is None:
                    return  # structural stall; retry next wide cycle
                self._pending_fetch.popleft()
                budget -= consumed

    # ------------------------------------------------------------ trace uops
    # hot-path
    def _dispatch_trace_uop(self, fetched: FetchedUop, t: int) -> Optional[int]:
        """Steer, rename and dispatch one trace uop.

        Returns the number of dispatch slots consumed, or ``None`` if a
        structural hazard (ROB/IQ/MOB full) prevents dispatch this cycle.
        """
        uop = fetched.uop
        if self.rob.is_full():
            return None
        info = uop.info
        if info.is_memory and not self.mob.can_allocate(info.is_store):
            return None

        decision = self._steer(fetched, self.context)
        prediction = decision.prediction
        if uop.has_dest:
            if prediction is None:
                prediction = self._predict(uop.pc)
            predicted_narrow = prediction.narrow
        else:
            predicted_narrow = None
        self._activity.predictor_accesses += 1

        if decision.split:
            return self._dispatch_split(fetched, decision, t)

        # Policies steer wide-vs-helper; the simulator resolves *which*
        # helper cluster (least-loaded, lowest index on ties).
        cluster = self.selector.resolve(decision, uop.opcode)
        backend = self.clusters[cluster]
        iq = backend.issue_queue
        if len(iq.entries) >= iq.size:
            return None

        self._dyn_counter += 1
        dyn = _DynUop(
            dyn_id=self._dyn_counter, kind="trace", seq=fetched.seq,
            domain=cluster, opcode=uop.opcode, uop=uop,
            decision=decision,
            value_uid=uop.uid if (uop.has_dest or info.writes_flags) else None,
            predicted_narrow=predicted_narrow,
            replicate_load=decision.replicate_load and self._uses_lr,
        )
        if not self._dispatch_dyn(dyn, t, allocate_rob=True):
            return None
        return 1

    # hot-path
    def _dispatch_dyn(self, dyn: _DynUop, t: int, fetched: Optional[FetchedUop] = None,
                      allocate_rob: bool = False, force: bool = False) -> bool:
        """Place a dynamic uop into its backend's scheduler, wiring dependences."""
        uop = dyn.uop
        backend = self.clusters[dyn.domain]
        iq = backend.issue_queue
        if not force and len(iq.entries) >= iq.size:
            return False
        if dyn.unit is None:
            dyn.unit = backend.units.unit_for(dyn.opcode)

        # Resolve source dependences (and generate demand copies).
        outstanding = self._resolve_dependences(dyn, t, force=force)
        if outstanding is None:
            return False

        activity = self._activity
        info = uop.info
        if allocate_rob:
            self.rob.allocate(uop.uid, dyn)
            activity.rob_ops += 1
            if info.is_memory:
                self.mob.allocate(uop.uid, dyn.seq, info.is_store, uop.mem_addr)
            # Rename the destination and record the steering domain so later
            # consumers know where the value will live (§3.2 width table).
            decision = dyn.decision
            if uop.has_dest:
                predicted_narrow = (dyn.predicted_narrow
                                    if dyn.predicted_narrow is not None else True)
                width_bits = None
                if self._track_width:
                    prediction = (decision.prediction
                                  if decision is not None else None)
                    if prediction is not None:
                        width_bits = prediction.width_bits
                self.rename.allocate(uop.dest, uop.uid, dyn.domain,
                                     predicted_narrow, width_bits=width_bits)
                if decision is not None and decision.via_cr and uop.srcs:
                    # First wide source wins; a first-match loop avoids
                    # building the full wide-source list per uop.
                    src_values = uop.src_values
                    narrow_width = self._narrow_width
                    for i, r in enumerate(uop.srcs):
                        if (i < len(src_values)
                                and not is_narrow(src_values[i], narrow_width)):
                            self.rename.link_upper_bits(uop.dest, r)
                            break
            if info.writes_flags:
                self.rename.allocate(ArchReg.FLAGS, uop.uid, dyn.domain, True)
            activity.rename_ops += 1

        dyn.remaining_sources = outstanding
        dyn.is_memory = info.is_memory
        iq.insert(dyn, force=force)
        backend.stats.dispatched += 1
        self._account_dispatch(dyn, backend)

        # Copy prefetching (§3.6): generate the copy at the producer.
        if allocate_rob and uop.has_dest and self._uses_cp:
            self._maybe_prefetch_copy(dyn, t)
        return True

    def _account_dispatch(self, dyn: _DynUop, backend: Backend) -> None:
        cluster = self._cluster_acts[backend.index]
        cluster.scheduler_ops += 1
        cluster.regfile_accesses += 3
        unit = dyn.unit
        if unit is None:
            unit = backend.units.unit_for(dyn.opcode)
        kind = _UNIT_ACCOUNT.get(unit)
        if kind == 0:
            cluster.alu_ops += 1
        elif kind == 1:
            cluster.agu_ops += 1
        elif kind == 2:
            cluster.fpu_ops += 1

    # -------------------------------------------------------- dependences
    # hot-path
    def _resolve_dependences(self, dyn: _DynUop, t: int,
                             force: bool = False) -> Optional[int]:
        """Count outstanding sources and generate any demand copies.

        For each source value the possibilities are:

        * already available in this cluster — no dependence;
        * in flight (or resident) in this cluster — wait for it (wakeup);
        * in flight or resident only in the *other* cluster — generate a
          demand copy in the producer's cluster (unless one is already in
          flight toward this cluster) and wait for its delivery;
        * unknown (produced and retired before tracking, or a trace live-in)
          — architectural state, available everywhere.

        Returns the number of outstanding source values, or ``None`` if a
        needed copy cannot be injected because the producer cluster's
        scheduler is full (the caller stalls dispatch).
        """
        producers = dyn.uop.effective_producers
        if not producers:
            return 0
        domain = dyn.domain
        copy_engine = self.copy_engine
        availability = copy_engine.availability_map
        pending_copies = copy_engine.pending_map
        prefetched = self._prefetched_values
        rob_by_uid = self.rob.by_uid
        waiters = self._waiters
        outstanding = 0
        needed_copies: Optional[List[Tuple[int, ClockDomain]]] = None
        deps: Optional[List[int]] = None

        for producer_uid in producers:
            slots = availability.get(producer_uid)
            avail_here = None if slots is None else slots.get(domain)
            if avail_here is not None and avail_here <= t:
                if prefetched and (producer_uid, domain) in prefetched:
                    copy_engine.stats.useful_prefetches += 1
                    prefetched.discard((producer_uid, domain))
                    # A consumed prefetch keeps the producer's CP bit trained.
                    self._copied_values.add(producer_uid)
                continue
            producer = rob_by_uid.get(producer_uid)
            producer_domain = None if producer is None else producer.domain
            if producer_domain is None and not slots:
                # Retired before tracking or trace live-in: architectural
                # state visible to both register files.
                continue
            pending = pending_copies.get(producer_uid)
            copy_pending = pending is not None and domain in pending
            if copy_pending and prefetched and (producer_uid, domain) in prefetched:
                # The consumer will ride an in-flight prefetched copy.
                copy_engine.stats.useful_prefetches += 1
                prefetched.discard((producer_uid, domain))
                self._copied_values.add(producer_uid)
            if avail_here is None and not copy_pending:
                source_domain = producer_domain
                if source_domain is None or source_domain == domain:
                    # The producer record says "this cluster" but the value is
                    # only resident elsewhere (e.g. it migrated on recovery).
                    source_domain = None
                    if slots:
                        for d in slots:
                            if d != domain:
                                source_domain = d
                                break
                if source_domain is not None and source_domain != domain:
                    if needed_copies is None:
                        needed_copies = []
                    needed_copies.append((producer_uid, source_domain))
            if deps is None:
                deps = [producer_uid]
            else:
                deps.append(producer_uid)
            outstanding += 1

        if needed_copies is not None:
            # Check the producer clusters have scheduler room for all the
            # copies this uop needs before injecting any of them (unless
            # forced by recovery re-dispatch, which must not stall
            # indefinitely).
            if not force:
                slots_needed: Dict[ClockDomain, int] = {}
                for _, producer_domain in needed_copies:
                    slots_needed[producer_domain] = slots_needed.get(producer_domain, 0) + 1
                for producer_domain, count in slots_needed.items():
                    if self.clusters[producer_domain].issue_queue.free_slots < count:
                        return None
            for producer_uid, producer_domain in needed_copies:
                self._inject_copy(producer_uid, producer_domain, domain, t,
                                  prefetch=False, force=force)
        if deps is not None:
            for producer_uid in deps:
                key = (producer_uid, domain)
                bucket = waiters.get(key)
                if bucket is None:
                    waiters[key] = [dyn]
                else:
                    bucket.append(dyn)
        return outstanding

    # ------------------------------------------------------------ copies
    def _inject_copy(self, value_uid: int, from_domain: ClockDomain,
                     to_domain: ClockDomain, t: int, prefetch: bool,
                     force: bool = False) -> None:
        request = self.copy_engine.request_copy(value_uid, from_domain, to_domain,
                                                prefetch=prefetch)
        if not prefetch:
            # The CP predictor learns from *demand* copies (and from consumed
            # prefetches, recorded when a consumer uses one); counting the
            # prefetches themselves would make the bit self-reinforcing.
            self._copied_values.add(value_uid)
        if prefetch:
            self._prefetched_values.add((value_uid, to_domain))
        self.result.copies += 1
        if prefetch:
            self.result.prefetched_copies += 1
        self.result.activity.copies += 1
        self._dyn_counter += 1
        producer_seq = self._seq_of_value(value_uid)
        dyn = _DynUop(
            dyn_id=self._dyn_counter, kind="copy", seq=producer_seq,
            domain=from_domain, opcode=Opcode.COPY, copy_request=request,
            value_uid=value_uid, unit=FunctionalUnit.COPY)
        # The copy depends on the value being available in the producer
        # cluster (it reads the producer's register file).
        avail = self.copy_engine.availability(value_uid, from_domain)
        if avail is None or avail > t:
            dyn.remaining_sources = 1
            self._waiters.setdefault((value_uid, from_domain), []).append(dyn)
        self._backend(from_domain).issue_queue.insert(dyn, force=force)

    def _seq_of_value(self, value_uid: int) -> int:
        record = self.rob.by_uid.get(value_uid)
        return 0 if record is None else record.seq

    def _maybe_prefetch_copy(self, dyn: _DynUop, t: int) -> None:
        """§3.6 hybrid policy: CP bit predicts narrow-to-wide copies, the
        result-width predictor predicts wide-to-narrow copies."""
        uop = dyn.uop
        assert uop is not None and uop.has_dest
        prediction = dyn.decision.prediction if dyn.decision is not None else None
        if prediction is None:
            prediction = self.width_predictor.predict(uop.pc)
        target: Optional[int] = None
        if dyn.domain != _WIDE and prediction.will_copy:
            target = _WIDE
        elif (dyn.domain == _WIDE and prediction.narrow
              and prediction.confident and prediction.will_copy):
            # Prefetch toward the currently least-loaded helper (index 1 in
            # the paper's machine).  With several helpers this is a guess —
            # the consumer is steered independently at its own dispatch time
            # and may land elsewhere, in which case the prefetch is wasted
            # and a demand copy is generated anyway (normal prefetch
            # speculation; the CP accuracy stats account for it).
            target = self._select_helper_cluster()
        if target is None:
            return
        if (self.copy_engine.copy_in_flight(uop.uid, target)
                or self.copy_engine.availability(uop.uid, target) is not None):
            return
        if self.clusters[dyn.domain].issue_queue.is_full():
            return
        self._inject_copy(uop.uid, dyn.domain, target, t, prefetch=True)

    # -------------------------------------------------------------- splitting
    def _dispatch_split(self, fetched: FetchedUop, decision: SteerDecision,
                        t: int) -> Optional[int]:
        """IR (§3.7): replace a wide uop with four chained narrow chunks."""
        uop = fetched.uop
        plan = self.splitter.plan(uop)
        if plan is None:
            # The splitter refused (e.g. IR-nodest and the uop has a dest);
            # fall back to a plain wide dispatch.
            decision = SteerDecision(domain=ClockDomain.WIDE, reason="split_rejected")
            self._dyn_counter += 1
            dyn = _DynUop(dyn_id=self._dyn_counter, kind="trace", seq=fetched.seq,
                          domain=_WIDE, opcode=uop.opcode, uop=uop,
                          decision=decision,
                          value_uid=uop.uid if uop.has_dest else None)
            if not self._dispatch_dyn(dyn, t, allocate_rob=True):
                return None
            return 1

        # The whole chunk chain lives in one helper cluster (the chunks are
        # serially dependent, so spreading them would only add copies).
        cluster = self._select_helper_cluster(uop.opcode)
        if cluster is None:
            return None
        helper_backend = self.clusters[cluster]
        narrow_queue = helper_backend.issue_queue
        # The chunks and the copy-back burst all occupy narrow-cluster
        # scheduler entries (copies execute in the producer's cluster).
        needed_narrow = plan.num_chunks + (1 if plan.copy_backs and uop.has_dest else 0)
        if narrow_queue.free_slots < needed_narrow or self.rob.is_full():
            return None

        # The parent is a bookkeeping record: it owns the ROB entry and the
        # produced value, but never enters an issue queue itself.
        self._dyn_counter += 1
        info = uop.info
        produces_value = uop.has_dest or info.writes_flags
        parent = _DynUop(
            dyn_id=self._dyn_counter, kind="trace", seq=fetched.seq,
            domain=cluster, opcode=uop.opcode, uop=uop,
            decision=decision, value_uid=uop.uid if produces_value else None)
        self.rob.allocate(uop.uid, parent)
        self.result.activity.rob_ops += 1
        self.result.activity.rename_ops += 1
        if info.is_memory:
            self.mob.allocate(uop.uid, fetched.seq, info.is_store, uop.mem_addr)
        if uop.has_dest:
            self.rename.allocate(uop.dest, uop.uid, cluster, False)
        if info.writes_flags:
            self.rename.allocate(ArchReg.FLAGS, uop.uid, cluster, True)

        # Source dependences are attached to the least-significant chunk; the
        # remaining chunks chain on their predecessor (carry order, §3.7).
        previous: Optional[_DynUop] = None
        for chunk in plan.chunks:
            self._dyn_counter += 1
            chunk_dyn = _DynUop(
                dyn_id=self._dyn_counter, kind="chunk", seq=fetched.seq,
                domain=cluster, opcode=chunk.opcode, uop=uop,
                parent=parent, chunk_index=chunk.chunk_index,
                is_last_chunk=(chunk.chunk_index == plan.num_chunks - 1),
                unit=helper_backend.units.unit_for(chunk.opcode))
            if chunk.chunk_index == 0:
                chunk_dyn.remaining_sources = (
                    self._resolve_dependences(chunk_dyn, t) or 0)
            elif chunk.depends_on_previous and previous is not None:
                chunk_dyn.remaining_sources = 1
                self._waiters.setdefault(("chunk", previous.dyn_id), []).append(chunk_dyn)
            narrow_queue.insert(chunk_dyn)
            helper_backend.stats.dispatched += 1
            self._account_dispatch(chunk_dyn, helper_backend)
            previous = chunk_dyn

        # Copy-backs prefetch the reassembled 32-bit value to the wide cluster.
        if plan.copy_backs and uop.has_dest:
            # Modelled as a single burst transfer of the four byte copies;
            # the copy *count* reflects all four (§3.7 copy statistics).
            self._inject_copy(uop.uid, cluster, _WIDE, t, prefetch=True)
            self.result.copies += plan.copy_backs - 1
            self.result.activity.copies += plan.copy_backs - 1

        self.result.split_uops += 1
        return 1

    # ======================================================================
    # wakeup plumbing
    # ======================================================================
    # hot-path
    def _wake(self, key: Tuple[object, int]) -> None:
        """One source of each live uop waiting on ``key`` — a (value uid,
        cluster) pair or an IR chunk chain's ("chunk", dyn_id) — is ready.

        This is the issue queue's wake step, done on its live views: the
        woken uop's ``remaining_sources`` drops, and at zero it joins the
        queue's ready set.
        """
        waiters = self._waiters.pop(key, None)
        if not waiters:
            return
        clusters = self.clusters
        for dyn in waiters:
            if dyn.squashed:
                continue
            iq = clusters[dyn.domain].issue_queue
            uid = dyn.dyn_id
            if uid not in iq.entries:
                continue
            remaining = dyn.remaining_sources - 1
            if remaining <= 0:
                remaining = 0
                iq.ready_entries[uid] = dyn
            dyn.remaining_sources = remaining

    # ======================================================================
    # sampling / finalisation
    # ======================================================================
    # hot-path
    def _sample_imbalance(self, t: int) -> None:
        """Record this cycle's NREADY / occupancy statistics.

        The arithmetic is ``ImbalanceMonitor.record_cycle`` +
        ``IssueQueue.sample_occupancy`` fused into one pass over the
        backends — identical integer accumulations, one call per cycle.
        """
        if not self._helper_enabled:
            return
        wide_iq = self.wide.issue_queue
        helper_ready = 0
        helper_free = 0
        helper_occupancy = 0
        for _backend, iq, ready, period in self._helper_wheel:
            occupancy = len(iq.entries)
            helper_occupancy += occupancy
            if period == 1 or t % period == 0:
                helper_ready += len(ready)
                helper_free += iq.issue_width
            iq.total_occupancy_samples += 1
            iq.occupancy_accum += occupancy
            iq.ready_not_issued_accum += len(ready)
        wide_occupancy = len(wide_iq.entries)
        wide_ready_count = len(wide_iq.ready_entries)
        if t % self._ratio == 0:
            wide_ready_blocked = wide_ready_count
            wide_free = wide_iq.issue_width
        else:
            wide_ready_blocked = 0
            wide_free = 0
        imbalance = self.imbalance
        imbalance.samples += 1
        opportunities = wide_occupancy + helper_occupancy
        imbalance.issue_opportunities += opportunities if opportunities > 1 else 1
        imbalance.wide_to_narrow_nready += (
            wide_ready_blocked if wide_ready_blocked < helper_free else helper_free)
        imbalance.narrow_to_wide_nready += (
            helper_ready if helper_ready < wide_free else wide_free)
        imbalance.wide_occupancy_accum += wide_occupancy
        imbalance.narrow_occupancy_accum += helper_occupancy
        imbalance.last_wide_occupancy = wide_occupancy
        imbalance.last_narrow_occupancy = helper_occupancy
        wide_iq.total_occupancy_samples += 1
        wide_iq.occupancy_accum += wide_occupancy
        wide_iq.ready_not_issued_accum += wide_ready_count

    def _finalise(self, final_cycle: int) -> None:
        result = self.result
        result.fast_cycles = final_cycle
        result.slow_cycles = final_cycle / self.clocking.ratio
        result.helper_uops = self._helper_committed
        result.prediction = self._prediction
        result.cp_prediction_accuracy = self.width_predictor.copy_stats.accuracy
        result.replicated_loads = self.copy_engine.stats.replicated_loads
        result.wide_to_narrow_imbalance = self.imbalance.wide_to_narrow_imbalance()
        result.narrow_to_wide_imbalance = self.imbalance.narrow_to_wide_imbalance()
        result.mean_wide_iq_occupancy = self.wide.issue_queue.mean_occupancy
        result.mean_narrow_iq_occupancy = sum(
            backend.issue_queue.mean_occupancy for backend in self.helpers)
        result.cluster_occupancy = {
            backend.spec.name: backend.issue_queue.mean_occupancy
            for backend in self.clusters}
        result.dl0_hit_rate = self.memory.stats.dl0_hit_rate

        activity = result.activity
        activity.fast_cycles = final_cycle
        activity.wide_cycles = final_cycle // self.clocking.ratio
        activity.fetched_uops = self.frontend.fetched
        activity.committed_uops = result.committed_uops
        activity.dl0_accesses = self.memory.dl0.stats.accesses
        activity.ul1_accesses = self.memory.ul1.stats.accesses
        activity.memory_accesses = self.memory.stats.memory_accesses
        activity.helper_present = self._helper_enabled
        activity.narrow_width = self._narrow_width
        activity.predictor_accesses += (self.width_predictor.stats.updates
                                        + self.width_predictor.carry_stats.updates
                                        + self.width_predictor.copy_stats.updates)

        # Per-cluster activity: each cluster's own clock ticks once per
        # ``period`` fast cycles, so a 2x helper burns twice the host's
        # clock cycles over the same run.
        periods = self._periods
        for backend in self.clusters:
            cluster = self._cluster_acts[backend.index]
            cluster.cycles = final_cycle // periods[backend.index]
        result.cluster_activity = {cluster.name: cluster
                                   for cluster in self._cluster_acts}

        # Legacy aggregate view: host = wide, all helpers summed = narrow.
        host = self._cluster_acts[0]
        activity.wide_alu_ops = host.alu_ops
        activity.wide_agu_ops = host.agu_ops
        activity.wide_regfile_accesses = host.regfile_accesses
        activity.wide_scheduler_ops = host.scheduler_ops
        activity.fpu_ops = sum(c.fpu_ops for c in self._cluster_acts)
        activity.narrow_alu_ops = sum(c.alu_ops for c in self._cluster_acts[1:])
        activity.narrow_agu_ops = sum(c.agu_ops for c in self._cluster_acts[1:])
        activity.narrow_regfile_accesses = sum(
            c.regfile_accesses for c in self._cluster_acts[1:])
        activity.narrow_scheduler_ops = sum(
            c.scheduler_ops for c in self._cluster_acts[1:])

        # Energy: evaluate the per-cluster power model so every result (and
        # every cached result) carries its breakdowns and ED² for free.
        model = PowerModel()
        result.power = model.evaluate_topology(self.topology,
                                               result.cluster_activity)
        result.shared_power = model.evaluate_shared(activity)

    # ======================================================================
    # helpers
    # ======================================================================
    def _backend(self, domain: int) -> Backend:
        return self.clusters[domain]

    def _select_helper_cluster(self, opcode: Optional[Opcode] = None) -> Optional[int]:
        """Pick a helper cluster for requirement-less work (prefetch targets,
        IR chunk chains) through the shared selector."""
        return self.selector.select(opcode=opcode)


def simulate(trace: Trace, config: Optional[MachineConfig] = None,
             policy: Optional[SteeringPolicy] = None) -> SimulationResult:
    """Convenience wrapper: build a simulator, run it, return the result."""
    return HelperClusterSimulator(trace, config=config, policy=policy).run()
