"""Per-job supervision for the sweep engine: deadlines, retry, quarantine,
pool respawn.

The engine used to drain ``pool.imap`` bare: one worker segfault, one hung
job or one raised exception killed (or wedged) the whole campaign with no
partial results.  This module supervises every job attempt the way a routed
network survives link failure — detect, reroute, reconverge:

* **Deadlines** — each in-flight job gets a wall-clock deadline scaled by
  its trace length (:meth:`SupervisorPolicy.deadline_for`); an expired job
  is treated as hung, the pool is respawned, and innocent in-flight jobs
  are resubmitted without burning one of their attempts.
* **Crash attribution** — workers write a tiny *claim* file (pid → job
  token) before touching a job; when a worker process dies (SIGKILL,
  segfault, ``os._exit``), the dead pid's claim names the victim job, which
  is charged an attempt — co-located innocents are requeued for free, so a
  crash-looping job converges to quarantine without dragging its batch
  neighbours with it.
* **Retry with backoff** — failed/timed-out jobs are retried up to
  ``max_attempts`` with exponential backoff between attempts.
* **Quarantine** — a job that fails every attempt is recorded (with its
  full attempt history) instead of aborting the campaign; the engine writes
  the replayable ``failed-jobs.json`` ledger from these records.
* **Pool respawn** — a dead or wedged pool is terminated and respawned
  (bounded by ``max_pool_respawns``); ``_ensure_pool``'s cached pool can no
  longer be wedged by a ``BrokenPipeError`` or a killed worker.

Everything here is *scheduling*: which process runs a job, when, and how
often it is retried.  None of it touches simulation semantics — a
supervised sweep's surviving results are bit-identical to a fault-free
serial run (pinned by ``tests/test_supervision.py``).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faultkit import FaultPlan, maybe_inject


def _now() -> float:
    """Wall-clock for deadlines and backoff — scheduling only, never
    simulation semantics (results stay bit-identical under any timing)."""
    return time.monotonic()  # lint: disable=REP001(supervision deadlines and backoff are wall-clock scheduling decisions; they choose when and where a job runs, never what it computes)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/deadline policy for supervised job execution."""

    #: total attempts per job before quarantine (1 = no retries)
    max_attempts: int = 3
    #: backoff before retry r is ``backoff_base * backoff_factor**(r-1)``
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    #: per-job wall-clock deadline: ``timeout_base + timeout_per_kuop``
    #: seconds per thousand trace uops (generation + simulation + margin)
    timeout_base: float = 120.0
    timeout_per_kuop: float = 0.05
    #: re-read and digest-check every cache entry written by a supervised
    #: sweep, rewriting entries that fail to verify (heals same-run
    #: corruption so a resumed campaign starts from a clean cache)
    verify_stores: bool = True
    #: pool respawns allowed per batch before giving up (safety valve —
    #: a respawn storm means something is wrong beyond one bad job)
    max_pool_respawns: int = 12
    #: parallel poll cadence, seconds
    poll_interval: float = 0.02

    def deadline_for(self, job) -> float:
        return self.timeout_base + (job.trace_uops / 1000.0) * self.timeout_per_kuop

    def backoff_for(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (1-based)."""
        return self.backoff_base * (self.backoff_factor ** max(0, retry_index - 1))

    def with_plan(self, plan: Optional[FaultPlan]) -> "SupervisorPolicy":
        """Apply a fault plan's supervision overrides (chaos scenarios)."""
        if plan is None:
            return self
        changes = {}
        if plan.deadline is not None:
            changes["timeout_base"] = plan.deadline
        if plan.backoff is not None:
            changes["backoff_base"] = plan.backoff
        if plan.attempts is not None:
            changes["max_attempts"] = plan.attempts
        if not changes:
            return self
        from dataclasses import replace

        return replace(self, **changes)


@dataclass
class AttemptFailure:
    """One failed attempt of one job (quarantine records carry these)."""

    attempt: int
    #: ``timeout`` | ``worker-death`` | ``error``
    reason: str
    error: str = ""

    def to_dict(self) -> dict:
        return {"attempt": self.attempt, "reason": self.reason,
                "error": self.error}


@dataclass
class SweepReport:
    """Supervision outcome, accumulated across an engine's batches.

    The CLI footer prints :meth:`summary_line`; tests and the chaos job
    read the fields directly.  ``quarantined`` records are the replayable
    ``failed-jobs.json`` payload.
    """

    computed: int = 0
    cache_hits: int = 0
    #: cache-served jobs whose completion was already checkpointed — the
    #: explicit "resumed, touching zero already-completed jobs" count
    resumed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_errors: int = 0
    worker_deaths: int = 0
    pool_respawns: int = 0
    #: quarantine records: {"job": {...}, "key": ..., "attempts": [...]}
    quarantined: List[dict] = field(default_factory=list)
    #: verify-after-write repairs (entry failed its digest check re-read)
    store_repairs: int = 0
    #: injected faults that actually fired, by kind (parent-side count)
    faults_fired: Dict[str, int] = field(default_factory=dict)

    def merge_faults(self, fired: Dict[str, int]) -> None:
        for kind, count in fired.items():
            self.faults_fired[kind] = max(self.faults_fired.get(kind, 0), count)

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def summary_line(self) -> Optional[str]:
        """Footer fragment, or None when nothing supervision-worthy happened."""
        interesting = (self.retries or self.timeouts or self.worker_deaths
                       or self.pool_respawns
                       or self.quarantined or self.resumed
                       or self.store_repairs or self.faults_fired)
        if not interesting:
            return None
        parts = [f"supervision: computed={self.computed}"]
        if self.resumed:
            parts.append(f"resumed={self.resumed}")
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.timeouts:
            parts.append(f"timeouts={self.timeouts}")
        if self.worker_deaths:
            parts.append(f"worker-deaths={self.worker_deaths}")
        if self.pool_respawns:
            parts.append(f"pool-respawns={self.pool_respawns}")
        if self.store_repairs:
            parts.append(f"store-repairs={self.store_repairs}")
        if self.quarantined:
            tokens = sorted(f"{r['job']['benchmark']}:{r['job']['policy']}"
                            for r in self.quarantined)
            parts.append(f"quarantined={len(self.quarantined)} "
                         f"({', '.join(tokens[:4])})")
        if self.faults_fired:
            fired = " ".join(f"{kind}={count}" for kind, count
                             in sorted(self.faults_fired.items()))
            parts.append(f"faults[{fired}]")
        return " ".join(parts)


@dataclass
class _JobState:
    """Supervisor-side lifecycle of one pending job."""

    job: object
    token: str
    failures: List[AttemptFailure] = field(default_factory=list)
    #: earliest monotonic time the next attempt may be submitted
    ready_at: float = 0.0

    @property
    def attempt(self) -> int:
        return len(self.failures)


class JobSupervisor:
    """Drives one batch of pending jobs to completion or quarantine.

    The engine supplies execution primitives (task building, pool access,
    serial execution, claim-file scratch space); the supervisor owns the
    scheduling loop.  ``on_complete``/``on_quarantine`` callbacks run in
    the parent as each job settles, so caching and checkpointing are
    incremental — an interrupt loses only in-flight work.
    """

    def __init__(self, engine, policy: SupervisorPolicy,
                 plan: Optional[FaultPlan], report: SweepReport) -> None:
        self.engine = engine
        self.policy = policy
        self.plan = plan
        self.report = report

    # -------------------------------------------------------------- shared
    def _note_failure(self, state: _JobState, reason: str, error: str) -> bool:
        """Record a failed attempt; True when the job may be retried."""
        state.failures.append(AttemptFailure(
            attempt=state.attempt, reason=reason, error=error))
        if reason == "timeout":
            self.report.timeouts += 1
        elif reason == "worker-death":
            self.report.worker_deaths += 1
        else:
            self.report.worker_errors += 1
        if len(state.failures) >= self.policy.max_attempts:
            return False
        self.report.retries += 1
        state.ready_at = _now() + self.policy.backoff_for(len(state.failures))
        return True

    def _quarantine(self, state: _JobState, on_quarantine) -> None:
        on_quarantine(state.job, state.failures)

    # -------------------------------------------------------------- serial
    def run_serial(self, pending, token_for, on_complete, on_quarantine) -> None:
        """In-process supervised execution (jobs == 1, or a single job).

        No deadline protection exists in-process (nothing could interrupt a
        hung simulation from inside the same thread); crash/hang faults
        become raised exceptions (see :func:`repro.faultkit.maybe_inject`).
        """
        for job in pending:
            state = _JobState(job=job, token=token_for(job))
            while True:
                try:
                    maybe_inject(self.plan, state.token, state.attempt,
                                 in_worker=False)
                    result = self.engine._execute_supervised(job)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:  # noqa: BLE001 — any failure retries
                    retry = self._note_failure(
                        state, "error", f"{type(exc).__name__}: {exc}")
                    if not retry:
                        self._quarantine(state, on_quarantine)
                        break
                    delay = state.ready_at - _now()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                on_complete(job, result)
                break

    # ------------------------------------------------------------ parallel
    def _pool_pids(self, pool) -> frozenset:
        return frozenset(proc.pid for proc in getattr(pool, "_pool", ())
                         if proc.exitcode is None)

    def _respawn(self, why: str):
        """Terminate and respawn the engine pool (bounded per batch)."""
        self.report.pool_respawns += 1
        if self.report.pool_respawns > self.policy.max_pool_respawns:
            raise RuntimeError(
                f"worker pool respawned more than "
                f"{self.policy.max_pool_respawns} times ({why}); "
                f"giving up on the batch")
        return self.engine._respawn_pool()

    def _requeue_inflight(self, inflight: Dict, queue: List[_JobState],
                          charged_tokens: set, reason: str,
                          on_quarantine) -> None:
        """Return in-flight jobs to the queue after a pool respawn.

        Jobs whose token is in ``charged_tokens`` are charged a failed
        attempt (and may quarantine); the rest resubmit for free — they
        were innocent bystanders of the respawn.
        """
        for state, _async, _deadline in inflight.values():
            if state.token in charged_tokens:
                if self._note_failure(state, reason,
                                      f"pool respawn attributed to this job "
                                      f"({reason})"):
                    queue.append(state)
                else:
                    self._quarantine(state, on_quarantine)
            else:
                queue.append(state)
        inflight.clear()

    def run_parallel(self, pending, token_for, on_complete,
                     on_quarantine) -> None:
        """Supervised pool execution of a batch of jobs."""
        queue: List[_JobState] = [
            _JobState(job=job, token=token_for(job)) for job in pending]
        inflight: Dict[object, Tuple[_JobState, object, float]] = {}
        pool = self.engine._ensure_pool()
        pids = self._pool_pids(pool)
        workers = self.engine.jobs

        while queue or inflight:
            now = _now()
            # ---- submit: keep at most one task in flight per worker, so a
            # deadline measured from submission approximates run time and a
            # respawn cancels as few innocents as possible.
            while queue and len(inflight) < workers:
                index = next((i for i, st in enumerate(queue)
                              if st.ready_at <= now), None)
                if index is None:
                    break
                state = queue.pop(index)
                task = self.engine._task_blob(state.job, state.attempt,
                                              state.token)
                try:
                    handle = pool.apply_async(_worker_entry, (task,))
                except Exception as exc:  # noqa: BLE001 — broken pool
                    pool = self._respawn(f"submit failed: {exc}")
                    pids = self._pool_pids(pool)
                    queue.append(state)
                    continue
                inflight[state.job] = (
                    state, handle, now + self.policy.deadline_for(state.job))

            progressed = False
            # ---- collect ready results
            for job, (state, handle, _deadline) in list(inflight.items()):
                if not handle.ready():
                    continue
                progressed = True
                del inflight[job]
                try:
                    outcome = pickle.loads(handle.get())
                except Exception as exc:  # noqa: BLE001 — transport failure
                    if self._note_failure(state, "error",
                                          f"pool transport: "
                                          f"{type(exc).__name__}: {exc}"):
                        queue.append(state)
                    else:
                        self._quarantine(state, on_quarantine)
                    continue
                if outcome[0] == "ok":
                    on_complete(job, outcome[1])
                else:
                    if self._note_failure(state, "error", outcome[1]):
                        queue.append(state)
                    else:
                        self._quarantine(state, on_quarantine)

            # ---- worker-death detection: a changed pid set means at least
            # one worker died (SIGKILL / segfault / os._exit).  The dead
            # pid's claim file names the job it was running, which is
            # charged the attempt; everyone else resubmits for free.
            current = self._pool_pids(pool)
            if current != pids:
                if inflight:
                    dead = pids - current
                    claimed = self.engine._read_claims(dead)
                    charged = {token for token in claimed.values()
                               if any(st.token == token
                                      for st, _a, _d in inflight.values())}
                    if not charged:
                        # Unattributed death with work in flight (killed
                        # before the claim write landed): charge everyone
                        # rather than loop forever on an invisible killer.
                        charged = {st.token
                                   for st, _a, _d in inflight.values()}
                    pool = self._respawn("worker died")
                    self.engine._clear_claims()
                    self._requeue_inflight(inflight, queue, charged,
                                           "worker-death", on_quarantine)
                pids = self._pool_pids(pool)
                progressed = True

            # ---- deadlines: an expired job counts as hung; the pool is
            # respawned (the hung worker would otherwise hold its slot
            # forever) and innocents resubmit for free.
            now = _now()
            expired = {state.token
                       for state, _handle, deadline in inflight.values()
                       if now > deadline}
            if expired:
                pool = self._respawn("job deadline expired")
                self.engine._clear_claims()
                self._requeue_inflight(inflight, queue, expired, "timeout",
                                       on_quarantine)
                pids = self._pool_pids(pool)
                progressed = True

            if not progressed and (queue or inflight):
                time.sleep(self.policy.poll_interval)


def _worker_entry(task: bytes) -> bytes:
    """Thin pool entry point; the engine owns the actual worker body.

    Lives here (not in the engine) so the supervisor module is the single
    place that defines the parent<->worker protocol version; delegates
    immediately to :func:`repro.sim.engine._supervised_worker`.
    """
    from repro.sim.engine import _supervised_worker

    return _supervised_worker(task)
