"""Job-based parallel sweep engine.

The paper's results are all *sweeps* — benchmarks x steering policies (x
config ablations).  This module turns a sweep into a list of self-contained
:class:`SweepJob` records and executes them either serially in-process or
fanned out over a ``multiprocessing`` pool, with an optional content-addressed
on-disk :class:`~repro.sim.cache.ResultCache` in front.

Determinism
-----------
A job carries everything that determines its result: benchmark profile, trace
length, an explicit per-job seed (a pure function of the sweep seed and the
benchmark — no global RNG state is consulted), slicing mode and policy name.
Trace generation is seeded from the job alone and the simulator itself is
deterministic, so a job computes the bit-identical ``SimulationResult``
whether it runs in the parent process, in a pool worker, or is replayed from
the cache; ``tests/test_engine.py`` pins this property.

Results are keyed and re-assembled by job (not by completion order), so the
parallel path produces identical sweeps regardless of worker scheduling.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import MachineConfig, baseline_config, helper_cluster_config
from repro.core.steering import make_policy, policy_spec
from repro.faultkit import FaultInjector, FaultPlan, maybe_inject
from repro.sim.cache import ResultCache, canonical_text, simulation_key
from repro.sim.checkpoint import (CampaignCheckpoint, job_to_dict,
                                  write_quarantine_file)
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import simulate
from repro.sim.supervise import JobSupervisor, SupervisorPolicy, SweepReport
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.slicing import select_simulation_slice
from repro.trace.store import TraceStore, profile_key_text, trace_key
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace

#: Upper bound on the per-process memoised trace set (each full-length trace
#: is a few MB of MicroOps; a sweep touches each benchmark's trace many times
#: but only a handful of distinct traces at once).
_TRACE_MEMO_LIMIT = 32

_trace_memo: Dict[Tuple[str, int, int, bool], Trace] = {}

#: Trace store bound to this process when it is a pool worker (set by
#: :func:`_pool_init`); lets spawned workers re-hydrate parent-generated
#: traces from disk instead of re-deriving them.
_worker_store: Optional[TraceStore] = None

#: Fault plan bound to this process when it is a pool worker (set by
#: :func:`_pool_init`); None outside chaos scenarios.
_worker_plan: Optional[FaultPlan] = None

#: Claim directory bound to this process when it is a pool worker —
#: ``<trace-store>/claims/<pid>`` names the job a worker is executing so
#: the supervisor can attribute a worker death (SIGKILL, segfault) to the
#: job that caused it and charge only that job an attempt.
_worker_claims_dir: Optional[str] = None


def _pool_init(store_dir: Optional[str], plan_text: str = "") -> None:
    """Pool-worker initializer: bind the trace store and fault plan."""
    global _worker_store, _worker_plan, _worker_claims_dir
    _worker_store = TraceStore(store_dir) if store_dir else None
    _worker_plan = FaultPlan.parse(plan_text) if plan_text else None
    _worker_claims_dir = (str(Path(store_dir) / "claims")
                          if store_dir else None)


@dataclass(frozen=True)
class SweepJob:
    """One (benchmark, policy, machine) simulation of a sweep.

    ``policy == "baseline"`` runs the monolithic baseline machine; every
    other name is resolved through the policy registry (registered
    :class:`~repro.core.steering.PolicySpec` names or ad-hoc ``"+"`` scheme
    combos such as ``"n888+cr"``).  ``config`` overrides
    the engine's machine configuration for this job — that is how a
    design-space exploration fans out over topologies: one job per
    (topology, benchmark) with the topology carried in the job itself, so
    workers and the cache key see exactly the machine the job simulates.
    """

    benchmark: str
    policy: str
    trace_uops: int
    seed: int
    use_slicing: bool = False
    config: Optional[MachineConfig] = None


def job_seed(sweep_seed: int, benchmark: str) -> int:
    """Deterministic per-job seed.

    The historical serial runner seeds every benchmark's trace generator with
    the sweep seed directly, and the sweep's published numbers depend on
    that, so the mapping is the identity.  It lives in one named function so
    the seeding policy is explicit, shared by the serial and parallel paths,
    and changeable in exactly one place (with a
    :data:`~repro.sim.cache.SIMULATOR_VERSION` bump).
    """
    del benchmark  # deliberately not folded in; see docstring
    return sweep_seed


def trace_for_job(job: SweepJob, profile: Optional[BenchmarkProfile] = None,
                  store: Optional[TraceStore] = None) -> Trace:
    """Generate (or reuse) the trace a job runs on.

    Three layers, cheapest first: the per-process memo (keyed by benchmark,
    length, seed, slicing — within a sweep every policy of a benchmark
    shares one trace), then the content-addressed on-disk ``store`` (one
    digest-checked binary file per trace, shared across processes and across
    sweeps on a warm directory), and only then generation — which also
    populates both layers, so an entire sweep performs exactly one
    generation per distinct trace.
    """
    if profile is None:
        profile = get_profile(job.benchmark)
    # The profile content is part of the key so a caller-supplied profile that
    # shadows a registered name cannot collide with it.
    key = (profile_key_text(profile), job.trace_uops, job.seed,
           job.use_slicing)
    trace = _trace_memo.get(key)
    if trace is not None:
        # The memo is process-global while stores are per-engine: a trace
        # another engine generated must still reach *this* store, or a
        # spawn-started worker of this engine would regenerate it.  The
        # store's ``seen`` set keeps the key hash + path probe to once per
        # distinct trace rather than once per job.
        if store is not None and store.enabled and key not in store.seen:
            store_key = trace_key(profile, job.trace_uops, job.seed,
                                  job.use_slicing)
            if not store.path_for(store_key).exists():
                store.store(store_key, trace)
            store.seen.add(key)
        return trace
    store_key = (trace_key(profile, job.trace_uops, job.seed, job.use_slicing)
                 if store is not None else None)
    if store_key is not None:
        trace = store.load(store_key)
    if trace is None:
        if job.use_slicing:
            # Generate a longer run and keep the paper's simulation slice
            # (§3.1: split into 10 slices, start from the fourth).
            full = generate_trace(profile, job.trace_uops * 10, seed=job.seed)
            trace = select_simulation_slice(full)
        else:
            trace = generate_trace(profile, job.trace_uops, seed=job.seed)
        if store_key is not None:
            store.store(store_key, trace)
    if store is not None:
        store.seen.add(key)
    if len(_trace_memo) >= _TRACE_MEMO_LIMIT:
        _trace_memo.pop(next(iter(_trace_memo)))
    _trace_memo[key] = trace
    return trace


def execute_job(job: SweepJob, config: MachineConfig,
                profile: Optional[BenchmarkProfile] = None,
                spec=None,
                store: Optional[TraceStore] = None) -> SimulationResult:
    """Run one job to completion (trace generation included).

    The job's own ``config`` wins over the engine-supplied one; the baseline
    policy always runs the monolithic baseline machine (the paper's
    methodology normalises every topology to the same baseline).  ``spec``
    is the job's resolved :class:`~repro.core.steering.PolicySpec`; when
    omitted, the name is resolved against this process's registry.
    ``store`` is the cross-job trace store consulted before generating.
    """
    trace = trace_for_job(job, profile, store)
    policy = make_policy(spec if spec is not None else job.policy)
    if job.policy == "baseline":
        return simulate(trace, config=baseline_config(), policy=policy)
    return simulate(trace, config=job.config or config, policy=policy)


def _claim_path() -> Optional[Path]:
    return (Path(_worker_claims_dir) / str(os.getpid())
            if _worker_claims_dir else None)


def _write_claim(token: str, attempt: int) -> None:
    """Record which job this worker is executing (crash attribution).

    Written *before* fault injection and execution; removed on any outcome
    the worker survives to report.  A worker that dies mid-job (SIGKILL,
    segfault) leaves its claim behind, and the dead pid's claim file is
    exactly how the supervisor knows which in-flight job to charge.
    """
    path = _claim_path()
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"token": token, "attempt": attempt}),
                        encoding="utf-8")
    except OSError:
        pass  # attribution degrades gracefully; supervision still works


def _remove_claim() -> None:
    path = _claim_path()
    if path is None:
        return
    try:
        path.unlink()
    except OSError:
        pass


def _supervised_worker(task: bytes) -> bytes:
    """Pool entry point; pickled tuples keep the Pool API version-stable.

    The parent resolves each job's policy name to its PolicySpec and ships
    the spec in the task, so policies registered at runtime in the parent
    stay runnable even under spawn/forkserver start methods, where the
    child's freshly-imported registry only holds the built-in specs.
    Traces come from the worker's memo (inherited on fork), the trace store
    bound by :func:`_pool_init`, or are generated as a last resort.

    The worker never lets an exception escape to the pool machinery: any
    failure is reported as an ``("error", message)`` outcome so the parent
    supervisor — not ``multiprocessing``'s error plumbing — owns retry and
    quarantine decisions.
    """
    job, config, profile, spec, attempt, token = pickle.loads(task)
    _write_claim(token, attempt)
    try:
        maybe_inject(_worker_plan, token, attempt, in_worker=True)
        result = execute_job(job, config, profile, spec=spec,
                             store=_worker_store)
        outcome: Tuple = ("ok", result)
    except Exception as exc:  # noqa: BLE001 — every failure is reportable
        outcome = ("error", f"{type(exc).__name__}: {exc}")
    _remove_claim()
    return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)


def available_cpus() -> int:
    """CPUs this process may actually use.

    Prefers ``os.process_cpu_count`` (Python 3.13+, affinity-aware) and
    falls back to ``os.cpu_count``.
    """
    counter = getattr(os, "process_cpu_count", None) or os.cpu_count
    return max(1, counter() or 1)


def default_jobs() -> int:
    """Worker count used when the caller asks for ``jobs=0`` ("auto")."""
    return available_cpus()


#: How long a pool teardown may take before its workers are presumed wedged
#: (a healthy ``terminate`` + ``join`` takes milliseconds).
_CLEAN_STOP_S = 1.0


def _stop_pool(pool, grace: float = 5.0) -> None:
    """Tear a (possibly wedged) pool down without blocking the parent.

    ``Pool.terminate`` + ``join`` run on a daemon thread.  On a healthy pool
    they return in milliseconds.  A SIGKILLed worker, though, can die
    *holding the task queue's reader lock*, and ``terminate`` drains that
    queue under the same lock, so on such a pool the thread never returns.
    If it is still running after ``_CLEAN_STOP_S``, the worker processes
    are killed (no child outlives the pool) and the thread gets up to
    ``grace`` more seconds; a pool that still refuses to die is abandoned —
    its handler threads are daemonic — never waited on.
    """
    import threading

    def _teardown() -> None:
        try:
            pool.terminate()
            pool.join()
        except Exception:  # noqa: BLE001 — a broken pool may refuse both
            pass

    workers = list(getattr(pool, "_pool", ()) or ())
    thread = threading.Thread(target=_teardown, daemon=True,
                              name="repro-pool-teardown")
    thread.start()
    thread.join(_CLEAN_STOP_S)
    if not thread.is_alive():
        return
    for proc in workers:
        try:
            if proc.exitcode is None:
                proc.kill()
        except Exception:  # noqa: BLE001 — racing a dying worker is fine
            pass
    thread.join(grace)


def _terminate_pool(pool) -> None:
    """Engine-finalizer hook: tear the warm pool down without blocking."""
    _stop_pool(pool, grace=1.0)


class SweepEngine:
    """Executes sweeps of :class:`SweepJob` records, optionally in parallel.

    Parameters
    ----------
    config:
        Machine configuration for the policy runs (the baseline policy always
        runs on :func:`baseline_config`, mirroring the paper's methodology).
    jobs:
        Worker processes; 1 = serial in-process, 0 = one per CPU.  Requests
        beyond the host's usable CPU count are clamped to it (worker
        processes are CPU-bound, so oversubscription only adds scheduling
        overhead) unless ``allow_oversubscribe`` is set; a clamp is
        recorded in :attr:`jobs_clamped_from` and surfaces in the CLI's
        footer line.
    allow_oversubscribe:
        Run exactly the requested number of workers even past the CPU
        count (measurement / debugging escape hatch).
    cache:
        Optional :class:`ResultCache` consulted before and filled after
        every job.
    trace_store_dir:
        Directory of the cross-job trace store.  ``None`` (the default)
        uses a private temporary directory that lives as long as the engine
        — still worth having, because spawned pool workers re-hydrate
        parent-generated traces from it instead of re-deriving them.  Point
        it at a persistent directory (the CLI uses ``<cache-dir>/traces``)
        and repeated sweeps skip generation entirely.
    supervisor:
        :class:`~repro.sim.supervise.SupervisorPolicy` governing per-job
        deadlines, retries/backoff and pool respawn; the
        default policy retries twice with exponential backoff.  A fault
        plan's supervision overrides (``deadline=``, ``attempts=``, …) are
        applied on top.
    faults:
        :class:`~repro.faultkit.FaultPlan` to inject deterministic faults
        (chaos testing); ``None`` reads ``REPRO_FAULTS`` from the
        environment, which is empty outside chaos scenarios.
    checkpoint_path:
        Append-only campaign checkpoint (JSONL).  Completed job keys are
        recorded as they land, so an interrupted campaign resumes from its
        completed results (``resumed=N`` in the supervision footer) — the
        CLI uses ``<cache-dir>/checkpoint.jsonl``.
    quarantine_path:
        Where to write the replayable ``failed-jobs.json`` ledger when any
        job exhausts its attempts.
    """

    def __init__(self, config: Optional[MachineConfig] = None, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 trace_store_dir: Optional[str] = None,
                 allow_oversubscribe: bool = False,
                 supervisor: Optional[SupervisorPolicy] = None,
                 faults: Optional[FaultPlan] = None,
                 checkpoint_path: Optional[str] = None,
                 quarantine_path: Optional[str] = None) -> None:
        self.config = config or helper_cluster_config()
        requested = default_jobs() if jobs == 0 else max(1, jobs)
        #: the originally requested worker count when the engine clamped it
        #: to the host's CPU count, else None
        self.jobs_clamped_from: Optional[int] = None
        cpus = available_cpus()
        if requested > cpus and not allow_oversubscribe:
            self.jobs_clamped_from = requested
            requested = cpus
        self.jobs = requested
        self.cache = cache
        self._profiles: Dict[str, BenchmarkProfile] = {}
        #: finalizer that removes the engine-private temp trace directory;
        #: None when the caller supplied (and therefore owns) the directory
        self._store_cleanup: Optional[weakref.finalize] = None
        if trace_store_dir is None:
            trace_store_dir = tempfile.mkdtemp(prefix="repro-traces-")
            self._store_cleanup = weakref.finalize(
                self, shutil.rmtree, trace_store_dir, ignore_errors=True)
        self.trace_store = TraceStore(trace_store_dir)
        #: persistent warm worker pool, created lazily on the first parallel
        #: batch and reused across sweeps (pool spin-up and re-import are a
        #: real cost when every figure of a benchmark session runs a sweep)
        self._pool = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        # ---- supervision / fault-tolerance state -------------------------
        if faults is None:
            faults = FaultPlan.from_env()
        #: active fault plan (None outside chaos scenarios)
        self.faults = faults
        #: retry/deadline policy, with the plan's overrides applied
        self.supervisor_policy = (supervisor or SupervisorPolicy()
                                  ).with_plan(faults)
        #: parent-side artifact/interrupt injector (None without a plan)
        self.injector = FaultInjector(faults) if faults is not None else None
        #: supervision outcome, accumulated across this engine's batches
        self.report = SweepReport()
        #: campaign checkpoint (None = not checkpointing)
        self.checkpoint = (CampaignCheckpoint(checkpoint_path)
                           if checkpoint_path else None)
        #: where the quarantine ledger is written (None = nowhere)
        self.quarantine_path = (Path(quarantine_path)
                                if quarantine_path else None)

    # ------------------------------------------------------------------ pool
    def _ensure_pool(self):
        """The engine's warm worker pool, created on first use."""
        if self._pool is None:
            import multiprocessing

            plan_text = self.faults.to_text() if self.faults else ""
            self._pool = multiprocessing.Pool(
                processes=self.jobs, initializer=_pool_init,
                initargs=(str(self.trace_store.store_dir), plan_text))
            self._pool_finalizer = weakref.finalize(
                self, _terminate_pool, self._pool)
        return self._pool

    def _respawn_pool(self):
        """Terminate the cached pool and spawn a fresh one.

        This is how a dead worker (SIGKILL/segfault) or a wedged pool
        (``BrokenPipeError`` on submit) is recovered without wedging
        ``_ensure_pool``'s cache: the broken pool is dropped wholesale and
        the next ``_ensure_pool`` call builds a replacement.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            _stop_pool(pool)
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        return self._ensure_pool()

    # ---------------------------------------------------------------- claims
    @property
    def claims_dir(self) -> Path:
        """Scratch directory of worker claim files (crash attribution)."""
        return Path(self.trace_store.store_dir) / "claims"

    def _read_claims(self, pids) -> Dict[int, str]:
        """Job tokens claimed by the given (dead) worker pids."""
        claims: Dict[int, str] = {}
        for pid in pids:
            try:
                record = json.loads(
                    (self.claims_dir / str(pid)).read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            token = record.get("token") if isinstance(record, dict) else None
            if token:
                claims[pid] = token
        return claims

    def _clear_claims(self) -> None:
        """Drop stale claim files (after a respawn killed all workers)."""
        try:
            entries = list(self.claims_dir.iterdir())
        except OSError:
            return
        for path in entries:
            try:
                path.unlink()
            except OSError:
                pass

    def close(self) -> None:
        """Release the engine's pooled resources (idempotent).

        Tears down the warm worker pool and removes the engine-private
        temporary trace-store directory (when no explicit
        ``trace_store_dir`` was given — a caller-supplied directory is the
        caller's to keep).  The same cleanups are registered as
        ``weakref.finalize`` callbacks (which also run at interpreter
        exit), so an engine that is never closed still cannot leak them;
        ``close()`` — or the context-manager form — releases them eagerly
        and deterministically, exceptions included.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            _stop_pool(pool)
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        self._clear_claims()
        if self._store_cleanup is not None:
            cleanup, self._store_cleanup = self._store_cleanup, None
            cleanup()  # a dead finalizer is a no-op, so this is idempotent

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ keys
    def key_for(self, job: SweepJob) -> str:
        """Content-address of a job's result (:func:`simulation_key`).

        The machine configuration contributes through its canonical
        ``to_key_dict()`` (topology included), so any config field change —
        not just the handful of fields a sweep happens to vary — changes the
        key and can never serve a stale cached result.  The policy likewise
        contributes through ``PolicySpec.to_key_dict()`` (name, scheme set,
        cluster selector and selector knobs), so two registered policies
        that differ only in selector or knobs can never alias an entry, and
        the profile through ``BenchmarkProfile.to_key_dict()`` (every
        distribution knob).
        """
        if job.policy == "baseline":
            config = baseline_config()
        else:
            config = job.config or self.config
        return simulation_key(self._profile_for(job.benchmark),
                              job.trace_uops, job.seed, job.use_slicing,
                              config, policy_spec(job.policy))

    def register_profile(self, profile: BenchmarkProfile) -> None:
        """Make a (possibly unregistered) profile resolvable by name."""
        self._profiles[profile.name] = profile

    def _profile_for(self, benchmark: str) -> BenchmarkProfile:
        profile = self._profiles.get(benchmark)
        if profile is None:
            profile = get_profile(benchmark)
            self._profiles[benchmark] = profile
        return profile

    # ------------------------------------------------------------------- run
    def token_for(self, job: SweepJob) -> str:
        """Human-legible job identity for supervision and fault decisions.

        ``<benchmark>:<policy>:<digest>``: the 12-hex-digit digest covers
        the job's other fields (trace length, seed, slicing and the
        job-carried config, if any), so topology-grid points that share a
        benchmark and policy stay apart.  It is derived from the job alone,
        never from the result key, so a key recipe or ``SIMULATOR_VERSION``
        change does not re-map which jobs a seeded fault plan hits.
        """
        fields = [job.trace_uops, job.seed, job.use_slicing]
        if job.config is not None:
            fields.append(job.config.to_key_dict())
        digest = hashlib.sha256(canonical_text(fields).encode("utf-8"))
        return f"{job.benchmark}:{job.policy}:{digest.hexdigest()[:12]}"

    def run_jobs(self, sweep_jobs: Sequence[SweepJob],
                 use_cache: bool = True) -> Dict[SweepJob, SimulationResult]:
        """Execute a batch of jobs and return ``{job: result}``.

        Cached results are served first; the remainder runs under the
        :class:`~repro.sim.supervise.JobSupervisor` — serially in-process
        or fanned out over the warm pool — with per-job deadlines, retry
        and quarantine.  A quarantined job is simply absent
        from the returned mapping (its record lands in
        ``self.report.quarantined`` and the quarantine ledger); the
        returned mapping is keyed (and therefore ordered) by the input job
        list, independent of worker completion order.
        """
        results: Dict[SweepJob, SimulationResult] = {}
        pending: List[SweepJob] = []
        keys: Dict[SweepJob, str] = {}
        seen: set = set()
        for job in sweep_jobs:
            if job in seen:
                continue  # duplicate job in the batch
            seen.add(job)
            if self.cache is not None and use_cache:
                key = keys[job] = self.key_for(job)
                cached = self.cache.load(key)
                if cached is not None:
                    results[job] = cached
                    self.report.cache_hits += 1
                    if self.checkpoint is not None:
                        if key in self.checkpoint.completed:
                            # The explicit resume contract: this job was
                            # completed by an earlier (interrupted) run and
                            # is served without touching a worker.
                            self.report.resumed += 1
                        else:
                            self.checkpoint.mark_completed(key, job)
                    continue
            pending.append(job)

        if pending:
            self._run_supervised(pending, keys, results)
        return {job: results[job] for job in sweep_jobs if job in results}

    def _run_supervised(self, pending: Sequence[SweepJob],
                        keys: Dict[SweepJob, str],
                        results: Dict[SweepJob, SimulationResult]) -> None:
        """Drive ``pending`` through the supervisor into ``results``.

        Completion is incremental: each job is cached, verified and
        checkpointed from the parent as it settles, so an interruption
        (KeyboardInterrupt included) loses only in-flight work and the
        next invocation resumes from everything that finished.
        """

        def key_of(job: SweepJob) -> str:
            key = keys.get(job)
            if key is None:
                key = self.key_for(job)
                keys[job] = key
            return key

        def on_complete(job: SweepJob, result: SimulationResult) -> None:
            results[job] = result
            self.report.computed += 1
            if self.cache is not None:
                key = key_of(job)
                self.cache.store(key, result)
                if self.injector is not None:
                    self.injector.corrupt_result_entry(self.cache, key)
                if self.supervisor_policy.verify_stores:
                    # Verify-after-write: re-read and digest-check the
                    # entry, rewriting it when it fails — corruption that
                    # happens during the campaign is healed before the
                    # campaign ends, so a resumed run starts clean.
                    if not self.cache.verify(key, result):
                        self.report.store_repairs += 1
            if self.checkpoint is not None:
                self.checkpoint.mark_completed(key_of(job), job)
            if self.injector is not None:
                self.injector.after_completion()

        def on_quarantine(job: SweepJob, failures) -> None:
            record = {"job": job_to_dict(job), "key": key_of(job),
                      "attempts": [f.to_dict() for f in failures]}
            self.report.quarantined.append(record)
            if self.checkpoint is not None:
                self.checkpoint.mark_quarantined(record["key"], job,
                                                 record["attempts"])

        supervisor = JobSupervisor(self, self.supervisor_policy, self.faults,
                                   self.report)
        try:
            if len(pending) > 1 and self.jobs > 1:
                self._prepare_traces(pending)
                supervisor.run_parallel(pending, self.token_for, on_complete,
                                        on_quarantine)
            else:
                supervisor.run_serial(pending, self.token_for, on_complete,
                                      on_quarantine)
        except BaseException:
            # Pool teardown and temp-dir cleanup must run on *every* exit —
            # KeyboardInterrupt included — or an aborted campaign leaks its
            # pool and wedges the next one.  Completed work is already
            # cached and checkpointed, so nothing durable is lost.
            self.close()
            raise
        finally:
            if self.injector is not None:
                self.report.merge_faults(self.injector.fired)
            if self.report.quarantined and self.quarantine_path is not None:
                write_quarantine_file(self.quarantine_path,
                                      self.report.quarantined)

    def _execute_supervised(self, job: SweepJob) -> SimulationResult:
        """One in-process job attempt (the supervisor's serial primitive)."""
        return execute_job(job, self.config,
                           self._profile_for(job.benchmark),
                           store=self.trace_store)

    def _task_blob(self, job: SweepJob, attempt: int, token: str) -> bytes:
        """Serialise one job attempt for the pool worker protocol (the job
        token stays the last element)."""
        return pickle.dumps((job, job.config or self.config,
                             self._profile_for(job.benchmark),
                             policy_spec(job.policy), attempt, token),
                            protocol=pickle.HIGHEST_PROTOCOL)

    def _prepare_traces(self, pending: Sequence[SweepJob]) -> None:
        # Generate each distinct (profile, length, seed, slicing) trace once
        # in the parent before fanning out: fork-started workers inherit the
        # memo for free, spawn-started (and warm-restart) workers re-hydrate
        # from the trace store — either way no worker re-derives a trace.
        seen_traces: set = set()
        for job in pending:
            trace_tuple = (job.benchmark, job.trace_uops, job.seed,
                           job.use_slicing)
            if trace_tuple in seen_traces:
                continue
            seen_traces.add(trace_tuple)
            profile = self._profile_for(job.benchmark)
            trace_for_job(job, profile, self.trace_store)
            if self.injector is not None and self.trace_store.enabled:
                # Chaos: truncate the just-stored trace entry so workers
                # exercise the store's corruption-heal path (detect,
                # unlink, re-derive, re-store).
                store_key = trace_key(profile, job.trace_uops, job.seed,
                                      job.use_slicing)
                self.injector.corrupt_trace_entry(self.trace_store,
                                                  store_key)

    # ----------------------------------------------------------------- sweeps
    def build_suite_jobs(self, profiles: Iterable[BenchmarkProfile],
                         policies: Sequence[str], trace_uops: int, seed: int,
                         use_slicing: bool = False) -> List[SweepJob]:
        """Jobs for a benchmarks x policies sweep, grouped by benchmark.

        A baseline job is always included per benchmark (speedups need it).
        """
        jobs: List[SweepJob] = []
        for profile in profiles:
            self.register_profile(profile)
            seed_for_bench = job_seed(seed, profile.name)
            jobs.append(SweepJob(profile.name, "baseline", trace_uops,
                                 seed_for_bench, use_slicing))
            for name in policies:
                if name == "baseline":
                    continue
                jobs.append(SweepJob(profile.name, name, trace_uops,
                                     seed_for_bench, use_slicing))
        return jobs

    def run_suite(self, profiles: Iterable[BenchmarkProfile],
                  policies: Sequence[str], trace_uops: int, seed: int,
                  use_slicing: bool = False, use_cache: bool = True):
        """Run a benchmarks x policies sweep into a ``PolicySweepResult``.

        Quarantined jobs (every supervised attempt failed) are simply
        absent: a missing policy result drops that cell, and a missing
        baseline drops the whole benchmark (nothing can be normalised
        without it).  The supervision report records what was dropped — a
        campaign with failures still reports every surviving number.
        """
        from repro.sim.experiment import BenchmarkResult, PolicySweepResult

        profiles = list(profiles)
        jobs = self.build_suite_jobs(profiles, policies, trace_uops, seed,
                                     use_slicing)
        results = self.run_jobs(jobs, use_cache=use_cache)

        sweep = PolicySweepResult(
            policies=[p for p in policies if p != "baseline"],
            benchmarks=[p.name for p in profiles])
        for profile in profiles:
            seed_for_bench = job_seed(seed, profile.name)
            baseline = results.get(SweepJob(profile.name, "baseline",
                                            trace_uops, seed_for_bench,
                                            use_slicing))
            if baseline is None:
                sweep.benchmarks.remove(profile.name)
                continue
            bench = BenchmarkResult(benchmark=profile.name, baseline=baseline)
            for name in sweep.policies:
                result = results.get(SweepJob(profile.name, name, trace_uops,
                                              seed_for_bench, use_slicing))
                if result is not None:
                    bench.by_policy[name] = result
            sweep.results[profile.name] = bench
        return sweep
