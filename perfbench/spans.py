"""In-memory spans around the public entry points of each ``repro`` layer.

The benchmark measures the program from outside: :class:`Tracer` replaces
module and class attributes of ``repro`` with thin wrappers that record a
:class:`Span` per call (name, start, end, parent span, the job's
``SweepEngine.token_for`` as the shared id, and a few counts), and puts the
originals back on :meth:`Tracer.restore`.  Nothing under ``src/`` knows
about it.

Two wrapper sets exist:

* :meth:`Tracer.install_setup` wraps only the three places where the
  program prepares rather than simulates (runner construction, trace
  preparation, pool spawn), and reads each pool worker's peak resident set
  just before the pool is torn down.  Untraced runs install just these, so
  set-up is timed where the program does it, spread over the run.
* :meth:`Tracer.install_layers` adds one wrapper per layer entry point for
  the traced run.

Wrappers must be installed before a worker pool exists: fork-started
workers inherit them.  A worker cannot keep its spans until exit (the pool
tears its workers down with SIGKILL), so after each task it appends the
spans recorded since its last task to ``<spool_dir>/<pid>.spans``; the
parent merges those files with :meth:`Tracer.collect_workers` and hangs each
worker task span under the parent's ``sim.engine.run_jobs`` span that was
running at the time.
"""

from __future__ import annotations

import functools
import os
import pickle
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span names whose time is set-up rather than simulation (see
#: :meth:`Tracer.install_setup`).  They never nest in one another.
SETUP_SPANS = ("sim.experiment.init", "sim.engine.trace_for_job",
               "sim.engine.pool_spawn")

SpanId = Tuple[int, int]


class Span:
    """One call of one wrapped entry point."""

    __slots__ = ("sid", "name", "start", "end", "parent", "job", "counts")

    def __init__(self, sid: SpanId, name: str, start: float,
                 parent: Optional[SpanId], job: str) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.counts: Dict[str, float] = {}

    @property
    def pid(self) -> int:
        return self.sid[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(lo: float, hi: float,
                   intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals (parallel worker spans under one parent) are
    counted once.
    """
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[SpanId, float]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: Dict[SpanId, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {span.sid: span.duration - covered_length(
                span.start, span.end,
                ((c.start, c.end) for c in children[span.sid]))
            for span in spans}


def link_worker_roots(spans: List[Span], parent_pid: int) -> None:
    """Hang each worker's root spans under the parent's ``run_jobs`` span
    whose interval contains their start (the innermost one)."""
    batches = sorted((s for s in spans if s.pid == parent_pid
                      and s.name == "sim.engine.run_jobs"),
                     key=lambda s: s.start)
    for span in spans:
        if span.pid == parent_pid or span.parent is not None:
            continue
        holders = [b for b in batches if b.start <= span.start <= b.end]
        if holders:
            span.parent = holders[-1].sid


def peak_rss_kib(pid="self") -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB; 0 if it is
    gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size, so
    a workload run after another in the same process reports its own."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


class Tracer:
    """Span recorder for one benchmark process and its forked workers."""

    def __init__(self, spool_dir: Optional[Path] = None) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        #: (benchmark, trace_uops, seed, use_slicing) -> len(trace), from
        #: every trace the program prepared in this process
        self.trace_lengths: Dict[tuple, int] = {}
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._stack: List[Span] = []
        self._patches: List[tuple] = []
        self._count = 0
        self._spooled = 0
        #: largest peak resident set of a pool worker torn down so far, KiB
        self.worker_peak_kib = 0

    # ------------------------------------------------------------ recording
    def _claim_process(self) -> None:
        """A forked worker starts its own record instead of the parent's."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._stack = []
            self._spooled = 0

    def begin(self, name: str, job: Optional[str] = None) -> Span:
        self._claim_process()
        self._count += 1
        parent = self._stack[-1] if self._stack else None
        if job is None:
            job = parent.job if parent is not None else ""
        span = Span((self.pid, self._count), name, perf_counter(),
                    parent.sid if parent is not None else None, job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, *,
             job: Optional[Callable] = None,
             when: Optional[Callable] = None,
             measure: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``job(*args)`` gives the span's job id (default: inherited from
        the enclosing span); ``when(*args)`` false skips recording;
        ``measure(*args)`` returns a function of the call's return value
        giving the span's counts.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return original(*args, **kwargs)
            finish = measure(*args) if measure is not None else None
            span = tracer.begin(name, job(*args) if job is not None else None)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if finish is not None:
                span.counts = finish(out)
            return out

        setattr(owner, attr, functools.wraps(original)(wrapper))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------- wrapper sets
    def install_setup(self) -> None:
        """Wrap the program's set-up entry points."""
        from repro.sim import engine
        from repro.sim.experiment import ExperimentRunner

        def trace_length(job, *_rest):
            key = (job.benchmark, job.trace_uops, job.seed, job.use_slicing)

            def finish(trace):
                self.trace_lengths[key] = len(trace)
                return {}
            return finish

        self.wrap(ExperimentRunner, "__init__", "sim.experiment.init")
        self.wrap(engine, "trace_for_job", "sim.engine.trace_for_job",
                  measure=trace_length)
        self.wrap(engine.SweepEngine, "_ensure_pool", "sim.engine.pool_spawn",
                  when=lambda eng: eng._pool is None,
                  measure=lambda eng: lambda _pool: {"workers": eng.jobs})

        # Workers are killed at teardown and only a reaped process reports
        # its peak to getrusage, so read each worker's while it still runs.
        stop_pool = engine._stop_pool

        def read_worker_peaks(pool, *args, **kwargs):
            for proc in list(getattr(pool, "_pool", ()) or ()):
                self.worker_peak_kib = max(self.worker_peak_kib,
                                           peak_rss_kib(proc.pid))
            return stop_pool(pool, *args, **kwargs)

        engine._stop_pool = read_worker_peaks
        self._patches.append((engine, "_stop_pool", stop_pool))

    def install_layers(self) -> None:
        """Wrap one entry point per layer (the traced run)."""
        from repro.power.wattch import PowerModel
        from repro.sim import engine
        from repro.sim.cache import ResultCache
        from repro.sim.checkpoint import CampaignCheckpoint
        from repro.sim.experiment import ExperimentRunner
        from repro.sim.simulator import HelperClusterSimulator
        from repro.trace.store import TraceStore
        from repro.trace.synthetic import SyntheticTraceGenerator

        def cache_bytes(cache, *_rest):
            read, written = cache.bytes_read, cache.bytes_written

            def finish(out):
                return {"bytes_read": cache.bytes_read - read,
                        "bytes_written": cache.bytes_written - written,
                        "hit": int(out is not None)}
            return finish

        def stored_bytes(store, key, _trace):
            def finish(_out):
                try:
                    return {"bytes": store.path_for(key).stat().st_size}
                except OSError:
                    return {"bytes": 0}
            return finish

        def sim_counts(_sim):
            return lambda result: {"uops": result.committed_uops,
                                   "fast_cycles": result.fast_cycles}

        self.wrap(SyntheticTraceGenerator, "generate",
                  "trace.synthetic.generate")
        self.wrap(TraceStore, "store", "trace.store.write",
                  measure=stored_bytes)
        self.wrap(TraceStore, "load", "trace.store.load")
        self.wrap(HelperClusterSimulator, "__init__", "sim.simulator.build")
        self.wrap(HelperClusterSimulator, "run", "sim.simulator.run",
                  measure=sim_counts)
        self.wrap(PowerModel, "evaluate_topology", "power.wattch.evaluate")
        self.wrap(PowerModel, "evaluate_shared", "power.wattch.evaluate")
        self.wrap(engine.SweepEngine, "run_jobs", "sim.engine.run_jobs")
        self.wrap(engine.SweepEngine, "key_for", "sim.engine.key")
        self.wrap(engine.SweepEngine, "close", "sim.engine.close")
        self.wrap(engine.SweepEngine, "_execute_supervised", "sim.engine.job",
                  job=lambda eng, job, *_rest: eng.token_for(job))
        self.wrap(engine, "_supervised_worker", "sim.engine.job",
                  job=lambda task: pickle.loads(task)[-1],
                  measure=self._spool_after_task)
        self.wrap(ResultCache, "load", "sim.cache.load", measure=cache_bytes)
        self.wrap(ResultCache, "store", "sim.cache.store", measure=cache_bytes)
        self.wrap(ResultCache, "verify", "sim.cache.verify",
                  measure=cache_bytes)
        self.wrap(CampaignCheckpoint, "__init__", "sim.checkpoint.load")
        self.wrap(CampaignCheckpoint, "mark_completed", "sim.checkpoint.mark")
        for method in ("run_suite", "run_topology_grid", "run_workload_suite"):
            self.wrap(ExperimentRunner, method, "sim.experiment.run")

    # ------------------------------------------------------ worker spans
    def _spool_after_task(self, _task):
        """Counts hook of the worker job span; it runs once the span has
        closed, which is when the worker hands its spans over."""
        def finish(_outcome):
            self.spool()
            return {}
        return finish

    def spool(self) -> None:
        """Append the spans recorded since the last call to this process's
        spool file."""
        with open(self.spool_dir / f"{self.pid}.spans", "ab") as handle:
            pickle.dump(self.spans[self._spooled:], handle)
        self._spooled = len(self.spans)

    def collect_workers(self) -> None:
        """Merge the workers' spool files into this (parent) record."""
        for path in sorted(self.spool_dir.glob("*.spans")):
            with open(path, "rb") as handle:
                while True:
                    try:
                        batch = pickle.load(handle)
                    except EOFError:
                        break
                    self.spans.extend(batch)
            path.unlink()
        link_worker_roots(self.spans, self.pid)

    # ---------------------------------------------------------- queries
    def setup_seconds(self, since: int = 0) -> float:
        """Set-up time of this process's spans recorded after ``since``."""
        return sum(span.duration for span in self.spans[since:]
                   if span.name in SETUP_SPANS and span.pid == self.pid)
