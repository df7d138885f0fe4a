"""Experiment runner: per-benchmark, per-policy sweeps.

This is the layer the benchmark harness and examples drive.  It owns trace
generation (with caching), baseline simulation and the cumulative policy
ladder, and returns structured results that :mod:`repro.sim.reporting` turns
into the paper's tables and series.

Execution is delegated to the job-based :class:`~repro.sim.engine.SweepEngine`,
which fans (benchmark, policy) jobs over a process pool when ``jobs > 1`` and
serves repeated runs from the on-disk result cache when one is configured.
Serial and parallel paths are bit-identical (see DESIGN.md and
``tests/test_engine.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import (
    MachineConfig,
    Topology,
    helper_cluster_config,
    helper_topology,
    mixed_helper_topology,
    topology_config,
)
from repro.core.steering import make_policy, policy_registry
from repro.sim.cache import ResultCache
from repro.sim.engine import SweepEngine, SweepJob, job_seed, trace_for_job
from repro.sim.metrics import SimulationResult, ed2_improvement, speedup
from repro.sim.simulator import simulate
from repro.trace.profiles import SPEC_INT_2000, SPEC_INT_NAMES, BenchmarkProfile
from repro.trace.trace import Trace
from repro.trace.workloads import WorkloadApp, build_workload_suite

#: Default trace length (uops) used by experiments.  The paper simulates
#: 100M-instruction traces; the synthetic profiles converge much earlier, and
#: the pure-Python simulator needs CI-scale runtimes (see DESIGN.md).  Raised
#: from 30k when the event-wheel core + cross-job trace store landed (PR 5).
DEFAULT_TRACE_UOPS = 50_000


def _safe_ed2_improvement(baseline: SimulationResult,
                          candidate: SimulationResult) -> float:
    """ED² improvement, or 0.0 when either run lacks energy figures.

    Every simulated result carries energy, but a hand-built
    :class:`SimulationResult` has ``ed2 == 0``; reporting that as a +100%
    gain would be nonsense, so both sides must carry energy for a
    comparison to mean anything.
    """
    if baseline.ed2 <= 0 or not candidate.has_energy:
        return 0.0
    return ed2_improvement(baseline, candidate)


@dataclass
class BenchmarkResult:
    """Baseline + policy results for one benchmark."""

    benchmark: str
    baseline: SimulationResult
    by_policy: Dict[str, SimulationResult] = field(default_factory=dict)

    def speedup(self, policy: str) -> float:
        return speedup(self.baseline, self.by_policy[policy])

    def speedups(self) -> Dict[str, float]:
        return {name: self.speedup(name) for name in self.by_policy}

    def ed2_improvement(self, policy: str) -> float:
        """Relative ED² gain of a policy over the monolithic baseline."""
        return _safe_ed2_improvement(self.baseline, self.by_policy[policy])


@dataclass
class PolicySweepResult:
    """Results of a sweep over benchmarks x policies.

    Cells may be missing when a supervised campaign quarantined a job (see
    :meth:`SweepEngine.run_suite`); aggregates and series are computed over
    the surviving cells, so a campaign with failures still reports every
    number it did produce.
    """

    policies: List[str]
    benchmarks: List[str]
    results: Dict[str, BenchmarkResult] = field(default_factory=dict)

    def _cells(self, policy: str):
        """Benchmark results that actually hold ``policy`` (in order)."""
        for name in self.benchmarks:
            bench = self.results.get(name)
            if bench is not None and policy in bench.by_policy:
                yield bench

    def mean_speedup(self, policy: str) -> float:
        values = [bench.speedup(policy) for bench in self._cells(policy)]
        return sum(values) / len(values) if values else 0.0

    def mean_helper_fraction(self, policy: str) -> float:
        values = [bench.by_policy[policy].helper_fraction
                  for bench in self._cells(policy)]
        return sum(values) / len(values) if values else 0.0

    def mean_copy_fraction(self, policy: str) -> float:
        values = [bench.by_policy[policy].copy_fraction
                  for bench in self._cells(policy)]
        return sum(values) / len(values) if values else 0.0

    def speedup_series(self, policy: str) -> Dict[str, float]:
        return {bench.benchmark: bench.speedup(policy)
                for bench in self._cells(policy)}

    def mean_ed2_improvement(self, policy: str) -> float:
        values = [bench.ed2_improvement(policy)
                  for bench in self._cells(policy)]
        return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class TopologyPoint:
    """One machine shape of a design-space exploration."""

    name: str
    config: MachineConfig

    @property
    def topology(self) -> Topology:
        return self.config.topology

    def describe(self) -> str:
        """Compact cluster summary, e.g. ``32 + 2x8b@2x``."""
        topology = self.topology
        if not topology.helpers:
            return f"{topology.host.datapath_width}b host only"
        by_shape: Dict[Tuple[int, int], int] = {}
        for spec in topology.helpers:
            key = (spec.datapath_width, spec.clock_ratio)
            by_shape[key] = by_shape.get(key, 0) + 1
        parts = [f"{count}x{width}b@{ratio}x"
                 for (width, ratio), count in sorted(by_shape.items())]
        return f"{topology.host.datapath_width}b + " + " + ".join(parts)


def build_topology_grid(widths: Sequence[int] = (4, 8, 16),
                        ratios: Sequence[int] = (1, 2),
                        helper_counts: Sequence[int] = (1, 2),
                        predictor_entries: int = 256) -> List[TopologyPoint]:
    """The narrow-width x clock-ratio x helper-count exploration grid.

    The default grid is 3 x 2 x 2 = 12 machine shapes, with the paper's
    design point (``w8x2h1``) among them.
    """
    points: List[TopologyPoint] = []
    for width in widths:
        for ratio in ratios:
            for count in helper_counts:
                name = f"w{width}x{ratio}h{count}"
                config = topology_config(
                    helper_topology(narrow_width=width, clock_ratio=ratio,
                                    helpers=count),
                    predictor_entries=predictor_entries)
                points.append(TopologyPoint(name=name, config=config))
    return points


def mixed_topology_point(helper_shapes: Sequence[Tuple[int, int]],
                         predictor_entries: int = 256) -> TopologyPoint:
    """An asymmetric exploration point: one helper per (width, ratio) pair.

    ``mixed_topology_point([(8, 2), (16, 1)])`` is the ROADMAP's
    8-bit@2x + 16-bit@1x machine, named ``mix_8x2_16x1``; it slots into
    :meth:`ExperimentRunner.run_topology_grid` next to the uniform grid
    points (the CLI's ``explore --mixed``).
    """
    name = "mix_" + "_".join(f"{width}x{ratio}" for width, ratio in helper_shapes)
    config = topology_config(mixed_helper_topology(helper_shapes),
                             predictor_entries=predictor_entries)
    return TopologyPoint(name=name, config=config)


@dataclass
class TopologySweepResult:
    """Results of a topology-grid exploration under one steering policy."""

    policy: str
    benchmarks: List[str]
    points: List[TopologyPoint]
    #: benchmark -> monolithic baseline result (shared across all points)
    baselines: Dict[str, SimulationResult] = field(default_factory=dict)
    #: (point name, benchmark) -> result
    results: Dict[Tuple[str, str], SimulationResult] = field(default_factory=dict)

    def _bench_cells(self, point: str):
        """Benchmarks with both a baseline and this point's result.

        A supervised campaign may quarantine individual grid cells;
        aggregates are over the surviving ones.
        """
        for name in self.benchmarks:
            if (name in self.baselines
                    and (point, name) in self.results):
                yield name

    def result(self, point: str, benchmark: str) -> SimulationResult:
        return self.results[(point, benchmark)]

    def speedup(self, point: str, benchmark: str) -> float:
        return speedup(self.baselines[benchmark], self.results[(point, benchmark)])

    def mean_speedup(self, point: str) -> float:
        values = [self.speedup(point, b) for b in self._bench_cells(point)]
        return sum(values) / len(values) if values else 0.0

    def mean_helper_fraction(self, point: str) -> float:
        values = [self.results[(point, b)].helper_fraction
                  for b in self._bench_cells(point)]
        return sum(values) / len(values) if values else 0.0

    def mean_copy_fraction(self, point: str) -> float:
        values = [self.results[(point, b)].copy_fraction
                  for b in self._bench_cells(point)]
        return sum(values) / len(values) if values else 0.0

    def ed2_improvement(self, point: str, benchmark: str) -> float:
        """ED² gain of one grid point over the shared monolithic baseline."""
        return _safe_ed2_improvement(self.baselines[benchmark],
                                     self.results[(point, benchmark)])

    def mean_ed2_improvement(self, point: str) -> float:
        values = [self.ed2_improvement(point, b)
                  for b in self._bench_cells(point)]
        return sum(values) / len(values) if values else 0.0

    def mean_energy(self, point: str) -> float:
        values = [self.results[(point, b)].energy
                  for b in self._bench_cells(point)]
        return sum(values) / len(values) if values else 0.0

    def best_point(self) -> TopologyPoint:
        return max(self.points, key=lambda p: self.mean_speedup(p.name))

    def best_ed2_point(self) -> TopologyPoint:
        """The grid point with the best mean ED² gain (the paper's metric)."""
        return max(self.points, key=lambda p: self.mean_ed2_improvement(p.name))


@dataclass
class WorkloadSweepResult:
    """Results of the Table 2 workload suite under one steering policy."""

    policy: str
    apps: List[WorkloadApp]
    #: app name -> monolithic baseline result
    baselines: Dict[str, SimulationResult] = field(default_factory=dict)
    #: app name -> policy result
    by_app: Dict[str, SimulationResult] = field(default_factory=dict)

    def _live_apps(self) -> List[WorkloadApp]:
        """Apps with both a baseline and a policy result (a supervised
        campaign may have quarantined either half of a pair)."""
        return [app for app in self.apps
                if app.name in self.baselines and app.name in self.by_app]

    def speedup(self, app_name: str) -> float:
        return speedup(self.baselines[app_name], self.by_app[app_name])

    def speedups(self) -> Dict[str, float]:
        return {app.name: self.speedup(app.name) for app in self._live_apps()}

    def ed2_improvement(self, app_name: str) -> float:
        return _safe_ed2_improvement(self.baselines[app_name],
                                     self.by_app[app_name])

    def mean_ed2_improvement(self) -> float:
        values = [self.ed2_improvement(app.name) for app in self._live_apps()]
        return sum(values) / len(values) if values else 0.0

    def category_speedups(self) -> Dict[str, List[float]]:
        by_category: Dict[str, List[float]] = {}
        for app in self._live_apps():
            by_category.setdefault(app.category, []).append(self.speedup(app.name))
        return by_category

    def category_means(self) -> Dict[str, float]:
        return {category: sum(values) / len(values)
                for category, values in self.category_speedups().items()}

    def mean_speedup(self) -> float:
        values = [self.speedup(app.name) for app in self._live_apps()]
        return sum(values) / len(values) if values else 0.0

    def s_curve(self) -> List[float]:
        """Per-app performance sorted ascending, baseline = 1 (Figure 14)."""
        return sorted(1.0 + self.speedup(app.name)
                      for app in self._live_apps())


class ExperimentRunner:
    """Front-end over :class:`SweepEngine` that caches traces and baselines.

    Parameters
    ----------
    jobs:
        Worker processes for sweeps (1 = serial, 0 = one per CPU).  Requests
        beyond the host's usable CPUs are clamped by the engine unless
        ``allow_oversubscribe=True``.
    cache_dir:
        Directory for the on-disk result cache; None disables caching.
    use_cache:
        When False, an existing ``cache_dir`` is bypassed on reads (results
        are still recomputed and stored), the CLI's ``--no-cache``.
    supervisor / faults:
        Passed through to the engine (retry/deadline policy and the
        deterministic fault plan; see :mod:`repro.sim.supervise` and
        :mod:`repro.faultkit`).
    checkpoint_path / quarantine_path:
        Campaign checkpoint (JSONL) and the replayable ``failed-jobs.json``
        ledger.  Both default to living next to the result cache when a
        ``cache_dir`` is configured (``<cache-dir>/checkpoint.jsonl`` /
        ``<cache-dir>/failed-jobs.json``) — a cached campaign is resumable
        and quarantine-accountable by default; without a cache dir the
        quarantine ledger falls back to ``./failed-jobs.json`` and
        checkpointing is off (there is no durable store to resume from).
    """

    def __init__(self, trace_uops: int = DEFAULT_TRACE_UOPS, seed: int = 2006,
                 config: Optional[MachineConfig] = None,
                 use_slicing: bool = False, jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 use_cache: bool = True,
                 trace_store_dir: Optional[str] = None,
                 allow_oversubscribe: bool = False,
                 supervisor=None, faults=None,
                 checkpoint_path: Optional[str] = None,
                 quarantine_path: Optional[str] = None) -> None:
        if trace_uops <= 0:
            raise ValueError("trace_uops must be positive")
        self.trace_uops = trace_uops
        self.seed = seed
        self.config = config or helper_cluster_config()
        self.use_slicing = use_slicing
        self.use_cache = use_cache
        self.cache = ResultCache(cache_dir) if cache_dir else None
        if trace_store_dir is None and cache_dir:
            # A persistent result cache gets a persistent sibling trace
            # store: warm directories skip generation as well as simulation.
            trace_store_dir = os.path.join(str(cache_dir), "traces")
        if checkpoint_path is None and cache_dir:
            checkpoint_path = os.path.join(str(cache_dir), "checkpoint.jsonl")
        if quarantine_path is None:
            quarantine_path = (os.path.join(str(cache_dir), "failed-jobs.json")
                               if cache_dir else "failed-jobs.json")
        self.engine = SweepEngine(config=self.config, jobs=jobs,
                                  cache=self.cache,
                                  trace_store_dir=trace_store_dir,
                                  allow_oversubscribe=allow_oversubscribe,
                                  supervisor=supervisor, faults=faults,
                                  checkpoint_path=checkpoint_path,
                                  quarantine_path=quarantine_path)
        self._baselines: Dict[str, SimulationResult] = {}

    @property
    def report(self):
        """The engine's supervision report (retries, quarantines, …)."""
        return self.engine.report

    # ------------------------------------------------------------------ jobs
    def _job(self, profile: BenchmarkProfile, policy: str) -> SweepJob:
        self.engine.register_profile(profile)
        return SweepJob(profile.name, policy, self.trace_uops,
                        job_seed(self.seed, profile.name), self.use_slicing)

    # ------------------------------------------------------------------ traces
    def trace_for(self, profile: BenchmarkProfile) -> Trace:
        """Generate (and cache) the trace for a profile."""
        return trace_for_job(self._job(profile, "baseline"), profile,
                             self.engine.trace_store)

    def baseline_for(self, profile: BenchmarkProfile) -> SimulationResult:
        """Run (and cache) the monolithic baseline for a profile."""
        key = f"{profile.name}:{self.seed}:{self.trace_uops}:{self.use_slicing}"
        if key not in self._baselines:
            job = self._job(profile, "baseline")
            self._baselines[key] = self._single_result(job)
        return self._baselines[key]

    def _single_result(self, job: SweepJob) -> SimulationResult:
        """Run one job; a quarantined single job is a hard error (there is
        no partial campaign to salvage when the caller asked for exactly
        this result)."""
        results = self.engine.run_jobs([job], use_cache=self.use_cache)
        if job not in results:
            raise RuntimeError(
                f"job {job.benchmark}:{job.policy} failed all supervised "
                f"attempts (quarantined); see the failed-jobs ledger")
        return results[job]

    # ------------------------------------------------------------------- runs
    def run_policy(self, profile: BenchmarkProfile, policy_name: str,
                   config: Optional[MachineConfig] = None) -> SimulationResult:
        """Run one benchmark under one policy of the ladder."""
        if policy_name == "baseline":
            return self.baseline_for(profile)
        if config is not None and config is not self.config:
            # One-off config override: run directly, outside the engine's
            # (config-keyed) cache.
            return simulate(self.trace_for(profile), config=config,
                            policy=make_policy(policy_name))
        job = self._job(profile, policy_name)
        return self._single_result(job)

    def run_benchmark(self, profile: BenchmarkProfile,
                      policies: Sequence[str]) -> BenchmarkResult:
        """Run one benchmark under several policies, sharing the baseline."""
        sweep = self.run_suite([profile], policies)
        return sweep.results[profile.name]

    def run_suite(self, profiles: Iterable[BenchmarkProfile],
                  policies: Sequence[str]) -> PolicySweepResult:
        """Run a set of benchmarks under a set of policies."""
        return self.engine.run_suite(profiles, policies,
                                     trace_uops=self.trace_uops,
                                     seed=self.seed,
                                     use_slicing=self.use_slicing,
                                     use_cache=self.use_cache)

    # -------------------------------------------------------- design space
    def run_topology_grid(self, points: Sequence[TopologyPoint],
                          profiles: Iterable[BenchmarkProfile],
                          policy: str = "ir") -> TopologySweepResult:
        """Sweep machine shapes x benchmarks through the parallel engine.

        One job per (topology point, benchmark) plus a shared monolithic
        baseline per benchmark; every job carries its topology, so the pool
        fans out over machine shapes exactly as it does over benchmarks, and
        the result cache keys each point separately.
        """
        if policy == "baseline":
            raise ValueError("the exploration policy must be a helper policy")
        profiles = list(profiles)
        jobs: List[SweepJob] = []
        for profile in profiles:
            self.engine.register_profile(profile)
            seed_for_bench = job_seed(self.seed, profile.name)
            jobs.append(SweepJob(profile.name, "baseline", self.trace_uops,
                                 seed_for_bench, self.use_slicing))
            for point in points:
                jobs.append(SweepJob(profile.name, policy, self.trace_uops,
                                     seed_for_bench, self.use_slicing,
                                     config=point.config))
        results = self.engine.run_jobs(jobs, use_cache=self.use_cache)

        sweep = TopologySweepResult(policy=policy,
                                    benchmarks=[p.name for p in profiles],
                                    points=list(points))
        # Quarantined cells are simply absent; the aggregates skip them
        # (and the supervision report records what was dropped).
        for profile in profiles:
            seed_for_bench = job_seed(self.seed, profile.name)
            baseline = results.get(SweepJob(
                profile.name, "baseline", self.trace_uops, seed_for_bench,
                self.use_slicing))
            if baseline is not None:
                sweep.baselines[profile.name] = baseline
            for point in points:
                result = results.get(SweepJob(
                    profile.name, policy, self.trace_uops, seed_for_bench,
                    self.use_slicing, config=point.config))
                if result is not None:
                    sweep.results[(point.name, profile.name)] = result
        return sweep

    # ----------------------------------------------------- workload suite
    def run_workload_suite(self, policy: str = "ir_nodest",
                           categories: Optional[Sequence[str]] = None,
                           apps_per_category: Optional[int] = None,
                           base_seed: Optional[int] = None) -> WorkloadSweepResult:
        """Run the Table 2 suite (§3.8 / Figure 14) through the engine.

        Each application is a (perturbed-profile, per-app seed) job pair —
        baseline plus ``policy`` — fanned over the worker pool and served
        from the result cache on re-runs, replacing the serial per-app loop
        of the benchmark harness.
        """
        apps = build_workload_suite(
            list(categories) if categories else None,
            apps_per_category=apps_per_category,
            base_seed=self.seed if base_seed is None else base_seed)
        jobs: List[SweepJob] = []
        for app in apps:
            self.engine.register_profile(app.profile)
            jobs.append(SweepJob(app.name, "baseline", self.trace_uops,
                                 app.seed, self.use_slicing))
            jobs.append(SweepJob(app.name, policy, self.trace_uops,
                                 app.seed, self.use_slicing))
        results = self.engine.run_jobs(jobs, use_cache=self.use_cache)

        sweep = WorkloadSweepResult(policy=policy, apps=apps)
        for app in apps:
            baseline = results.get(SweepJob(
                app.name, "baseline", self.trace_uops, app.seed,
                self.use_slicing))
            if baseline is not None:
                sweep.baselines[app.name] = baseline
            result = results.get(SweepJob(
                app.name, policy, self.trace_uops, app.seed,
                self.use_slicing))
            if result is not None:
                sweep.by_app[app.name] = result
        return sweep


def run_spec_suite(policies: Sequence[str], trace_uops: int = DEFAULT_TRACE_UOPS,
                   seed: int = 2006, benchmarks: Optional[Sequence[str]] = None,
                   config: Optional[MachineConfig] = None, jobs: int = 1,
                   cache_dir: Optional[str] = None,
                   use_cache: bool = True,
                   allow_oversubscribe: bool = False) -> PolicySweepResult:
    """Run the 12 SPEC Int 2000 benchmarks (or a subset) under the given policies."""
    runner = ExperimentRunner(trace_uops=trace_uops, seed=seed, config=config,
                              jobs=jobs, cache_dir=cache_dir,
                              use_cache=use_cache,
                              allow_oversubscribe=allow_oversubscribe)
    names = list(benchmarks) if benchmarks else SPEC_INT_NAMES
    profiles = [SPEC_INT_2000[name] for name in names]
    return runner.run_suite(profiles, policies)


def run_policy_ladder(trace_uops: int = DEFAULT_TRACE_UOPS, seed: int = 2006,
                      benchmarks: Optional[Sequence[str]] = None, jobs: int = 1,
                      cache_dir: Optional[str] = None,
                      use_cache: bool = True) -> PolicySweepResult:
    """Run the full cumulative policy ladder of the paper over SPEC Int 2000."""
    policies = policy_registry.ladder_names(include_baseline=False)
    return run_spec_suite(policies, trace_uops=trace_uops, seed=seed,
                          benchmarks=benchmarks, jobs=jobs,
                          cache_dir=cache_dir, use_cache=use_cache)
