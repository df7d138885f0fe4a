"""The benchmark's three workloads and the output checks on their results.

Each workload runs *rounds*: one round is the whole workload, from runner
construction to pool teardown, on inputs made from one seed alone.  Every
round starts cold (the engine's per-process trace memo is emptied, the
trace store, result cache and checkpoint are fresh directories).  Round
``i`` of a run uses :func:`round_seed`, so a run with several rounds
averages over several input samples: generated traces overshoot their
requested length by a seed-dependent amount (at 1000 requested uops the
56 jobs of one ``suite_cached`` pass retired 111k-215k uops over seeds
0-7), and one sample per run would carry that swing into every metric.

A round returns the results of every job it attempted, keyed by
``(benchmark, policy)`` (``policy`` is the grid point name on
``explore_parallel``), and :func:`check_jobs` turns them into the counted
work and the failed-job list that feed ``sim_uops_per_s`` and
``job_ok_frac``.  No check pins a simulated value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Tuple

#: ladder_cold: requested uops per SPEC trace.  Short enough for two rounds
#: (two seeds, two set-ups) in a 30-s run and a traced run of three rounds
#: well inside its time limit.
LADDER_UOPS = 2000
#: explore_parallel: requested uops per trace, and the fixed SPEC profiles.
#: Fixed so that the seed changes the traces, not the profile mix, and
#: chosen among the profiles whose generated length varies least with the
#: seed (length CV about 0.1 over ten seeds at 2000 uops, against 0.3-0.4
#: for bzip2, gzip and mcf), so a run's work does not swing with the seed.
EXPLORE_UOPS = 2000
EXPLORE_PROFILES = ("crafty", "gcc", "twolf")
EXPLORE_POLICY = "ir_wa"
#: suite_cached: requested uops per app trace, apps per Table-2 category.
#: A Table-2 trace overshoots its requested length by a seed-dependent
#: amount (at 1000 requested the 28 traces of a round total 2.8x the
#: request, with a CV of 0.23 across seeds; at 2000, 1.9x and 0.15), so
#: the longer request makes the set-up and memory of a round follow the
#: seed less.
SUITE_UOPS = 2000
SUITE_APPS_PER_CATEGORY = 4
SUITE_POLICY = "ir_nodest"

Label = Tuple[str, str]
TraceKey = Tuple[str, int, int, bool]


@dataclass
class Round:
    """What one round did, as the benchmark saw it."""

    #: label -> result of every job that returned one
    results: Dict[Label, object]
    #: supervision reports of the runners the round used
    reports: List[object]
    #: jobs handed to the program (a resume pass hands them over again)
    attempted: int
    #: failed job ("benchmark:policy", with the pass) -> what failed
    failures: Dict[str, str] = field(default_factory=dict)
    #: trace uops retired by the jobs the round computed and that passed
    uops: int = 0
    wall: float = 0.0
    setup: float = 0.0

    def fail(self, failures: Mapping[str, str]) -> None:
        """Record failed checks; a job failing twice still counts once."""
        for job, reason in failures.items():
            known = self.failures.get(job)
            self.failures[job] = f"{known}; {reason}" if known else reason


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run whose seed is ``seed``."""
    return seed + 100_003 * index


def check_jobs(expected: Mapping[Label, TraceKey],
               results: Mapping[Label, object],
               trace_lengths: Mapping[TraceKey, int],
               tag: str = "") -> Tuple[int, Dict[str, str]]:
    """Check that every expected job returned a result that retired its
    whole trace.

    Returns the trace uops retired by the passing jobs (counted from the
    results, never from the requested length, which generated traces
    overshoot) and ``{"benchmark:policy<tag>": reason}`` for each failed
    job; a job with no result (quarantined) fails.
    """
    uops = 0
    failures: Dict[str, str] = {}
    for label, trace in expected.items():
        result = results.get(label)
        job = ":".join(label) + tag
        if result is None:
            failures[job] = "no result (quarantined)"
            continue
        length = trace_lengths.get(trace)
        if result.committed_uops != length:
            failures[job] = (f"retired {result.committed_uops} of {length} "
                             f"trace uops")
            continue
        uops += result.committed_uops
    return uops, failures


def compare_results(reference: Mapping[Label, object],
                    candidate: Mapping[Label, object],
                    tag: str = "") -> Dict[str, str]:
    """Failures for candidate results that differ field for field from the
    reference's."""
    return {":".join(label) + tag: "result differs from the reference run"
            for label, result in reference.items()
            if label in candidate
            and dataclasses.asdict(candidate[label]) != dataclasses.asdict(result)}


def _cold_start() -> None:
    """Forget traces generated by earlier rounds of this process."""
    from repro.sim import engine

    engine._trace_memo.clear()


def _spec_profiles(names):
    from repro.trace.profiles import SPEC_INT_2000

    return [SPEC_INT_2000[name] for name in names]


# ---------------------------------------------------------------- ladder_cold
def ladder_round(seed: int, workdir: Path,
                 trace_lengths: Mapping[TraceKey, int]) -> Round:
    """12 SPEC profiles x (baseline + the 7 ladder policies), serial, no
    result cache, fresh trace store."""
    from repro.core.steering import policy_registry
    from repro.sim.engine import job_seed
    from repro.sim.experiment import ExperimentRunner
    from repro.trace.profiles import SPEC_INT_NAMES

    _cold_start()
    policies = policy_registry.ladder_names(include_baseline=False)
    runner = ExperimentRunner(trace_uops=LADDER_UOPS, seed=seed,
                              trace_store_dir=str(workdir / "traces"),
                              quarantine_path=str(workdir / "failed.json"))
    try:
        sweep = runner.run_suite(_spec_profiles(SPEC_INT_NAMES), policies)
    finally:
        runner.engine.close()
    expected: Dict[Label, TraceKey] = {}
    results: Dict[Label, object] = {}
    for name in SPEC_INT_NAMES:
        trace = (name, LADDER_UOPS, job_seed(seed, name), False)
        bench = sweep.results.get(name)
        for policy in ["baseline"] + policies:
            expected[(name, policy)] = trace
            if bench is None:
                continue
            result = (bench.baseline if policy == "baseline"
                      else bench.by_policy.get(policy))
            if result is not None:
                results[(name, policy)] = result
    uops, failures = check_jobs(expected, results, trace_lengths)
    return Round(results=results, reports=[runner.report],
                 attempted=len(expected), failures=failures, uops=uops)


# ----------------------------------------------------------- explore_parallel
def explore_points():
    """The 12-point topology grid plus the asymmetric 8@2x + 16@1x mix."""
    from repro.sim.experiment import build_topology_grid, mixed_topology_point

    return build_topology_grid() + [mixed_topology_point([(8, 2), (16, 1)])]


def explore_round(seed: int, workdir: Path,
                  trace_lengths: Mapping[TraceKey, int]) -> Round:
    """The design-space grid under ``ir_wa`` through the warm pool (one
    worker per CPU), no result cache."""
    from repro.sim.engine import job_seed
    from repro.sim.experiment import ExperimentRunner

    _cold_start()
    points = explore_points()
    runner = ExperimentRunner(trace_uops=EXPLORE_UOPS, seed=seed, jobs=0,
                              trace_store_dir=str(workdir / "traces"),
                              quarantine_path=str(workdir / "failed.json"))
    try:
        sweep = runner.run_topology_grid(points, _spec_profiles(EXPLORE_PROFILES),
                                         policy=EXPLORE_POLICY)
    finally:
        runner.engine.close()
    expected: Dict[Label, TraceKey] = {}
    results: Dict[Label, object] = {}
    for name in EXPLORE_PROFILES:
        trace = (name, EXPLORE_UOPS, job_seed(seed, name), False)
        expected[(name, "baseline")] = trace
        if name in sweep.baselines:
            results[(name, "baseline")] = sweep.baselines[name]
        for point in points:
            expected[(name, point.name)] = trace
            if (point.name, name) in sweep.results:
                results[(name, point.name)] = sweep.results[(point.name, name)]
    uops, failures = check_jobs(expected, results, trace_lengths)
    return Round(results=results, reports=[runner.report],
                 attempted=len(expected), failures=failures, uops=uops)


# --------------------------------------------------------------- suite_cached
def _suite_pass(seed: int, cache_dir: Path):
    from repro.sim.experiment import ExperimentRunner

    runner = ExperimentRunner(trace_uops=SUITE_UOPS, seed=seed,
                              cache_dir=str(cache_dir))
    try:
        sweep = runner.run_workload_suite(
            SUITE_POLICY, apps_per_category=SUITE_APPS_PER_CATEGORY,
            base_seed=seed)
    finally:
        runner.engine.close()
    results: Dict[Label, object] = {}
    for app in sweep.apps:
        if app.name in sweep.baselines:
            results[(app.name, "baseline")] = sweep.baselines[app.name]
        if app.name in sweep.by_app:
            results[(app.name, SUITE_POLICY)] = sweep.by_app[app.name]
    return runner, sweep, results


def suite_round(seed: int, workdir: Path,
                trace_lengths: Mapping[TraceKey, int]) -> Round:
    """Table-2 apps x (baseline + ``ir_nodest``), serial, on a fresh result
    cache, checkpoint and trace store: a cold pass, then a resume pass on a
    new runner over the same directory."""
    _cold_start()
    cache_dir = workdir / "cache"
    cold_runner, cold, results = _suite_pass(seed, cache_dir)
    resume_runner, _resume, resumed = _suite_pass(seed, cache_dir)
    expected: Dict[Label, TraceKey] = {}
    for app in cold.apps:
        trace = (app.name, SUITE_UOPS, app.seed, False)
        expected[(app.name, "baseline")] = trace
        expected[(app.name, SUITE_POLICY)] = trace
    uops, failures = check_jobs(expected, results, trace_lengths)
    round_ = Round(results=results, reports=[cold_runner.report,
                                             resume_runner.report],
                   attempted=2 * len(expected), failures=failures, uops=uops)
    # The resume pass must serve every job from the cache and checkpoint,
    # computing nothing, with results equal to the cold pass.
    tag = " (resume pass)"
    report = resume_runner.report
    if report.computed != 0 or report.resumed != len(expected):
        round_.fail({":".join(label) + tag: (
            f"resume pass computed {report.computed} and resumed "
            f"{report.resumed} of {len(expected)} jobs") for label in expected})
    round_.fail(check_jobs(expected, resumed, trace_lengths, tag)[1])
    round_.fail(compare_results(results, resumed, tag))
    return round_


# ------------------------------------------------------------ fixed jobs
def profiled_job(workload: str, seed: int):
    """``(trace, config, policy name)`` of the one fixed job per workload
    whose cProfile call count gives ``sim.simulator.py_calls_per_uop``.

    The trace is generated here, never taken from a memo, so the job starts
    from the same state in every process.
    """
    from repro.core.config import helper_cluster_config
    from repro.trace.profiles import get_profile
    from repro.trace.synthetic import generate_trace
    from repro.trace.workloads import build_workload_suite

    if workload == "ladder_cold":
        return (generate_trace(get_profile("gcc"), 4000, seed=seed),
                helper_cluster_config(), "ir")
    if workload == "explore_parallel":
        return (generate_trace(get_profile("gcc"), 4000, seed=seed),
                explore_points()[-1].config, EXPLORE_POLICY)
    app = build_workload_suite(apps_per_category=1, base_seed=seed)[0]
    return (generate_trace(app.profile, SUITE_UOPS, seed=app.seed),
            helper_cluster_config(), SUITE_POLICY)


class Workload(NamedTuple):
    #: ``(seed, workdir, trace_lengths) -> Round``
    run_round: Callable[..., Round]
    #: wall time of one round on a 2-vCPU x86 host, which sets how many
    #: rounds a run of a given length makes
    round_seconds: float

    def rounds_for(self, seconds: float) -> int:
        """Rounds in a run of about ``seconds``: a fixed number for a given
        run length, so every run of a workload does the same work."""
        return max(1, round(seconds / self.round_seconds))


WORKLOADS = {
    "ladder_cold": Workload(ladder_round, 16.0),
    "explore_parallel": Workload(explore_round, 10.0),
    "suite_cached": Workload(suite_round, 15.0),
}
