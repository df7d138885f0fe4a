"""Tests for the fault-tolerant supervision layer (PR 10 tentpole).

Every recovery path is driven by a seeded :class:`~repro.faultkit.FaultPlan`
— worker SIGKILL mid-job, hangs past the deadline, transient exceptions,
cache/trace corruption, a deterministic KeyboardInterrupt — and the
invariant checked throughout is the engine's core contract: *surviving
results are bit-identical to a fault-free serial run* (compared via
``dataclasses.asdict``, the same convention as ``tests/test_engine.py``),
quarantined jobs are recorded and replayable, and an interrupted campaign
resumes touching zero completed jobs.
"""

import dataclasses
import json

import pytest

from repro.faultkit import FaultPlan
from repro.sim.checkpoint import (
    CampaignCheckpoint,
    load_quarantine_file,
    write_quarantine_file,
)
from repro.sim.engine import SweepEngine, SweepJob
from repro.sim.experiment import ExperimentRunner, build_topology_grid
from repro.sim.supervise import SupervisorPolicy, SweepReport
from repro.trace.profiles import get_profile

UOPS = 400
SEED = 2006

#: Fast supervision for tests: tight backoff and poll, short deadlines.
FAST = SupervisorPolicy(backoff_base=0.01, poll_interval=0.005,
                        timeout_base=60.0)


def _jobs(pairs):
    return [SweepJob(bench, policy, UOPS, SEED) for bench, policy in pairs]


def _fingerprint(results):
    return {(job.benchmark, job.policy): dataclasses.asdict(result)
            for job, result in results.items()}


@pytest.fixture(scope="module")
def truth():
    """Fault-free serial ground truth for the job set the tests reuse."""
    jobs = _jobs([("gcc", "baseline"), ("gcc", "ir"),
                  ("gzip", "baseline"), ("gzip", "ir")])
    with SweepEngine(jobs=1, faults=FaultPlan(seed=0)) as engine:
        return _fingerprint(engine.run_jobs(jobs))


class TestSerialSupervision:
    def test_transient_faults_retry_to_identical_results(self, truth):
        plan = FaultPlan(seed=3, transient=1.0, backoff=0.01)
        with SweepEngine(jobs=1, supervisor=FAST, faults=plan) as engine:
            results = engine.run_jobs(_jobs([("gcc", "baseline"),
                                             ("gcc", "ir"),
                                             ("gzip", "baseline"),
                                             ("gzip", "ir")]))
        assert {(j.benchmark, j.policy): dataclasses.asdict(r)
                for j, r in results.items()} == truth
        assert engine.report.computed == 4
        assert engine.report.retries == 4  # every first attempt faulted
        assert engine.report.worker_errors == 4
        assert engine.report.ok

    def test_sticky_fault_quarantines_without_aborting(self, tmp_path, truth):
        ledger = tmp_path / "failed-jobs.json"
        plan = FaultPlan(seed=3, sticky=("crash@gcc:ir",), backoff=0.01)
        with SweepEngine(jobs=1, supervisor=FAST, faults=plan,
                         quarantine_path=str(ledger)) as engine:
            results = engine.run_jobs(_jobs([("gcc", "baseline"),
                                             ("gcc", "ir"),
                                             ("gzip", "ir")]))
        # The campaign survives: the other jobs' results are intact.
        assert {(j.benchmark, j.policy) for j in results} == {
            ("gcc", "baseline"), ("gzip", "ir")}
        for job, result in results.items():
            assert dataclasses.asdict(result) == truth[(job.benchmark,
                                                        job.policy)]
        assert not engine.report.ok
        (record,) = engine.report.quarantined
        assert record["job"]["benchmark"] == "gcc"
        assert record["job"]["policy"] == "ir"
        assert len(record["attempts"]) == FAST.max_attempts
        # The ledger is replayable: its job dict reconstructs the SweepJob.
        (loaded,) = load_quarantine_file(ledger)
        assert SweepJob(**loaded["job"]) == SweepJob("gcc", "ir", UOPS, SEED)


class TestParallelSupervision:
    def test_sigkill_mid_job_is_survived(self, truth):
        """A worker SIGKILLed mid-job (the satellite scenario verbatim):
        the death is attributed, the pool respawned, the job retried, and
        every result matches the fault-free serial truth."""
        # Fault decisions hash the job token (benchmark, policy and a
        # digest of the job's own fields); seed 8 crashes the first attempt
        # of gcc:baseline, gzip:baseline and gzip:ir.
        plan = FaultPlan(seed=8, crash=0.35, backoff=0.01)
        with SweepEngine(jobs=2, allow_oversubscribe=True, supervisor=FAST,
                         faults=plan) as engine:
            results = engine.run_jobs(_jobs([("gcc", "baseline"),
                                             ("gcc", "ir"),
                                             ("gzip", "baseline"),
                                             ("gzip", "ir")]))
            assert engine.report.worker_deaths > 0, \
                "plan seed must actually kill at least one worker"
            assert engine.report.pool_respawns > 0
        assert _fingerprint(results) == truth
        assert engine.report.ok

    def test_hang_past_deadline_times_out_and_retries(self, truth):
        # Seed 18 hangs the first attempt of gcc:baseline.
        plan = FaultPlan(seed=18, hang=0.35, hang_delay=60.0,
                         deadline=2.0, backoff=0.01)
        with SweepEngine(jobs=2, allow_oversubscribe=True, supervisor=FAST,
                         faults=plan) as engine:
            results = engine.run_jobs(_jobs([("gcc", "baseline"),
                                             ("gcc", "ir"),
                                             ("gzip", "baseline"),
                                             ("gzip", "ir")]))
            assert engine.report.timeouts > 0, \
                "plan seed must actually hang at least one job"
        assert _fingerprint(results) == truth

    def test_externally_broken_pool_is_survived(self, truth):
        """Killing every pool worker between batches must not wedge the
        engine (the BrokenProcessPool scenario).  The nastiest variant is
        deliberate: an idle worker SIGKILLed while holding the task queue's
        reader lock leaves the auto-replaced workers wedged on that lock —
        recovery comes from the per-job deadline, which respawns the whole
        pool with fresh queues."""
        import os
        import signal

        quick = SupervisorPolicy(backoff_base=0.01, poll_interval=0.005,
                                 timeout_base=5.0)
        with SweepEngine(jobs=2, allow_oversubscribe=True,
                         supervisor=quick, faults=FaultPlan(seed=0)) as engine:
            pool = engine._ensure_pool()
            for proc in pool._pool:
                os.kill(proc.pid, signal.SIGKILL)
            results = engine.run_jobs(_jobs([("gcc", "baseline"),
                                             ("gcc", "ir"),
                                             ("gzip", "baseline"),
                                             ("gzip", "ir")]))
            assert engine.report.pool_respawns > 0
        assert _fingerprint(results) == truth

    def test_parallel_equals_serial_under_chaos(self, truth):
        """serial == parallel == fault-free, all three ways at once."""
        # Seed 20 fires every kind on a first attempt and nothing on a
        # retry: gcc:baseline crashes, gcc:ir raises a transient error,
        # gzip:baseline and gzip:ir run slow.
        plan = FaultPlan(seed=20, crash=0.15, transient=0.25, slow=0.2,
                         slow_delay=0.01, backoff=0.01)
        jobs = _jobs([("gcc", "baseline"), ("gcc", "ir"),
                      ("gzip", "baseline"), ("gzip", "ir")])
        with SweepEngine(jobs=1, supervisor=FAST, faults=plan) as engine:
            serial = _fingerprint(engine.run_jobs(jobs))
        with SweepEngine(jobs=2, allow_oversubscribe=True, supervisor=FAST,
                         faults=plan) as engine:
            parallel = _fingerprint(engine.run_jobs(jobs))
            assert engine.report.worker_deaths > 0, \
                "plan seed must actually kill at least one worker"
            assert engine.report.retries > 0
        assert serial == truth
        assert parallel == truth


class TestCheckpointResume:
    def _runner(self, tmp_path, **kwargs):
        return ExperimentRunner(trace_uops=UOPS, seed=SEED, jobs=1,
                                cache_dir=str(tmp_path / "cache"),
                                supervisor=FAST, **kwargs)

    def test_interrupt_then_resume_equals_uninterrupted(self, tmp_path):
        profiles = [get_profile("gcc"), get_profile("gzip")]
        policies = ["ir", "cr"]
        uninterrupted = ExperimentRunner(
            trace_uops=UOPS, seed=SEED, jobs=1,
            supervisor=FAST).run_suite(profiles, policies)

        plan = FaultPlan(seed=5, interrupt_after=3, backoff=0.01)
        with pytest.raises(KeyboardInterrupt):
            self._runner(tmp_path, faults=plan).run_suite(profiles, policies)

        resumed_runner = self._runner(tmp_path)
        resumed = resumed_runner.run_suite(profiles, policies)
        report = resumed_runner.report
        # Jobs completed before the interrupt are resumed, not recomputed.
        assert report.resumed == 3
        assert report.computed == 6 - 3
        for bench in ("gcc", "gzip"):
            assert (dataclasses.asdict(resumed.results[bench].baseline)
                    == dataclasses.asdict(
                        uninterrupted.results[bench].baseline))
            for policy in policies:
                assert (dataclasses.asdict(
                            resumed.results[bench].by_policy[policy])
                        == dataclasses.asdict(
                            uninterrupted.results[bench].by_policy[policy]))

        # A third invocation touches zero jobs.
        third_runner = self._runner(tmp_path)
        third_runner.run_suite(profiles, policies)
        assert third_runner.report.computed == 0
        assert third_runner.report.resumed == 6

    def test_corrupted_cache_entries_heal_before_campaign_end(self, tmp_path):
        """Same-run corruption is verify-after-write healed, so the resumed
        run still touches zero jobs."""
        plan = FaultPlan(seed=5, corrupt_result=1.0, backoff=0.01)
        profiles = [get_profile("gcc")]
        runner = self._runner(tmp_path, faults=plan)
        runner.run_suite(profiles, ["ir"])
        assert runner.report.store_repairs == 2
        assert runner.cache.healed == 2

        again = self._runner(tmp_path)
        again.run_suite(profiles, ["ir"])
        assert again.report.computed == 0
        assert again.report.resumed == 2

    def test_torn_checkpoint_tail_is_ignored(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        good = json.dumps({"format": 1, "kind": "completed", "key": "k1",
                           "job": {"benchmark": "gcc"}})
        path.write_text(good + "\n" + '{"format": 1, "kind": "comp',
                        encoding="utf-8")
        checkpoint = CampaignCheckpoint(path)
        assert checkpoint.completed == {"k1": {"benchmark": "gcc"}}
        assert checkpoint.dropped_lines == 1

    def test_completion_clears_a_quarantine_record(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "checkpoint.jsonl")
        job = SweepJob("gcc", "ir", UOPS, SEED)
        checkpoint.mark_quarantined("k1", job, [{"reason": "error"}])
        checkpoint.mark_completed("k1", job)
        reloaded = CampaignCheckpoint(tmp_path / "checkpoint.jsonl")
        assert "k1" in reloaded.completed
        assert "k1" not in reloaded.quarantined

    def test_quarantine_file_round_trips(self, tmp_path):
        records = [{"job": {"benchmark": "gcc", "policy": "ir",
                            "trace_uops": UOPS, "seed": SEED,
                            "use_slicing": False},
                    "key": "deadbeef", "attempts": []}]
        path = write_quarantine_file(tmp_path / "failed-jobs.json", records)
        assert load_quarantine_file(path) == records
        assert load_quarantine_file(tmp_path / "missing.json") == []


class TestReport:
    def test_summary_line_is_none_when_nothing_happened(self):
        assert SweepReport(computed=5, cache_hits=2).summary_line() is None

    def test_summary_line_names_what_happened(self):
        report = SweepReport(computed=3, resumed=2, retries=1,
                             store_repairs=1)
        line = report.summary_line()
        assert "computed=3" in line
        assert "resumed=2" in line
        assert "retries=1" in line
        assert "store-repairs=1" in line


class TestAcceptanceScenario:
    """ISSUE.md acceptance: a seeded chaos plan (crashes + hangs + cache
    corruption) over a 12-point explore grid completes without
    intervention; surviving results are bit-identical to a fault-free
    serial run; a second invocation resumes touching zero completed
    jobs."""

    PLAN = FaultPlan(seed=1234, crash=0.2, hang=0.1, transient=0.15,
                     corrupt_result=0.4, backoff=0.01)

    def test_chaos_explore_grid_resumes_clean(self, tmp_path):
        points = build_topology_grid([4, 8, 16], [1, 2], [1, 2])
        assert len(points) == 12
        profiles = [get_profile("gcc")]

        clean = ExperimentRunner(
            trace_uops=UOPS, seed=SEED, jobs=1,
            supervisor=FAST).run_topology_grid(points, profiles)

        chaos_runner = ExperimentRunner(trace_uops=UOPS, seed=SEED, jobs=1,
                                        cache_dir=str(tmp_path / "cache"),
                                        supervisor=FAST, faults=self.PLAN)
        chaos = chaos_runner.run_topology_grid(points, profiles)
        report = chaos_runner.report
        # 12 grid jobs + 1 shared baseline all complete (faults spare
        # retries by default, so three attempts always converge).
        assert report.computed == 13
        assert report.ok
        assert report.retries > 0, "plan seed must actually inject faults"
        assert (dataclasses.asdict(chaos.baselines["gcc"])
                == dataclasses.asdict(clean.baselines["gcc"]))
        for point in points:
            assert (dataclasses.asdict(chaos.results[(point.name, "gcc")])
                    == dataclasses.asdict(clean.results[(point.name, "gcc")]))

        resumed_runner = ExperimentRunner(trace_uops=UOPS, seed=SEED, jobs=1,
                                          cache_dir=str(tmp_path / "cache"),
                                          supervisor=FAST, faults=self.PLAN)
        resumed_runner.run_topology_grid(points, profiles)
        assert resumed_runner.report.computed == 0
        assert resumed_runner.report.resumed == 13
