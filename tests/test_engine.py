"""Tests for the parallel sweep engine, its determinism and the result cache.

The engine's core contract is that *how* a sweep executes — serially in one
process, fanned over a worker pool, or replayed from the on-disk cache —
never changes *what* it computes.  These tests pin that contract, plus the
cache's corruption handling, the determinism of trace generation itself,
the engine's lifecycle (private directories, prompt pool shutdown) and the
worker-count clamp.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.core.config import helper_cluster_config
from repro.sim.cache import ResultCache, result_key
from repro.sim.engine import (
    SweepEngine,
    SweepJob,
    available_cpus,
    default_jobs,
    execute_job,
    job_seed,
)
from repro.sim.experiment import ExperimentRunner, run_spec_suite
from repro.sim.metrics import SimulationResult
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace

POLICIES = ["n888", "ir"]
BENCHMARKS = ["gcc", "gzip"]
UOPS = 1200
SEED = 2006


def _sweep_fingerprint(sweep) -> dict:
    """Full field-level dump of a sweep, for bit-identity comparisons."""
    out = {}
    for bench, result in sweep.results.items():
        out[bench] = {"baseline": dataclasses.asdict(result.baseline)}
        for policy, run in result.by_policy.items():
            out[bench][policy] = dataclasses.asdict(run)
    return out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_trace_generation_is_deterministic(self):
        profile = get_profile("gcc")
        a = generate_trace(profile, 800, seed=7)
        b = generate_trace(profile, 800, seed=7)
        assert len(a) == len(b)
        for ua, ub in zip(a.uops, b.uops):
            assert ua == ub

    def test_trace_generation_seed_sensitivity(self):
        profile = get_profile("gcc")
        a = generate_trace(profile, 800, seed=7)
        b = generate_trace(profile, 800, seed=8)
        assert any(ua != ub for ua, ub in zip(a.uops, b.uops))

    def test_job_reexecution_is_bit_identical(self):
        job = SweepJob("gzip", "ir", UOPS, job_seed(SEED, "gzip"))
        config = helper_cluster_config()
        first = execute_job(job, config)
        second = execute_job(job, config)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_serial_and_parallel_paths_identical(self):
        serial = run_spec_suite(POLICIES, trace_uops=UOPS, seed=SEED,
                                benchmarks=BENCHMARKS, jobs=1)
        parallel = run_spec_suite(POLICIES, trace_uops=UOPS, seed=SEED,
                                  benchmarks=BENCHMARKS, jobs=2,
                                  allow_oversubscribe=True)
        assert _sweep_fingerprint(serial) == _sweep_fingerprint(parallel)

    def test_job_seed_is_pure(self):
        assert job_seed(2006, "gcc") == job_seed(2006, "gcc")


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------
class TestResultCache:
    def _run(self, tmp_path, use_cache=True):
        return run_spec_suite(["n888"], trace_uops=UOPS, seed=SEED,
                              benchmarks=["gcc"], cache_dir=str(tmp_path),
                              use_cache=use_cache)

    def test_cached_rerun_is_identical(self, tmp_path):
        cold = self._run(tmp_path)
        warm = self._run(tmp_path)
        assert _sweep_fingerprint(cold) == _sweep_fingerprint(warm)

    def test_warm_run_hits_cache(self, tmp_path):
        self._run(tmp_path)
        runner = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                  cache_dir=str(tmp_path))
        runner.run_suite([get_profile("gcc")], ["n888"])
        assert runner.cache.hits == 2          # baseline + policy
        assert runner.cache.misses == 0

    def test_bypass_flag_skips_reads(self, tmp_path):
        self._run(tmp_path)
        runner = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                  cache_dir=str(tmp_path), use_cache=False)
        sweep = runner.run_suite([get_profile("gcc")], ["n888"])
        assert runner.cache.hits == 0          # reads bypassed...
        assert runner.cache.stores == 2        # ...but entries refreshed
        assert _sweep_fingerprint(sweep) == _sweep_fingerprint(self._run(tmp_path))

    def test_corrupted_entry_detected_and_recomputed(self, tmp_path):
        runner = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                  cache_dir=str(tmp_path))
        reference = runner.run_suite([get_profile("gcc")], ["n888"])
        # Flip bytes in every stored payload.
        entries = list(tmp_path.rglob("*.res"))
        assert entries
        for path in entries:
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        fresh = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                 cache_dir=str(tmp_path))
        recomputed = fresh.run_suite([get_profile("gcc")], ["n888"])
        assert fresh.cache.corrupt_drops == len(entries)
        assert fresh.cache.hits == 0
        assert _sweep_fingerprint(recomputed) == _sweep_fingerprint(reference)

    def test_truncated_entry_detected(self, tmp_path):
        writer = ResultCache(tmp_path)
        key = result_key("probe")
        stored = SimulationResult(benchmark="x", policy="y")
        writer.store(key, stored)
        path = writer.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        # The storing process memoises its own (known-good) result and never
        # re-decodes the disk entry, so it is immune to the truncation...
        assert writer.load(key) is stored
        assert writer.memo_hits == 1
        # ...while a fresh process reading the same directory detects it.
        cache = ResultCache(tmp_path)
        assert cache.load(key) is None
        assert cache.corrupt_drops == 1
        assert not path.exists()  # dropped so the slot rewrites cleanly

    def test_stale_key_mismatch_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a, key_b = result_key("a"), result_key("b")
        cache.store(key_a, SimulationResult(benchmark="x", policy="y"))
        target = cache.path_for(key_b)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key_a).rename(target)
        assert cache.load(key_b) is None
        assert cache.corrupt_drops == 1

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "never", enabled=False)
        cache.store(result_key("k"), SimulationResult(benchmark="x", policy="y"))
        assert cache.load(result_key("k")) is None
        assert not (tmp_path / "never").exists()

    def test_load_once_per_process_and_byte_counters(self, tmp_path):
        writer = ResultCache(tmp_path)
        key = result_key("probe")
        writer.store(key, SimulationResult(benchmark="x", policy="y"))
        assert writer.bytes_written > 0

        reader = ResultCache(tmp_path)
        first = reader.load(key)
        assert first is not None
        assert reader.bytes_read > 0
        bytes_after_first = reader.bytes_read
        # The second load of the same key must not re-read or re-decode the
        # on-disk entry — even if the file vanishes in the meantime.
        reader.path_for(key).unlink()
        assert reader.load(key) is first
        assert reader.bytes_read == bytes_after_first
        assert reader.memo_hits == 1
        assert reader.hits == 2

    def test_cache_stats_line_mentions_hits_misses_and_bytes(self, tmp_path):
        from repro.sim.reporting import cache_stats_line

        cache = ResultCache(tmp_path)
        cache.store(result_key("k"), SimulationResult(benchmark="x", policy="y"))
        fresh = ResultCache(tmp_path)
        fresh.load(result_key("k"))
        fresh.load(result_key("absent"))
        line = cache_stats_line(fresh)
        assert "hits=1" in line and "misses=1" in line
        assert "read=" in line and "written=" in line
        assert "\n" not in line  # a one-line table footer


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------
class TestCacheKeys:
    def test_key_sensitivity(self):
        engine = SweepEngine(config=helper_cluster_config())
        base = SweepJob("gcc", "ir", 1000, 2006)
        assert engine.key_for(base) == engine.key_for(SweepJob("gcc", "ir", 1000, 2006))
        for other in [SweepJob("gzip", "ir", 1000, 2006),
                      SweepJob("gcc", "n888", 1000, 2006),
                      SweepJob("gcc", "ir", 2000, 2006),
                      SweepJob("gcc", "ir", 1000, 7),
                      SweepJob("gcc", "ir", 1000, 2006, use_slicing=True)]:
            assert engine.key_for(other) != engine.key_for(base)

    def test_key_depends_on_config(self):
        narrow8 = SweepEngine(config=helper_cluster_config(narrow_width=8))
        narrow16 = SweepEngine(config=helper_cluster_config(narrow_width=16))
        job = SweepJob("gcc", "ir", 1000, 2006)
        assert narrow8.key_for(job) != narrow16.key_for(job)

    def test_baseline_key_ignores_sweep_config(self):
        # The baseline always runs on the monolithic machine, so its cached
        # result is shared across helper-config sweeps.
        narrow8 = SweepEngine(config=helper_cluster_config(narrow_width=8))
        narrow16 = SweepEngine(config=helper_cluster_config(narrow_width=16))
        job = SweepJob("gcc", "baseline", 1000, 2006)
        assert narrow8.key_for(job) == narrow16.key_for(job)


# ---------------------------------------------------------------------------
# engine lifecycle: the private trace-store directory must never leak
# ---------------------------------------------------------------------------
class TestEngineLifecycle:
    def test_close_removes_the_private_trace_dir(self):
        engine = SweepEngine(config=helper_cluster_config())
        store_dir = engine.trace_store.store_dir
        assert store_dir.is_dir()
        engine.close()
        assert not store_dir.exists()

    def test_close_is_idempotent(self):
        engine = SweepEngine(config=helper_cluster_config())
        engine.close()
        engine.close()  # must not raise on the already-removed directory

    def test_context_manager_cleans_up(self):
        with SweepEngine(config=helper_cluster_config()) as engine:
            store_dir = engine.trace_store.store_dir
            engine.run_jobs([SweepJob("gcc", "ir", 400, SEED)])
            assert store_dir.is_dir()
        assert not store_dir.exists()

    def test_context_manager_cleans_up_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SweepEngine(config=helper_cluster_config()) as engine:
                store_dir = engine.trace_store.store_dir
                raise RuntimeError("boom")
        assert not store_dir.exists()

    def test_caller_supplied_dir_is_preserved(self, tmp_path):
        store_dir = tmp_path / "traces"
        store_dir.mkdir()
        with SweepEngine(config=helper_cluster_config(),
                         trace_store_dir=str(store_dir)) as engine:
            engine.run_jobs([SweepJob("gcc", "ir", 400, SEED)])
        assert store_dir.is_dir(), "the caller owns an explicit directory"

    def test_garbage_collected_engine_removes_its_dir(self):
        import gc

        engine = SweepEngine(config=helper_cluster_config())
        store_dir = engine.trace_store.store_dir
        del engine
        gc.collect()
        assert not store_dir.exists()

    def test_close_after_a_healthy_parallel_sweep_is_prompt(self):
        """A healthy pool shuts down in milliseconds; only a wedged one
        waits out the teardown grace period."""
        engine = SweepEngine(config=helper_cluster_config(), jobs=2,
                             allow_oversubscribe=True)
        try:
            jobs = [SweepJob(bench, policy, 500, SEED)
                    for bench in BENCHMARKS for policy in POLICIES]
            assert len(engine.run_jobs(jobs)) == len(jobs)
        finally:
            started = time.perf_counter()
            engine.close()
            elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"close() took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# worker-count clamping
# ---------------------------------------------------------------------------
class TestSweepEngineJobClamp:
    def test_oversubscribed_request_is_clamped(self):
        engine = SweepEngine(jobs=available_cpus() + 63)
        try:
            assert engine.jobs == available_cpus()
            assert engine.jobs_clamped_from == available_cpus() + 63
        finally:
            engine.close()

    def test_explicit_override_keeps_the_request(self):
        engine = SweepEngine(jobs=available_cpus() + 3,
                             allow_oversubscribe=True)
        try:
            assert engine.jobs == available_cpus() + 3
            assert engine.jobs_clamped_from is None
        finally:
            engine.close()

    def test_auto_and_serial_are_not_clamped(self):
        auto = SweepEngine(jobs=0)
        serial = SweepEngine(jobs=1)
        try:
            assert auto.jobs == default_jobs()
            assert auto.jobs_clamped_from is None
            assert serial.jobs == 1
            assert serial.jobs_clamped_from is None
        finally:
            auto.close()
            serial.close()

    def test_clamp_is_reported_in_the_cache_footer(self, tmp_path):
        from repro.sim.reporting import cache_stats_line
        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(jobs=available_cpus() + 7, cache=cache)
        try:
            line = cache_stats_line(cache, engine=engine)
            assert "clamped from" in line
            assert f"jobs={engine.jobs}" in line
            # An unclamped engine adds nothing.
            serial = SweepEngine(jobs=1)
            try:
                assert "clamped" not in cache_stats_line(cache, engine=serial)
            finally:
                serial.close()
        finally:
            engine.close()
