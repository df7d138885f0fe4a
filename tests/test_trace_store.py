"""Cross-job trace store: one generation per distinct trace, everywhere.

The engine's contract (DESIGN.md "Cross-job trace store"): a sweep performs
exactly one `generate_trace` per distinct (profile, length, seed, slicing)
tuple — serial, parallel or warm-directory — and serial ≡ parallel ≡ cached
results stay bit-identical.  `repro.trace.synthetic.GENERATION_STATS` is the
process-wide counter these tests assert against.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import helper_cluster_config
from repro.core.steering import make_policy
from repro.sim import engine as engine_mod
from repro.sim.engine import SweepEngine, SweepJob, trace_for_job
from repro.sim.simulator import simulate
from repro.trace.profiles import get_profile
from repro.trace.serialization import load_trace_binary, save_trace_binary
from repro.trace.store import TraceStore, trace_key
from repro.trace.synthetic import GENERATION_STATS, generate_trace

UOPS = 1_200
SEED = 2006
LADDER = ["n888", "n888_br", "n888_br_lr", "n888_br_lr_cr",
          "n888_br_lr_cr_cp", "ir", "ir_nodest", "n888+cr"]


@pytest.fixture(autouse=True)
def _fresh_trace_state():
    """Each test starts with an empty in-process memo and a known counter."""
    engine_mod._trace_memo.clear()
    start = GENERATION_STATS.count
    yield
    del start


def _fingerprint(results):
    return {job: (r.ipc, r.fast_cycles, r.energy) for job, r in results.items()}


def _ladder_jobs(benchmarks):
    jobs = []
    for benchmark in benchmarks:
        jobs.append(SweepJob(benchmark, "baseline", UOPS, SEED))
        for policy in LADDER:
            jobs.append(SweepJob(benchmark, policy, UOPS, SEED))
    return jobs


class TestGenerationCounting:
    def test_serial_ladder_generates_each_trace_once(self, tmp_path):
        engine = SweepEngine(jobs=1, trace_store_dir=str(tmp_path))
        jobs = _ladder_jobs(["gcc", "gzip"])
        before = GENERATION_STATS.count
        engine.run_jobs(jobs)
        # Nine jobs per benchmark (baseline + the 8-policy ladder) share one
        # trace; two benchmarks => exactly two generations.
        assert GENERATION_STATS.count - before == 2
        assert engine.trace_store.stores == 2

    def test_parallel_ladder_generates_each_trace_once(self, tmp_path):
        engine = SweepEngine(jobs=2, trace_store_dir=str(tmp_path),
                             allow_oversubscribe=True)
        jobs = _ladder_jobs(["gcc"])
        before = GENERATION_STATS.count
        try:
            parallel = engine.run_jobs(jobs)
        finally:
            engine.close()
        # The parent pre-generates the single distinct trace; workers
        # inherit the memo (fork) or re-hydrate from the store (spawn) —
        # the parent-side counter sees exactly one generation either way.
        assert GENERATION_STATS.count - before == 1
        assert engine.trace_store.stores == 1

        engine_mod._trace_memo.clear()
        serial = SweepEngine(jobs=1).run_jobs(jobs)
        assert _fingerprint(parallel) == _fingerprint(serial)

    def test_warm_store_skips_generation_entirely(self, tmp_path):
        cold = SweepEngine(jobs=1, trace_store_dir=str(tmp_path))
        jobs = _ladder_jobs(["parser"])
        cold_results = cold.run_jobs(jobs)

        # A fresh process is modelled by clearing the in-process memo; the
        # warm store directory must satisfy every trace without generating.
        engine_mod._trace_memo.clear()
        warm = SweepEngine(jobs=1, trace_store_dir=str(tmp_path))
        before = GENERATION_STATS.count
        warm_results = warm.run_jobs(jobs)
        assert GENERATION_STATS.count == before
        assert warm.trace_store.hits == 1
        assert _fingerprint(warm_results) == _fingerprint(cold_results)

    def test_sliced_jobs_key_separately(self, tmp_path):
        engine = SweepEngine(jobs=1, trace_store_dir=str(tmp_path))
        plain = SweepJob("gcc", "n888", UOPS, SEED, use_slicing=False)
        sliced = SweepJob("gcc", "n888", UOPS, SEED, use_slicing=True)
        before = GENERATION_STATS.count
        engine.run_jobs([plain, sliced])
        assert GENERATION_STATS.count - before == 2
        profile = get_profile("gcc")
        assert (trace_key(profile, UOPS, SEED, False)
                != trace_key(profile, UOPS, SEED, True))


class TestTraceStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        trace = generate_trace(get_profile("gcc"), 800, seed=3)
        store = TraceStore(tmp_path)
        key = trace_key(get_profile("gcc"), 800, 3, False)
        store.store(key, trace)
        loaded = store.load(key)
        assert pickle.dumps(loaded) == pickle.dumps(trace)
        assert store.stats() == {"hits": 1, "misses": 0, "stores": 1,
                                 "corrupt_drops": 0, "healed": 0}

    def test_corrupt_entry_is_dropped_and_regenerated(self, tmp_path):
        profile = get_profile("gzip")
        store = TraceStore(tmp_path)
        key = trace_key(profile, 600, 9, False)
        store.store(key, generate_trace(profile, 600, seed=9))
        path = store.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        fresh = TraceStore(tmp_path)
        assert fresh.load(key) is None
        assert fresh.corrupt_drops == 1
        assert not path.exists()

        # trace_for_job treats the miss as a regeneration + re-store.
        job = SweepJob("gzip", "n888", 600, 9)
        before = GENERATION_STATS.count
        trace = trace_for_job(job, profile, fresh)
        assert GENERATION_STATS.count - before == 1
        assert fresh.stores == 1
        assert len(trace) >= 600

    def test_binary_serialization_detects_truncation(self, tmp_path):
        trace = generate_trace(get_profile("gcc"), 300, seed=1)
        path = tmp_path / "t.bin"
        save_trace_binary(trace, path)
        assert pickle.dumps(load_trace_binary(path)) == pickle.dumps(trace)
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(ValueError):
            load_trace_binary(path)

    def test_memo_hit_still_populates_a_fresh_store(self, tmp_path):
        # The memo is process-global while stores are per-engine: a memo
        # hit must still seed the *current* store, or spawn-started workers
        # of a second engine would regenerate the trace.
        # Simulating the memoised trace in between must not change what
        # reaches the second store: a simulation never writes to a trace.
        profile = get_profile("gcc")
        job = SweepJob("gcc", "n888", 700, 11)
        store_a = TraceStore(tmp_path / "a")
        trace = trace_for_job(job, profile, store_a)
        simulate(trace, config=helper_cluster_config(), policy=make_policy("ir"))
        before = GENERATION_STATS.count
        store_b = TraceStore(tmp_path / "b")
        trace_for_job(job, profile, store_b)
        assert GENERATION_STATS.count == before
        assert store_b.stores == 1
        key = trace_key(profile, 700, 11, False)
        assert store_b.path_for(key).exists()
        assert (store_b.path_for(key).read_bytes()
                == store_a.path_for(key).read_bytes())

    def test_disabled_store_never_touches_disk(self, tmp_path):
        store = TraceStore(tmp_path / "never", enabled=False)
        store.store("00" * 32, generate_trace(get_profile("gcc"), 200, seed=1))
        assert store.load("00" * 32) is None
        assert not (tmp_path / "never").exists()


class TestWarmPool:
    def test_pool_persists_across_batches_and_closes(self, tmp_path):
        engine = SweepEngine(jobs=2, trace_store_dir=str(tmp_path),
                             allow_oversubscribe=True)
        jobs_a = _ladder_jobs(["gcc"])[:4]
        jobs_b = _ladder_jobs(["gcc"])[4:]
        try:
            first = engine.run_jobs(jobs_a)
            pool = engine._pool
            assert pool is not None
            second = engine.run_jobs(jobs_b)
            assert engine._pool is pool  # warm pool reused, not respawned
        finally:
            engine.close()
        assert engine._pool is None
        engine.close()  # idempotent

        engine_mod._trace_memo.clear()
        serial = SweepEngine(jobs=1).run_jobs(jobs_a + jobs_b)
        combined = {**first, **second}
        assert _fingerprint(combined) == _fingerprint(serial)
