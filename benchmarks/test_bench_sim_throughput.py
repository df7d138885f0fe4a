"""Simulator throughput on the headline ladder — the perf trajectory.

Emits ``benchmarks/results/BENCH_sim.json`` with wall-clock and uops/sec for
the headline policy ladder (12 SPEC Int profiles x baseline + 7 ladder
policies) under the configurations that matter for sweep throughput:

* ``serial_cold``    — one process, nothing warm: the raw simulator number.
* ``serial_warm_traces`` — fresh "process" (cleared memo) over a warm trace
  store: what a second sweep session pays when only traces are reusable.
* ``parallel_cold``  — the ``--jobs`` path through the persistent worker
  pool (trace store seeded by the parent; on real machines the fan-out
  win — on a 1-CPU box the engine clamps the request to serial, and the
  scenario records the effective ``jobs`` plus ``jobs_requested``).
* ``warm_cache``     — warm on-disk result cache: repeat sweeps are served
  from content-addressed entries.
* ``dispatch_chain`` — one helper-cluster run (gcc / IR, no baseline, no
  sweep engine): isolates the per-uop dispatch/resolve/wakeup chain, which
  the ladder number dilutes with engine and baseline costs.

CI's perf smoke job sets ``REPRO_BENCH_ENFORCE=1`` to fail on a >25%
uops/sec regression against the committed JSON (``REPRO_BENCH_TOLERANCE``
overrides the margin).  ``warm_cache`` is gated too, at a wider default
margin (``REPRO_BENCH_TOLERANCE_WARM``, 60%): its wall is milliseconds,
so only structural cache-path regressions (an extra decode or sync per
entry reads as 2x+) should trip it, never timer noise.  Without the env
var the benchmark only measures and rewrites the artefact, so local runs on
different hardware never fail spuriously.

Scope knob: ``REPRO_BENCH_SIM_BENCHMARKS=gcc,gzip`` restricts the ladder to
a subset (the CI smoke uses this to stay fast); the committed artefact is
regenerated with the full suite.
"""

from __future__ import annotations

import json
import os
import time

from repro.sim import engine as engine_mod
from repro.sim.experiment import ExperimentRunner
from repro.trace.profiles import SPEC_INT_2000, SPEC_INT_NAMES

from _bench_utils import BENCH_SEED, BENCH_UOPS, LADDER, RESULTS_DIR

BENCH_JSON = RESULTS_DIR / "BENCH_sim.json"

_subset = os.environ.get("REPRO_BENCH_SIM_BENCHMARKS", "")
BENCHMARKS = ([name for name in _subset.split(",") if name]
              if _subset else list(SPEC_INT_NAMES))
POLICY_COUNT = len(LADDER) + 1  # ladder policies + the shared baseline


def _calibration_rate() -> int:
    """Machine-speed proxy (ops/sec) for cross-machine gate normalisation.

    A fixed, deterministic pure-Python workload with the simulator's op mix
    (dict probes, attribute-free arithmetic, bound-method calls).  The CI
    gate compares *calibration-normalised* throughput, so a slower or
    faster runner generation shifts both sides together and only genuine
    simulator regressions trip the gate.
    """
    best = 0.0
    for _ in range(3):
        table = {}
        get = table.get
        accum = 0
        iterations = 300_000
        start = time.perf_counter()
        for i in range(iterations):
            table[i & 1023] = i
            accum += get((i * 7) & 1023, 0) & 1
        elapsed = time.perf_counter() - start
        best = max(best, iterations / elapsed)
    return round(best)


def _fingerprint(sweep):
    return {(b, p): (sweep.results[b].by_policy[p].ipc,
                     sweep.results[b].by_policy[p].fast_cycles)
            for b in sweep.benchmarks for p in sweep.policies}


def _run_ladder(tmp_path, label, jobs=1, cache_dir=None, store_dir=None):
    """One timed ladder sweep under a fresh runner."""
    profiles = [SPEC_INT_2000[name] for name in BENCHMARKS]
    runner = ExperimentRunner(trace_uops=BENCH_UOPS, seed=BENCH_SEED,
                              jobs=jobs, cache_dir=cache_dir,
                              trace_store_dir=store_dir)
    start = time.perf_counter()
    sweep = runner.run_suite(profiles, LADDER)
    wall = time.perf_counter() - start
    runner.engine.close()
    total_uops = BENCH_UOPS * POLICY_COUNT * len(BENCHMARKS)
    scenario = {
        "wall_s": round(wall, 3),
        "uops_per_sec": round(total_uops / wall),
        # The *effective* worker count: the engine clamps requests beyond
        # the host's usable CPUs (the requested figure is kept alongside,
        # so a 1-CPU artefact is honest about parallel_cold being serial).
        "jobs": runner.engine.jobs,
        "result_cache": bool(cache_dir),
    }
    if runner.engine.jobs_clamped_from:
        scenario["jobs_requested"] = runner.engine.jobs_clamped_from
    return sweep, scenario


def _run_dispatch_chain():
    """Time the per-uop dispatch/steer/writeback chain in isolation.

    One helper-cluster run (no baseline, no sweep engine) over the gcc
    profile under the IR policy: dispatch + resolve + wakeup dominate this
    configuration, so the scenario isolates the per-uop chain the ladder
    number dilutes with engine and baseline costs.
    Min-of-3 discards scheduler blips.
    """
    from repro.core.config import helper_cluster_config
    from repro.core.steering import make_policy
    from repro.sim.simulator import simulate
    from repro.trace.synthetic import generate_trace

    profile = SPEC_INT_2000["gcc"]
    trace = generate_trace(profile, BENCH_UOPS, seed=BENCH_SEED)
    config = helper_cluster_config()
    best_wall = None
    result = None
    for _ in range(3):
        start = time.perf_counter()
        run = simulate(trace, config=config, policy=make_policy("ir"))
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
        if result is None:
            result = run
        else:
            assert (run.ipc, run.fast_cycles) == (result.ipc,
                                                  result.fast_cycles)
    scenario = {
        "wall_s": round(best_wall, 3),
        "uops_per_sec": round(BENCH_UOPS / best_wall),
    }
    return result, scenario


def test_bench_sim_throughput(tmp_path):
    scenarios = {}

    # -- serial, nothing warm ------------------------------------------------
    # Two rounds, keeping the fastest: single-shot wall-clock on a small
    # shared box is ~10% noisy and the first round also pays machine
    # cold-start.  The min-of-rounds estimator (same as BENCH_energy's)
    # discards scheduler blips instead of committing them.
    reference = None
    for round_index in range(2):
        engine_mod._trace_memo.clear()
        sweep, scenario = _run_ladder(
            tmp_path, "serial_cold",
            store_dir=str(tmp_path / f"traces-serial_cold-{round_index}"))
        if reference is None:
            reference = sweep
        else:
            assert _fingerprint(sweep) == _fingerprint(reference)
        if ("serial_cold" not in scenarios
                or scenario["wall_s"] < scenarios["serial_cold"]["wall_s"]):
            scenarios["serial_cold"] = scenario

    # -- dispatch-chain microbenchmark: one run, no engine -------------------
    _chain_result, scenarios["dispatch_chain"] = _run_dispatch_chain()

    # -- fresh process over a warm trace store (seeded by round 0 above) -----
    engine_mod._trace_memo.clear()
    warm_traces, scenarios["serial_warm_traces"] = _run_ladder(
        tmp_path, "serial_warm_traces",
        store_dir=str(tmp_path / "traces-serial_cold-0"))
    assert _fingerprint(warm_traces) == _fingerprint(reference)

    # -- the --jobs path (persistent pool; parent seeds the trace store) -----
    engine_mod._trace_memo.clear()
    jobs = max(2, int(os.environ.get("REPRO_BENCH_JOBS", "1") or 1))
    parallel, scenarios["parallel_cold"] = _run_ladder(
        tmp_path, "parallel_cold", jobs=jobs,
        store_dir=str(tmp_path / "traces-par"))
    assert _fingerprint(parallel) == _fingerprint(reference)

    # -- warm on-disk result cache -------------------------------------------
    # Min-of-3: a warm sweep is ~milliseconds of pure cache decode, so a
    # single scheduler blip can multiply the wall several-fold; taking the
    # fastest repeat keeps the artefact (and the gate below) measuring the
    # cache path, not the box.
    cache_dir = tmp_path / "cache"
    _run_ladder(tmp_path, "cache_fill", cache_dir=str(cache_dir))
    for _ in range(3):
        engine_mod._trace_memo.clear()
        cached, warm_scenario = _run_ladder(
            tmp_path, "warm_cache", cache_dir=str(cache_dir))
        assert _fingerprint(cached) == _fingerprint(reference)
        if ("warm_cache" not in scenarios
                or warm_scenario["wall_s"] < scenarios["warm_cache"]["wall_s"]):
            scenarios["warm_cache"] = warm_scenario

    calibration = _calibration_rate()
    payload = {
        "benchmark": "headline_policy_ladder",
        "benchmarks": BENCHMARKS,
        "policies": POLICY_COUNT,
        "trace_uops": BENCH_UOPS,
        "seed": BENCH_SEED,
        "calibration_ops_per_sec": calibration,
        "scenarios": scenarios,
    }

    committed = (json.loads(BENCH_JSON.read_text(encoding="utf-8"))
                 if BENCH_JSON.exists() else {})

    # Regression gate against the committed artefact (CI perf smoke).  Both
    # sides are normalised by their own machine's calibration rate, so the
    # comparison survives runner-hardware differences; an artefact without
    # a calibration figure falls back to raw uops/sec (same-machine only).
    if os.environ.get("REPRO_BENCH_ENFORCE") == "1":
        tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25"))
        # The warm-cache sweep is milliseconds long, so even min-of-3 is
        # noisier than the multi-second scenarios; its gate only catches
        # structural cache-path regressions (an extra decode or fsync per
        # entry shows up as 2x+), not percent-level drift.
        warm_tolerance = float(
            os.environ.get("REPRO_BENCH_TOLERANCE_WARM", "0.6"))
        old_calibration = committed.get("calibration_ops_per_sec")
        for key in ("serial_cold", "dispatch_chain", "warm_cache"):
            old = committed.get("scenarios", {}).get(key, {})
            old_rate = old.get("uops_per_sec")
            new = scenarios[key]
            new_rate = new["uops_per_sec"]
            if not old_rate:
                continue
            if old_calibration:
                old_norm = old_rate / old_calibration
                new_norm = new_rate / calibration
            else:
                old_norm, new_norm = old_rate, new_rate
            margin = warm_tolerance if key == "warm_cache" else tolerance
            assert new_norm >= old_norm * (1.0 - margin), (
                f"simulator throughput regressed beyond {margin:.0%}: "
                f"{new_rate} uops/s (calibration {calibration}) vs committed "
                f"{old_rate} uops/s (calibration {old_calibration}) "
                f"({key}, {BENCH_UOPS}-uop ladder)")

    # Only the full-suite run rewrites the committed artefact; a scoped CI
    # smoke must not overwrite it with subset numbers.  The one-off pre-PR
    # measurement block is carried over so the before/after record of the
    # event-wheel PR survives regeneration, with BOTH speedup multiples
    # recomputed against this run's numbers — they track *current HEAD*
    # vs the frozen pre-event-wheel measurement (the whole trajectory
    # since, regressions included), not any single PR's own win, and the
    # note says so.
    if not _subset:
        if "pre_pr_reference" in committed:
            pre = dict(committed["pre_pr_reference"])
            pre_rate = pre.get("serial_cold", {}).get("uops_per_sec")
            if pre_rate:
                pre["note"] = (
                    "pre-event-wheel code (commit a4bdb9a) measured on the "
                    "same 1-CPU container, same 8000-uop 12-benchmark "
                    "ladder, serial cold.  The multiples below compare "
                    "CURRENT HEAD (this artefact's scenarios) against that "
                    "frozen measurement at equal conditions — they track "
                    "the whole trajectory since the event-wheel PR, not "
                    "that PR's own speedup, and are recomputed on every "
                    "regeneration.")
                pre["serial_cold_speedup_vs_pre_pr"] = round(
                    scenarios["serial_cold"]["uops_per_sec"] / pre_rate, 3)
                pre["warm_cache_speedup_vs_pre_pr_cold"] = round(
                    scenarios["warm_cache"]["uops_per_sec"] / pre_rate, 1)
            payload["pre_pr_reference"] = pre
        BENCH_JSON.parent.mkdir(parents=True, exist_ok=True)
        BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")
