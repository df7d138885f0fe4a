"""End-to-end and per-layer metrics from rounds, spans and results."""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from perfbench.spans import Span, self_times

CLAIMS_PATH = Path(__file__).with_name("paper_claims.json")

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(kind: str) -> Dict[str, dict]:
    """name -> declaration (``unit``, ``better``, and ``bound`` on
    ``end_to_end``) of the ``kind`` metrics in ``BENCHMARK.json``."""
    declared = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in declared[kind]}


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, NaN when nothing was counted."""
    return numerator / denominator if denominator else math.nan


# ----------------------------------------------------------- paper claims
def load_claims(workload: str) -> List[dict]:
    """The rows of ``paper_claims.json`` that ``workload`` measures."""
    claims = json.loads(CLAIMS_PATH.read_text(encoding="utf-8"))
    return [claim for claim in claims if claim["workload"] == workload]


def claim_value(claim: Mapping,
                result_sets: Sequence[Mapping[Tuple[str, str], object]]) -> float:
    """The measured value of one claim, in percent: the mean over every
    benchmark of every result set that has both a baseline result and one
    for the claim's policy (on ``explore_parallel``, at the claim's grid
    point).  NaN when no benchmark has both, as when every job of the
    policy failed."""
    label = claim.get("point", claim["policy"])
    values = []
    for results in result_sets:
        for name in sorted({name for name, _label in results}):
            base = results.get((name, "baseline"))
            run = results.get((name, label))
            if base is None or run is None:
                continue
            if claim["metric"] == "speedup":
                values.append(base.slow_cycles / run.slow_cycles - 1.0)
            elif claim["metric"] == "copies":
                values.append(run.copies / run.committed_uops)
            elif claim["metric"] == "helper_share":
                values.append(run.helper_uops / run.committed_uops)
            else:
                raise ValueError(f"unknown claim metric {claim['metric']!r}")
    return 100.0 * ratio(sum(values), len(values))


def paper_gap(result_sets: Sequence[Mapping[Tuple[str, str], object]],
              claims: Sequence[Mapping]) -> Tuple[float, List[tuple]]:
    """Mean |measured - paper| in percentage points over the claims that
    were measured, and one ``(claim, measured, gap)`` row per claim (NaN
    for a claim with nothing measured)."""
    rows = []
    for claim in claims:
        measured = claim_value(claim, result_sets)
        rows.append((claim, measured, abs(measured - claim["paper"])))
    gaps = [gap for _c, _m, gap in rows if not math.isnan(gap)]
    return ratio(sum(gaps), len(gaps)), rows


# ------------------------------------------------------------- end to end
def end_to_end(rounds: Sequence, peak_rss_kib: int) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run but ``paper_gap_pp``,
    which the caller adds from the paper claims.

    ``sim_uops_per_s`` is the work of every round over the host time of
    every round minus its set-up; ``setup_s`` is the median round's set-up.
    """
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    return {
        "sim_uops_per_s": (sum(r.uops for r in rounds)
                           / sum(r.wall - r.setup for r in rounds)),
        "setup_s": statistics.median(r.setup for r in rounds),
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "job_ok_frac": (attempted - failed) / attempted,
    }


# -------------------------------------------------------------- per layer
def per_layer(spans: Sequence[Span], parent_pid: int, traced,
              untraced_wall: float,
              py_calls_per_uop: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round, from its spans (all
    processes); ``untraced_wall`` is the host time of the same round run
    without the layer wrappers.

    ``*_s`` metrics are self times: a span's duration minus the part its
    child spans cover, so nested layers are not counted twice.
    """
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_s(name: str) -> float:
        return sum(own[span.sid] for span in by_name[name])

    def count(name: str, key: str) -> float:
        return sum(span.counts.get(key, 0) for span in by_name[name])

    uops = count("sim.simulator.run", "uops")
    cycles = count("sim.simulator.run", "fast_cycles")
    run_s = self_s("sim.simulator.run")
    simulator_s = sum(span.duration for name in ("sim.simulator.build",
                                                 "sim.simulator.run")
                      for span in by_name[name])

    # Pool utilisation: worker job time over workers x the wall of the
    # batches that fanned out to workers.
    worker_jobs = [s for s in by_name["sim.engine.job"] if s.pid != parent_pid]
    batches = {s.parent for s in worker_jobs}
    batch_wall = sum(s.duration for s in by_name["sim.engine.run_jobs"]
                     if s.sid in batches)
    workers = max((s.counts.get("workers", 0)
                   for s in by_name["sim.engine.pool_spawn"]), default=0)
    busy = sum(s.duration for s in worker_jobs)

    loads = by_name["sim.cache.load"]
    return {
        "trace.synthetic.generate_s": self_s("trace.synthetic.generate"),
        "trace.synthetic.generate_calls": len(by_name["trace.synthetic.generate"]),
        "trace.store.write_s": self_s("trace.store.write"),
        "trace.store.load_s": self_s("trace.store.load"),
        "trace.store.bytes_written": count("trace.store.write", "bytes"),
        "sim.simulator.run_s": run_s,
        "sim.simulator.calls": len(by_name["sim.simulator.run"]),
        "sim.simulator.us_per_uop": 1e6 * ratio(run_s, uops),
        "sim.simulator.ns_per_fast_cycle": 1e9 * ratio(run_s, cycles),
        "sim.simulator.fast_cycles_per_uop": ratio(cycles, uops),
        "sim.simulator.build_s": self_s("sim.simulator.build"),
        "sim.simulator.py_calls_per_uop": py_calls_per_uop,
        "sim.simulator.wall_frac": simulator_s / traced.wall,
        "power.wattch.evaluate_s": self_s("power.wattch.evaluate"),
        "power.wattch.calls": len(by_name["power.wattch.evaluate"]),
        "sim.engine.key_s": self_s("sim.engine.key"),
        "sim.engine.key_calls": len(by_name["sim.engine.key"]),
        "sim.engine.self_us_per_job": (1e6 * self_s("sim.engine.run_jobs")
                                       / traced.attempted),
        "sim.engine.pool_spawn_s": self_s("sim.engine.pool_spawn"),
        "sim.engine.pool_busy_frac": (busy / (workers * batch_wall)
                                      if workers and batch_wall else 0.0),
        "sim.engine.close_s": self_s("sim.engine.close"),
        "sim.supervise.retries": sum(r.retries for r in traced.reports),
        "sim.supervise.quarantined": sum(len(r.quarantined)
                                         for r in traced.reports),
        "sim.cache.load_s": self_s("sim.cache.load"),
        "sim.cache.store_s": self_s("sim.cache.store"),
        "sim.cache.verify_s": self_s("sim.cache.verify"),
        "sim.cache.hit_frac": (count("sim.cache.load", "hit") / len(loads)
                               if loads else 0.0),
        "sim.cache.bytes_read": (count("sim.cache.load", "bytes_read")
                                 + count("sim.cache.verify", "bytes_read")),
        "sim.cache.bytes_written": count("sim.cache.store", "bytes_written"),
        "sim.checkpoint.mark_s": self_s("sim.checkpoint.mark"),
        "sim.checkpoint.load_s": self_s("sim.checkpoint.load"),
        "sim.experiment.self_s": self_s("sim.experiment.run"),
        "bench.trace_overhead_frac": traced.wall / untraced_wall - 1.0,
    }


# ---------------------------------------------------------------- spread
def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and IQR / median of repeated measurements, with
    the quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0}
