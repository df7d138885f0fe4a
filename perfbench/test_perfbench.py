"""Tests of the benchmark's own logic (no simulation runs here)."""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.metrics import end_to_end, load_claims, paper_gap, per_layer
from perfbench.spans import Span, link_worker_roots, self_times
from perfbench.workloads import Round, check_jobs

ROOT = Path(__file__).resolve().parent.parent


def result(committed, slow_cycles=100.0, copies=0, helper_uops=0):
    return SimpleNamespace(committed_uops=committed, slow_cycles=slow_cycles,
                           copies=copies, helper_uops=helper_uops)


def span(pid, n, name, start, end, parent=None):
    s = Span((pid, n), name, start, parent, "")
    s.end = end
    return s


def test_paper_gap_on_hand_built_sweep():
    claims = [
        {"policy": "n888", "metric": "speedup", "paper": 6.0},
        {"policy": "n888", "metric": "copies", "paper": 15.0},
        {"policy": "ir", "metric": "helper_share", "paper": 50.0},
    ]
    results = {
        ("a", "baseline"): result(1000, slow_cycles=110.0),
        ("a", "n888"): result(1000, slow_cycles=100.0, copies=100),
        ("a", "ir"): result(1000, helper_uops=400),
        ("b", "baseline"): result(2000, slow_cycles=120.0),
        ("b", "n888"): result(2000, slow_cycles=100.0, copies=100),
        ("b", "ir"): result(2000, helper_uops=1200),
    }
    gap, rows = paper_gap([results], claims)
    # speed-up: mean(10%, 20%) = 15 -> gap 9; copies: mean(10%, 5%) = 7.5
    # -> gap 7.5; helper share: mean(40%, 60%) = 50 -> gap 0.
    assert [round(measured, 9) for _c, measured, _g in rows] == [15.0, 7.5, 50.0]
    assert gap == pytest.approx((9.0 + 7.5 + 0.0) / 3)


def test_paper_gap_spans_rounds_and_skips_benchmarks_without_a_baseline():
    claims = [{"policy": "ir_wa", "point": "w8x2h1", "metric": "speedup",
               "paper": 0.0}]
    first = {("a", "baseline"): result(10, slow_cycles=150.0),
             ("a", "w8x2h1"): result(10, slow_cycles=100.0),
             ("b", "w8x2h1"): result(10, slow_cycles=50.0)}
    second = {("a", "baseline"): result(10, slow_cycles=110.0),
              ("a", "w8x2h1"): result(10, slow_cycles=100.0)}
    gap, _rows = paper_gap([first, second], claims)
    assert gap == pytest.approx((50.0 + 10.0) / 2)


def test_claims_table_rows_quote_their_source_lines():
    ladder = load_claims("ladder_cold")
    assert len(ladder) == 11
    assert {(c["policy"], c["metric"]) for c in ladder} >= {
        ("n888_br_lr_cr", "speedup"), ("n888_br_lr_cr_cp", "copies"),
        ("n888_br_lr_cr", "helper_share"), ("ir", "speedup")}
    others = load_claims("explore_parallel") + load_claims("suite_cached")
    assert len(others) == 4
    for claim in ladder + others:
        path, line = claim["source"].rsplit(":", 1)
        text = (ROOT / path).read_text(encoding="utf-8").splitlines()
        assert f"{claim['paper']:g}%" in text[int(line) - 1], claim


def test_self_time_subtracts_overlapping_children_once():
    parent = span(1, 1, "sim.engine.run_jobs", 0.0, 10.0)
    children = [span(2, 1, "sim.engine.job", 1.0, 4.0, parent.sid),
                span(3, 1, "sim.engine.job", 3.0, 6.0, parent.sid),
                span(2, 2, "sim.engine.job", 8.0, 12.0, parent.sid)]
    grandchild = span(2, 3, "sim.simulator.run", 1.5, 3.5, children[0].sid)
    own = self_times([parent, *children, grandchild])
    # children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds
    assert own[parent.sid] == pytest.approx(3.0)
    assert own[children[0].sid] == pytest.approx(1.0)
    assert own[children[2].sid] == pytest.approx(4.0)
    assert own[grandchild.sid] == pytest.approx(2.0)


def test_worker_roots_hang_under_the_running_batch():
    first = span(1, 1, "sim.engine.run_jobs", 0.0, 5.0)
    second = span(1, 2, "sim.engine.run_jobs", 6.0, 9.0)
    job = span(7, 1, "sim.engine.job", 6.5, 8.0)
    inner = span(7, 2, "sim.simulator.run", 6.6, 7.9, job.sid)
    spans = [first, second, job, inner]
    link_worker_roots(spans, parent_pid=1)
    assert job.parent == second.sid
    assert inner.parent == job.sid


def test_uops_are_counted_from_results_not_requests():
    expected = {("gzip", "baseline"): ("gzip", 1000, 1, False),
                ("gzip", "ir"): ("gzip", 1000, 1, False),
                ("mcf", "ir"): ("mcf", 1000, 1, False)}
    lengths = {("gzip", 1000, 1, False): 1300, ("mcf", 1000, 1, False): 1010}
    results = {("gzip", "baseline"): result(1300), ("gzip", "ir"): result(1300),
               ("mcf", "ir"): result(1010)}
    uops, failures = check_jobs(expected, results, lengths)
    assert failures == {}
    assert uops == 1300 + 1300 + 1010  # not 3 x 1000 requested


def test_job_ok_frac_counts_failed_checks_and_quarantined_jobs():
    expected = {(name, "ir"): (name, 100, 1, False) for name in "abcd"}
    lengths = {(name, 100, 1, False): 120 for name in "abcd"}
    results = {("a", "ir"): result(120), ("b", "ir"): result(120),
               ("c", "ir"): result(119)}  # c stops short, d is quarantined
    uops, failures = check_jobs(expected, results, lengths)
    assert uops == 240
    assert set(failures) == {"c:ir", "d:ir"}
    assert "retired 119 of 120" in failures["c:ir"]
    round_ = Round(results=results, reports=[], attempted=len(expected),
                   failures=failures, uops=uops, wall=2.0, setup=0.5)
    round_.fail({"c:ir": "differs from the reference run"})  # same job again
    metrics = end_to_end([round_], peak_rss_kib=2048)
    assert metrics["job_ok_frac"] == pytest.approx(0.5)
    assert metrics["sim_uops_per_s"] == pytest.approx(240 / 1.5)
    assert metrics["peak_rss_mb"] == pytest.approx(2.0)


def test_a_policy_with_every_job_failed_leaves_its_claims_unmeasured():
    claims = [{"policy": "n888", "metric": "speedup", "paper": 6.0},
              {"policy": "ir", "metric": "speedup", "paper": 20.0}]
    # every ir job was quarantined: no ("a", "ir") result
    results = {("a", "baseline"): result(10, slow_cycles=110.0),
               ("a", "n888"): result(10, slow_cycles=100.0)}
    gap, rows = paper_gap([results], claims)
    assert math.isnan(rows[1][1])
    assert gap == pytest.approx(4.0)  # over the measured row only
    assert math.isnan(paper_gap([results], claims[1:])[0])


def test_per_layer_metrics_survive_a_round_with_no_simulator_span():
    traced = SimpleNamespace(wall=2.0, attempted=4, reports=[])
    metrics = per_layer([], parent_pid=1, traced=traced, untraced_wall=1.0,
                        py_calls_per_uop=math.nan)
    assert math.isnan(metrics["sim.simulator.us_per_uop"])
    assert metrics["sim.simulator.calls"] == 0
    assert metrics["bench.trace_overhead_frac"] == pytest.approx(1.0)
