"""Tests for the experiment runner, reporting helpers and the CLI."""

import pytest

from repro import quick_speedup
from repro.cli import main as cli_main
from repro.sim.experiment import (
    DEFAULT_TRACE_UOPS,
    BenchmarkResult,
    ExperimentRunner,
    PolicySweepResult,
    run_spec_suite,
)
from repro.sim.reporting import (
    format_ladder_summary,
    format_policy_table,
    format_series,
    format_table,
    results_to_rows,
    to_csv,
)
from repro.trace.profiles import get_profile


@pytest.fixture(scope="module")
def small_sweep():
    """A 2-benchmark, 2-policy sweep with tiny traces, shared by this module."""
    return run_spec_suite(["n888", "n888_br_lr"], trace_uops=1500, seed=21,
                          benchmarks=["gcc", "gzip"])


class TestEd2Guards:
    def _result(self, energy):
        from repro.power.wattch import PowerBreakdown
        from repro.sim.metrics import SimulationResult

        power = {"wide": PowerBreakdown({"clock": energy})} if energy else {}
        return SimulationResult(benchmark="b", policy="p", slow_cycles=1000.0,
                                power=power)

    def test_energyless_candidate_reports_zero_not_full_gain(self):
        """A candidate without energy figures (a hand-built result) must
        not read as a fake +100% ED² gain against an energy-carrying
        baseline."""
        bench = BenchmarkResult(benchmark="b", baseline=self._result(100.0),
                                by_policy={"p": self._result(0.0)})
        assert bench.ed2_improvement("p") == 0.0

    def test_energyless_baseline_reports_zero(self):
        bench = BenchmarkResult(benchmark="b", baseline=self._result(0.0),
                                by_policy={"p": self._result(100.0)})
        assert bench.ed2_improvement("p") == 0.0


class TestExperimentRunner:
    def test_default_trace_length_positive(self):
        assert DEFAULT_TRACE_UOPS > 0

    def test_invalid_trace_length(self):
        with pytest.raises(ValueError):
            ExperimentRunner(trace_uops=0)

    def test_trace_and_baseline_cached(self):
        runner = ExperimentRunner(trace_uops=800, seed=3)
        profile = get_profile("gcc")
        trace_a = runner.trace_for(profile)
        trace_b = runner.trace_for(profile)
        assert trace_a is trace_b
        base_a = runner.baseline_for(profile)
        base_b = runner.baseline_for(profile)
        assert base_a is base_b

    def test_run_policy_baseline_shortcut(self):
        runner = ExperimentRunner(trace_uops=800, seed=3)
        profile = get_profile("gcc")
        assert runner.run_policy(profile, "baseline") is runner.baseline_for(profile)

    def test_run_benchmark(self):
        runner = ExperimentRunner(trace_uops=1000, seed=5)
        result = runner.run_benchmark(get_profile("gzip"), ["n888"])
        assert isinstance(result, BenchmarkResult)
        assert "n888" in result.by_policy
        assert isinstance(result.speedup("n888"), float)

    def test_slicing_mode(self):
        runner = ExperimentRunner(trace_uops=600, seed=5, use_slicing=True)
        trace = runner.trace_for(get_profile("gcc"))
        assert len(trace) >= 500


class TestSweep(object):
    def test_sweep_shape(self, small_sweep):
        assert small_sweep.benchmarks == ["gcc", "gzip"]
        assert small_sweep.policies == ["n888", "n888_br_lr"]
        assert set(small_sweep.results) == {"gcc", "gzip"}

    def test_mean_metrics(self, small_sweep):
        for policy in small_sweep.policies:
            assert isinstance(small_sweep.mean_speedup(policy), float)
            assert 0.0 <= small_sweep.mean_helper_fraction(policy) <= 1.0
            assert 0.0 <= small_sweep.mean_copy_fraction(policy) <= 1.0

    def test_speedup_series(self, small_sweep):
        series = small_sweep.speedup_series("n888")
        assert set(series) == {"gcc", "gzip"}

    def test_all_commits_match_trace(self, small_sweep):
        for name, bench in small_sweep.results.items():
            for result in bench.by_policy.values():
                assert result.committed_uops == bench.baseline.committed_uops


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.23456], ["yy", 2.0]], title="T")
        assert "T" in text and "x" in text
        assert "1.235" in text

    def test_format_series_percent(self):
        text = format_series({"gcc": 0.123}, title="S", percent=True)
        assert "12.30" in text

    def test_results_rows_include_average(self, small_sweep):
        rows = results_to_rows(small_sweep, "n888")
        assert rows[-1][0] == "AVG"
        assert len(rows) == len(small_sweep.benchmarks) + 1

    def test_policy_table_and_ladder_summary(self, small_sweep):
        assert "speedup" in format_policy_table(small_sweep, "n888")
        summary = format_ladder_summary(small_sweep)
        assert "n888_br_lr" in summary

    def test_to_csv(self):
        csv_text = to_csv(["a", "b"], [[1, 2.5], ["x", 3]])
        lines = csv_text.splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("1,2.5")


class TestQuickSpeedup:
    def test_quick_speedup_keys(self):
        result = quick_speedup("gzip", policy="n888", trace_uops=1200, seed=3)
        assert set(result) >= {"speedup", "baseline_ipc", "helper_ipc",
                               "helper_fraction", "copy_fraction"}
        assert result["benchmark"] == "gzip"


class TestCLI:
    def test_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Trace Cache" in out and "450 cycles" in out

    def test_workloads(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "kernels" in out and "62" in out

    def test_run(self, capsys):
        assert cli_main(["run", "--benchmark", "gzip", "--policy", "n888",
                         "--uops", "1200", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_analyze(self, capsys):
        assert cli_main(["analyze", "--benchmark", "gcc", "--uops", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out and "Fig 13" in out

    def test_ladder_small(self, capsys):
        assert cli_main(["ladder", "--benchmarks", "gzip", "--uops", "1000",
                         "--policies", "n888"]) == 0
        out = capsys.readouterr().out
        assert "Cumulative" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["bogus"])

    def test_explore_small_grid(self, capsys):
        assert cli_main(["explore", "--benchmarks", "gzip", "--uops", "1000",
                         "--widths", "8", "--ratios", "1", "2",
                         "--helpers", "1", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Design-space exploration" in out
        assert "w8x1h1" in out and "w8x2h1" in out and "best" in out

    def test_sweep_rejects_mismatched_suite_flags(self, capsys):
        assert cli_main(["sweep", "--suite", "table2",
                         "--benchmarks", "gcc"]) == 2
        assert cli_main(["sweep", "--categories", "kernels"]) == 2

    def test_sweep_table2_suite(self, capsys):
        assert cli_main(["sweep", "--suite", "table2", "--uops", "800",
                         "--apps-per-category", "1", "--jobs", "2",
                         "--categories", "kernels", "office"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out
        assert "kernels" in out and "office" in out and "S-curve" in out


class TestWorkloadSuiteEngine:
    def test_suite_runs_through_engine_and_cache(self, tmp_path):
        from repro.sim.experiment import ExperimentRunner

        runner = ExperimentRunner(trace_uops=800, seed=2006, jobs=1,
                                  cache_dir=str(tmp_path / "cache"))
        sweep = runner.run_workload_suite(policy="n888",
                                          categories=["kernels"],
                                          apps_per_category=2)
        assert len(sweep.apps) == 2
        assert set(sweep.category_means()) == {"kernels"}
        assert len(sweep.s_curve()) == 2
        # Re-run: every (baseline, policy) pair served from the cache.
        rerun = ExperimentRunner(trace_uops=800, seed=2006, jobs=1,
                                 cache_dir=str(tmp_path / "cache"))
        rerun_sweep = rerun.run_workload_suite(policy="n888",
                                               categories=["kernels"],
                                               apps_per_category=2)
        assert rerun.cache.hits == 4 and rerun.cache.misses == 0
        assert rerun_sweep.speedups() == sweep.speedups()
