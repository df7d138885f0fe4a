"""Tests for the differential fuzzing harness (``repro.fuzz``).

Covers the contracts DESIGN.md § "Differential fuzzing" promises:

* case generation is a pure function of the seed (byte-identical text),
* cases round-trip losslessly through the JSON corpus format,
* a small campaign runs green end to end (the nightly job's fast path),
* every committed corpus entry under ``tests/fuzz_corpus/`` still passes,
* an injected event-wheel divergence is *caught* and *shrunk* to a small
  reproducer (mutation-testing the harness itself), and
* the shrinker respects its evaluation budget and only ever returns a
  still-failing case.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import ClusterSpec, Topology, random_topology
from repro.core.steering import policy_registry, random_policy_spec
from repro.fuzz import (
    FuzzCase,
    case_from_dict,
    case_text,
    case_to_dict,
    generate_case,
    load_corpus_dir,
    run_campaign,
    run_case,
    shrink_case,
    write_corpus_entry,
    write_repro_script,
)
from repro.sim.simulator import HelperClusterSimulator
from repro.trace.profiles import get_profile

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"


# ---------------------------------------------------------------------------
# determinism + serialization
# ---------------------------------------------------------------------------
def test_same_seed_regenerates_byte_identical_cases():
    for seed in range(20):
        assert case_text(generate_case(seed)) == case_text(generate_case(seed))


def test_distinct_seeds_explore_distinct_cases():
    texts = {case_text(generate_case(seed)) for seed in range(20)}
    assert len(texts) == 20


def test_case_round_trips_through_json():
    for seed in range(20):
        case = generate_case(seed)
        rebuilt = case_from_dict(json.loads(json.dumps(case_to_dict(case))))
        assert case_text(rebuilt) == case_text(case)


def test_case_dict_rejects_unknown_format():
    data = case_to_dict(generate_case(0))
    data["format"] = 999
    with pytest.raises(ValueError, match="format"):
        case_from_dict(data)


def test_random_topology_and_policy_are_deterministic():
    import random

    for seed in range(10):
        a = random_topology(random.Random(seed))
        b = random_topology(random.Random(seed))
        assert a == b
        pa = random_policy_spec(random.Random(seed))
        pb = random_policy_spec(random.Random(seed))
        assert pa.to_key_dict() == pb.to_key_dict()


def test_random_topology_spends_no_draw_on_the_host_flush_penalty():
    import random

    # Width recoveries only trigger in helpers, so the host's penalty is
    # never read and the generator leaves it at the default.
    default = ClusterSpec(name="wide", has_fp=True).flush_penalty_slow
    for seed in range(20):
        assert random_topology(random.Random(seed)).host.flush_penalty_slow == default


# ---------------------------------------------------------------------------
# campaigns + corpus replay
# ---------------------------------------------------------------------------
def test_small_campaign_runs_green(tmp_path):
    campaign = run_campaign(4, seed=2006, out_dir=tmp_path / "failures")
    assert campaign.cases_run == 4
    assert campaign.ok, [r.failures for r in campaign.reports]
    assert campaign.stop_reason == "completed"
    assert not (tmp_path / "failures").exists()  # nothing failed => no dir


def test_campaign_time_budget_stops_early():
    campaign = run_campaign(1000, seed=0, time_budget=0.0)
    assert campaign.cases_run == 0
    assert "time budget" in campaign.stop_reason


def test_committed_corpus_replays_green():
    entries = load_corpus_dir(CORPUS_DIR)
    assert entries, "the committed fuzz corpus must not be empty"
    for name, case in entries:
        report = run_case(case)
        assert report.ok, (name, report.failures)


def test_corpus_entries_are_replayable_files(tmp_path):
    case = generate_case(7)
    path = write_corpus_entry(case, tmp_path, "entry-7", "round-trip pin")
    (name, loaded), = load_corpus_dir(tmp_path)
    assert name == "entry-7"
    assert case_text(loaded) == case_text(case)
    assert path.read_text().endswith("\n")


def test_repro_script_is_self_contained(tmp_path):
    case = generate_case(3)
    script = write_repro_script(case, tmp_path / "repro.py",
                                ["example failure line"])
    text = script.read_text()
    assert "example failure line" in text
    assert json.dumps(case_to_dict(case), indent=2, sort_keys=True) in text


# ---------------------------------------------------------------------------
# mutation testing: an injected wheel divergence must be caught and shrunk
# ---------------------------------------------------------------------------
def _mutation_case() -> FuzzCase:
    """A mid-sized three-cluster case the shrinker has real work to do on.

    The ratio-4 helper matters: multi-cycle idle hops — the wheel-only
    aggregation the skew below corrupts — only exist when the fast clock
    runs at 3x the host or more (at ratio 2 every idle hop is one cycle).
    """
    topology = Topology((
        ClusterSpec(name="wide", datapath_width=32, clock_ratio=1,
                    has_fp=True),
        ClusterSpec(name="narrow0", datapath_width=8, clock_ratio=4),
        ClusterSpec(name="narrow1", datapath_width=16, clock_ratio=2),
    ))
    return FuzzCase(case_seed=None, profile=get_profile("gcc"),
                    trace_uops=2_000, trace_seed=2006, use_slicing=False,
                    topology=topology,
                    policy=policy_registry.get("n888"))


def test_injected_wheel_divergence_is_caught_and_shrunk(monkeypatch):
    original = HelperClusterSimulator._record_idle_cycles

    def skewed(self, cycles):
        # The reference loop samples idle stretches one cycle at a time;
        # only the event wheel passes aggregated multi-cycle hops.  Skewing
        # those corrupts the wheel's sampling statistics alone — exactly
        # the class of bug the differential harness exists to catch.
        if cycles > 1:
            cycles += 1
        original(self, cycles)

    monkeypatch.setattr(HelperClusterSimulator, "_record_idle_cycles", skewed)

    case = _mutation_case()
    report = run_case(case, check_stores=False)
    assert not report.ok
    assert any("diverged" in failure for failure in report.failures)

    minimal, evals = shrink_case(case)
    assert evals <= 60
    # The ISSUE's acceptance bar: a minimal reproducer, not the original.
    assert minimal.trace_uops <= 500
    assert len(minimal.topology.clusters) <= 2
    assert not run_case(minimal, check_stores=False).ok


def test_mutation_campaign_emits_artifacts(monkeypatch, tmp_path):
    original_run = HelperClusterSimulator.run

    def buggy_run(self):
        # Simulated wheel-only accounting bug: the event-wheel branch
        # over-counts copies by one.  Unlike the sampling skew above this
        # diverges on every topology, so a 3-case campaign reliably fails.
        result = original_run(self)
        if not self._reference_loop:
            result.copies += 1
        return result

    monkeypatch.setattr(HelperClusterSimulator, "run", buggy_run)

    out = tmp_path / "failures"
    corpus = tmp_path / "corpus"
    campaign = run_campaign(3, seed=0, out_dir=out, corpus_dir=corpus,
                            max_failures=1, check_stores=False)
    assert campaign.reports, "the skewed wheel must produce failures"
    assert "failure budget" in campaign.stop_reason
    scripts = list(out.glob("repro-*.py"))
    assert scripts, "each failure must emit a repro script"
    assert list(out.glob("*-shrunk.json")) and list(out.glob("*-original.json"))
    assert load_corpus_dir(corpus), "failures must land in the corpus dir"


# ---------------------------------------------------------------------------
# shrinker behaviour
# ---------------------------------------------------------------------------
def test_shrink_respects_evaluation_budget():
    case = generate_case(11)
    calls = []

    def always_fails(candidate):
        calls.append(candidate)
        return True

    minimal, evals = shrink_case(case, predicate=always_fails, max_evals=7)
    assert evals == 7 and len(calls) == 7
    assert minimal.trace_uops < case.trace_uops  # budget went to length first


def test_shrink_keeps_the_original_when_nothing_smaller_fails():
    case = generate_case(11)

    def only_original_fails(candidate):
        return case_text(candidate) == case_text(case)

    minimal, _ = shrink_case(case, predicate=only_original_fails)
    assert case_text(minimal) == case_text(case)


def test_shrink_prefers_fewer_uops_and_clusters():
    case = _mutation_case()

    def size_failure(candidate):
        # Fails regardless of size: every shrink stage can make progress.
        return True

    minimal, _ = shrink_case(case, predicate=size_failure)
    assert minimal.trace_uops == 20
    assert len(minimal.topology.clusters) == 1
    assert not minimal.policy.schemes or minimal.policy.selector == "least_loaded"


# ---------------------------------------------------------------------------
# invariant checkers on healthy runs
# ---------------------------------------------------------------------------
def test_commit_hook_sees_every_committed_uop():
    from repro.fuzz import CommitOrderRecorder

    case = replace(generate_case(5), trace_uops=500)
    config = case.machine_config()
    trace = case.build_trace()
    recorder = CommitOrderRecorder(config.commit_width)
    sim = HelperClusterSimulator(trace, config=config,
                                 policy=case.policy.build())
    sim.commit_hook = recorder
    result = sim.run()
    assert recorder.violations == []
    assert recorder.retired_entries == result.committed_uops


def test_result_invariants_flag_impossible_results():
    from repro.fuzz import check_result_invariants

    case = replace(generate_case(5), trace_uops=300)
    config = case.machine_config()
    trace = case.build_trace()  # sliced cases commit len(trace), not trace_uops
    result = HelperClusterSimulator(trace, config=config,
                                    policy=case.policy.build()).run()
    assert check_result_invariants(result, config, len(trace)) == []
    result.committed_uops += 1
    result.fast_cycles += 1  # breaks the fast/slow ratio identity too
    violations = check_result_invariants(result, config, len(trace))
    assert any("committed_uops" in v for v in violations)
    assert any("clock arithmetic" in v for v in violations)
