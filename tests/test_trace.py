"""Tests for the trace container, profiles, slicing and the workload suite."""

from dataclasses import replace

import pytest

from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import ArchReg
from repro.isa.uop import UopBuilder
from repro.trace.profiles import (
    SPEC_INT_2000,
    SPEC_INT_NAMES,
    BenchmarkProfile,
    InstructionMix,
    average_profile,
    get_profile,
)
from repro.trace.slicing import NUM_SLICES, select_simulation_slice, slice_trace
from repro.trace.trace import Trace
from repro.trace.workloads import (
    TOTAL_WORKLOAD_APPS,
    WORKLOAD_CATEGORIES,
    build_workload_suite,
    iter_category_apps,
)


def _toy_trace(n=10):
    builder = UopBuilder()
    trace = Trace(name="toy")
    prev_uid = None
    for i in range(n):
        uop = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EAX,), pc=0x1000 + 4 * i)
        uop = replace(uop.with_values([i], i + 1), producer_uids=(prev_uid,))
        trace.uops.append(uop)
        prev_uid = uop.uid
    return trace


class TestTraceContainer:
    def test_len_and_iter(self):
        trace = _toy_trace(5)
        assert len(trace) == 5
        assert len(list(trace)) == 5

    def test_getitem_slice_returns_trace(self):
        trace = _toy_trace(10)
        head = trace[:3]
        assert isinstance(head, Trace)
        assert len(head) == 3
        assert head.name == trace.name

    def test_head(self):
        assert len(_toy_trace(10).head(4)) == 4

    def test_validate_accepts_consistent_trace(self):
        _toy_trace(20).validate()

    def test_validate_rejects_forward_reference(self):
        trace = _toy_trace(3)
        trace.uops[0] = replace(trace.uops[0], producer_uids=(99,))
        with pytest.raises(ValueError):
            trace.validate()

    def test_validate_rejects_duplicate_uids(self):
        trace = _toy_trace(3)
        trace.uops[2] = replace(trace.uops[2], uid=trace.uops[1].uid)
        with pytest.raises(ValueError):
            trace.validate()

    def test_stats_counts(self):
        trace = _toy_trace(8)
        stats = trace.stats()
        assert stats.num_uops == 8
        assert stats.class_counts[OpClass.ALU] == 8
        assert 0.0 <= stats.narrow_result_fraction <= 1.0

    def test_producer_map(self):
        trace = _toy_trace(4)
        mapping = trace.producer_map()
        assert mapping[trace.uops[2].uid] is trace.uops[2]


class TestProfiles:
    def test_twelve_spec_benchmarks(self):
        assert len(SPEC_INT_NAMES) == 12
        for name in ("bzip2", "gcc", "gzip", "mcf", "vpr"):
            assert name in SPEC_INT_2000

    def test_get_profile_known(self):
        assert get_profile("gcc").name == "gcc"

    def test_get_profile_unknown_raises(self):
        with pytest.raises(KeyError):
            get_profile("nonexistent")

    def test_mix_normalisation(self):
        mix = InstructionMix(alu=2, load=1, store=1, cond_branch=0, uncond_branch=0,
                             mul=0, div=0, fp=0).normalized()
        assert abs(mix.alu - 0.5) < 1e-9
        assert abs(sum(mix.as_dict().values()) - 1.0) < 1e-9

    def test_mix_normalisation_rejects_zero(self):
        with pytest.raises(ValueError):
            InstructionMix(alu=0, load=0, store=0, cond_branch=0, uncond_branch=0,
                           mul=0, div=0, fp=0).normalized()

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="bad", narrow_data_fraction=1.5)
        with pytest.raises(ValueError):
            BenchmarkProfile(name="bad", loop_trip_mean=0)

    def test_scaled_override(self):
        profile = get_profile("gcc").scaled(narrow_data_fraction=0.1)
        assert profile.narrow_data_fraction == 0.1
        assert get_profile("gcc").narrow_data_fraction != 0.1

    def test_average_profile(self):
        avg = average_profile()
        assert 0.0 < avg.narrow_data_fraction < 1.0
        assert avg.name == "avg"

    def test_profiles_reflect_paper_ordering(self):
        # gzip and bzip2 are the byte-crunching codes; crafty/vpr the widest.
        assert SPEC_INT_2000["gzip"].narrow_data_fraction > SPEC_INT_2000["crafty"].narrow_data_fraction
        assert SPEC_INT_2000["bzip2"].narrow_consumer_locality < SPEC_INT_2000["gcc"].narrow_consumer_locality


class TestSlicing:
    def test_slice_count(self):
        trace = _toy_trace(100)
        slices = slice_trace(trace)
        assert len(slices) == NUM_SLICES
        assert sum(len(s) for s in slices) == 100

    def test_slice_remainder_goes_to_last(self):
        slices = slice_trace(_toy_trace(105))
        assert len(slices[-1]) >= len(slices[0])

    def test_slice_empty_trace(self):
        slices = slice_trace(Trace(name="empty"))
        assert len(slices) == NUM_SLICES
        assert all(len(s) == 0 for s in slices)

    def test_invalid_slice_count(self):
        with pytest.raises(ValueError):
            slice_trace(_toy_trace(10), num_slices=0)

    def test_select_simulation_slice_starts_at_fourth(self):
        trace = _toy_trace(100)
        selected = select_simulation_slice(trace)
        # slices of 10; the fourth slice starts at uop index 30
        assert selected.uops[0].uid == trace.uops[30].uid
        assert len(selected) == 10

    def test_select_multiple_slices(self):
        selected = select_simulation_slice(_toy_trace(100), slices_to_run=2)
        assert len(selected) == 20

    def test_select_validation(self):
        with pytest.raises(ValueError):
            select_simulation_slice(_toy_trace(10), start_slice=99)
        with pytest.raises(ValueError):
            select_simulation_slice(_toy_trace(10), slices_to_run=0)


class TestWorkloads:
    def test_table2_categories(self):
        assert set(WORKLOAD_CATEGORIES) == {"enc", "sfp", "kernels", "mm", "office",
                                            "prod", "ws"}
        assert WORKLOAD_CATEGORIES["enc"].num_traces == 62
        assert WORKLOAD_CATEGORIES["mm"].num_traces == 85

    def test_total_app_count_matches_table2(self):
        assert TOTAL_WORKLOAD_APPS == 62 + 41 + 52 + 85 + 75 + 45 + 49

    def test_build_full_suite(self):
        suite = build_workload_suite(apps_per_category=3)
        assert len(suite) == 3 * len(WORKLOAD_CATEGORIES)
        assert all(app.profile.category == app.category for app in suite)

    def test_suite_deterministic(self):
        a = build_workload_suite(apps_per_category=2)
        b = build_workload_suite(apps_per_category=2)
        assert [(x.name, x.seed) for x in a] == [(x.name, x.seed) for x in b]
        assert all(x.profile.narrow_data_fraction == y.profile.narrow_data_fraction
                   for x, y in zip(a, b))

    def test_unknown_category_raises(self):
        with pytest.raises(KeyError):
            build_workload_suite(categories=["bogus"])

    def test_iter_category(self):
        apps = list(iter_category_apps("kernels", apps_per_category=4))
        assert len(apps) == 4
        assert all(a.category == "kernels" for a in apps)

    def test_perturbation_stays_in_bounds(self):
        for app in build_workload_suite(apps_per_category=5):
            p = app.profile
            assert 0.0 <= p.narrow_data_fraction <= 1.0
            assert 0.0 <= p.width_locality <= 1.0
            assert p.static_loops >= 2
