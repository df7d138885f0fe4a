"""Tests for :mod:`repro.faultkit` — deterministic seeded fault injection.

Every decision must be a pure function of (plan seed, kind, token,
attempt): two processes, or a worker and its post-respawn replacement,
must agree on every fault, or chaos scenarios would be unreproducible and
the supervision tests flaky by construction.
"""

import dataclasses

import pytest

from repro.faultkit import (
    ARTIFACT_FAULT_KINDS,
    JOB_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    maybe_inject,
)
from repro.sim.cache import ResultCache
from repro.trace.store import TraceStore


class TestFaultPlanParsing:
    def test_parse_round_trips_through_to_text(self):
        plan = FaultPlan.parse("seed=7,crash=0.2,hang=0.1,transient=0.3,"
                               "corrupt_result=0.4,sticky=crash@gcc:ir,"
                               "deadline=15,backoff=0.05,attempts=2,"
                               "interrupt_after=3")
        assert plan.seed == 7
        assert plan.crash == 0.2
        assert plan.sticky == ("crash@gcc:ir",)
        assert plan.deadline == 15.0
        assert plan.attempts == 2
        assert plan.interrupt_after == 3
        assert FaultPlan.parse(plan.to_text()) == plan

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("seed=1,segfault=0.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("justakey")

    def test_multiple_sticky_entries_semicolon_separated(self):
        plan = FaultPlan.parse("sticky=crash@gcc:ir;hang@gzip:cr")
        assert plan.sticky == ("crash@gcc:ir", "hang@gzip:cr")
        assert FaultPlan.parse(plan.to_text()).sticky == plan.sticky

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "seed=3,transient=0.5")
        plan = FaultPlan.from_env()
        assert plan == FaultPlan(seed=3, transient=0.5)


class TestFaultDecisions:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=42, crash=0.1, hang=0.1, transient=0.2,
                         slow=0.1)
        tokens = [f"bench{i}:ir:{i:012x}" for i in range(50)]
        first = [plan.fault_for(token, 0) for token in tokens]
        second = [plan.fault_for(token, 0) for token in tokens]
        assert first == second
        # A re-parsed plan (what a respawned worker sees) agrees too.
        reparsed = FaultPlan.parse(plan.to_text())
        assert [reparsed.fault_for(t, 0) for t in tokens] == first

    def test_rates_partition_one_draw(self):
        """Raising one kind's rate never flips a decision of another kind."""
        low = FaultPlan(seed=9, crash=0.1, transient=0.1)
        high = FaultPlan(seed=9, crash=0.1, transient=0.4)
        for i in range(200):
            token = f"b:p:{i:012x}"
            if low.fault_for(token, 0) == "crash":
                assert high.fault_for(token, 0) == "crash"

    def test_zero_rates_never_fire(self):
        plan = FaultPlan(seed=1)
        assert not plan.any_job_faults()
        assert all(plan.fault_for(f"t{i}", 0) is None for i in range(100))

    def test_faults_spare_retries_by_default(self):
        """max_attempt=1: only the first attempt faults, so retries converge."""
        plan = FaultPlan(seed=5, transient=1.0)
        assert plan.fault_for("gcc:ir:abc", 0) == "transient"
        assert plan.fault_for("gcc:ir:abc", 1) is None

    def test_sticky_fires_every_attempt(self):
        plan = FaultPlan(seed=5, sticky=("crash@gcc:ir",))
        for attempt in range(5):
            assert plan.fault_for("gcc:ir:abc123", attempt) == "crash"
        assert plan.fault_for("gzip:ir:abc123", 0) is None

    def test_artifact_faults_keyed_independently(self):
        plan = FaultPlan(seed=8, corrupt_result=0.5, corrupt_trace=0.5)
        keys = [f"{i:064x}" for i in range(100)]
        fired = {kind: [plan.artifact_fault(kind, k) for k in keys]
                 for kind in ARTIFACT_FAULT_KINDS}
        # Deterministic, and the two kinds make independent decisions.
        assert fired["corrupt_result"] != fired["corrupt_trace"]
        assert any(fired["corrupt_result"]) and any(fired["corrupt_trace"])
        with pytest.raises(ValueError):
            plan.artifact_fault("nonsense", keys[0])


class TestMaybeInject:
    def test_none_plan_is_a_no_op(self):
        maybe_inject(None, "gcc:ir", 0, in_worker=False)

    def test_serial_crash_becomes_injected_fault(self):
        """In-process a crash cannot SIGKILL (it would kill the campaign)."""
        plan = FaultPlan(seed=1, sticky=("crash@gcc:ir",))
        with pytest.raises(InjectedFault):
            maybe_inject(plan, "gcc:ir:fff", 0, in_worker=False)

    def test_serial_hang_becomes_injected_fault(self):
        plan = FaultPlan(seed=1, sticky=("hang@gcc:ir",), hang_delay=999.0)
        with pytest.raises(InjectedFault):
            maybe_inject(plan, "gcc:ir:fff", 0, in_worker=False)

    def test_transient_raises_everywhere(self):
        plan = FaultPlan(seed=1, transient=1.0)
        with pytest.raises(InjectedFault):
            maybe_inject(plan, "gcc:ir:fff", 0, in_worker=True)


class TestFaultInjector:
    def _cached_result(self, tmp_path):
        from repro.sim.simulator import simulate
        from repro.trace.profiles import get_profile
        from repro.trace.synthetic import generate_trace

        trace = generate_trace(get_profile("gcc"), 300, seed=1)
        result = simulate(trace)
        cache = ResultCache(tmp_path / "results")
        key = "ab" + "0" * 62
        cache.store(key, result)
        return cache, key, result

    def test_corrupt_result_entry_fires_once_and_counts(self, tmp_path):
        cache, key, result = self._cached_result(tmp_path)
        injector = FaultInjector(FaultPlan(seed=2, corrupt_result=1.0))
        assert injector.corrupt_result_entry(cache, key)
        assert injector.fired == {"corrupt_result": 1}
        # At most once per key: the second call is a no-op.
        assert not injector.corrupt_result_entry(cache, key)
        # The corrupted entry fails verify and is healed by the rewrite.
        assert not cache.verify(key, result)
        assert cache.healed == 1
        assert cache.verify(key, result)

    def test_corrupt_trace_entry_truncates(self, tmp_path):
        from repro.trace.profiles import get_profile
        from repro.trace.store import trace_key
        from repro.trace.synthetic import generate_trace

        store = TraceStore(tmp_path / "traces")
        profile = get_profile("gzip")
        trace = generate_trace(profile, 300, seed=2)
        key = trace_key(profile, 300, 2, False)
        store.store(key, trace)
        intact = store.path_for(key).stat().st_size
        injector = FaultInjector(FaultPlan(seed=2, corrupt_trace=1.0))
        assert injector.corrupt_trace_entry(store, key)
        assert store.path_for(key).stat().st_size < intact
        assert store.load(key) is None  # detected, dropped
        assert store.corrupt_drops == 1

    def test_after_completion_interrupts_on_schedule(self):
        injector = FaultInjector(FaultPlan(seed=1, interrupt_after=2))
        injector.after_completion()
        with pytest.raises(KeyboardInterrupt):
            injector.after_completion()
        assert injector.fired.get("interrupt") == 1

    def test_plan_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FaultPlan().seed = 1
