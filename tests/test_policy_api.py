"""Tests for the cluster-targeted steering API and the policy registry.

Covers the PR's API-redesign surface:

* **Registry** — ``PolicySpec`` records, registration, registry-driven
  ``make_policy`` with ad-hoc ``"+"`` scheme combos, and the ``KeyError``
  contract (message lists known policies *and* known schemes).
* **Cache keys** — ``PolicySpec.to_key_dict()`` reaches the engine's result
  key, so policies differing only in selector or knobs never alias.
* **Selectors** — the default least-loaded selector reproduces the original
  helper resolution; the width-aware selector routes by requirement width
  (9-16-bit work to a 16-bit helper, never to an 8-bit one) and degenerates
  to the default behaviour on the paper's single-helper machine.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.cluster import Backend
from repro.core.config import (
    helper_cluster_config,
    helper_topology,
    mixed_helper_topology,
    topology_config,
)
from repro.core.selection import (
    SELECTORS,
    ClusterRequirement,
    LeastLoadedSelector,
    WidthAwareSelector,
    make_selector,
)
from repro.core.steering import (
    BaselineSteering,
    DataWidthSteering,
    PolicyRegistry,
    PolicySpec,
    Scheme,
    make_policy,
    parse_scheme_combo,
    policy_registry,
    policy_spec,
)
from repro.isa.opcodes import Opcode
from repro.pipeline.clocking import ClockingModel
from repro.sim.cache import canonical_text
from repro.sim.engine import SweepEngine, SweepJob
from repro.sim.experiment import ExperimentRunner, mixed_topology_point
from repro.sim.simulator import HelperClusterSimulator, simulate
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace
from test_scheduler_random import Record


# ---------------------------------------------------------------------------
# PolicySpec and the registry
# ---------------------------------------------------------------------------
class TestPolicyRegistry:
    def test_default_registry_contains_ladder_and_width_aware(self):
        names = policy_registry.names()
        assert names[0] == "baseline"
        for name in ("n888", "ir", "ir_nodest", "ir_wa", "n888_wa"):
            assert name in policy_registry, name
        # Ladder ordering is preserved and excludes the width-aware extras.
        ladder = policy_registry.ladder_names(include_baseline=False)
        assert ladder[0] == "n888" and ladder[-1] == "ir_nodest"
        assert "ir_wa" not in ladder
        assert "ir_wa" in policy_registry.helper_names()
        assert "baseline" not in policy_registry.helper_names()

    def test_registered_policy_buildable_without_cli_changes(self):
        registry = PolicyRegistry()
        spec = registry.register(PolicySpec(
            name="custom", schemes=frozenset({Scheme.N888, Scheme.LR}),
            selector="width_aware", knobs={"width_margin": 2}))
        policy = make_policy("custom", registry=registry)
        assert isinstance(policy, DataWidthSteering)
        assert policy.name == "custom"
        assert policy.schemes == {Scheme.N888, Scheme.LR}
        assert isinstance(policy.selector, WidthAwareSelector)
        assert policy.selector.width_margin == 2
        assert spec.to_key_dict()["knobs"] == {"width_margin": 2}

    def test_duplicate_registration_requires_replace(self):
        registry = PolicyRegistry()
        registry.register(PolicySpec(name="p", schemes=frozenset({Scheme.N888})))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(PolicySpec(name="p", schemes=frozenset({Scheme.CR})))
        registry.register(PolicySpec(name="p", schemes=frozenset({Scheme.CR})),
                          replace=True)
        assert registry.get("p").schemes == {Scheme.CR}

    def test_baseline_spec_builds_baseline_policy(self):
        policy = make_policy("baseline")
        assert isinstance(policy, BaselineSteering)
        assert isinstance(policy.selector, LeastLoadedSelector)

    def test_unknown_policy_error_lists_names_and_schemes(self):
        with pytest.raises(KeyError) as excinfo:
            make_policy("bogus")
        message = str(excinfo.value)
        assert "ir_nodest" in message and "baseline" in message
        for token in ("n888", "br", "lr", "cr", "cp", "ir"):
            assert token in message, token

    def test_unknown_selector_raises(self):
        with pytest.raises(KeyError, match="unknown cluster selector"):
            make_selector("bogus")
        assert set(SELECTORS) >= {"least_loaded", "width_aware"}


class TestAdHocSchemeCombos:
    def test_parse_scheme_combo(self):
        assert parse_scheme_combo("n888+cr") == {Scheme.N888, Scheme.CR}
        assert parse_scheme_combo("N888 + IR_NODEST") == {Scheme.N888,
                                                          Scheme.IR_NODEST}
        assert parse_scheme_combo("n888+bogus") is None

    def test_make_policy_accepts_ad_hoc_combo(self):
        policy = make_policy("n888+cr")
        assert isinstance(policy, DataWidthSteering)
        assert policy.schemes == {Scheme.N888, Scheme.CR}
        assert policy.name == "n888+cr"

    def test_ad_hoc_combo_with_unknown_token_raises_listing_both(self):
        with pytest.raises(KeyError) as excinfo:
            make_policy("n888+bogus")
        message = str(excinfo.value)
        assert "known policies" in message and "known schemes" in message

    def test_ad_hoc_combo_simulates(self, tiny_trace):
        result = simulate(tiny_trace, config=helper_cluster_config(),
                          policy=make_policy("n888+cr"))
        assert result.policy == "n888+cr"
        assert result.committed_uops == len(tiny_trace)


# ---------------------------------------------------------------------------
# Cache-key contract: PolicySpec feeds the result key
# ---------------------------------------------------------------------------
class TestPolicySpecCacheKey:
    def test_key_dict_distinguishes_selector_and_knobs(self):
        base = PolicySpec(name="p", schemes=frozenset({Scheme.N888}))
        by_selector = replace(base, selector="width_aware")
        by_knobs = replace(by_selector, knobs=(("width_margin", 1),))
        keys = {canonical_text(spec.to_key_dict())
                for spec in (base, by_selector, by_knobs)}
        assert len(keys) == 3

    def test_engine_keys_never_alias_selector_variants(self):
        engine = SweepEngine(config=helper_cluster_config())
        ir = engine.key_for(SweepJob("gcc", "ir", 1000, 2006))
        ir_wa = engine.key_for(SweepJob("gcc", "ir_wa", 1000, 2006))
        ad_hoc = engine.key_for(SweepJob("gcc", "n888+cr", 1000, 2006))
        assert len({ir, ir_wa, ad_hoc}) == 3

    def test_execute_job_uses_shipped_spec_over_registry(self):
        """Pool workers receive the resolved PolicySpec in the task, so
        runtime-registered policies survive spawn-based multiprocessing
        (where the child's registry only holds the built-ins)."""
        from repro.sim.engine import execute_job

        spec = PolicySpec(name="unregistered_custom",
                          schemes=frozenset({Scheme.N888}))
        job = SweepJob("gcc", "unregistered_custom", 1200, 2006)
        with pytest.raises(KeyError):
            execute_job(job, helper_cluster_config())  # name alone: unknown
        result = execute_job(job, helper_cluster_config(), spec=spec)
        assert result.policy == "unregistered_custom"

    def test_engine_runs_ad_hoc_policy_and_caches_it(self, tmp_path):
        from repro.sim.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(config=helper_cluster_config(), cache=cache)
        job = SweepJob("gcc", "n888+cr", 1200, 2006)
        first = engine.run_jobs([job])[job]
        assert first.policy == "n888+cr"
        assert cache.stores == 1
        again = engine.run_jobs([job])[job]
        assert cache.hits == 1
        assert again == first


# ---------------------------------------------------------------------------
# Selector unit behaviour
# ---------------------------------------------------------------------------
def _bind_selector(selector, topology):
    config = topology_config(topology)
    clocking = ClockingModel.from_ratios([spec.clock_ratio for spec in topology])
    backends = [Backend(spec, config, clocking, index=i)
                for i, spec in enumerate(topology)]
    selector.bind(topology, backends)
    return backends


class TestWidthAwareSelector:
    def _mixed(self):
        return mixed_helper_topology([(8, 2), (16, 1)])

    def test_steering_width_is_widest_helper(self):
        selector = WidthAwareSelector()
        topology = self._mixed()
        assert selector.steering_width(topology_config(topology), topology) == 16
        default = LeastLoadedSelector()
        assert default.steering_width(topology_config(topology), topology) == 8

    def test_halfword_requirements_only_reach_sixteen_bit_helper(self):
        selector = WidthAwareSelector()
        _bind_selector(selector, self._mixed())
        for bits in range(9, 17):
            chosen = selector.select(ClusterRequirement(min_width=bits))
            assert chosen == 2, f"{bits}-bit requirement routed to cluster {chosen}"
        assert all(cluster == 2 for (_, cluster) in selector.routed)

    def test_byte_requirements_prefer_fast_narrow_helper(self):
        selector = WidthAwareSelector()
        _bind_selector(selector, self._mixed())
        assert selector.select(ClusterRequirement(min_width=8)) == 1
        assert selector.select(ClusterRequirement(min_width=1)) == 1

    def test_byte_work_spills_when_narrow_helper_full(self):
        selector = WidthAwareSelector()
        backends = _bind_selector(selector, self._mixed())
        n8 = backends[1]
        while n8.issue_queue.free_slots:
            n8.issue_queue.insert(Record(
                dyn_id=1000 + n8.issue_queue.free_slots, seq=0,
                remaining_sources=1))
        assert selector.select(ClusterRequirement(min_width=8)) == 2

    def test_unsatisfiable_requirement_returns_none(self):
        selector = WidthAwareSelector()
        _bind_selector(selector, self._mixed())
        assert selector.select(ClusterRequirement(min_width=17)) is None
        assert selector.select(ClusterRequirement(min_width=8,
                                                  needs_fp=True)) is None

    def test_width_margin_knob_tightens_fit(self):
        selector = WidthAwareSelector(width_margin=4)
        _bind_selector(selector, self._mixed())
        # 8-bit requirement + 4 bits of margin no longer fits the 8-bit helper.
        assert selector.select(ClusterRequirement(min_width=8)) == 2

    def test_reset_clears_routing_stats(self):
        selector = WidthAwareSelector()
        _bind_selector(selector, self._mixed())
        selector.select(ClusterRequirement(min_width=12))
        assert selector.routed
        selector.reset()
        assert not selector.routed


class TestResolve:
    def test_explicit_target_honoured_when_capable(self):
        from repro.core.steering import SteerDecision
        from repro.pipeline.clocking import ClockDomain

        selector = LeastLoadedSelector()
        _bind_selector(selector, mixed_helper_topology([(8, 2), (16, 1)]))
        decision = SteerDecision(domain=ClockDomain.NARROW, target_cluster=2)
        assert selector.resolve(decision, Opcode.ADD) == 2

    def test_target_violating_requirement_is_rerouted(self):
        from repro.core.steering import SteerDecision
        from repro.pipeline.clocking import ClockDomain

        selector = WidthAwareSelector()
        _bind_selector(selector, mixed_helper_topology([(8, 2), (16, 1)]))
        # Cluster 1 is the 8-bit helper: a 16-bit requirement must override
        # the explicit target rather than invite a fatal width flush.
        decision = SteerDecision(
            domain=ClockDomain.NARROW, target_cluster=1,
            requirement=ClusterRequirement(min_width=16))
        assert selector.resolve(decision, Opcode.ADD) == 2

    def test_wide_decision_resolves_to_host(self):
        from repro.core.steering import SteerDecision
        from repro.pipeline.clocking import ClockDomain

        selector = LeastLoadedSelector()
        _bind_selector(selector, helper_topology())
        decision = SteerDecision(domain=ClockDomain.WIDE)
        assert selector.resolve(decision, Opcode.ADD) == 0


class TestLeastLoadedSelector:
    def test_single_helper_shortcut(self):
        selector = LeastLoadedSelector()
        _bind_selector(selector, helper_topology())
        assert selector.select() == 1
        assert selector.select(opcode=Opcode.ADD) == 1

    def test_least_loaded_wins_lowest_index_on_ties(self):
        selector = LeastLoadedSelector()
        backends = _bind_selector(selector, helper_topology(helpers=2))
        assert selector.select() == 1  # tie -> lowest index
        backends[1].issue_queue.insert(Record(
            dyn_id=1, seq=0, remaining_sources=1))
        assert selector.select() == 2  # helper 2 now has more free slots


# ---------------------------------------------------------------------------
# Width-aware steering end to end
# ---------------------------------------------------------------------------
class TestWidthAwareSteering:
    def test_width_aware_degenerates_on_paper_machine(self, tiny_trace):
        """ir_wa == ir bit-identically on the single-helper design point.

        Only the self-describing labels (policy name, recorded selector) may
        differ; every timing, steering and energy metric must be identical.
        """
        r_ir = simulate(tiny_trace, config=helper_cluster_config(),
                        policy=make_policy("ir"))
        r_wa = simulate(tiny_trace, config=helper_cluster_config(),
                        policy=make_policy("ir_wa"))
        assert r_wa.selector == "width_aware" and r_ir.selector == "least_loaded"
        assert replace(r_wa, policy="ir", selector=r_ir.selector) == r_ir

    @pytest.fixture(scope="class")
    def halfword_trace(self):
        return generate_trace(get_profile("gcc").scaled(data_width=16),
                              4000, seed=3)

    def test_halfword_uops_land_on_sixteen_bit_helper_only(self, halfword_trace):
        config = topology_config(mixed_helper_topology([(8, 2), (16, 1)]))
        sim = HelperClusterSimulator(halfword_trace, config=config,
                                     policy=make_policy("ir_wa"))
        result = sim.run()
        assert result.committed_uops == len(halfword_trace)
        mid_routes = {(bits, cluster): count
                      for (bits, cluster), count in sim.selector.routed.items()
                      if 9 <= bits <= 16}
        assert mid_routes, "expected 9-16-bit steering requirements"
        assert all(cluster == 2 for (_, cluster) in mid_routes), (
            f"9-16-bit uops reached the 8-bit helper: {mid_routes}")
        # The 16-bit helper actually executed work.
        assert result.cluster_occupancy["n16x1"] > 0.0

    def test_width_aware_beats_default_selector_on_asymmetric_explore(
            self, halfword_trace):
        """Acceptance: strictly higher helper-steered fraction in the
        explore sensitivity table on the 8-bit@2x + 16-bit@1x machine."""
        point = mixed_topology_point([(8, 2), (16, 1)])
        profile = get_profile("gcc").scaled(data_width=16)
        runner = ExperimentRunner(trace_uops=2000, seed=2006)
        default_sweep = runner.run_topology_grid([point], [profile], policy="ir")
        wa_sweep = runner.run_topology_grid([point], [profile], policy="ir_wa")
        assert wa_sweep.mean_helper_fraction(point.name) > \
            default_sweep.mean_helper_fraction(point.name)

    def test_width_aware_simulation_is_deterministic(self, halfword_trace):
        config = topology_config(mixed_helper_topology([(8, 2), (16, 1)]))
        first = simulate(halfword_trace, config=config, policy=make_policy("ir_wa"))
        second = simulate(halfword_trace, config=config, policy=make_policy("ir_wa"))
        assert first == second
