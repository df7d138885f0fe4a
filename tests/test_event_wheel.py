"""Event-wheel ≡ reference-loop equivalence.

The simulator's event-wheel core (`HelperClusterSimulator.run`) must produce
the bit-identical `SimulationResult` of the straightforward per-cycle
reference loop kept behind ``REPRO_REFERENCE_LOOP=1``
(`_run_reference`) — every field, per-cluster energy breakdowns included.
The test is randomized over benchmark profiles, trace lengths, seeds,
topologies (the paper's machine, the monolithic baseline, multi-helper and
asymmetric mixes) and every registered policy, so any future wheel
optimisation that stops being timing-transparent fails here inside tier-1.
"""

from __future__ import annotations

import pickle
import random

from repro.core.config import (
    baseline_config,
    helper_cluster_config,
    helper_topology,
    mixed_helper_topology,
    monolithic_topology,
    topology_config,
)
from repro.core.steering import make_policy, policy_registry
from repro.sim.simulator import HelperClusterSimulator
from repro.trace.profiles import SPEC_INT_2000, SPEC_INT_NAMES
from repro.trace.synthetic import generate_trace

#: Machine shapes the randomized sweep draws from: the paper's design point,
#: the monolithic baseline, a two-helper machine, a slow 16-bit helper and
#: the asymmetric 8-bit@2x + 16-bit@1x mix.
TOPOLOGY_FACTORIES = [
    ("paper", lambda: helper_cluster_config()),
    ("mono", lambda: topology_config(monolithic_topology())),
    ("2x8b", lambda: topology_config(helper_topology(helpers=2))),
    ("16b@1x", lambda: topology_config(helper_topology(narrow_width=16,
                                                       clock_ratio=1))),
    ("mix", lambda: topology_config(mixed_helper_topology([(8, 2), (16, 1)]))),
]


def _run_both(trace, config, policy_name):
    """One (trace, machine, policy) point under both loop implementations."""
    wheel = HelperClusterSimulator(
        trace, config=config, policy=make_policy(policy_name),
        reference_loop=False).run()
    reference = HelperClusterSimulator(
        trace, config=config, policy=make_policy(policy_name),
        reference_loop=True).run()
    return wheel, reference


def _assert_identical(wheel, reference, context):
    # Pickle equality covers every SimulationResult field at full precision:
    # cycles, IPC, prediction breakdowns, imbalance, occupancies, activity
    # counters, per-cluster power breakdowns and ED².
    assert pickle.dumps(wheel) == pickle.dumps(reference), (
        f"event wheel diverged from the per-cycle reference loop at {context}: "
        f"wheel fc={wheel.fast_cycles} ipc={wheel.ipc} e={wheel.energy} vs "
        f"reference fc={reference.fast_cycles} ipc={reference.ipc} "
        f"e={reference.energy}")


class TestEventWheelEquivalence:
    def test_randomized_points(self):
        """Random (profile, length, seed, topology, policy) draws."""
        rng = random.Random(0xE7E)
        policies = [name for name in policy_registry.names()
                    if name != "baseline"]
        for draw in range(8):
            benchmark = rng.choice(SPEC_INT_NAMES)
            uops = rng.randrange(1_500, 3_500)
            seed = rng.randrange(1, 10_000)
            topo_name, factory = rng.choice(TOPOLOGY_FACTORIES)
            config = factory()
            policy_name = ("baseline" if topo_name == "mono"
                           else rng.choice(policies))
            trace = generate_trace(SPEC_INT_2000[benchmark], uops, seed=seed)
            wheel, reference = _run_both(trace, config, policy_name)
            _assert_identical(
                wheel, reference,
                f"draw {draw}: {benchmark}/{policy_name}/{topo_name} "
                f"uops={uops} seed={seed}")

    def test_every_registered_policy_on_the_paper_machine(self):
        """All registered policies (width-aware variants included)."""
        trace = generate_trace(SPEC_INT_2000["gcc"], 2_000, seed=2006)
        for policy_name in policy_registry.names():
            config = (baseline_config() if policy_name == "baseline"
                      else helper_cluster_config())
            wheel, reference = _run_both(trace, config, policy_name)
            _assert_identical(wheel, reference, f"policy {policy_name}")

    def test_every_registered_policy_on_the_mixed_machine(self):
        """All helper policies on the asymmetric 8-bit@2x + 16-bit@1x mix."""
        trace = generate_trace(SPEC_INT_2000["parser"], 2_000, seed=7)
        config = topology_config(mixed_helper_topology([(8, 2), (16, 1)]))
        for policy_name in policy_registry.helper_names():
            wheel, reference = _run_both(trace, config, policy_name)
            _assert_identical(wheel, reference, f"mixed/{policy_name}")


class TestReferenceLoopKnob:
    def test_env_var_selects_reference_loop(self, monkeypatch):
        trace = generate_trace(SPEC_INT_2000["gzip"], 500, seed=1)
        monkeypatch.setenv("REPRO_REFERENCE_LOOP", "1")
        sim = HelperClusterSimulator(trace, config=helper_cluster_config(),
                                     policy=make_policy("ir"))
        assert sim._reference_loop
        monkeypatch.setenv("REPRO_REFERENCE_LOOP", "0")
        sim = HelperClusterSimulator(trace, config=helper_cluster_config(),
                                     policy=make_policy("ir"))
        assert not sim._reference_loop

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        trace = generate_trace(SPEC_INT_2000["gzip"], 500, seed=1)
        monkeypatch.setenv("REPRO_REFERENCE_LOOP", "1")
        sim = HelperClusterSimulator(trace, config=helper_cluster_config(),
                                     policy=make_policy("ir"),
                                     reference_loop=False)
        assert not sim._reference_loop
