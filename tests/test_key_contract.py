"""Cache-key contract conformance for every ``to_key_dict()`` dataclass.

The result cache's stale-key hazard class (see DESIGN.md): any dataclass
that feeds the cache key must (a) serialise to *canonical JSON* losslessly —
``canonical_text`` of its key dict must round-trip through ``json.loads``
unchanged, so the key depends on field values rather than repr formatting —
and (b) change the key whenever **any** field changes, nested fields
included.  This module asserts both properties generically for every
key-contributing dataclass (``MachineConfig``, ``PolicySpec``, plus the
nested ``ClusterSpec``/``Topology``), by perturbing each field in turn and
checking the canonical text moves.  The energy coefficients are not a key
input: ``power/wattch.py`` is fingerprinted by lint rule REP005, so editing
a coefficient needs a ``SIMULATOR_VERSION`` bump.

Deliberate exemptions (fields that must *not* reach the key) are listed in
``KEY_EXEMPT`` so the contract is explicit in both directions.

The converse is checked too: every leaf field of ``MachineConfig`` (each
cluster's ``ClusterSpec`` included) must move some field of a simulation
result, or a dead knob would split cache entries on a no-op.  The few that
cannot are listed in ``LIVENESS_EXEMPT`` with the reason.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import (
    ClusterSpec,
    MachineConfig,
    Topology,
    helper_cluster_config,
    helper_topology,
    mixed_helper_topology,
    topology_config,
)
from repro.core.steering import PolicySpec, Scheme, make_policy, policy_spec
from repro.sim.cache import canonical_text
from repro.sim.simulator import simulate
from repro.trace.profiles import get_profile
from repro.trace.synthetic import generate_trace

#: Fields deliberately excluded from the cache key, per owning class.
#: ``PolicySpec.in_ladder`` is a presentation flag: it orders the ladder
#: tables and must not fragment the cache.
KEY_EXEMPT = {
    PolicySpec: {"in_ladder"},
}

#: The key-contributing instances under test.
SUBJECTS = [
    pytest.param(helper_cluster_config(), id="MachineConfig"),
    pytest.param(policy_spec("ir_wa"), id="PolicySpec"),
    pytest.param(helper_topology().helpers[0], id="ClusterSpec"),
    pytest.param(helper_topology(), id="Topology"),
]


def _candidates(value):
    """Type-appropriate replacement candidates for one field value."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        # Several options: validators constrain some fields (powers of two,
        # 2-bit ranges, >= 1 minima, a host at least as wide as its
        # helpers); the first constructible one wins.
        return [value * 2, value + 1, value - 1, 1, value // 2]
    if isinstance(value, float):
        return [value * 2 + 1.0]
    if isinstance(value, str):
        return [value + "_probe"]
    if isinstance(value, frozenset):
        return [frozenset(set(value) ^ {Scheme.N888})]
    if isinstance(value, tuple):
        if value and dataclasses.is_dataclass(value[0]):
            # Topology.clusters: mutate the last cluster spec.
            mutated = _mutate_any_field(value[-1])
            return [] if mutated is None else [value[:-1] + (mutated,)]
        return [(("probe_knob", 1),)]
    if dataclasses.is_dataclass(value):
        mutated = _mutate_any_field(value)
        return [] if mutated is None else [mutated]
    return []


def _mutate_field(obj, field_name):
    """A copy of ``obj`` with ``field_name`` changed, or None if impossible."""
    for candidate in _candidates(getattr(obj, field_name)):
        try:
            mutated = dataclasses.replace(obj, **{field_name: candidate})
        except (ValueError, TypeError):
            continue  # rejected by a validator; try the next candidate
        if mutated != obj:
            return mutated
    return None


def _mutate_any_field(obj):
    for field in dataclasses.fields(obj):
        mutated = _mutate_field(obj, field.name)
        if mutated is not None:
            return mutated
    return None


class TestKeyDictConformance:
    @pytest.mark.parametrize("subject", SUBJECTS)
    def test_round_trips_through_canonical_json(self, subject):
        """Canonical JSON is lossless: the key hashes values, not reprs."""
        key_dict = subject.to_key_dict()
        assert json.loads(canonical_text(key_dict)) == key_dict

    @pytest.mark.parametrize("subject", SUBJECTS)
    def test_canonical_text_is_deterministic(self, subject):
        rebuilt = dataclasses.replace(subject)
        assert canonical_text(rebuilt.to_key_dict()) == \
            canonical_text(subject.to_key_dict())

    @pytest.mark.parametrize("subject", SUBJECTS)
    def test_every_field_change_changes_the_key(self, subject):
        base_text = canonical_text(subject.to_key_dict())
        exempt = KEY_EXEMPT.get(type(subject), set())
        for field in dataclasses.fields(subject):
            mutated = _mutate_field(subject, field.name)
            assert mutated is not None, (
                f"{type(subject).__name__}.{field.name}: no constructible "
                f"perturbation — extend _candidates() for this field type")
            mutated_text = canonical_text(mutated.to_key_dict())
            if field.name in exempt:
                assert mutated_text == base_text, (
                    f"{type(subject).__name__}.{field.name} is documented as "
                    f"key-exempt but changed the key")
            else:
                assert mutated_text != base_text, (
                    f"{type(subject).__name__}.{field.name} changed without "
                    f"changing the cache key — stale-hit hazard")


class TestPowerCoefficientsAreVersioned:
    """Results carry energy, so a coefficient edit must retire cached ones."""

    def test_wattch_is_fingerprinted(self):
        from repro.lintkit.config import default_config
        from repro.lintkit.rules.versioning import semantic_files

        assert "src/repro/power/wattch.py" in semantic_files(default_config())


# ---------------------------------------------------------------------------
# Knob liveness: every config field moves some result
# ---------------------------------------------------------------------------
_SHORT_TRACE = ("a 1500-uop trace never fills the cache: at this length, "
                "shrinking DL0 from 32 KiB to 1 KiB changes no result field "
                "of gcc, gzip or mcf under ir")

#: Leaf fields (dotted from ``MachineConfig``; clusters by name) allowed to
#: leave every result field unchanged, with the reason.
LIVENESS_EXEMPT = {
    "topology.wide.clock_ratio": "the host runs at ratio 1 (Topology validation)",
    "topology.wide.has_fp": "the host has the FP units (Topology validation)",
    "topology.wide.flush_penalty_slow":
        "width recoveries only trigger in helper clusters",
    "memory.dl0.name": "a label",
    "memory.ul1.name": "a label",
    "memory.ul1.ports": "only the DL0 ports limit memory issue",
    "memory.dl0.size_bytes": _SHORT_TRACE,
    "memory.dl0.associativity": _SHORT_TRACE,
    "memory.ul1.size_bytes": _SHORT_TRACE,
    "memory.ul1.associativity": _SHORT_TRACE,
    "trace_cache.capacity_uops": _SHORT_TRACE,
    "trace_cache.associativity": _SHORT_TRACE,
}


def _leaves(obj, rebuild, path=()):
    """Yield ``(dotted path, value, setter)`` for every leaf field under
    ``obj``; ``setter(new)`` rebuilds the root with that leaf replaced
    (raising ``ValueError`` where a validator rejects the result)."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)

        def set_field(new, name=field.name):
            return rebuild(dataclasses.replace(obj, **{name: new}))

        if isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            # Topology.clusters: one level per cluster, named by its spec.
            for index, spec in enumerate(value):
                def set_spec(new, index=index, value=value, set_field=set_field):
                    return set_field(value[:index] + (new,) + value[index + 1:])
                yield from _leaves(spec, set_spec, path + (spec.name,))
        elif dataclasses.is_dataclass(value):
            yield from _leaves(value, set_field, path + (field.name,))
        else:
            yield ".".join(path + (field.name,)), value, set_field


def _perturbed(config, value, setter):
    """``config`` with one leaf changed to its first valid candidate."""
    for candidate in _candidates(value):
        try:
            mutated = setter(candidate)
        except (ValueError, TypeError):
            continue
        if mutated != config:
            return mutated
    return None


class TestKnobLiveness:
    @pytest.mark.parametrize("config, policy", [
        pytest.param(topology_config(helper_topology()), "ir", id="paper"),
        pytest.param(topology_config(mixed_helper_topology([(8, 2), (16, 1)])),
                     "ir_wa", id="mixed_8x2_16x1"),
    ])
    def test_every_config_field_moves_a_result(self, config, policy):
        trace = generate_trace(get_profile("gcc"), 1500, seed=2006)

        def run(machine):
            return dataclasses.asdict(
                simulate(trace, config=machine, policy=make_policy(policy)))

        base = run(config)
        dead = []
        for path, value, setter in _leaves(config, lambda root: root):
            if path in LIVENESS_EXEMPT:
                continue
            mutated = _perturbed(config, value, setter)
            if mutated is None:
                dead.append(f"{path} (no valid perturbation)")
            elif run(mutated) == base:
                dead.append(path)
        assert not dead, f"config fields that change no result: {dead}"
