"""Deterministic fuzz-case generation and serialization.

A :class:`FuzzCase` is one complete co-simulation scenario: a benchmark
profile, a trace recipe (length, seed, slicing), a machine (topology plus
the frontend/ROB/predictor knobs), and a steering policy.  Cases are drawn
by :func:`generate_case` as a *pure function of a single integer seed* —
the same seed always regenerates the byte-identical case (pinned by
``tests/test_fuzz.py``), which is what makes a nightly campaign
reproducible from its log line alone.

Cases round-trip losslessly through plain-JSON dictionaries
(:func:`case_to_dict` / :func:`case_from_dict`), which is the corpus-entry
and repro-script format, and :func:`case_text` is the canonical byte form
used for determinism pins and corpus deduplication.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Optional

from repro.core.config import (
    ClusterSpec,
    MachineConfig,
    Topology,
    random_topology,
    topology_config,
)
from repro.core.steering import (
    PolicySpec,
    Scheme,
    policy_registry,
    random_policy_spec,
)
from repro.sim.cache import canonical_text
from repro.trace.profiles import (
    BenchmarkProfile,
    InstructionMix,
    SPEC_INT_NAMES,
    get_profile,
    random_profile,
)
from repro.trace.slicing import select_simulation_slice
from repro.trace.synthetic import generate_trace
from repro.trace.trace import Trace

#: Corpus-entry / case-dictionary format; bump when the layout changes.
CASE_FORMAT = 2

#: Pools for the machine-level knobs (the topology pools live next to
#: :func:`repro.core.config.random_topology`).
FETCH_WIDTHS = (4, 6, 8)
COMMIT_WIDTHS = (4, 6, 8)
ROB_SIZES = (64, 128, 256)
PREDICTOR_ENTRIES = (64, 256, 1024)

#: Trace-length band.  Slicing simulates a 10x longer generation run, so
#: sliced cases are capped harder to keep campaign throughput up.
MIN_TRACE_UOPS = 200
MAX_TRACE_UOPS = 3_000
MAX_SLICED_TRACE_UOPS = 800


@dataclass(frozen=True)
class FuzzCase:
    """One co-simulation scenario, self-contained and JSON-serialisable."""

    #: seed the case was drawn from (None for hand-built / shrunk cases)
    case_seed: Optional[int]
    profile: BenchmarkProfile
    trace_uops: int
    trace_seed: int
    use_slicing: bool
    topology: Topology
    policy: PolicySpec
    predictor_entries: int = 256
    use_confidence: bool = True
    fetch_width: int = 6
    commit_width: int = 6
    rob_size: int = 128

    # ------------------------------------------------------------- builders
    def machine_config(self) -> MachineConfig:
        """The :class:`MachineConfig` this case simulates on."""
        config = topology_config(self.topology,
                                 predictor_entries=self.predictor_entries,
                                 use_confidence=self.use_confidence)
        return replace(config, fetch_width=self.fetch_width,
                       commit_width=self.commit_width, rob_size=self.rob_size)

    def build_trace(self) -> Trace:
        """Generate the case's trace (same recipe as the sweep engine)."""
        if self.use_slicing:
            full = generate_trace(self.profile, self.trace_uops * 10,
                                  seed=self.trace_seed)
            return select_simulation_slice(full)
        return generate_trace(self.profile, self.trace_uops,
                              seed=self.trace_seed)

    def label(self) -> str:
        """One-line human description for campaign logs."""
        helpers = ",".join(f"{s.datapath_width}b@{s.clock_ratio}x"
                           for s in self.topology.helpers) or "none"
        return (f"seed={self.case_seed} {self.profile.name}"
                f"/{self.policy.name} uops={self.trace_uops}"
                f" tseed={self.trace_seed} helpers=[{helpers}]"
                f"{' sliced' if self.use_slicing else ''}")


def generate_case(case_seed: int) -> FuzzCase:
    """Draw the fuzz case for ``case_seed`` (pure function of the seed)."""
    rng = random.Random(case_seed)
    if rng.random() < 0.35:
        profile = random_profile(rng, name=f"fuzz{case_seed}")
    else:
        profile = get_profile(rng.choice(SPEC_INT_NAMES))
    use_slicing = rng.random() < 0.15
    trace_uops = rng.randint(MIN_TRACE_UOPS, MAX_TRACE_UOPS)
    if use_slicing:
        trace_uops = min(trace_uops, MAX_SLICED_TRACE_UOPS)
    trace_seed = rng.randrange(0, 1_000_000)
    topology = random_topology(rng)
    if topology.num_helpers == 0 and rng.random() < 0.8:
        # A host-only machine mostly runs the baseline policy; the remaining
        # draws keep a helper policy so selector fallback paths (no helper
        # fits -> host) stay fuzzed too.
        policy = policy_registry.get("baseline")
    else:
        policy = random_policy_spec(rng)
    return FuzzCase(
        case_seed=case_seed,
        profile=profile,
        trace_uops=trace_uops,
        trace_seed=trace_seed,
        use_slicing=use_slicing,
        topology=topology,
        policy=policy,
        predictor_entries=rng.choice(PREDICTOR_ENTRIES),
        use_confidence=rng.random() < 0.8,
        fetch_width=rng.choice(FETCH_WIDTHS),
        commit_width=rng.choice(COMMIT_WIDTHS),
        rob_size=rng.choice(ROB_SIZES),
    )


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------
def case_to_dict(case: FuzzCase) -> dict:
    """Plain-JSON form of a case (corpus entries, repro scripts)."""
    return {
        "format": CASE_FORMAT,
        "case_seed": case.case_seed,
        "profile": asdict(case.profile),
        "trace_uops": case.trace_uops,
        "trace_seed": case.trace_seed,
        "use_slicing": case.use_slicing,
        "topology": [asdict(spec) for spec in case.topology.clusters],
        "policy": case.policy.to_key_dict(),
        "predictor_entries": case.predictor_entries,
        "use_confidence": case.use_confidence,
        "fetch_width": case.fetch_width,
        "commit_width": case.commit_width,
        "rob_size": case.rob_size,
    }


def case_from_dict(data: dict) -> FuzzCase:
    """Rebuild a case from :func:`case_to_dict` output (format-checked)."""
    fmt = data.get("format")
    if fmt != CASE_FORMAT:
        raise ValueError(f"unsupported fuzz-case format {fmt!r} "
                         f"(this build reads format {CASE_FORMAT})")
    profile_data = dict(data["profile"])
    profile = BenchmarkProfile(
        mix=InstructionMix(**profile_data.pop("mix")), **profile_data)
    topology = Topology(tuple(ClusterSpec(**spec)
                              for spec in data["topology"]))
    policy_data = data["policy"]
    policy = PolicySpec(
        name=policy_data["name"],
        schemes=frozenset(Scheme[name] for name in policy_data["schemes"]),
        selector=policy_data["selector"],
        knobs=tuple(sorted(policy_data["knobs"].items())))
    return FuzzCase(
        case_seed=data["case_seed"],
        profile=profile,
        trace_uops=data["trace_uops"],
        trace_seed=data["trace_seed"],
        use_slicing=data["use_slicing"],
        topology=topology,
        policy=policy,
        predictor_entries=data["predictor_entries"],
        use_confidence=data["use_confidence"],
        fetch_width=data["fetch_width"],
        commit_width=data["commit_width"],
        rob_size=data["rob_size"],
    )


def case_text(case: FuzzCase) -> str:
    """Canonical byte form of a case (sorted-key JSON, no whitespace).

    Two cases are the same scenario iff their texts are equal — the
    determinism pin (same seed => byte-identical case) and the corpus
    deduplication key.
    """
    return canonical_text(case_to_dict(case))
