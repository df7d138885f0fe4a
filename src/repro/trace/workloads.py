"""The Table 2 workload suite: 412 applications across seven categories.

The paper's final study (§3.8, Figure 14) simulates 10 million consecutive
IA-32 instructions from each of 412 application traces grouped into seven
categories (Table 2).  We reproduce the suite with seven category archetypes;
each application instance is a perturbation of its category archetype with a
stable per-app seed, so the suite is fully deterministic and the per-category
means plus the speedup S-curve of Figure 14 can be regenerated.

Category characteristics follow the paper's qualitative discussion: workloads
with regular control flow and many arithmetic operations (multimedia, kernels,
SPEC FP) benefit more from the helper cluster than office or productivity
applications.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.trace.profiles import BenchmarkProfile, InstructionMix


@dataclass(frozen=True)
class WorkloadCategory:
    """One row of Table 2: a category name, its trace count and an archetype."""

    key: str
    description: str
    num_traces: int
    archetype: BenchmarkProfile
    #: relative spread applied to the archetype's numeric knobs per app
    variability: float = 0.15


def _archetype(key: str, **kwargs) -> BenchmarkProfile:
    kwargs.setdefault("category", key)
    return BenchmarkProfile(name=f"{key}-archetype", **kwargs)


#: Table 2 of the paper, in order.
WORKLOAD_CATEGORIES: Dict[str, WorkloadCategory] = {
    "enc": WorkloadCategory(
        key="enc", description="Audio/video encode", num_traces=62,
        archetype=_archetype(
            "enc",
            mix=InstructionMix(alu=0.48, load=0.24, store=0.12, cond_branch=0.08,
                               uncond_branch=0.02, mul=0.02, div=0.004, fp=0.036),
            narrow_data_fraction=0.80, narrow_consumer_locality=0.75,
            loop_trip_mean=128.0, loop_body_size=14, dependency_span=2.2,
            aligned_base_fraction=0.70, byte_load_fraction=0.45,
            pointer_arith_fraction=0.20, width_locality=0.96, static_loops=14,
        )),
    "sfp": WorkloadCategory(
        key="sfp", description="Spec FP's", num_traces=41,
        archetype=_archetype(
            "sfp",
            mix=InstructionMix(alu=0.34, load=0.26, store=0.12, cond_branch=0.06,
                               uncond_branch=0.015, mul=0.02, div=0.005, fp=0.20),
            narrow_data_fraction=0.62, narrow_consumer_locality=0.70,
            loop_trip_mean=200.0, loop_body_size=16, dependency_span=2.6,
            aligned_base_fraction=0.72, byte_load_fraction=0.05,
            pointer_arith_fraction=0.22, width_locality=0.95, static_loops=12,
        )),
    "kernels": WorkloadCategory(
        key="kernels", description="VectorAdd, FIRs", num_traces=52,
        archetype=_archetype(
            "kernels",
            mix=InstructionMix(alu=0.50, load=0.26, store=0.14, cond_branch=0.05,
                               uncond_branch=0.01, mul=0.02, div=0.002, fp=0.018),
            narrow_data_fraction=0.78, narrow_consumer_locality=0.80,
            loop_trip_mean=256.0, loop_body_size=10, dependency_span=2.0,
            aligned_base_fraction=0.80, byte_load_fraction=0.30,
            pointer_arith_fraction=0.18, width_locality=0.97, static_loops=6,
        )),
    "mm": WorkloadCategory(
        key="mm", description="WMedia, photoshop", num_traces=85,
        archetype=_archetype(
            "mm",
            mix=InstructionMix(alu=0.46, load=0.25, store=0.13, cond_branch=0.08,
                               uncond_branch=0.025, mul=0.015, div=0.003, fp=0.037),
            narrow_data_fraction=0.76, narrow_consumer_locality=0.74,
            loop_trip_mean=96.0, loop_body_size=12, dependency_span=2.3,
            aligned_base_fraction=0.68, byte_load_fraction=0.38,
            pointer_arith_fraction=0.24, width_locality=0.95, static_loops=20,
        )),
    "office": WorkloadCategory(
        key="office", description="Excel, word, ppt", num_traces=75,
        archetype=_archetype(
            "office",
            mix=InstructionMix(alu=0.40, load=0.27, store=0.12, cond_branch=0.13,
                               uncond_branch=0.05, mul=0.005, div=0.002, fp=0.023),
            narrow_data_fraction=0.58, narrow_consumer_locality=0.55,
            loop_trip_mean=14.0, loop_body_size=13, dependency_span=2.8,
            aligned_base_fraction=0.52, byte_load_fraction=0.18,
            pointer_arith_fraction=0.34, width_locality=0.91, static_loops=56,
        )),
    "prod": WorkloadCategory(
        key="prod", description="Internet content", num_traces=45,
        archetype=_archetype(
            "prod",
            mix=InstructionMix(alu=0.40, load=0.27, store=0.12, cond_branch=0.13,
                               uncond_branch=0.05, mul=0.006, div=0.002, fp=0.022),
            narrow_data_fraction=0.56, narrow_consumer_locality=0.52,
            loop_trip_mean=12.0, loop_body_size=12, dependency_span=2.9,
            aligned_base_fraction=0.50, byte_load_fraction=0.20,
            pointer_arith_fraction=0.36, width_locality=0.90, static_loops=60,
        )),
    "ws": WorkloadCategory(
        key="ws", description="Workstation", num_traces=49,
        archetype=_archetype(
            "ws",
            mix=InstructionMix(alu=0.44, load=0.26, store=0.12, cond_branch=0.10,
                               uncond_branch=0.03, mul=0.012, div=0.003, fp=0.035),
            narrow_data_fraction=0.66, narrow_consumer_locality=0.66,
            loop_trip_mean=48.0, loop_body_size=13, dependency_span=2.5,
            aligned_base_fraction=0.62, byte_load_fraction=0.20,
            pointer_arith_fraction=0.28, width_locality=0.94, static_loops=28,
        )),
}

#: Total number of applications in the suite; the paper reports 412 traces
#: ("a wide range of 412 apps") plus the 12 SPEC Int applications studied in
#: detail.  Summing Table 2 gives 409 production traces; we follow Table 2.
TOTAL_WORKLOAD_APPS: int = sum(c.num_traces for c in WORKLOAD_CATEGORIES.values())


@dataclass(frozen=True)
class WorkloadApp:
    """One generated application instance of the suite."""

    name: str
    category: str
    index: int
    seed: int
    profile: BenchmarkProfile


def _perturb(archetype: BenchmarkProfile, rng: random.Random, variability: float,
             name: str) -> BenchmarkProfile:
    """Perturb an archetype's numeric knobs by up to ±variability (relative)."""

    def jitter(value: float, lo: float = 0.0, hi: float = 1.0) -> float:
        scale = 1.0 + rng.uniform(-variability, variability)
        return min(hi, max(lo, value * scale))

    def jitter_pos(value: float) -> float:
        return max(1.0, value * (1.0 + rng.uniform(-variability, variability)))

    return archetype.scaled(
        name=name,
        narrow_data_fraction=jitter(archetype.narrow_data_fraction),
        narrow_consumer_locality=jitter(archetype.narrow_consumer_locality),
        loop_trip_mean=jitter_pos(archetype.loop_trip_mean),
        dependency_span=jitter_pos(archetype.dependency_span),
        aligned_base_fraction=jitter(archetype.aligned_base_fraction),
        small_offset_fraction=jitter(archetype.small_offset_fraction),
        byte_load_fraction=jitter(archetype.byte_load_fraction),
        pointer_arith_fraction=jitter(archetype.pointer_arith_fraction),
        width_locality=jitter(archetype.width_locality, lo=0.5, hi=0.999),
        static_loops=max(2, int(round(jitter_pos(float(archetype.static_loops))))),
    )


def build_workload_suite(categories: Optional[List[str]] = None,
                         apps_per_category: Optional[int] = None,
                         base_seed: int = 2006) -> List[WorkloadApp]:
    """Build the (deterministic) application suite of Table 2.

    Parameters
    ----------
    categories:
        Restrict to a subset of category keys (default: all seven).
    apps_per_category:
        Cap the number of apps generated per category; ``None`` generates the
        full Table 2 counts (409 apps), which is what Figure 14 uses.
    base_seed:
        Base seed; each app derives a stable seed from it.
    """
    selected = categories or list(WORKLOAD_CATEGORIES)
    apps: List[WorkloadApp] = []
    for key in selected:
        if key not in WORKLOAD_CATEGORIES:
            raise KeyError(
                f"unknown workload category {key!r}; known: {', '.join(WORKLOAD_CATEGORIES)}"
            )
        category = WORKLOAD_CATEGORIES[key]
        count = category.num_traces if apps_per_category is None else min(
            category.num_traces, apps_per_category)
        for index in range(count):
            seed = (base_seed * 100_003
                    + zlib.crc32(f"{key}:{index}".encode("utf-8")) % 1_000_003)
            rng = random.Random(seed)
            name = f"{key}-{index:03d}"
            profile = _perturb(category.archetype, rng, category.variability, name)
            apps.append(WorkloadApp(name=name, category=key, index=index,
                                    seed=seed, profile=profile))
    return apps


def iter_category_apps(category: str, apps_per_category: Optional[int] = None,
                       base_seed: int = 2006) -> Iterator[WorkloadApp]:
    """Iterate over the apps of one category."""
    yield from build_workload_suite([category], apps_per_category, base_seed)
