"""Lint configuration: scopes, contract tables, and the default profile.

All rule parameters live here so tests can build narrow configs pointing
at fixture trees, while ``default_config()`` encodes the shipped repo
contracts:

* which packages form the simulator *semantic surface* (REP001),
* which dataclasses must have complete ``to_key_dict`` coverage and the
  documented exemption table (REP002 — kept in sync with the dynamic
  conformance suite in ``tests/test_key_contract.py``),
* the documented live-view aliases hot-path modules may read (REP003),
* which files carry ``# hot-path`` tags (REP004),
* the fingerprinted semantic-module set and where the blessed
  fingerprints live (REP005).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


def project_root_default() -> Path:
    """The repo checkout root, derived from this package's location.

    ``src/repro/lintkit/config.py`` → parents[3] is the checkout root.
    """
    return Path(__file__).resolve().parents[3]


@dataclass
class LintConfig:
    """Everything the runner and rules need, fixture-overridable."""

    project_root: Path
    #: root-relative directories (or single files) to scan
    src_roots: List[str] = field(default_factory=lambda: ["src"])

    # REP001 — determinism scope: root-relative path prefixes forming the
    # simulator semantic surface.
    determinism_scopes: List[str] = field(default_factory=list)

    # REP002 — cache-key completeness: (relpath, classname) pairs that
    # must define to_key_dict, plus the documented exemption table
    # {classname: {field: reason}}.
    key_dict_classes: List[Tuple[str, str]] = field(default_factory=list)
    key_dict_exemptions: Dict[str, Dict[str, str]] = field(
        default_factory=dict)

    # REP003 — live-view contract: hot modules restricted to documented
    # aliases, and the alias table {classname: (relpath, [alias, ...])}
    # whose existence the project pass re-verifies.
    live_view_modules: List[str] = field(default_factory=list)
    live_view_aliases: Dict[str, Tuple[str, List[str]]] = field(
        default_factory=dict)

    # REP004 — hot-loop hygiene: files expected to carry `# hot-path`
    # function tags.
    hot_loop_files: List[str] = field(default_factory=list)

    # REP005 — version discipline: glob patterns (root-relative) naming
    # the fingerprinted semantic modules, the checked-in fingerprint
    # file, and where SIMULATOR_VERSION is assigned.
    semantic_module_globs: List[str] = field(default_factory=list)
    fingerprint_path: Optional[Path] = None
    version_source: Optional[Tuple[str, str]] = None  # (relpath, symbol)


def default_config(root: Optional[Path] = None) -> LintConfig:
    """The shipped contract tables for this repository."""
    root = Path(root) if root is not None else project_root_default()
    return LintConfig(
        project_root=root,
        src_roots=["src"],
        determinism_scopes=[
            "src/repro/sim",
            "src/repro/pipeline",
            "src/repro/core",
        ],
        key_dict_classes=[
            ("src/repro/core/config.py", "MachineConfig"),
            ("src/repro/core/config.py", "ClusterSpec"),
            ("src/repro/core/config.py", "Topology"),
            ("src/repro/core/steering.py", "PolicySpec"),
            ("src/repro/trace/profiles.py", "BenchmarkProfile"),
            ("src/repro/trace/profiles.py", "InstructionMix"),
        ],
        # Mirrors KEY_EXEMPT in tests/test_key_contract.py — a field may
        # be exempt only with a documented reason, and the dynamic
        # conformance suite must agree.
        key_dict_exemptions={
            "PolicySpec": {
                "in_ladder": "presentation flag: selects which registry "
                "policies the ladder CLI prints; never read by the "
                "simulator, deliberately outside the cache key",
            },
        },
        live_view_modules=[
            "src/repro/sim/simulator.py",
        ],
        live_view_aliases={
            "IssueQueue": ("src/repro/pipeline/scheduler.py",
                           ["entries", "ready_entries"]),
            "CopyEngine": ("src/repro/core/copy_engine.py",
                           ["availability_map", "pending_map"]),
            "ReorderBuffer": ("src/repro/pipeline/rob.py", ["by_uid"]),
            "RenameTable": ("src/repro/pipeline/rename.py", ["table"]),
            "ImbalanceMonitor": ("src/repro/core/imbalance.py",
                                 ["last_wide_occupancy",
                                  "last_narrow_occupancy"]),
        },
        hot_loop_files=[
            "src/repro/sim/simulator.py",
            "src/repro/pipeline/scheduler.py",
        ],
        semantic_module_globs=[
            "src/repro/sim/simulator.py",
            "src/repro/pipeline/*.py",
            "src/repro/core/*.py",
            "src/repro/isa/*.py",
            "src/repro/memory/*.py",
            "src/repro/power/energy.py",
            "src/repro/power/wattch.py",
            "src/repro/trace/synthetic.py",
            "src/repro/trace/slicing.py",
            "src/repro/trace/trace.py",
            "src/repro/trace/profiles.py",
        ],
        fingerprint_path=root / "src/repro/lintkit/fingerprints.json",
        version_source=("src/repro/sim/cache.py", "SIMULATOR_VERSION"),
    )
