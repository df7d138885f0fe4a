"""Differential co-simulation, shrinking and campaign driving.

:func:`run_case` is the property under test: the event wheel and the
``REPRO_REFERENCE_LOOP=1`` per-cycle loop must produce pickle-identical
:class:`~repro.sim.metrics.SimulationResult`\\ s for every valid case, both
sides must satisfy the standalone invariants of
:mod:`repro.fuzz.invariants`, and the result/trace caches must round-trip
the run under a stable key.

:func:`shrink_case` reduces a failing case to a minimal reproducer with a
bounded greedy pass — fewer uops first (simulation time dominates), then
structure (slicing off, helpers dropped, specs and machine knobs back to
paper defaults, policy and profile simplified) — re-checking the caller's
failure predicate after every candidate, so the shrunk case provably still
fails the same way it was caught.

:func:`run_campaign` strings it together for ``repro.cli fuzz`` and the
nightly job: generate, run, shrink, and write each failure out as a corpus
entry (JSON, replayable in tier-1) plus a self-contained repro script.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.core.config import ClusterSpec, Topology
from repro.core.steering import PolicySpec, Scheme, policy_registry
from repro.fuzz.generate import (
    CASE_FORMAT,
    FuzzCase,
    case_from_dict,
    case_text,
    case_to_dict,
    generate_case,
)
from repro.fuzz.invariants import CommitOrderRecorder, check_result_invariants
from repro.sim.cache import ResultCache, simulation_key
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import HelperClusterSimulator
from repro.trace.profiles import SPEC_INT_NAMES, get_profile
from repro.trace.store import TraceStore, trace_key
from repro.trace.trace import Trace

#: The paper's helper spec — the normal form shrinking drives helpers to.
_DEFAULT_HELPER = ClusterSpec(name="shrunk_helper", datapath_width=8,
                              clock_ratio=2, issue_width=3, queue_size=32,
                              has_fp=False, flush_penalty_slow=5)

#: Floor for shrinking trace lengths (a shrunk case may undercut the
#: generator's band — it only has to stay a valid, still-failing scenario).
_SHRINK_MIN_UOPS = 20


# ---------------------------------------------------------------------------
# single-case co-simulation
# ---------------------------------------------------------------------------
@dataclass
class CaseReport:
    """Outcome of co-simulating one case (``ok`` iff no failure strings)."""

    case: FuzzCase
    failures: List[str] = field(default_factory=list)
    wheel: Optional[SimulationResult] = None
    reference: Optional[SimulationResult] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _simulate(case: FuzzCase, trace: Trace, config, reference_loop: bool,
              failures: List[str]) -> Optional[SimulationResult]:
    """Run one side of the differential pair, folding crashes into failures."""
    side = "reference loop" if reference_loop else "event wheel"
    recorder = CommitOrderRecorder(config.commit_width)
    try:
        sim = HelperClusterSimulator(trace, config=config,
                                     policy=case.policy.build(),
                                     reference_loop=reference_loop)
        sim.commit_hook = recorder
        result = sim.run()
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        failures.append(f"{side} crashed: {type(exc).__name__}: {exc}")
        return None
    failures.extend(f"[{side}] {violation}"
                    for violation in recorder.violations)
    failures.extend(f"[{side}] {violation}"
                    for violation in check_result_invariants(
                        result, config, len(trace)))
    return result


def _describe_divergence(wheel: SimulationResult,
                         reference: SimulationResult) -> str:
    """Name the result fields on which the two loops disagree."""
    diffs = []
    for f in dataclasses.fields(SimulationResult):
        a, b = getattr(wheel, f.name), getattr(reference, f.name)
        if pickle.dumps(a) != pickle.dumps(b):
            diffs.append(f"{f.name}: wheel={repr(a)[:80]} "
                         f"reference={repr(b)[:80]}")
    if not diffs:
        return "results pickle differently but no field compares unequal"
    return "; ".join(diffs)


def _check_stores(case: FuzzCase, trace: Trace, config,
                  result: SimulationResult, failures: List[str]) -> None:
    """Round-trip the run through ResultCache/TraceStore in a temp dir."""
    rkey = simulation_key(case.profile, case.trace_uops, case.trace_seed,
                          case.use_slicing, config, case.policy)
    tkey = trace_key(case.profile, case.trace_uops, case.trace_seed,
                     case.use_slicing)

    # Key stability: a case serialised to JSON and read back must address
    # the exact same cache slots, or corpus replays and resumed sweeps
    # would silently recompute (or worse, alias) entries.
    rebuilt = case_from_dict(json.loads(case_text(case)))
    rebuilt_rkey = simulation_key(rebuilt.profile, rebuilt.trace_uops,
                                  rebuilt.trace_seed, rebuilt.use_slicing,
                                  rebuilt.machine_config(), rebuilt.policy)
    if rebuilt_rkey != rkey:
        failures.append("result cache key unstable across a JSON round-trip "
                        f"of the case: {rkey[:12]}... != {rebuilt_rkey[:12]}...")
    rebuilt_tkey = trace_key(rebuilt.profile, rebuilt.trace_uops,
                             rebuilt.trace_seed, rebuilt.use_slicing)
    if rebuilt_tkey != tkey:
        failures.append("trace store key unstable across a JSON round-trip "
                        f"of the case: {tkey[:12]}... != {rebuilt_tkey[:12]}...")

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-stores-") as tmp:
        cache = ResultCache(Path(tmp) / "results")
        cache.store(rkey, result)
        loaded = cache.load(rkey)
        if loaded is None:
            failures.append("ResultCache round-trip lost the result "
                            "(store then load missed)")
        elif pickle.dumps(loaded) != pickle.dumps(result):
            failures.append("ResultCache round-trip corrupted the result "
                            "(loaded payload differs from the stored one)")
        store = TraceStore(Path(tmp) / "traces")
        store.store(tkey, trace)
        reloaded = store.load(tkey)
        if reloaded is None:
            failures.append("TraceStore round-trip lost the trace "
                            "(store then load missed)")
        elif pickle.dumps(reloaded) != pickle.dumps(trace):
            failures.append("TraceStore round-trip corrupted the trace "
                            "(loaded uop stream differs from the stored one)")


def run_case(case: FuzzCase, check_stores: bool = True) -> CaseReport:
    """Co-simulate ``case`` through the event wheel and the per-cycle
    reference loop and check every property."""
    started = time.perf_counter()
    report = CaseReport(case=case)
    failures = report.failures
    try:
        config = case.machine_config()
        trace = case.build_trace()
    except Exception as exc:  # noqa: BLE001 — generation must never raise
        failures.append(
            f"case construction crashed: {type(exc).__name__}: {exc}")
        report.elapsed = time.perf_counter() - started
        return report

    report.wheel = _simulate(case, trace, config, False, failures)
    report.reference = _simulate(case, trace, config, True, failures)
    if report.wheel is not None and report.reference is not None:
        if pickle.dumps(report.wheel) != pickle.dumps(report.reference):
            failures.append("event wheel and reference loop diverged: "
                            + _describe_divergence(report.wheel,
                                                   report.reference))
    if check_stores and report.wheel is not None:
        _check_stores(case, trace, config, report.wheel, failures)
    report.elapsed = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------
def shrink_case(case: FuzzCase,
                predicate: Optional[Callable[[FuzzCase], bool]] = None,
                max_evals: int = 60) -> Tuple[FuzzCase, int]:
    """Greedily reduce ``case`` while ``predicate`` keeps failing.

    ``predicate(candidate)`` returns True when the candidate still exhibits
    the failure (default: :func:`run_case` reports any failure).  Returns the
    smallest still-failing case found and the number of evaluations spent —
    at most ``max_evals``, so a pathological case cannot stall a campaign.
    """
    if predicate is None:
        def predicate(candidate: FuzzCase) -> bool:
            return not run_case(candidate, check_stores=False).ok

    evals = 0
    current = case

    def try_candidate(candidate: FuzzCase) -> bool:
        """Adopt ``candidate`` if the budget allows and it still fails."""
        nonlocal evals, current
        if evals >= max_evals:
            return False
        if case_text(candidate) == case_text(current):
            return False
        try:
            still_failing = predicate(candidate)
        except Exception:  # noqa: BLE001 — a crashing candidate still fails
            still_failing = True
        evals += 1
        if still_failing:
            current = candidate
        return still_failing

    # 1. Trace length first — simulation time scales with it, so every later
    #    stage gets cheaper the further this one gets.
    while current.trace_uops > _SHRINK_MIN_UOPS:
        target = max(_SHRINK_MIN_UOPS, current.trace_uops // 2)
        if not try_candidate(replace(current, case_seed=None,
                                     trace_uops=target)):
            break
    # 2. Slicing off: a 10x shorter generation run and a simpler recipe.
    if current.use_slicing:
        try_candidate(replace(current, case_seed=None, use_slicing=False))
    # 3. Drop helper clusters from the back (the host cannot be dropped).
    while current.topology.num_helpers > 0:
        clusters = current.topology.clusters[:-1]
        if not try_candidate(replace(current, case_seed=None,
                                     topology=Topology(clusters))):
            break
    # 4. Normalise surviving helpers to the paper's default spec (keeping
    #    each cluster's name so the policy/selector landscape is unchanged).
    for index, spec in enumerate(current.topology.clusters):
        if index == 0:
            continue
        normal = replace(_DEFAULT_HELPER, name=spec.name)
        if spec == normal:
            continue
        clusters = list(current.topology.clusters)
        clusters[index] = normal
        try_candidate(replace(current, case_seed=None,
                              topology=Topology(tuple(clusters))))
    # 5. Machine knobs back to their defaults, one at a time.
    for knob, default in (("predictor_entries", 256),
                          ("use_confidence", True), ("fetch_width", 6),
                          ("commit_width", 6), ("rob_size", 128)):
        if getattr(current, knob) != default:
            try_candidate(replace(current, case_seed=None,
                                  **{knob: default}))
    # 6. Policy: baseline if possible, else fewer schemes / default selector.
    baseline = policy_registry.get("baseline")
    if current.policy.schemes:
        try_candidate(replace(current, case_seed=None, policy=baseline))
    if current.policy.schemes:
        for scheme in sorted(current.policy.schemes, key=lambda s: s.name):
            remaining = current.policy.schemes - {scheme}
            if scheme is Scheme.IR:
                # IR_NODEST refines IR; dropping IR alone leaves an
                # inconsistent scheme set.
                remaining = remaining - {Scheme.IR_NODEST}
            if not remaining:
                continue
            slim = PolicySpec(
                name="fz_" + "_".join(sorted(s.name.lower()
                                             for s in remaining)),
                schemes=frozenset(remaining),
                selector=current.policy.selector,
                knobs=current.policy.knobs)
            try_candidate(replace(current, case_seed=None, policy=slim))
        if (current.policy.selector != "least_loaded"
                or current.policy.knobs):
            try_candidate(replace(current, case_seed=None,
                                  policy=replace(current.policy,
                                                 selector="least_loaded",
                                                 knobs=())))
    # 7. Profile: swap a perturbed profile for its registered base.
    if current.profile.name not in SPEC_INT_NAMES:
        for name in SPEC_INT_NAMES[:2]:
            if try_candidate(replace(current, case_seed=None,
                                     profile=get_profile(name))):
                break
    # 8. One more trace-length pass — the simpler machine may fail sooner.
    while current.trace_uops > _SHRINK_MIN_UOPS:
        target = max(_SHRINK_MIN_UOPS, current.trace_uops // 2)
        if not try_candidate(replace(current, case_seed=None,
                                     trace_uops=target)):
            break
    return current, evals


# ---------------------------------------------------------------------------
# corpus + repro-script output
# ---------------------------------------------------------------------------
def write_corpus_entry(case: FuzzCase, directory, name: str,
                       description: str = "") -> Path:
    """Write ``case`` as a corpus entry; tier-1 replays every entry."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entry = {
        "format": CASE_FORMAT,
        "name": name,
        "description": description,
        "case": case_to_dict(case),
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_corpus_dir(directory) -> List[Tuple[str, FuzzCase]]:
    """Load every ``*.json`` corpus entry under ``directory`` (sorted)."""
    directory = Path(directory)
    entries: List[Tuple[str, FuzzCase]] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("kind"):
            # Typed entries (e.g. "engine-fault") have their own loader:
            # repro.fuzz.enginefaults.load_engine_corpus_dir.
            continue
        entries.append((data.get("name", path.stem),
                        case_from_dict(data["case"])))
    return entries


_REPRO_TEMPLATE = '''\
#!/usr/bin/env python3
"""Self-contained reproducer for a repro.fuzz failure.

Run from the repo root with ``PYTHONPATH=src python {script_name}``.
Exits 0 when the failure no longer reproduces (i.e. it is fixed).

Original failure:
{failure_comment}
"""
import json
import sys

from repro.fuzz import case_from_dict, run_case

CASE = json.loads(r"""
{case_json}
""")

report = run_case(case_from_dict(CASE))
if report.ok:
    print("case passes: the failure no longer reproduces")
    sys.exit(0)
print(f"case still fails ({{len(report.failures)}} finding(s)):")
for failure in report.failures:
    print(f"  - {{failure}}")
sys.exit(1)
'''


def write_repro_script(case: FuzzCase, path, failures=()) -> Path:
    """Write a standalone script that replays ``case`` and reports pass/fail."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    failure_comment = "\n".join(f"  - {line}" for line in failures) or "  (unrecorded)"
    path.write_text(_REPRO_TEMPLATE.format(
        script_name=path.name,
        failure_comment=failure_comment,
        case_json=json.dumps(case_to_dict(case), indent=2, sort_keys=True),
    ), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Summary of one fuzzing campaign (``ok`` iff nothing failed)."""

    cases_run: int = 0
    seeds: List[int] = field(default_factory=list)
    reports: List[CaseReport] = field(default_factory=list)
    shrunk: List[FuzzCase] = field(default_factory=list)
    artifacts: List[Path] = field(default_factory=list)
    elapsed: float = 0.0
    stop_reason: str = "completed"

    @property
    def ok(self) -> bool:
        return not self.reports


def campaign_case_seed(seed: int, index: int) -> int:
    """The case seed for campaign position ``index`` (pure, log-replayable)."""
    return seed * 1_000_003 + index


def run_campaign(cases: int, seed: int = 0, shrink: bool = True,
                 out_dir=None, corpus_dir=None,
                 time_budget: Optional[float] = None, max_failures: int = 5,
                 check_stores: bool = True,
                 log: Optional[Callable[[str], None]] = None) -> CampaignResult:
    """Run a deterministic campaign of ``cases`` cases derived from ``seed``.

    Failures are shrunk (when ``shrink``) and written out: a repro script and
    raw/shrunk case JSON under ``out_dir`` (for the nightly artifact upload),
    plus a replayable corpus entry under ``corpus_dir`` when given.  Stops
    early after ``max_failures`` failures or once ``time_budget`` seconds
    have elapsed; either way the log line names the stop reason.
    """
    started = time.perf_counter()
    emit = log or (lambda message: None)
    campaign = CampaignResult()
    for index in range(cases):
        elapsed = time.perf_counter() - started
        if time_budget is not None and elapsed >= time_budget:
            campaign.stop_reason = (f"time budget exhausted after "
                                    f"{campaign.cases_run} cases")
            break
        case_seed = campaign_case_seed(seed, index)
        case = generate_case(case_seed)
        report = run_case(case, check_stores=check_stores)
        campaign.cases_run += 1
        campaign.seeds.append(case_seed)
        if report.ok:
            emit(f"[{index + 1}/{cases}] ok   {case.label()} "
                 f"({report.elapsed:.2f}s)")
            continue
        emit(f"[{index + 1}/{cases}] FAIL {case.label()}")
        for failure in report.failures:
            emit(f"    {failure}")
        minimal = case
        if shrink:
            minimal, evals = shrink_case(case)
            emit(f"    shrunk to: {minimal.label()} ({evals} evaluations)")
        campaign.reports.append(report)
        campaign.shrunk.append(minimal)
        stem = f"case-{case_seed}"
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            campaign.artifacts.append(
                write_corpus_entry(case, out, f"{stem}-original",
                                   "as generated by the campaign"))
            campaign.artifacts.append(
                write_corpus_entry(minimal, out, f"{stem}-shrunk",
                                   "; ".join(report.failures)[:500]))
            campaign.artifacts.append(
                write_repro_script(minimal, out / f"repro-{stem}.py",
                                   report.failures))
        if corpus_dir is not None:
            campaign.artifacts.append(
                write_corpus_entry(minimal, corpus_dir, stem,
                                   "; ".join(report.failures)[:500]))
        if len(campaign.reports) >= max_failures:
            campaign.stop_reason = (f"failure budget ({max_failures}) "
                                    f"exhausted")
            break
    campaign.elapsed = time.perf_counter() - started
    return campaign
