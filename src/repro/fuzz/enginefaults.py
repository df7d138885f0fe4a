"""Fault-injection fuzzing of the supervised sweep engine.

The differential harness (:mod:`repro.fuzz.harness`) proves the *simulator
cores* agree; this module proves the *engine around them* cannot change an
answer.  Each case layers a random-but-seeded :class:`~repro.faultkit.
FaultPlan` (worker crashes, hangs, transient exceptions, latency noise,
cache/trace corruption) over a small sweep run through the supervised
engine, and compares every surviving job's result against a fault-free
serial ground truth: supervision may retry, respawn and quarantine,
but a result it *does* deliver must be identical to the one an undisturbed
run computes.  A quarantined job (its planned faults exhausted every
attempt) is a legitimate outcome — it just has to be absent from the
results and present in the report, never silently wrong.

Results are compared via ``dataclasses.asdict`` fingerprints: a
:class:`~repro.sim.metrics.SimulationResult` that crossed a process
boundary is not guaranteed to re-pickle to byte-identical *bytes* (pickle
memo layout differs), but its field values must match exactly — the same
convention as the engine tests' ``_sweep_fingerprint``.

Divergences are written as ``"kind": "engine-fault"`` corpus entries that
``repro.cli fuzz-replay`` replays alongside the differential corpus, so a
found-and-fixed supervision bug stays fixed.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.core.steering import policy_registry
from repro.faultkit import FaultPlan
from repro.fuzz.generate import CASE_FORMAT
from repro.sim.engine import SweepEngine, SweepJob
from repro.sim.metrics import SimulationResult
from repro.sim.supervise import SupervisorPolicy
from repro.trace.profiles import SPEC_INT_NAMES

#: Entry discriminator in corpus JSON (differential entries carry no kind).
ENGINE_FAULT_KIND = "engine-fault"

#: Helper policies a generated case may sweep (kept to registered names so
#: a corpus entry replays against any checkout).
_POLICY_POOL = ("ir", "ir_nodest", "n888", "cr")


@dataclass(frozen=True)
class EngineFaultCase:
    """One seeded chaos scenario: a small sweep plus a fault plan."""

    case_seed: int
    plan_text: str
    benchmarks: Tuple[str, ...]
    policies: Tuple[str, ...]
    trace_uops: int
    sweep_seed: int
    jobs: int

    def label(self) -> str:
        return (f"engine-fault seed={self.case_seed} "
                f"[{'+'.join(self.benchmarks)} x {'+'.join(self.policies)} "
                f"@{self.trace_uops} jobs={self.jobs}] {self.plan_text}")

    def plan(self) -> FaultPlan:
        return FaultPlan.parse(self.plan_text)


def engine_case_to_dict(case: EngineFaultCase) -> dict:
    return {
        "case_seed": case.case_seed,
        "plan": case.plan_text,
        "benchmarks": list(case.benchmarks),
        "policies": list(case.policies),
        "trace_uops": case.trace_uops,
        "sweep_seed": case.sweep_seed,
        "jobs": case.jobs,
    }


def engine_case_from_dict(data: dict) -> EngineFaultCase:
    return EngineFaultCase(
        case_seed=int(data["case_seed"]),
        plan_text=str(data["plan"]),
        benchmarks=tuple(data["benchmarks"]),
        policies=tuple(data["policies"]),
        trace_uops=int(data["trace_uops"]),
        sweep_seed=int(data["sweep_seed"]),
        jobs=int(data["jobs"]),
    )


def generate_engine_case(case_seed: int) -> EngineFaultCase:
    """Draw a valid chaos scenario from ``case_seed`` (pure function).

    Rates are kept low enough that three attempts almost always converge
    (the deterministic draws make the outcome reproducible either way), and
    the plan's supervision overrides keep deadlines/backoff small so a
    campaign of cases stays fast.
    """
    rng = random.Random(case_seed)
    benchmarks = tuple(rng.sample(list(SPEC_INT_NAMES), 2))
    registered = [name for name in _POLICY_POOL
                  if name in policy_registry.names()]
    policies = tuple(rng.sample(registered, min(2, len(registered))))
    parts = [f"seed={rng.randrange(1 << 16)}"]
    for kind, ceiling in (("crash", 0.30), ("hang", 0.20),
                          ("transient", 0.35), ("slow", 0.25),
                          ("corrupt_result", 0.5), ("corrupt_trace", 0.5)):
        rate = round(rng.uniform(0.0, ceiling), 3)
        if rate > 0.0:
            parts.append(f"{kind}={rate}")
    # Rarely, pin one benchmark:policy sticky-crashed so the quarantine
    # path (exhaust attempts, ledger entry, campaign survives) gets fuzzed
    # too, not just the converging retries.
    if rng.random() < 0.25:
        parts.append(f"sticky=crash@{rng.choice(benchmarks)}:"
                     f"{rng.choice(policies)}")
    parts.append("deadline=10")
    parts.append("backoff=0.01")
    parts.append("hang_delay=30")
    return EngineFaultCase(
        case_seed=case_seed,
        plan_text=",".join(parts),
        benchmarks=benchmarks,
        policies=policies,
        trace_uops=rng.choice((300, 500, 800)),
        sweep_seed=rng.randrange(1 << 16),
        jobs=rng.choice((1, 2)),
    )


@dataclass
class EngineFaultReport:
    """Outcome of one chaos case (``ok`` iff no failure strings)."""

    case: EngineFaultCase
    failures: List[str] = field(default_factory=list)
    survivors: int = 0
    quarantined: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _divergent_fields(result: SimulationResult,
                      expected: SimulationResult) -> Optional[List[str]]:
    """Field names on which the two results' values differ, None if equal.

    Structural equality over ``dataclasses.asdict`` — not pickle bytes:
    a result that crossed a process boundary loses shared-subobject
    aliasing, which changes the pickle memo layout without changing any
    value (see the module docstring).
    """
    left = dataclasses.asdict(result)
    right = dataclasses.asdict(expected)
    if left == right:
        return None
    return [f.name for f in dataclasses.fields(SimulationResult)
            if left[f.name] != right[f.name]]


def _suite_jobs(case: EngineFaultCase, engine: SweepEngine) -> List[SweepJob]:
    from repro.trace.profiles import get_profile

    profiles = [get_profile(name) for name in case.benchmarks]
    return engine.build_suite_jobs(profiles, list(case.policies),
                                   case.trace_uops, case.sweep_seed)


def run_engine_fault_case(case: EngineFaultCase) -> EngineFaultReport:
    """Run ``case`` through the supervised engine and check the contract.

    Ground truth first (serial, fault-free), then the same sweep with the
    fault plan active — parallel when ``case.jobs > 1`` (oversubscription
    allowed: chaos correctness must not depend on the host's CPU count).
    """
    started = time.perf_counter()
    report = EngineFaultReport(case=case)
    failures = report.failures
    no_faults = FaultPlan(seed=0)  # explicit: ignore any ambient REPRO_FAULTS
    with SweepEngine(jobs=1, faults=no_faults) as truth_engine:
        jobs = _suite_jobs(case, truth_engine)
        truth = truth_engine.run_jobs(jobs)
    if len(truth) != len(jobs):
        failures.append("fault-free ground truth lost jobs: "
                        f"{len(truth)}/{len(jobs)} completed")
        report.elapsed = time.perf_counter() - started
        return report

    with tempfile.TemporaryDirectory(prefix="repro-enginefuzz-") as tmp:
        engine = SweepEngine(
            jobs=case.jobs, allow_oversubscribe=True,
            faults=case.plan(),
            supervisor=SupervisorPolicy(poll_interval=0.005),
            quarantine_path=str(Path(tmp) / "failed-jobs.json"))
        with engine:
            jobs = _suite_jobs(case, engine)
            try:
                faulted = engine.run_jobs(jobs)
            except Exception as exc:  # noqa: BLE001 — any escape is a finding
                failures.append("supervised engine crashed instead of "
                                f"containing the faults: "
                                f"{type(exc).__name__}: {exc}")
                report.elapsed = time.perf_counter() - started
                return report
            engine_report = engine.report
        report.survivors = len(faulted)
        report.quarantined = len(engine_report.quarantined)
        if report.survivors + report.quarantined != len(jobs):
            failures.append(
                "jobs lost without a quarantine record: "
                f"{report.survivors} surviving + {report.quarantined} "
                f"quarantined != {len(jobs)} submitted")
        for job, result in faulted.items():
            diffs = _divergent_fields(result, truth[job])
            if diffs is not None:
                token = f"{job.benchmark}:{job.policy}"
                failures.append(
                    f"surviving job {token} diverged from the fault-free "
                    f"serial truth on: {', '.join(diffs) or '(unknown)'}")
    report.elapsed = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# corpus entries + replay
# ---------------------------------------------------------------------------
def write_engine_corpus_entry(case: EngineFaultCase, directory,
                              name: str, description: str = "") -> Path:
    """Write an ``engine-fault`` corpus entry (replayed by fuzz-replay)."""
    import json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entry = {
        "format": CASE_FORMAT,
        "kind": ENGINE_FAULT_KIND,
        "name": name,
        "description": description,
        "case": engine_case_to_dict(case),
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_engine_corpus_dir(directory) -> List[Tuple[str, EngineFaultCase]]:
    """Load the ``engine-fault`` entries under ``directory`` (sorted)."""
    import json

    directory = Path(directory)
    entries: List[Tuple[str, EngineFaultCase]] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("kind") != ENGINE_FAULT_KIND:
            continue
        entries.append((data.get("name", path.stem),
                        engine_case_from_dict(data["case"])))
    return entries


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
@dataclass
class EngineFaultCampaign:
    """Summary of one chaos-fuzzing campaign (``ok`` iff nothing failed)."""

    cases_run: int = 0
    reports: List[EngineFaultReport] = field(default_factory=list)
    artifacts: List[Path] = field(default_factory=list)
    elapsed: float = 0.0
    stop_reason: str = "completed"

    @property
    def ok(self) -> bool:
        return not self.reports


def run_engine_fault_campaign(
        cases: int, seed: int = 0, corpus_dir=None,
        time_budget: Optional[float] = None, max_failures: int = 5,
        log: Optional[Callable[[str], None]] = None) -> EngineFaultCampaign:
    """Run ``cases`` seeded chaos scenarios; divergences grow the corpus."""
    from repro.fuzz.harness import campaign_case_seed

    started = time.perf_counter()
    emit = log or (lambda message: None)
    campaign = EngineFaultCampaign()
    for index in range(cases):
        elapsed = time.perf_counter() - started
        if time_budget is not None and elapsed >= time_budget:
            campaign.stop_reason = (f"time budget exhausted after "
                                    f"{campaign.cases_run} cases")
            break
        case_seed = campaign_case_seed(seed, index)
        case = generate_engine_case(case_seed)
        report = run_engine_fault_case(case)
        campaign.cases_run += 1
        if report.ok:
            emit(f"[{index + 1}/{cases}] ok   {case.label()} "
                 f"({report.survivors} survived, "
                 f"{report.quarantined} quarantined, {report.elapsed:.2f}s)")
            continue
        emit(f"[{index + 1}/{cases}] FAIL {case.label()}")
        for failure in report.failures:
            emit(f"    {failure}")
        campaign.reports.append(report)
        if corpus_dir is not None:
            campaign.artifacts.append(write_engine_corpus_entry(
                case, corpus_dir, f"engine-fault-{case_seed}",
                "; ".join(report.failures)[:500]))
        if len(campaign.reports) >= max_failures:
            campaign.stop_reason = (f"failure budget ({max_failures}) "
                                    f"exhausted")
            break
    campaign.elapsed = time.perf_counter() - started
    return campaign
