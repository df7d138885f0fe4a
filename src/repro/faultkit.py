"""Deterministic, seed-driven fault injection for the sweep engine.

The supervision layer in :mod:`repro.sim.supervise` claims to survive worker
crashes, hangs, transient exceptions, cache-entry corruption and trace-store
truncation.  The only way to trust a recovery path is to take it, so this
module turns each of those faults into a *deterministic function of a seed*:
given the same :class:`FaultPlan`, the same campaign injects the same faults
at the same points, every run, on every machine.  Tests (and the CI chaos
job) pin every recovery path against seeded plans instead of asserting them
in prose.

Decision model
--------------
Each fault decision hashes ``(plan seed, kind, token, attempt)`` with
SHA-256 and compares the resulting uniform value against the plan's rate
for that kind — no RNG state, no ordering sensitivity: two processes (or a
worker and its replacement after a respawn) agree on every decision.  A
*token* identifies the victim: for job faults it is
``"<benchmark>:<policy>:<digest12>"`` (``SweepEngine.token_for``: a digest
of the job's own fields, which distinguishes topology-grid points that
share a benchmark and policy); for artifact faults it is the cache/store
key itself.

At most one fault fires per (token, attempt): the kinds partition a single
uniform draw by cumulative rate, so raising one rate never flips an
unrelated decision from another kind — only the boundary between "this
kind" and "no fault" moves.

Fault kinds
-----------
``crash``
    The worker kills itself with ``SIGKILL`` mid-job — the closest stand-in
    for a worker segfault.  Serial (in-process) execution maps it
    to a raised :class:`InjectedFault` instead, because killing the parent
    is not a recoverable scenario.
``hang``
    The worker sleeps ``hang_delay`` seconds before proceeding; the
    supervisor's per-job deadline decides whether that counts as a hang.
``transient``
    The worker raises :class:`InjectedFault` — the classic once-off
    failure that a retry absorbs.
``slow``
    The worker sleeps ``slow_delay`` seconds and then completes normally —
    latency noise that must never change results.
``corrupt_result``
    A just-stored result-cache entry has one payload byte flipped
    (parent-side, at most once per key) so the cache's digest check, heal
    path and the supervisor's verify-after-write are exercised.
``corrupt_trace``
    A just-stored trace-store entry is truncated (parent-side, at most
    once per key) so workers re-derive the trace through the store's
    corruption-heal path.

Unless a token is listed in ``sticky``, job faults only fire on attempts
below ``max_attempt`` (default 1: first attempt only), so a retried job
succeeds and the campaign converges.  ``sticky`` entries of the form
``kind@token-substring`` fire on *every* attempt — that is how a test (or
the chaos job) proves quarantine: the job must exhaust its attempts and
land in ``failed-jobs.json`` without taking the campaign down.

Activation
----------
``REPRO_FAULTS`` (or the engine's ``faults=`` knob / the CLI's
``--faults``) holds a comma-separated spec, e.g.::

    REPRO_FAULTS="seed=7,crash=0.2,hang=0.1,transient=0.2,corrupt_result=0.3,deadline=20,hang_delay=2"

Plans also carry the supervision overrides chaos scenarios need
(``deadline``, ``backoff``, ``hang_delay``, …) so one knob configures a
whole scenario.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

#: Environment variable holding the fault-plan spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Job-fault kinds in cumulative-draw order (fixed: the order is part of
#: the deterministic contract — reordering would re-map every decision).
JOB_FAULT_KINDS = ("crash", "hang", "transient", "slow")

#: Artifact-fault kinds (parent-side, keyed by cache/store key).
ARTIFACT_FAULT_KINDS = ("corrupt_result", "corrupt_trace")


class InjectedFault(RuntimeError):
    """A deliberately injected failure (transient, or a serialised crash)."""


def _unit(*parts: object) -> float:
    """Deterministic uniform value in [0, 1) from the given parts."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return int.from_bytes(hasher.digest()[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A complete seeded fault scenario (see the module docstring)."""

    seed: int = 0
    # -- job-fault rates, one per kind in JOB_FAULT_KINDS -----------------
    crash: float = 0.0
    hang: float = 0.0
    transient: float = 0.0
    slow: float = 0.0
    # -- artifact-fault rates --------------------------------------------
    corrupt_result: float = 0.0
    corrupt_trace: float = 0.0
    # -- shaping ----------------------------------------------------------
    #: job faults fire only on attempts < max_attempt (sticky ones always)
    max_attempt: int = 1
    #: ``kind@token-substring`` entries that fire on every attempt,
    #: ``;``-separated in the env spec (e.g. ``sticky=crash@gcc:ir``)
    sticky: Tuple[str, ...] = ()
    #: how long a "hang" sleeps; the supervisor deadline decides its fate
    hang_delay: float = 30.0
    #: how long a "slow" fault delays a job that then completes normally
    slow_delay: float = 0.05
    # -- supervision overrides (chaos scenarios tune these with the plan) -
    #: overrides SupervisorPolicy.timeout_base when set
    deadline: Optional[float] = None
    #: overrides SupervisorPolicy.backoff_base when set
    backoff: Optional[float] = None
    #: overrides SupervisorPolicy.max_attempts when set
    attempts: Optional[int] = None
    #: parent raises KeyboardInterrupt after this many computed jobs
    #: (0 = off) — deterministic interruption for checkpoint/resume tests
    interrupt_after: int = 0

    # ------------------------------------------------------------- parsing
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``key=value,...`` spec (the ``REPRO_FAULTS`` format)."""
        kwargs: Dict[str, object] = {}
        types = {f.name: f.type for f in fields(cls)}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in types:
                raise ValueError(
                    f"bad {FAULTS_ENV} entry {item!r}: expected key=value "
                    f"with key one of {sorted(types)}")
            if key == "sticky":
                kwargs[key] = tuple(entry.strip()
                                    for entry in value.split(";")
                                    if entry.strip())
            elif key in ("seed", "max_attempt", "interrupt_after", "attempts"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or None when unset/empty."""
        text = os.environ.get(FAULTS_ENV, "").strip()
        return cls.parse(text) if text else None

    def to_text(self) -> str:
        """Round-trippable spec text (only non-default fields)."""
        default = FaultPlan()
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value == getattr(default, f.name):
                continue
            if f.name == "sticky":
                parts.append(f"sticky={';'.join(value)}")
            else:
                parts.append(f"{f.name}={value}")
        return ",".join(parts)

    # ----------------------------------------------------------- decisions
    def _sticky_kind(self, token: str) -> Optional[str]:
        for entry in self.sticky:
            kind, sep, needle = entry.partition("@")
            if sep and kind in JOB_FAULT_KINDS and needle in token:
                return kind
        return None

    def fault_for(self, token: str, attempt: int) -> Optional[str]:
        """The job-fault kind that fires for (token, attempt), if any.

        Sticky entries win (and ignore ``max_attempt``); otherwise one
        uniform draw is partitioned by cumulative rate across the kinds.
        """
        sticky = self._sticky_kind(token)
        if sticky is not None:
            return sticky
        if attempt >= self.max_attempt:
            return None
        draw = _unit(self.seed, "job", token, attempt)
        cumulative = 0.0
        for kind in JOB_FAULT_KINDS:
            cumulative += getattr(self, kind)
            if draw < cumulative:
                return kind
        return None

    def artifact_fault(self, kind: str, key: str) -> bool:
        """Whether artifact fault ``kind`` fires for store entry ``key``."""
        if kind not in ARTIFACT_FAULT_KINDS:
            raise ValueError(f"unknown artifact fault kind {kind!r}")
        return _unit(self.seed, kind, key) < getattr(self, kind)

    def any_job_faults(self) -> bool:
        return (bool(self.sticky)
                or any(getattr(self, kind) > 0.0 for kind in JOB_FAULT_KINDS))


# ---------------------------------------------------------------------------
# worker-side injection
# ---------------------------------------------------------------------------
def maybe_inject(plan: Optional[FaultPlan], token: str, attempt: int,
                 in_worker: bool = True) -> None:
    """Apply the planned fault for (token, attempt), if any.

    Called at the top of a job execution.  Serial callers pass
    ``in_worker=False``: a crash cannot be injected without killing the
    campaign itself, so it (and a hang, which nothing could interrupt
    in-process) become an :class:`InjectedFault`.
    """
    if plan is None:
        return
    kind = plan.fault_for(token, attempt)
    if kind is None:
        return
    if kind == "crash":
        if in_worker:
            # The satellite scenario verbatim: the worker is SIGKILLed
            # mid-job, exactly as a segfaulting worker would die.
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedFault(f"injected crash (serial) for {token}")
    if kind == "hang":
        if in_worker:
            time.sleep(plan.hang_delay)
            return  # a survivable hang is just extreme slowness
        raise InjectedFault(f"injected hang (serial) for {token}")
    if kind == "transient":
        raise InjectedFault(f"injected transient fault for {token} "
                            f"(attempt {attempt})")
    if kind == "slow":
        time.sleep(plan.slow_delay)


# ---------------------------------------------------------------------------
# parent-side artifact injection
# ---------------------------------------------------------------------------
class FaultInjector:
    """Parent-side injector: artifact corruption + the interrupt fault.

    Artifact faults fire at most once per key per process (the point is to
    exercise the detection/heal path, not to make storage unusable), and
    the counters feed the supervision report so a chaos run can assert the
    faults it planned actually fired.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: Dict[str, int] = {}
        self._corrupted: set = set()
        self._completed = 0

    def _count(self, kind: str) -> None:
        self.fired[kind] = self.fired.get(kind, 0) + 1

    def corrupt_result_entry(self, cache, key: str) -> bool:
        """Flip one payload byte of the on-disk entry for ``key``."""
        if key in self._corrupted or not self.plan.artifact_fault(
                "corrupt_result", key):
            return False
        self._corrupted.add(key)
        path = cache.path_for(key)
        try:
            blob = bytearray(path.read_bytes())
            if not blob:
                return False
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        except OSError:
            return False
        self._count("corrupt_result")
        return True

    def corrupt_trace_entry(self, store, key: str) -> bool:
        """Truncate the on-disk trace entry for ``key`` to half its size."""
        if key in self._corrupted or not self.plan.artifact_fault(
                "corrupt_trace", key):
            return False
        self._corrupted.add(key)
        path = store.path_for(key)
        try:
            blob = path.read_bytes()
            if len(blob) < 2:
                return False
            path.write_bytes(blob[:len(blob) // 2])
        except OSError:
            return False
        self._count("corrupt_trace")
        return True

    def after_completion(self) -> None:
        """Count a computed job; raise the planned interrupt when due."""
        self._completed += 1
        if (self.plan.interrupt_after
                and self._completed >= self.plan.interrupt_after):
            self._count("interrupt")
            raise KeyboardInterrupt(
                f"injected interrupt after {self._completed} computed jobs")
