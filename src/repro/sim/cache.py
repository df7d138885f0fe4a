"""Content-addressed on-disk cache of simulation results.

A sweep over (benchmark, policy, config) jobs is embarrassingly repetitive:
CI reruns the same headline ladder on every push, and interactive work
re-simulates everything after touching one policy.  The cache keys each
:class:`~repro.sim.metrics.SimulationResult` by a stable hash of everything
that determines it — trace profile, trace length, seed, machine config
(through ``MachineConfig.to_key_dict()``), the policy (through
``PolicySpec.to_key_dict()``: name, scheme set, cluster selector and
selector knobs, so policies differing only in selector or knobs never alias
an entry) and a code-version tag — so repeated sweeps are near-free while
any change to the inputs (or to simulator semantics, via the version tag)
misses cleanly.  :func:`simulation_key` is that recipe, shared by the sweep
engine and the fuzz harness.  The energy coefficients are not a key input:
results carry their energy figures, so editing a coefficient is a semantic
change that bumps the version tag.

Entry format (one file per result, sharded by key prefix)::

    <header JSON line>\\n<pickled SimulationResult payload>

The header records the format version, the full key and a SHA-256 digest of
the payload.  ``load`` re-verifies both: a corrupted, truncated or stale
entry is detected, dropped from disk, and reported as a miss so the caller
recomputes it.  Writes go through a temp file + ``os.replace`` so readers
never observe a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from repro.sim.metrics import SimulationResult

#: On-disk entry format; bump when the entry layout changes.
CACHE_FORMAT = 1

#: Version tag folded into every cache key.  Bump whenever a code change
#: alters simulation *semantics* (cycle accounting, steering behaviour,
#: metrics definitions), so stale results from older simulator versions can
#: never be served.  Pure refactors and optimisations that keep results
#: bit-identical do not need a bump.
SIMULATOR_VERSION = "1"


def result_key(*parts: object) -> str:
    """Stable content hash over the given key parts (reprs are hashed)."""
    hasher = hashlib.sha256()
    hasher.update(SIMULATOR_VERSION.encode("utf-8"))
    for part in parts:
        hasher.update(b"\x00")
        hasher.update(repr(part).encode("utf-8"))
    return hasher.hexdigest()


def simulation_key(profile, trace_uops: int, seed: int, use_slicing: bool,
                   config, policy) -> str:
    """Result-cache key of one simulation.

    ``profile`` is a :class:`~repro.trace.profiles.BenchmarkProfile`,
    ``config`` the :class:`~repro.core.config.MachineConfig` the run
    simulates and ``policy`` its :class:`~repro.core.steering.PolicySpec`;
    each contributes the canonical text of its ``to_key_dict()``.
    """
    return result_key(canonical_text(profile.to_key_dict()), trace_uops, seed,
                      use_slicing, canonical_text(config.to_key_dict()),
                      canonical_text(policy.to_key_dict()))


def canonical_text(value: object) -> str:
    """Canonical JSON form of a key dictionary (sorted keys, no whitespace).

    Config objects contribute to cache keys through their ``to_key_dict()``
    serialised with this function, so the key depends on every config field's
    *value* — not on repr formatting, field order, or object identity — and
    any field change (including nested cluster/scheduler/memory fields)
    changes the key.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Upper bound on the in-memory entry memo (results are small metric
#: records; the memo exists so a key is read and decoded from disk at most
#: once per process, however many sweeps of a session ask for it).
_MEMO_LIMIT = 4096


class ResultCache:
    """Content-addressed store of :class:`SimulationResult` records."""

    def __init__(self, cache_dir: os.PathLike | str, enabled: bool = True) -> None:
        self.cache_dir = Path(cache_dir)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries dropped because the digest or key did not verify
        self.corrupt_drops = 0
        #: corrupt-dropped slots that were subsequently rewritten with a
        #: fresh result (the "delete-and-rewrite" heal: the same corruption
        #: is never re-parsed, and the footer reports ``corrupt: N healed``)
        self.healed = 0
        #: keys whose on-disk entry was dropped as corrupt and not yet
        #: rewritten (drives the ``healed`` accounting)
        self._corrupt_keys: set = set()
        #: of the hits, how many were served from the in-process memo
        #: without touching (or re-decoding) the on-disk entry
        self.memo_hits = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: key -> already-loaded (or just-stored) result.  Overlapping CLI
        #: flows — a baseline run followed by the suite sweep that contains
        #: the same baseline job — used to re-read and re-decode the same
        #: entry from disk; now the second load is a dict probe.
        self._memo: dict = {}

    # ------------------------------------------------------------------ paths
    def path_for(self, key: str) -> Path:
        """Location of the entry for ``key`` (two-level sharding)."""
        return self.cache_dir / key[:2] / f"{key}.res"

    # ------------------------------------------------------------------- load
    def load(self, key: str) -> Optional[SimulationResult]:
        """Return the cached result for ``key``, or None on miss/corruption."""
        if not self.enabled:
            return None
        memoised = self._memo.get(key)
        if memoised is not None:
            self.hits += 1
            self.memo_hits += 1
            return memoised
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        self.bytes_read += len(blob)
        result = self._decode(key, blob)
        if result is None:
            # Corrupt or stale: remove so the slot is rewritten cleanly.
            self.corrupt_drops += 1
            self._corrupt_keys.add(key)
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self._memoise(key, result)
        return result

    def _memoise(self, key: str, result: SimulationResult) -> None:
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = result

    def _decode(self, key: str, blob: bytes) -> Optional[SimulationResult]:
        newline = blob.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(blob[:newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        payload = blob[newline + 1:]
        if (not isinstance(header, dict)
                or header.get("format") != CACHE_FORMAT
                or header.get("key") != key
                or header.get("digest") != hashlib.sha256(payload).hexdigest()):
            return None
        try:
            result = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(result, SimulationResult):
            return None
        return result

    # ------------------------------------------------------------------ store
    def store(self, key: str, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (atomic rename, best effort)."""
        if not self.enabled:
            return
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps({
            "format": CACHE_FORMAT,
            "key": key,
            "digest": hashlib.sha256(payload).hexdigest(),
        }, sort_keys=True).encode("utf-8")
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            # Unusable cache location (e.g. --cache-dir points at a file):
            # caching degrades to a no-op rather than failing the sweep.
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(b"\n")
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return
        self.stores += 1
        self.bytes_written += len(header) + 1 + len(payload)
        if key in self._corrupt_keys:
            # This slot previously held a corrupt entry: the rewrite heals
            # it (delete happened at detection time; this is the rewrite).
            self._corrupt_keys.discard(key)
            self.healed += 1
        # A just-stored result is the freshest possible entry: serve later
        # loads of the same key from memory instead of round-tripping disk.
        self._memoise(key, result)

    # ------------------------------------------------------------------ verify
    def verify(self, key: str,
               result: Optional[SimulationResult] = None) -> bool:
        """Re-read and digest-check the on-disk entry for ``key``.

        Bypasses the memo deliberately — the point is to check what a
        *future process* will read.  A failing entry is dropped (counted in
        ``corrupt_drops``) and, when ``result`` is supplied, immediately
        rewritten (counted in ``healed``).  Returns True when the on-disk
        entry verified on first read; the supervised engine calls this
        after every store so corruption that lands during a campaign is
        healed before the campaign ends.
        """
        if not self.enabled:
            return True
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            blob = None
        if blob is not None:
            self.bytes_read += len(blob)
            if self._decode(key, blob) is not None:
                return True
        self.corrupt_drops += 1
        self._corrupt_keys.add(key)
        try:
            path.unlink()
        except OSError:
            pass
        if result is not None:
            self.store(key, result)
        return False

    # -------------------------------------------------------------- reporting
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_drops": self.corrupt_drops,
            "healed": self.healed,
            "memo_hits": self.memo_hits,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }
