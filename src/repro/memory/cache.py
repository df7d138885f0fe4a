"""Set-associative cache model with LRU replacement and port accounting.

The model is deliberately structural rather than data-carrying: it tracks
which lines are present (tags) and how many port slots are consumed per
cycle, which is all the timing simulator needs.  Data values live in the
trace itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Sizes are in bytes; ``hit_latency`` is in wide-cluster cycles, matching
    how Table 1 states them.
    """

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency: int = 3
    ports: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ValueError(f"{self.name}: cache geometry must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.associativity}*{self.line_bytes})"
            )
        if self.hit_latency < 0 or self.ports <= 0:
            raise ValueError(f"{self.name}: latency/ports must be valid")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass
class AccessResult:
    """Outcome of a cache access."""

    hit: bool
    latency: int
    evicted_tag: Optional[int] = None


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative cache with true-LRU replacement.

    The cache is a tag store only.  ``access`` looks up (and on a miss,
    allocates) the line containing ``addr`` and returns an
    :class:`AccessResult` whose latency is the hit latency; the caller adds
    the next level's latency on a miss.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Per-set list of tags in LRU order (index 0 = most recently used).
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]

    # ----------------------------------------------------------------- shape
    def _index_and_tag(self, addr: int) -> Tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.num_sets, line // self.config.num_sets

    # ---------------------------------------------------------------- access
    def probe(self, addr: int) -> bool:
        """Check presence without updating LRU or statistics."""
        index, tag = self._index_and_tag(addr)
        return tag in self._sets[index]

    def _access_tag(self, addr: int):
        """Shared tag-store walk: LRU update, allocation and statistics.

        Returns ``(hit, evicted_tag)``.  Both :meth:`access` and
        :meth:`access_hit` go through here so the two entry points can never
        model different caches.
        """
        index, tag = self._index_and_tag(addr)
        ways = self._sets[index]
        self.stats.accesses += 1
        if ways and ways[0] == tag:
            # MRU fast path: no list rotation needed.
            self.stats.hits += 1
            return True, None
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        evicted: Optional[int] = None
        if len(ways) >= self.config.associativity:
            evicted = ways.pop()
            self.stats.evictions += 1
        ways.insert(0, tag)
        return False, evicted

    def access_hit(self, addr: int) -> bool:
        """Like :meth:`access` (same stats/LRU side effects) but returns only
        the hit flag, avoiding the result-record allocation on hot paths."""
        return self._access_tag(addr)[0]

    def access(self, addr: int) -> AccessResult:
        """Access the cache, allocating the line on a miss (allocate-on-miss)."""
        hit, evicted = self._access_tag(addr)
        if hit:
            return AccessResult(hit=True, latency=self.config.hit_latency)
        return AccessResult(hit=False, latency=self.config.hit_latency,
                            evicted_tag=evicted)

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr``; returns True if it was present."""
        index, tag = self._index_and_tag(addr)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            return True
        return False

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._sets = [[] for _ in range(self.config.num_sets)]
        self.stats = CacheStats()

    def occupancy(self) -> int:
        """Total number of valid lines currently resident."""
        return sum(len(ways) for ways in self._sets)
