"""Producer-consumer distance analysis (Figure 13, motivating CP, §3.6).

Copy prefetching is effective when the distance (in dynamic uops) between a
producer and its consumer is neither too small (the prefetched copy would not
arrive any earlier than a demand copy) nor too large (the prefetched value
would occupy backend resources while waiting).  Figure 13 shows that IA-32
code has an average distance of a few uops, which is favourable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.trace.trace import Trace


@dataclass
class DistanceReport:
    """Producer-consumer distance statistics for one trace."""

    benchmark: str
    pairs: int = 0
    total_distance: int = 0
    histogram: Dict[int, int] = field(default_factory=dict)
    max_bucket: int = 32

    @property
    def mean_distance(self) -> float:
        """Figure 13's y-axis: average producer-consumer distance in uops."""
        return self.total_distance / self.pairs if self.pairs else 0.0

    def fraction_within(self, distance: int) -> float:
        """Fraction of pairs with distance <= ``distance`` (prefetch window)."""
        if self.pairs == 0:
            return 0.0
        close = sum(count for d, count in self.histogram.items() if d <= distance)
        return close / self.pairs


def producer_consumer_distance(trace: Trace, first_consumer_only: bool = True,
                               max_bucket: int = 32) -> DistanceReport:
    """Measure the dynamic distance between producers and their consumers.

    Parameters
    ----------
    trace:
        The trace to analyse.
    first_consumer_only:
        When True (default, matching the figure's intent for copy
        prefetching), only the *first* consumer of each produced value is
        counted; later consumers would find the value already copied.
    max_bucket:
        Distances are clamped to this value in the histogram.
    """
    report = DistanceReport(benchmark=trace.name, max_bucket=max_bucket)
    position_of_uid: Dict[int, int] = {}
    first_seen: set = set()
    for position, uop in enumerate(trace.uops):
        for producer in uop.producer_uids:
            if producer is None:
                continue
            if first_consumer_only and producer in first_seen:
                continue
            producer_pos = position_of_uid.get(producer)
            if producer_pos is None:
                continue
            distance = position - producer_pos
            report.pairs += 1
            report.total_distance += distance
            bucket = min(distance, max_bucket)
            report.histogram[bucket] = report.histogram.get(bucket, 0) + 1
            if first_consumer_only:
                first_seen.add(producer)
        position_of_uid[uop.uid] = position
    return report
