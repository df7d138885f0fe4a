"""Trace container and summary statistics.

A :class:`Trace` is an ordered sequence of :class:`~repro.isa.uop.MicroOp`
records with concrete values attached, plus the metadata the simulator and the
analyses need (benchmark name, generator seed, static code footprint).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.isa.opcodes import OpClass
from repro.isa.uop import MicroOp
from repro.isa.values import NARROW_WIDTH


@dataclass
class TraceStats:
    """Aggregate statistics over a trace, used by the offline analyses."""

    num_uops: int = 0
    class_counts: Dict[OpClass, int] = field(default_factory=dict)
    narrow_result_count: int = 0
    narrow_all_source_count: int = 0
    cond_branch_count: int = 0
    taken_branch_count: int = 0
    load_count: int = 0
    store_count: int = 0
    byte_load_count: int = 0

    @property
    def narrow_result_fraction(self) -> float:
        """Fraction of result-producing uops whose result is narrow."""
        producers = sum(
            count for cls, count in self.class_counts.items()
            if cls not in (OpClass.STORE, OpClass.BRANCH, OpClass.JUMP, OpClass.NOP)
        )
        return self.narrow_result_count / producers if producers else 0.0

    def class_fraction(self, op_class: OpClass) -> float:
        """Fraction of uops in the given class."""
        if self.num_uops == 0:
            return 0.0
        return self.class_counts.get(op_class, 0) / self.num_uops


@dataclass
class Trace:
    """An ordered uop stream plus metadata.

    Attributes
    ----------
    name:
        Benchmark / application name.
    uops:
        The uop sequence in program (commit) order.
    seed:
        Seed of the generator that produced the trace (``None`` for
        hand-built traces).
    static_pcs:
        Number of distinct static PCs in the trace; relevant for sizing the
        PC-indexed width predictor.
    """

    name: str
    uops: List[MicroOp] = field(default_factory=list)
    seed: Optional[int] = None
    static_pcs: int = 0

    def __len__(self) -> int:
        return len(self.uops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.uops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(
                name=self.name,
                uops=self.uops[index],
                seed=self.seed,
                static_pcs=self.static_pcs,
            )
        return self.uops[index]

    # ------------------------------------------------------------ statistics
    def stats(self, narrow_width: int = NARROW_WIDTH) -> TraceStats:
        """Compute aggregate statistics in one pass over the trace."""
        stats = TraceStats(num_uops=len(self.uops))
        for uop in self.uops:
            info = uop.info
            cls = info.op_class
            stats.class_counts[cls] = stats.class_counts.get(cls, 0) + 1
            if uop.result_value is not None and uop.result_width <= narrow_width:
                stats.narrow_result_count += 1
            if uop.src_values and uop.src_width <= narrow_width:
                stats.narrow_all_source_count += 1
            if info.is_cond_branch:
                stats.cond_branch_count += 1
                if uop.is_taken:
                    stats.taken_branch_count += 1
            if info.is_load:
                stats.load_count += 1
                if uop.mem_size == 1:
                    stats.byte_load_count += 1
            if info.is_store:
                stats.store_count += 1
        return stats

    # ------------------------------------------------------------- utilities
    def producer_map(self) -> Dict[int, MicroOp]:
        """Map from uid to uop for quick producer lookups."""
        return {uop.uid: uop for uop in self.uops}

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on violation.

        Invariants: uids strictly increase, every producer uid referenced by a
        uop appears earlier in the trace, and every uop with sources has a
        matching number of source values once values are attached.
        """
        seen: set[int] = set()
        last_uid = -1
        for uop in self.uops:
            if uop.uid <= last_uid:
                raise ValueError(f"uids not strictly increasing at uop {uop.uid}")
            last_uid = uop.uid
            for producer in uop.producer_uids:
                if producer is not None and producer not in seen:
                    raise ValueError(
                        f"uop {uop.uid} references producer {producer} that does not precede it"
                    )
            if uop.flags_producer_uid is not None and uop.flags_producer_uid not in seen:
                raise ValueError(
                    f"uop {uop.uid} references flags producer {uop.flags_producer_uid} "
                    "that does not precede it"
                )
            if uop.src_values and len(uop.src_values) != len(uop.srcs):
                raise ValueError(
                    f"uop {uop.uid} has {len(uop.srcs)} sources but "
                    f"{len(uop.src_values)} source values"
                )
            seen.add(uop.uid)

    def extend(self, uops: Iterable[MicroOp]) -> None:
        """Append uops to the trace."""
        self.uops.extend(uops)

    def head(self, n: int) -> "Trace":
        """Return a new trace containing the first ``n`` uops."""
        return self[:n]
