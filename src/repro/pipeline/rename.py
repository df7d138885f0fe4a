"""Rename stage state: the rename table with its width table and CR tags.

The paper extends the conventional rename table in two ways:

* **Width table (§3.2)** — a 1-bit field per architectural register that
  remembers whether the most recent value bound to the register was narrow.
  When a new instruction is renamed, the width of an already-written-back
  source is read from here (the *actual* width); otherwise the width
  predictor's prediction for the producer is used.
* **CR upper-bits tag and reference counter (§3.5)** — when an instruction is
  steered to the helper cluster under the carry-width (CR) scheme, only the
  low 8 bits of its result live in the helper cluster; the upper 24 bits are
  those of its wide source.  The rename entry of the destination therefore
  carries a tag pointing at the wide register that holds those upper bits,
  and that wide register cannot be deallocated until a reference counter
  drops to zero.

The rename table here tracks, per architectural register, which in-flight uop
will produce it (if any), which cluster that producer was steered to, whether
the value (once known) is narrow, and the CR linkage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.isa.registers import ArchReg
from repro.isa.values import MACHINE_WIDTH, NARROW_WIDTH
from repro.pipeline.clocking import ClockDomain


@dataclass
class RenameEntry:
    """Rename state for one architectural register."""

    #: uid of the in-flight producer, or ``None`` when the architectural
    #: value is already committed / written back.
    producer_uid: Optional[int] = None
    #: Cluster the producer was steered to (meaningful while in flight, and
    #: kept after writeback so consumers know where the value lives).  A
    #: cluster index: ``ClockDomain`` members for the paper's pair, plain
    #: ints for further helper clusters — compare by value, not identity.
    producer_domain: int = ClockDomain.WIDE
    #: Width-table bit: True when the last written-back value was narrow.
    narrow: bool = True
    #: Width of the value in bits (two's complement).  Tracked precisely
    #: (from actual written-back values / width-bits predictions) when the
    #: machine's cluster selector routes by width; otherwise it mirrors the
    #: ``narrow`` bit's class boundary.
    width_bits: int = NARROW_WIDTH
    #: Whether the producer has written back (so ``narrow`` is an actual
    #: width rather than a prediction).
    written_back: bool = True
    #: CR linkage: architectural register whose wide physical register holds
    #: the upper 24 bits of this (narrow-cluster-resident) value.
    upper_bits_reg: Optional[ArchReg] = None

    def reset(self) -> None:
        self.producer_uid = None
        self.producer_domain = ClockDomain.WIDE
        self.narrow = True
        self.width_bits = NARROW_WIDTH
        self.written_back = True
        self.upper_bits_reg = None


class RenameTable:
    """Architectural-register rename state plus CR reference counters."""

    def __init__(self) -> None:
        self._entries: Dict[ArchReg, RenameEntry] = {r: RenameEntry() for r in ArchReg}
        #: Public live view of the per-register entries, part of the
        #: steering fast path's contract: policies bind it once per run and
        #: read width bits straight off the (in-place mutated, never
        #: replaced) RenameEntry records.  Mutate only through the table's
        #: methods.
        self.table = self._entries
        # CR deallocation counters, keyed by the wide register holding upper
        # bits (§3.5): the wide physical register can only be reclaimed when
        # its counter is zero and its renamer has committed.
        self._upper_refcounts: Dict[ArchReg, int] = {}
        self.cr_links_created = 0

    # ----------------------------------------------------------------- access
    def entry(self, reg: ArchReg) -> RenameEntry:
        return self._entries[reg]

    def entries(self) -> Iterable[RenameEntry]:
        return self._entries.values()

    # ------------------------------------------------------------ rename flow
    def allocate(self, reg: ArchReg, producer_uid: int, domain: int,
                 predicted_narrow: bool,
                 width_bits: Optional[int] = None) -> None:
        """Bind ``reg`` to a new in-flight producer at rename time."""
        entry = self._entries[reg]
        # If the previous binding carried a CR link, renaming the destination
        # releases one reference on the wide upper-bits register.
        if entry.upper_bits_reg is not None:
            self.release_upper_bits(entry.upper_bits_reg)
            entry.upper_bits_reg = None
        entry.producer_uid = producer_uid
        entry.producer_domain = domain
        entry.narrow = predicted_narrow
        entry.width_bits = (width_bits if width_bits is not None
                            else (NARROW_WIDTH if predicted_narrow
                                  else MACHINE_WIDTH))
        entry.written_back = False

    def writeback(self, reg: ArchReg, producer_uid: int, narrow: bool,
                  domain: Optional[int] = None,
                  width_bits: Optional[int] = None) -> None:
        """Record that the producer of ``reg`` wrote back with actual width."""
        entry = self._entries[reg]
        if entry.producer_uid != producer_uid:
            # A younger rename already superseded this producer; the width
            # table keeps the younger prediction.
            return
        entry.written_back = True
        entry.narrow = narrow
        entry.width_bits = (width_bits if width_bits is not None
                            else (NARROW_WIDTH if narrow else MACHINE_WIDTH))
        if domain is not None:
            entry.producer_domain = domain

    def source_width_known(self, reg: ArchReg) -> bool:
        """True if the source's width can be read as fact (already written back)."""
        return self._entries[reg].written_back

    def source_is_narrow(self, reg: ArchReg) -> bool:
        """Width-table view of a source: actual width if known, else last prediction."""
        return self._entries[reg].narrow

    def source_width_bits(self, reg: ArchReg) -> int:
        """Expected width of a source value in bits (width-aware steering)."""
        return self._entries[reg].width_bits

    def producer_domain(self, reg: ArchReg) -> int:
        return self._entries[reg].producer_domain

    def producer_uid(self, reg: ArchReg) -> Optional[int]:
        return self._entries[reg].producer_uid

    # ----------------------------------------------------------------- CR tags
    def link_upper_bits(self, dest: ArchReg, wide_source: ArchReg) -> None:
        """Attach a CR tag: ``dest``'s upper 24 bits live in ``wide_source``."""
        entry = self._entries[dest]
        entry.upper_bits_reg = ArchReg(wide_source)
        self._upper_refcounts[ArchReg(wide_source)] = (
            self._upper_refcounts.get(ArchReg(wide_source), 0) + 1)
        self.cr_links_created += 1

    def release_upper_bits(self, wide_source: ArchReg) -> None:
        """Drop one CR reference on ``wide_source`` (renamer deallocation)."""
        reg = ArchReg(wide_source)
        count = self._upper_refcounts.get(reg, 0)
        if count <= 1:
            self._upper_refcounts.pop(reg, None)
        else:
            self._upper_refcounts[reg] = count - 1

    def upper_bits_refcount(self, wide_source: ArchReg) -> int:
        """Current CR reference count of a wide register (0 = deallocatable)."""
        return self._upper_refcounts.get(ArchReg(wide_source), 0)

    def can_deallocate(self, wide_source: ArchReg) -> bool:
        """§3.5 rule: the wide register frees only when its counter is zero."""
        return self.upper_bits_refcount(wide_source) == 0

    # ------------------------------------------------------------------ misc
    def reset(self) -> None:
        for entry in self._entries.values():
            entry.reset()
        self._upper_refcounts.clear()
        self.cr_links_created = 0
