"""The micro-operation record and a builder for constructing uop streams.

A :class:`MicroOp` is the unit the simulator fetches, renames, steers,
executes and commits.  Traces (:mod:`repro.trace`) are sequences of MicroOps
with *concrete* source and result values attached — the trace generator
functionally emulates the stream so that every uop's dataflow is consistent.
Width predictors in the core library are only allowed to observe values at
the architecturally correct time (writeback); the concrete values attached to
a uop are the oracle against which predictions are scored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.isa.opcodes import Opcode, OpcodeInfo, opcode_info
from repro.isa.registers import ArchReg
from repro.isa.values import carry_propagates, is_narrow, truncate, value_width


@dataclass(slots=True)
class MicroOp:
    """One micro-operation of the trace.

    Every fact the pipeline asks of a uop is derived once, in
    ``__post_init__``, which is the one construction path that the trace
    generator, the trace loaders, :class:`UopBuilder` and :meth:`with_values`
    share; nothing writes to a MicroOp after it is built.  Opcode-only facts
    are read from the shared :class:`~repro.isa.opcodes.OpcodeInfo` as
    ``uop.info.<fact>``.

    Attributes
    ----------
    uid:
        Unique, monotonically increasing identifier within a trace.  Used to
        express producer/consumer relations and program order.
    pc:
        Program counter of the parent IA-32 instruction (width predictors are
        PC-indexed, §3.2).
    opcode:
        The uop opcode.
    srcs:
        Architectural source register names (0–3 of them).
    dest:
        Architectural destination register, or ``None``.
    imm:
        Immediate operand value, or ``None``.
    src_values / result_value / flags_value:
        Concrete values observed by the functional emulation; ``None`` until
        the trace generator fills them in.
    mem_addr / mem_size:
        Effective address and access size in bytes for memory uops.
    is_taken:
        For branches, whether the branch is taken.
    producer_uids:
        uid of the most recent producer of each source register (or ``None``
        for live-ins), parallel to ``srcs``.
    flags_producer_uid:
        uid of the most recent writer of FLAGS before this uop (relevant for
        conditional branches).

    Derived at construction
    -----------------------
    info:
        The opcode's static :class:`~repro.isa.opcodes.OpcodeInfo`.
    has_dest:
        Whether the uop names a destination and its opcode writes one.
    effective_producers:
        Producer uids this uop waits on, FLAGS producer included.  The FLAGS
        producer joins only when the register sources do not already cover
        every source slot (dispatch's dependence-resolution rule); ``None``
        live-in entries are dropped.
    src_width / imm_width / result_width:
        Two's-complement widths in bits (:func:`~repro.isa.values.value_width`)
        of the widest source operand, the immediate included; of the
        immediate; and of the result.  An absent value counts as 1 bit, so it
        fits any datapath.  On 32-bit values ``is_narrow(v, w)`` holds
        exactly when ``value_width(v) <= w``, so every width oracle is an
        integer compare: all sources narrow at ``w`` is
        ``uop.src_width <= w``.
    """

    uid: int
    pc: int
    opcode: Opcode
    srcs: Tuple[ArchReg, ...] = ()
    dest: Optional[ArchReg] = None
    imm: Optional[int] = None
    src_values: Tuple[int, ...] = ()
    result_value: Optional[int] = None
    flags_value: Optional[int] = None
    mem_addr: Optional[int] = None
    mem_size: int = 4
    is_taken: bool = False
    producer_uids: Tuple[Optional[int], ...] = ()
    flags_producer_uid: Optional[int] = None
    info: OpcodeInfo = field(init=False, repr=False, compare=False)
    has_dest: bool = field(init=False, repr=False, compare=False)
    effective_producers: Tuple[int, ...] = field(init=False, repr=False,
                                                 compare=False)
    src_width: int = field(init=False, repr=False, compare=False)
    imm_width: int = field(init=False, repr=False, compare=False)
    result_width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        info = opcode_info(self.opcode)
        self.info = info
        self.has_dest = self.dest is not None and info.has_dest
        producers = self.producer_uids
        if None in producers:
            producers = tuple([uid for uid in producers if uid is not None])
        if (info.reads_flags and self.flags_producer_uid is not None
                and len(self.producer_uids) < len(self.srcs)):
            producers = producers + (self.flags_producer_uid,)
        self.effective_producers = producers
        imm_width = src_width = 1 if self.imm is None else value_width(self.imm)
        for value in self.src_values:
            width = value_width(value)
            if width > src_width:
                src_width = width
        self.imm_width = imm_width
        self.src_width = src_width
        self.result_width = (1 if self.result_value is None
                             else value_width(self.result_value))

    def __reduce__(self):
        # Pickle positionally over the constructor fields: the derived facts
        # are re-derived on load, never stored.
        return (MicroOp, (self.uid, self.pc, self.opcode, self.srcs, self.dest,
                          self.imm, self.src_values, self.result_value,
                          self.flags_value, self.mem_addr, self.mem_size,
                          self.is_taken, self.producer_uids,
                          self.flags_producer_uid))

    def with_values(
        self,
        src_values: Sequence[int],
        result_value: Optional[int],
        flags_value: Optional[int] = None,
    ) -> "MicroOp":
        """Return a copy with concrete values filled in."""
        return replace(
            self,
            src_values=tuple(truncate(v) for v in src_values),
            result_value=None if result_value is None else truncate(result_value),
            flags_value=flags_value,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        srcs = ",".join(r.name for r in self.srcs)
        dest = self.dest.name if self.dest is not None else "-"
        return (
            f"MicroOp(uid={self.uid}, pc={self.pc:#x}, {self.opcode.name} "
            f"{dest} <- [{srcs}] imm={self.imm})"
        )


# ---------------------------------------------------------- CR oracles (§3.5)
def _cr_operands(uop: MicroOp) -> Tuple[int, ...]:
    if uop.imm is None:
        return uop.src_values
    return uop.src_values + (uop.imm,)


def cr_carry_crosses(uop: MicroOp, narrow_width: int) -> bool:
    """Carry out of the low ``narrow_width`` bits when summing the two
    primary operands (the immediate counts as an operand)."""
    values = _cr_operands(uop)
    return (len(values) >= 2
            and carry_propagates(values[0], values[1], narrow_width))


def cr_operated_narrow(uop: MicroOp, narrow_width: int) -> bool:
    """Did this (potential CR) uop actually operate on the low bits only?

    True when exactly one of its two or more operands is wider than
    ``narrow_width`` bits and the carry did not propagate past the low bits.
    """
    if uop.src_width <= narrow_width:
        return False  # no wide operand
    values = _cr_operands(uop)
    wide = 0
    for value in values:
        if not is_narrow(value, narrow_width):
            wide += 1
    return (wide == 1 and len(values) >= 2
            and not carry_propagates(values[0], values[1], narrow_width))


class UopBuilder:
    """Convenience factory producing MicroOps with sequential uids.

    The builder only fills in the *static* fields; concrete values and
    producer links are attached by the functional emulator in
    :mod:`repro.trace.synthetic` (or by hand in tests).
    """

    def __init__(self, start_uid: int = 0) -> None:
        self._counter = itertools.count(start_uid)

    def next_uid(self) -> int:
        return next(self._counter)

    def make(
        self,
        opcode: Opcode,
        *,
        pc: int = 0,
        srcs: Sequence[ArchReg] = (),
        dest: Optional[ArchReg] = None,
        imm: Optional[int] = None,
        mem_addr: Optional[int] = None,
        mem_size: int = 4,
        is_taken: bool = False,
    ) -> MicroOp:
        """Create a new MicroOp with the next uid."""
        return MicroOp(
            uid=self.next_uid(),
            pc=pc,
            opcode=Opcode(opcode),
            srcs=tuple(ArchReg(s) for s in srcs),
            dest=None if dest is None else ArchReg(dest),
            imm=None if imm is None else truncate(imm),
            mem_addr=None if mem_addr is None else truncate(mem_addr),
            mem_size=mem_size,
            is_taken=is_taken,
        )

    def alu(self, opcode: Opcode, dest: ArchReg, srcs: Sequence[ArchReg], *, pc: int = 0,
            imm: Optional[int] = None) -> MicroOp:
        """Shorthand for an ALU-class uop."""
        return self.make(opcode, pc=pc, srcs=srcs, dest=dest, imm=imm)

    def load(self, dest: ArchReg, base: ArchReg, offset: ArchReg, *, pc: int = 0,
             byte: bool = False, addr: Optional[int] = None) -> MicroOp:
        """Shorthand for a load uop (LOADB when ``byte`` is set)."""
        opcode = Opcode.LOADB if byte else Opcode.LOAD
        return self.make(opcode, pc=pc, srcs=(base, offset), dest=dest,
                         mem_addr=addr, mem_size=1 if byte else 4)

    def store(self, data: ArchReg, base: ArchReg, offset: ArchReg, *, pc: int = 0,
              byte: bool = False, addr: Optional[int] = None) -> MicroOp:
        """Shorthand for a store uop (STOREB when ``byte`` is set)."""
        opcode = Opcode.STOREB if byte else Opcode.STORE
        return self.make(opcode, pc=pc, srcs=(base, offset, data),
                         mem_addr=addr, mem_size=1 if byte else 4)

    def branch(self, *, pc: int = 0, conditional: bool = True, taken: bool = False) -> MicroOp:
        """Shorthand for a branch uop."""
        opcode = Opcode.BR_COND if conditional else Opcode.BR_UNCOND
        srcs: Tuple[ArchReg, ...] = (ArchReg.FLAGS,) if conditional else ()
        return self.make(opcode, pc=pc, srcs=srcs, is_taken=taken)
