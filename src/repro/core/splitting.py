"""Wide-instruction splitting for imbalance reduction (IR, §3.7).

When the helper cluster is underutilised (wide-to-narrow NREADY imbalance),
the decode stage splits a wide instruction into four narrow instructions that
are identical to the original except that they operate on 8-bit register
slices.  The four chunks are chained — each depends on its less-significant
neighbour so the carry ripples in order — and, if the original instruction
had a destination register, the full 32-bit value is prefetched back to the
wide cluster with four 8-bit copy instructions.

The fine-tuned variant (IR-nodest) only splits instructions without a
destination register (stores, compares), trading a little imbalance for a
large reduction in copy traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.isa.opcodes import Opcode, opcode_info
from repro.isa.uop import MicroOp
from repro.isa.values import NARROW_WIDTH, split_bytes


@dataclass(frozen=True)
class SplitChunk:
    """One 8-bit slice of a split wide instruction."""

    chunk_index: int          # 0 = least significant byte
    opcode: Opcode
    latency_slow: int
    depends_on_previous: bool


@dataclass
class SplitPlan:
    """The decode-stage rewrite of one wide instruction under IR."""

    original_uid: int
    chunks: List[SplitChunk]
    #: copy-back uops prefetching the reassembled 32-bit result to the wide
    #: cluster (empty when the original has no destination register)
    copy_backs: int

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def total_uops(self) -> int:
        return self.num_chunks + self.copy_backs


@dataclass
class SplitterStats:
    """IR activity counters."""

    candidates_seen: int = 0
    split_instructions: int = 0
    chunks_created: int = 0
    copy_backs_created: int = 0
    rejected_not_splittable: int = 0
    rejected_has_dest: int = 0


class InstructionSplitter:
    """Builds :class:`SplitPlan` objects for the IR scheme."""

    def __init__(self, narrow_width: int = NARROW_WIDTH, machine_width: int = 32,
                 require_no_dest: bool = False) -> None:
        if machine_width % narrow_width:
            raise ValueError("machine width must be a multiple of the narrow width")
        self.narrow_width = narrow_width
        self.machine_width = machine_width
        self.require_no_dest = require_no_dest
        self.stats = SplitterStats()

    @property
    def num_chunks(self) -> int:
        return self.machine_width // self.narrow_width

    # -------------------------------------------------------------- eligibility
    def can_split(self, uop: MicroOp) -> bool:
        """Whether the IR scheme may split this uop.

        Only chunk-decomposable integer operations qualify (adds, subtracts
        and bitwise logic); shifts, multiplies, memory operations, branches
        and FP are not byte-decomposable with a simple carry chain.  The
        fine-tuned variant additionally requires the uop to have no
        destination register.
        """
        self.stats.candidates_seen += 1
        if not uop.info.splittable:
            self.stats.rejected_not_splittable += 1
            return False
        if self.require_no_dest and uop.has_dest:
            self.stats.rejected_has_dest += 1
            return False
        return True

    # --------------------------------------------------------------------- plan
    def plan(self, uop: MicroOp) -> Optional[SplitPlan]:
        """Build the split plan for ``uop`` or return None if it cannot split."""
        if not self.can_split(uop):
            return None
        chunk_opcode = (Opcode.SPLIT_ADD
                        if uop.opcode in (Opcode.ADD, Opcode.SUB, Opcode.INC, Opcode.DEC)
                        else Opcode.SPLIT_LOGIC)
        # Logic chunks are independent byte-wise; arithmetic chunks chain
        # through the carry, so each depends on its predecessor.
        chained = chunk_opcode is Opcode.SPLIT_ADD
        chunks = [
            SplitChunk(
                chunk_index=i,
                opcode=chunk_opcode,
                latency_slow=opcode_info(chunk_opcode).latency,
                depends_on_previous=chained and i > 0,
            )
            for i in range(self.num_chunks)
        ]
        copy_backs = self.num_chunks if uop.has_dest else 0
        self.stats.split_instructions += 1
        self.stats.chunks_created += len(chunks)
        self.stats.copy_backs_created += copy_backs
        return SplitPlan(original_uid=uop.uid, chunks=chunks, copy_backs=copy_backs)

    # ------------------------------------------------------------------ values
    def chunk_values(self, value: int) -> List[int]:
        """Byte slices (LSB first) of a concrete value, for verification."""
        return split_bytes(value, self.num_chunks, self.narrow_width)

    def reset(self) -> None:
        self.stats = SplitterStats()
