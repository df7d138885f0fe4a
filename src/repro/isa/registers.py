"""Architectural register set of the IA-32-like uop machine.

The internal machine state exposed to uops consists of the eight general
purpose registers, a handful of internal temporaries used by the uop
translator (IA-32 instructions can expand to several uops that communicate
through temporaries), the flags register (EFLAGS) and the instruction pointer
(EIP).  The paper's BR scheme (§3.3) relies on the fact that conditional
branches read the flags register and that the producer of the flags register
can be tracked; the CR scheme (§3.5) relies on the rename table, which maps
these architectural names to physical registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterator, List

from repro.isa.values import MACHINE_WIDTH, truncate


class ArchReg(IntEnum):
    """Architectural register names.

    ``EAX``..``EDI`` are the IA-32 general purpose registers; ``TMP0``..``TMP3``
    are uop-level temporaries; ``FLAGS`` is EFLAGS (only the arithmetic flags
    matter to the simulator) and ``EIP`` the instruction pointer.
    """

    EAX = 0
    EBX = 1
    ECX = 2
    EDX = 3
    ESI = 4
    EDI = 5
    EBP = 6
    ESP = 7
    TMP0 = 8
    TMP1 = 9
    TMP2 = 10
    TMP3 = 11
    FLAGS = 12
    EIP = 13

    @property
    def is_gpr(self) -> bool:
        return self <= ArchReg.ESP

    @property
    def is_temp(self) -> bool:
        return ArchReg.TMP0 <= self <= ArchReg.TMP3

    @property
    def is_flags(self) -> bool:
        return self == ArchReg.FLAGS


#: The flags (EFLAGS) register name.
FLAGS_REG: ArchReg = ArchReg.FLAGS

#: The instruction pointer register name.
EIP_REG: ArchReg = ArchReg.EIP

#: All general-purpose registers.
GPR_REGS: List[ArchReg] = [r for r in ArchReg if r.is_gpr]

#: Registers a uop may legitimately name as integer sources/destinations.
DATA_REGS: List[ArchReg] = [r for r in ArchReg if r.is_gpr or r.is_temp]

#: Total number of architectural register names.
NUM_ARCH_REGS: int = len(ArchReg)


@dataclass
class RegisterFile:
    """A simple architectural register file holding 32-bit values.

    Used by the functional emulator inside the synthetic trace generator and
    by the simulator's architectural-state checker.  Values are stored as
    canonical unsigned 32-bit integers.
    """

    width: int = MACHINE_WIDTH
    _values: Dict[ArchReg, int] = field(default_factory=dict)

    def read(self, reg: ArchReg) -> int:
        """Read a register; unwritten registers read as zero.

        ``ArchReg`` is an ``IntEnum``, so a member and its integer value
        probe the same key and the read needs no enum coercion.
        """
        return self._values.get(reg, 0)

    def write(self, reg: ArchReg, value: int) -> None:
        """Write a register, truncating to the register file's width."""
        self._values[reg] = truncate(value, self.width)

    def snapshot(self) -> Dict[ArchReg, int]:
        """Return a copy of the current architectural state."""
        return dict(self._values)

    def restore(self, snapshot: Dict[ArchReg, int]) -> None:
        """Restore a previously captured snapshot."""
        self._values = dict(snapshot)

    def reset(self) -> None:
        """Clear all registers back to zero."""
        self._values.clear()

    def __iter__(self) -> Iterator[ArchReg]:
        return iter(ArchReg)

    def __len__(self) -> int:
        return NUM_ARCH_REGS


class Flags:
    """Bit positions of the arithmetic flags within the FLAGS register value."""

    CF = 1 << 0  # carry
    ZF = 1 << 1  # zero
    SF = 1 << 2  # sign
    OF = 1 << 3  # overflow

    @staticmethod
    def pack(cf: bool, zf: bool, sf: bool, of: bool) -> int:
        """Pack individual flag booleans into a FLAGS register value."""
        value = 0
        if cf:
            value |= Flags.CF
        if zf:
            value |= Flags.ZF
        if sf:
            value |= Flags.SF
        if of:
            value |= Flags.OF
        return value

    @staticmethod
    def unpack(value: int) -> Dict[str, bool]:
        """Unpack a FLAGS register value into named booleans."""
        return {
            "cf": bool(value & Flags.CF),
            "zf": bool(value & Flags.ZF),
            "sf": bool(value & Flags.SF),
            "of": bool(value & Flags.OF),
        }
