"""Carry-propagation analysis (Figure 11, motivating the CR scheme of §3.5).

For instructions with two sources — one 8-bit and one 32-bit — and a 32-bit
result, Figure 11 reports the percentage whose addition does not propagate a
carry beyond the low 8 bits, split into arithmetic instructions (add,
subtract) and loads (whose address is a base + small offset sum, Figure 10).
When the carry does not propagate the operation is effectively narrow: the
upper 24 bits of the result equal those of the wide source, so it can execute
in the helper cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.isa.opcodes import OpClass, Opcode
from repro.isa.values import NARROW_WIDTH, is_narrow
from repro.trace.trace import Trace

#: Arithmetic opcodes considered by the Figure 11 "Arith" series.
_ARITH_OPCODES = {Opcode.ADD, Opcode.SUB, Opcode.INC, Opcode.DEC, Opcode.LEA,
                  Opcode.CMP}


@dataclass
class CarryReport:
    """Carry-not-propagated statistics for one trace."""

    benchmark: str
    arith_candidates: int = 0
    arith_no_carry: int = 0
    load_candidates: int = 0
    load_no_carry: int = 0

    @property
    def arith_fraction(self) -> float:
        """Fraction of eligible arithmetic instructions with no carry past bit 7."""
        return self.arith_no_carry / self.arith_candidates if self.arith_candidates else 0.0

    @property
    def load_fraction(self) -> float:
        """Fraction of eligible loads with no carry past bit 7."""
        return self.load_no_carry / self.load_candidates if self.load_candidates else 0.0


def _mixed_width_operands(values, imm, narrow_width: int):
    """Return (narrow_value, wide_value) if the operand pattern is (8, 32), else None."""
    operands = list(values)
    if imm is not None:
        operands.append(imm)
    if len(operands) < 2:
        return None
    narrow_ops = [v for v in operands if is_narrow(v, narrow_width)]
    wide_ops = [v for v in operands if not is_narrow(v, narrow_width)]
    if len(wide_ops) == 1 and narrow_ops:
        return narrow_ops[0], wide_ops[0]
    return None


def carry_not_propagated(narrow_value: int, wide_value: int,
                         narrow_width: int = NARROW_WIDTH) -> bool:
    """True when ``narrow + wide`` does not carry out of the low byte (Figure 10)."""
    mask = (1 << narrow_width) - 1
    return (narrow_value & mask) + (wide_value & mask) <= mask


def analyze_carry(trace: Trace, narrow_width: int = NARROW_WIDTH) -> CarryReport:
    """Run the Figure 11 analysis over a trace."""
    report = CarryReport(benchmark=trace.name)
    for uop in trace.uops:
        pair = _mixed_width_operands(uop.src_values, uop.imm, narrow_width)
        if pair is None:
            continue
        narrow_value, wide_value = pair
        no_carry = carry_not_propagated(narrow_value, wide_value, narrow_width)
        if uop.info.op_class in (OpClass.LOAD, OpClass.STORE):
            report.load_candidates += 1
            if no_carry:
                report.load_no_carry += 1
        elif uop.opcode in _ARITH_OPCODES:
            # Restrict to wide results, as the figure does: a narrow result
            # would already be caught by the plain 8-8-8 scheme.
            if uop.result_value is not None and is_narrow(uop.result_value, narrow_width):
                continue
            report.arith_candidates += 1
            if no_carry:
                report.arith_no_carry += 1
    return report


def carry_fractions(trace: Trace, narrow_width: int = NARROW_WIDTH) -> Dict[str, float]:
    """Figure 11's two series for one trace, as a dictionary."""
    report = analyze_carry(trace, narrow_width)
    return {"arith": report.arith_fraction, "load": report.load_fraction}
