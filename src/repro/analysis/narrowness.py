"""Narrow data-width dependence analysis (Figure 1 and §1 statistics).

The paper defines a consumer as *narrow data-width dependent* when the
producer of one of its register operands produced a narrow value.  Figure 1
plots, per SPEC Int 2000 application, the percentage of register operands
that are narrow data-width dependent; the average is about 65%.

§1 additionally reports that 39.4% of regular ALU instructions require one
narrow operand, 3.3% require two narrow operands but produce a wide result,
and 43.5% require two narrow operands and produce a narrow result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.isa.opcodes import OpClass
from repro.isa.values import NARROW_WIDTH, is_narrow
from repro.trace.trace import Trace


@dataclass
class NarrownessReport:
    """Results of the Figure 1 / §1 analysis for one trace."""

    benchmark: str
    #: register operands whose producer value is narrow / total register operands
    narrow_dependent_operands: int = 0
    total_register_operands: int = 0
    #: §1 breakdown over ALU instructions with at least one register source
    alu_one_narrow_operand: int = 0
    alu_two_narrow_wide_result: int = 0
    alu_two_narrow_narrow_result: int = 0
    alu_total: int = 0

    @property
    def narrow_dependence_fraction(self) -> float:
        """Figure 1's y-axis: fraction of operands that are narrow-width dependent."""
        if self.total_register_operands == 0:
            return 0.0
        return self.narrow_dependent_operands / self.total_register_operands

    @property
    def one_narrow_fraction(self) -> float:
        return self.alu_one_narrow_operand / self.alu_total if self.alu_total else 0.0

    @property
    def two_narrow_wide_fraction(self) -> float:
        return self.alu_two_narrow_wide_result / self.alu_total if self.alu_total else 0.0

    @property
    def two_narrow_narrow_fraction(self) -> float:
        return self.alu_two_narrow_narrow_result / self.alu_total if self.alu_total else 0.0


def analyze_narrowness(trace: Trace, narrow_width: int = NARROW_WIDTH) -> NarrownessReport:
    """Run the Figure 1 / §1 analysis over a trace."""
    report = NarrownessReport(benchmark=trace.name)
    for uop in trace.uops:
        # Operand-level narrow dependence (Figure 1): every register source
        # with a known producer contributes one operand observation.
        for index, producer in enumerate(uop.producer_uids):
            if index >= len(uop.src_values):
                continue
            report.total_register_operands += 1
            if is_narrow(uop.src_values[index], narrow_width):
                report.narrow_dependent_operands += 1

        # §1 breakdown over plain ALU instructions with register sources.
        if uop.info.op_class is OpClass.ALU and uop.srcs and uop.src_values:
            report.alu_total += 1
            narrow_srcs = sum(1 for v in uop.src_values if is_narrow(v, narrow_width))
            result_narrow = uop.result_width <= narrow_width
            if narrow_srcs >= 2 or (narrow_srcs == len(uop.src_values) and narrow_srcs >= 2):
                if result_narrow:
                    report.alu_two_narrow_narrow_result += 1
                else:
                    report.alu_two_narrow_wide_result += 1
            elif narrow_srcs == 1:
                report.alu_one_narrow_operand += 1
    return report


def narrow_dependence_fraction(trace: Trace, narrow_width: int = NARROW_WIDTH) -> float:
    """Shortcut for Figure 1's per-application metric."""
    return analyze_narrowness(trace, narrow_width).narrow_dependence_fraction


def operand_narrowness_breakdown(trace: Trace,
                                 narrow_width: int = NARROW_WIDTH) -> Dict[str, float]:
    """The §1 three-way ALU operand breakdown as a dictionary of fractions."""
    report = analyze_narrowness(trace, narrow_width)
    return {
        "one_narrow_operand": report.one_narrow_fraction,
        "two_narrow_wide_result": report.two_narrow_wide_fraction,
        "two_narrow_narrow_result": report.two_narrow_narrow_fraction,
    }
