"""Micro-operation opcode vocabulary, functional-unit classes and semantics.

The vocabulary is the subset of the IA-32 internal uop set that the paper's
steering policies care about:

* integer ALU / logic / shift operations (candidates for the helper cluster),
* multiply / divide (excluded from the CR scheme, §3.5),
* address generation + load / store (the CR motivating example, Figure 10,
  and the LR load-replication scheme, §3.4),
* conditional / unconditional branches (the BR scheme, §3.3),
* floating point placeholder operations (only the wide backend has FPUs,
  §2.1),
* the inter-cluster ``COPY`` uop of the Canal/Parcerisa/González scheme, and
* the ``SPLIT`` chunk operations produced by the IR scheme (§3.7).

Each opcode carries its execution latency in *wide-cluster* cycles; the
clocking model (:mod:`repro.pipeline.clocking`) converts these to fast cycles
per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum, auto
from typing import Callable, Dict, Tuple

from repro.isa.registers import Flags
from repro.isa.values import MACHINE_WIDTH, to_signed, truncate


class OpClass(IntEnum):
    """Coarse instruction classes used by steering policies and statistics."""

    ALU = auto()          # simple integer arithmetic / logic / shifts / moves
    MUL = auto()          # integer multiply
    DIV = auto()          # integer divide
    AGU = auto()          # address generation
    LOAD = auto()         # memory load (includes its AGU add)
    STORE = auto()        # memory store (address + data)
    BRANCH = auto()       # conditional branch (reads FLAGS)
    JUMP = auto()         # unconditional branch / call / return
    FP = auto()           # floating point (wide cluster only)
    COPY = auto()         # inter-cluster copy uop
    NOP = auto()          # no operation / fence


class FunctionalUnit(IntEnum):
    """Functional unit kinds present in a backend."""

    IALU = auto()
    IMUL = auto()
    IDIV = auto()
    AGU = auto()
    BRU = auto()
    FPU = auto()
    COPY = auto()


class Opcode(IntEnum):
    """Concrete uop opcodes."""

    # ALU
    ADD = 0
    SUB = 1
    AND = 2
    OR = 3
    XOR = 4
    SHL = 5
    SHR = 6
    SAR = 7
    MOV = 8
    MOVI = 9          # move immediate
    CMP = 10          # compare: subtract, write FLAGS only
    TEST = 11         # and, write FLAGS only
    INC = 12
    DEC = 13
    NEG = 14
    NOT = 15
    # multiply / divide
    MUL = 16
    IMUL = 17
    DIV = 18
    IDIV = 19
    # memory
    LEA = 20          # address generation without memory access
    LOAD = 21         # load 32-bit
    LOADB = 22        # load byte (zero-extended)
    STORE = 23
    STOREB = 24
    # control
    BR_COND = 25      # conditional branch on FLAGS
    BR_UNCOND = 26
    CALL = 27
    RET = 28
    # floating point placeholders
    FADD = 29
    FMUL = 30
    FDIV = 31
    FLOAD = 32
    FSTORE = 33
    # cluster-internal
    COPY = 34         # inter-cluster register copy
    SPLIT_ADD = 35    # 8-bit chunk of a split wide add (IR scheme)
    SPLIT_LOGIC = 36  # 8-bit chunk of a split wide logic op (IR scheme)
    NOP = 37


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of an opcode.

    Attributes
    ----------
    op_class:
        Coarse class used by steering and statistics.
    unit:
        Functional unit the uop issues to.
    latency:
        Execution latency in wide-cluster cycles (issue to result ready).
    writes_flags:
        Whether the uop writes the FLAGS register.
    reads_flags:
        Whether the uop reads the FLAGS register (conditional branches).
    has_dest:
        Whether the uop produces an integer register result.
    is_memory:
        Whether the uop accesses the data memory hierarchy.
    splittable:
        Whether the IR scheme may split this uop into narrow chunks (§3.7):
        only simple adds/subs and bitwise logic are chunk-decomposable.
    cr_eligible:
        Whether the CR scheme may consider this uop (multiply/divide are
        excluded because the carry signal cannot flag their mispredictions).
    is_load / is_store / is_branch / is_cond_branch:
        Class predicates, derived from ``op_class`` once per opcode.
    """

    op_class: OpClass
    unit: FunctionalUnit
    latency: int
    writes_flags: bool = False
    reads_flags: bool = False
    has_dest: bool = True
    is_memory: bool = False
    splittable: bool = False
    cr_eligible: bool = False
    is_load: bool = field(init=False)
    is_store: bool = field(init=False)
    is_branch: bool = field(init=False)
    is_cond_branch: bool = field(init=False)

    def __post_init__(self) -> None:
        op_class = self.op_class
        object.__setattr__(self, "is_load", op_class == OpClass.LOAD)
        object.__setattr__(self, "is_store", op_class == OpClass.STORE)
        object.__setattr__(self, "is_branch",
                           op_class in (OpClass.BRANCH, OpClass.JUMP))
        object.__setattr__(self, "is_cond_branch", op_class == OpClass.BRANCH)


OPCODE_INFO: Dict[Opcode, OpcodeInfo] = {
    Opcode.ADD: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, splittable=True, cr_eligible=True),
    Opcode.SUB: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, splittable=True, cr_eligible=True),
    Opcode.AND: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, splittable=True, cr_eligible=True),
    Opcode.OR: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, splittable=True, cr_eligible=True),
    Opcode.XOR: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, splittable=True, cr_eligible=True),
    Opcode.SHL: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True),
    Opcode.SHR: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True),
    Opcode.SAR: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True),
    Opcode.MOV: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1),
    Opcode.MOVI: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1),
    Opcode.CMP: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, has_dest=False, splittable=True, cr_eligible=True),
    Opcode.TEST: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, has_dest=False, splittable=True),
    Opcode.INC: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, splittable=True, cr_eligible=True),
    Opcode.DEC: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True, splittable=True, cr_eligible=True),
    Opcode.NEG: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True),
    Opcode.NOT: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, splittable=True),
    Opcode.MUL: OpcodeInfo(OpClass.MUL, FunctionalUnit.IMUL, 4, writes_flags=True),
    Opcode.IMUL: OpcodeInfo(OpClass.MUL, FunctionalUnit.IMUL, 4, writes_flags=True),
    Opcode.DIV: OpcodeInfo(OpClass.DIV, FunctionalUnit.IDIV, 20, writes_flags=True),
    Opcode.IDIV: OpcodeInfo(OpClass.DIV, FunctionalUnit.IDIV, 20, writes_flags=True),
    Opcode.LEA: OpcodeInfo(OpClass.AGU, FunctionalUnit.AGU, 1, cr_eligible=True),
    Opcode.LOAD: OpcodeInfo(OpClass.LOAD, FunctionalUnit.AGU, 1, is_memory=True, cr_eligible=True),
    Opcode.LOADB: OpcodeInfo(OpClass.LOAD, FunctionalUnit.AGU, 1, is_memory=True, cr_eligible=True),
    Opcode.STORE: OpcodeInfo(OpClass.STORE, FunctionalUnit.AGU, 1, has_dest=False, is_memory=True, splittable=True, cr_eligible=True),
    Opcode.STOREB: OpcodeInfo(OpClass.STORE, FunctionalUnit.AGU, 1, has_dest=False, is_memory=True, splittable=True, cr_eligible=True),
    Opcode.BR_COND: OpcodeInfo(OpClass.BRANCH, FunctionalUnit.BRU, 1, reads_flags=True, has_dest=False),
    Opcode.BR_UNCOND: OpcodeInfo(OpClass.JUMP, FunctionalUnit.BRU, 1, has_dest=False),
    Opcode.CALL: OpcodeInfo(OpClass.JUMP, FunctionalUnit.BRU, 1, has_dest=False),
    Opcode.RET: OpcodeInfo(OpClass.JUMP, FunctionalUnit.BRU, 1, has_dest=False),
    Opcode.FADD: OpcodeInfo(OpClass.FP, FunctionalUnit.FPU, 4),
    Opcode.FMUL: OpcodeInfo(OpClass.FP, FunctionalUnit.FPU, 6),
    Opcode.FDIV: OpcodeInfo(OpClass.FP, FunctionalUnit.FPU, 20),
    Opcode.FLOAD: OpcodeInfo(OpClass.FP, FunctionalUnit.FPU, 1, is_memory=True),
    Opcode.FSTORE: OpcodeInfo(OpClass.FP, FunctionalUnit.FPU, 1, has_dest=False, is_memory=True),
    Opcode.COPY: OpcodeInfo(OpClass.COPY, FunctionalUnit.COPY, 1),
    Opcode.SPLIT_ADD: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1, writes_flags=True),
    Opcode.SPLIT_LOGIC: OpcodeInfo(OpClass.ALU, FunctionalUnit.IALU, 1),
    Opcode.NOP: OpcodeInfo(OpClass.NOP, FunctionalUnit.IALU, 1, has_dest=False),
}


def opcode_info(opcode: Opcode) -> OpcodeInfo:
    """Look up the static :class:`OpcodeInfo` for an opcode.

    This is on the simulator's per-uop hot path, so the common case (an
    actual :class:`Opcode` member) is a single dict probe; raw values are
    coerced through the enum only on a miss.
    """
    info = OPCODE_INFO.get(opcode)
    if info is None:
        info = OPCODE_INFO[Opcode(opcode)]
    return info


# ---------------------------------------------------------------------------
# Functional semantics
# ---------------------------------------------------------------------------

def _flags_for_result(result: int, carry: bool = False, overflow: bool = False) -> int:
    result = truncate(result)
    zf = result == 0
    sf = bool(result & (1 << (MACHINE_WIDTH - 1)))
    return Flags.pack(carry, zf, sf, overflow)


def _exec_add(a: int, b: int) -> Tuple[int, int]:
    total = truncate(a) + truncate(b)
    result = truncate(total)
    carry = total > truncate(total)
    overflow = ((a ^ result) & (b ^ result)) >> (MACHINE_WIDTH - 1) & 1 == 1
    return result, _flags_for_result(result, carry, overflow)


def _exec_sub(a: int, b: int) -> Tuple[int, int]:
    result = truncate(truncate(a) - truncate(b))
    carry = truncate(a) < truncate(b)  # borrow
    overflow = ((a ^ b) & (a ^ result)) >> (MACHINE_WIDTH - 1) & 1 == 1
    return result, _flags_for_result(result, carry, overflow)


def _exec_logic(fn: Callable[[int, int], int]) -> Callable[[int, int], Tuple[int, int]]:
    def run(a: int, b: int) -> Tuple[int, int]:
        result = truncate(fn(truncate(a), truncate(b)))
        return result, _flags_for_result(result)

    return run


def _exec_shift(fn: Callable[[int, int], int]) -> Callable[[int, int], Tuple[int, int]]:
    def run(a: int, b: int) -> Tuple[int, int]:
        shamt = truncate(b) & 0x1F
        result = truncate(fn(truncate(a), shamt))
        return result, _flags_for_result(result)

    return run


def _exec_sar(a: int, b: int) -> Tuple[int, int]:
    shamt = truncate(b) & 0x1F
    result = truncate(to_signed(a) >> shamt)
    return result, _flags_for_result(result)


def _exec_mul(a: int, b: int) -> Tuple[int, int]:
    result = truncate(truncate(a) * truncate(b))
    return result, _flags_for_result(result)


def _exec_div(a: int, b: int) -> Tuple[int, int]:
    divisor = truncate(b)
    if divisor == 0:
        # Architectural divide-by-zero would fault; the trace generator never
        # emits it, but be total for robustness.
        return 0, _flags_for_result(0)
    result = truncate(truncate(a) // divisor)
    return result, _flags_for_result(result)


#: Semantics table: opcode -> callable(src_a, src_b) -> (result, flags_value).
#: Opcodes with no integer computation (branches, stores, FP, NOP) are absent.
SEMANTICS: Dict[Opcode, Callable[[int, int], Tuple[int, int]]] = {
    Opcode.ADD: _exec_add,
    Opcode.SUB: _exec_sub,
    Opcode.AND: _exec_logic(lambda a, b: a & b),
    Opcode.OR: _exec_logic(lambda a, b: a | b),
    Opcode.XOR: _exec_logic(lambda a, b: a ^ b),
    Opcode.SHL: _exec_shift(lambda a, s: a << s),
    Opcode.SHR: _exec_shift(lambda a, s: a >> s),
    Opcode.SAR: _exec_sar,
    Opcode.MOV: _exec_logic(lambda a, b: a),
    Opcode.MOVI: _exec_logic(lambda a, b: b),
    Opcode.CMP: _exec_sub,
    Opcode.TEST: _exec_logic(lambda a, b: a & b),
    Opcode.INC: lambda a, b: _exec_add(a, 1),
    Opcode.DEC: lambda a, b: _exec_sub(a, 1),
    Opcode.NEG: lambda a, b: _exec_sub(0, a),
    Opcode.NOT: _exec_logic(lambda a, b: ~a),
    Opcode.MUL: _exec_mul,
    Opcode.IMUL: _exec_mul,
    Opcode.DIV: _exec_div,
    Opcode.IDIV: _exec_div,
    Opcode.LEA: _exec_add,
    Opcode.SPLIT_ADD: _exec_add,
    Opcode.SPLIT_LOGIC: _exec_logic(lambda a, b: a & b),
    Opcode.COPY: _exec_logic(lambda a, b: a),
}


def execute(opcode: Opcode, src_a: int, src_b: int = 0) -> Tuple[int, int]:
    """Execute an opcode's integer semantics.

    Returns ``(result, flags_value)``.  Opcodes with no integer semantics
    return ``(0, 0)``.  ``Opcode`` is an ``IntEnum``, so a member and its
    integer value find the same table entry without enum coercion.
    """
    fn = SEMANTICS.get(opcode)
    if fn is None:
        return 0, 0
    return fn(src_a, src_b)
