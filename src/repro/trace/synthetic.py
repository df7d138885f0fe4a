"""Synthetic trace generation by functional emulation of loop-nest programs.

The generator substitutes for the paper's proprietary IA-32 traces.  It first
builds a *static program* for a benchmark profile — a set of loop templates,
each a short basic-block body of parameterised uops over a small register
working set — and then *functionally emulates* that program, emitting a
:class:`~repro.trace.trace.Trace` of MicroOps with concrete values.

Because values flow through an architectural register file and through real
opcode semantics (:func:`repro.isa.opcodes.execute`), every property the
steering policies inspect is genuine:

* operand and result widths arise from the emulated dataflow;
* the FLAGS register is written by the actual compare/arith uops, so the BR
  scheme's "flag producer" relation is real;
* load addresses are ``base + index`` sums of emulated register contents, so
  carry propagation past bit 7 (the CR scheme's condition) is real;
* loop counters increment and compare for real, so their narrowness and the
  taken/not-taken pattern of loop branches is real.

The profile parameters only shape *distributions* (how often data is narrow,
how long loops run, how much pointer arithmetic there is); they never inject
an answer directly.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import Opcode, execute, opcode_info
from repro.isa.registers import ArchReg, RegisterFile
from repro.isa.uop import MicroOp
from repro.isa.values import MACHINE_WIDTH, NARROW_WIDTH, truncate
from repro.trace.profiles import BenchmarkProfile
from repro.trace.trace import Trace

#: Registers used to hold wide base pointers inside generated loops.
_POINTER_REGS: Tuple[ArchReg, ...] = (ArchReg.ESI, ArchReg.EDI, ArchReg.EBP)

#: Registers used to hold loop data values.
_DATA_REGS: Tuple[ArchReg, ...] = (ArchReg.EAX, ArchReg.EBX, ArchReg.EDX,
                                   ArchReg.TMP0, ArchReg.TMP1)

#: Register used as the loop induction variable.
_COUNTER_REG: ArchReg = ArchReg.ECX

#: Register used to hold the loop bound.
_BOUND_REG: ArchReg = ArchReg.TMP2

_ALU_OPCODES: Tuple[Opcode, ...] = (Opcode.ADD, Opcode.SUB, Opcode.AND,
                                    Opcode.OR, Opcode.XOR)
_SHIFT_OPCODES: Tuple[Opcode, ...] = (Opcode.SHL, Opcode.SHR, Opcode.SAR)
_FP_OPCODES: Tuple[Opcode, ...] = (Opcode.FADD, Opcode.FMUL, Opcode.FLOAD,
                                   Opcode.FSTORE, Opcode.FDIV)


@dataclass
class _StaticUop:
    """One position of a loop body in the static program."""

    pc: int
    kind: str
    opcode: Opcode
    dest: Optional[ArchReg] = None
    srcs: Tuple[ArchReg, ...] = ()
    imm: Optional[int] = None
    narrow_template: bool = True
    byte: bool = False


@dataclass
class _LoopTemplate:
    """A loop nest of the static program: prologue + body executed per trip."""

    index: int
    pc_base: int
    prologue: List[_StaticUop] = field(default_factory=list)
    body: List[_StaticUop] = field(default_factory=list)
    base_value: int = 0
    trip_mean: float = 32.0


class SyntheticTraceGenerator:
    """Generates dataflow-consistent uop traces from a benchmark profile.

    Parameters
    ----------
    profile:
        The benchmark profile describing distributions.
    seed:
        RNG seed; the same (profile, seed) pair always yields the same trace.
    narrow_width:
        Width in bits below which a value counts as narrow (8 in the paper).
    """

    def __init__(self, profile: BenchmarkProfile, seed: int = 0,
                 narrow_width: int = NARROW_WIDTH) -> None:
        self.profile = profile
        self.seed = seed
        self.narrow_width = narrow_width
        # zlib.crc32 is stable across processes (unlike ``hash`` on strings),
        # so the same (profile, seed) pair always yields the same trace.
        self._rng = random.Random(seed ^ zlib.crc32(profile.name.encode("utf-8")))
        self._regs = RegisterFile()
        self._producers: Dict[ArchReg, Optional[int]] = {r: None for r in ArchReg}
        self._flags_producer: Optional[int] = None
        self._uid = 0
        self._loops = self._build_static_program()

    # ------------------------------------------------------------------ API
    def generate(self, num_uops: int, name: Optional[str] = None) -> Trace:
        """Generate a trace of (at least) ``num_uops`` micro-operations.

        Generation stops at the first loop-nest boundary after ``num_uops``
        uops have been emitted, so the returned trace can be slightly longer
        than requested but never truncates a loop body mid-iteration.
        """
        if num_uops <= 0:
            raise ValueError(f"num_uops must be positive, got {num_uops}")
        trace = Trace(name=name or self.profile.name, seed=self.seed,
                      static_pcs=sum(len(l.prologue) + len(l.body) for l in self._loops))
        while len(trace.uops) < num_uops:
            loop = self._rng.choice(self._loops)
            self._emit_loop(loop, trace)
        return trace

    # -------------------------------------------------------- static program
    def _build_static_program(self) -> List[_LoopTemplate]:
        profile = self.profile
        mix = profile.mix.normalized()
        loops: List[_LoopTemplate] = []
        for loop_index in range(profile.static_loops):
            pc_base = 0x0040_0000 + loop_index * 0x400
            loop = _LoopTemplate(index=loop_index, pc_base=pc_base)
            loop.trip_mean = max(2.0, self._rng.gauss(profile.loop_trip_mean,
                                                      profile.loop_trip_mean * 0.4))
            # Base pointer for this loop's memory region.  With probability
            # ``aligned_base_fraction`` the base's low byte is small, so
            # base+offset rarely carries past bit 7 (the CR case, Fig. 10).
            region = 0x0800_0000 + (loop_index * 0x0010_0000)
            if self._rng.random() < profile.aligned_base_fraction:
                low = self._rng.randrange(0, 0x30)
            else:
                low = self._rng.randrange(0x60, 0x100)
            loop.base_value = truncate(region | low)
            loop.prologue = self._build_prologue(loop)
            loop.body = self._build_body(loop, mix)
            loops.append(loop)
        return loops

    def _build_prologue(self, loop: _LoopTemplate) -> List[_StaticUop]:
        """Loop prologue: materialise the base pointer, bound and counter."""
        pc = loop.pc_base
        prologue = [
            _StaticUop(pc=pc, kind="init_base", opcode=Opcode.MOVI,
                       dest=self._pointer_reg(loop), imm=loop.base_value,
                       narrow_template=False),
            _StaticUop(pc=pc + 4, kind="init_bound", opcode=Opcode.MOVI,
                       dest=_BOUND_REG, imm=0,  # filled per entry
                       narrow_template=True),
            _StaticUop(pc=pc + 8, kind="init_counter", opcode=Opcode.MOVI,
                       dest=_COUNTER_REG, imm=0, narrow_template=True),
        ]
        return prologue

    def _pointer_reg(self, loop: _LoopTemplate) -> ArchReg:
        return _POINTER_REGS[loop.index % len(_POINTER_REGS)]

    def _build_body(self, loop: _LoopTemplate, mix) -> List[_StaticUop]:
        """Build the loop body templates according to the instruction mix."""
        profile = self.profile
        rng = self._rng
        body: List[_StaticUop] = []
        pc = loop.pc_base + 0x40
        base_reg = self._pointer_reg(loop)

        # The loop overhead (inc counter, cmp, branch) occupies 3 slots of the
        # body; the remaining slots are filled by sampling the mix.
        body_size = max(4, int(round(profile.loop_body_size)))
        work_slots = max(1, body_size - 3)

        # Normalise the non-branch portion of the mix for slot filling.
        weights = {
            "load": mix.load,
            "store": mix.store,
            "alu": mix.alu,
            "mul": mix.mul,
            "div": mix.div,
            "fp": mix.fp,
            "data_branch": max(0.0, mix.cond_branch - 1.0 / body_size),
            "jump": mix.uncond_branch,
        }
        total_weight = sum(weights.values()) or 1.0
        kinds = list(weights)
        probs = [weights[k] / total_weight for k in kinds]

        last_loaded_reg = _DATA_REGS[0]
        for slot in range(work_slots):
            kind = rng.choices(kinds, probs)[0]
            dest = _DATA_REGS[slot % len(_DATA_REGS)]
            if kind == "load":
                byte = rng.random() < profile.byte_load_fraction
                narrow_template = byte or rng.random() < profile.narrow_data_fraction
                # Loads address the loop's region either through a small
                # immediate offset (structure-field style accesses, the
                # common case per ``small_offset_fraction``) or through the
                # loop counter (array indexing).  Field-style accesses add a
                # small constant to a wide base, which is the CR scheme's
                # motivating pattern (Figure 10).
                if rng.random() < profile.small_offset_fraction:
                    offset_imm = rng.randrange(0, 0x40) & ~0x3
                    body.append(_StaticUop(pc=pc, kind="load",
                                           opcode=Opcode.LOADB if byte else Opcode.LOAD,
                                           dest=dest, srcs=(base_reg,),
                                           imm=offset_imm,
                                           narrow_template=narrow_template, byte=byte))
                else:
                    body.append(_StaticUop(pc=pc, kind="load",
                                           opcode=Opcode.LOADB if byte else Opcode.LOAD,
                                           dest=dest, srcs=(base_reg, _COUNTER_REG),
                                           narrow_template=narrow_template, byte=byte))
                last_loaded_reg = dest
            elif kind == "store":
                body.append(_StaticUop(pc=pc, kind="store", opcode=Opcode.STORE,
                                       srcs=(base_reg, _COUNTER_REG, last_loaded_reg)))
            elif kind == "alu":
                body.append(self._build_alu_template(pc, dest, base_reg,
                                                     last_loaded_reg))
            elif kind == "mul":
                body.append(_StaticUop(pc=pc, kind="mul", opcode=Opcode.MUL,
                                       dest=dest, srcs=(last_loaded_reg, _COUNTER_REG)))
            elif kind == "div":
                body.append(_StaticUop(pc=pc, kind="div", opcode=Opcode.DIV,
                                       dest=dest, srcs=(last_loaded_reg, _BOUND_REG)))
            elif kind == "fp":
                body.append(_StaticUop(pc=pc, kind="fp",
                                       opcode=rng.choice(_FP_OPCODES),
                                       dest=ArchReg.TMP3, srcs=(base_reg, _COUNTER_REG)))
            elif kind == "data_branch":
                # Compare a data value against a narrow threshold, then
                # branch on the outcome: the canonical BR-scheme opportunity.
                body.append(_StaticUop(pc=pc, kind="cmp_data", opcode=Opcode.CMP,
                                       srcs=(last_loaded_reg,),
                                       imm=rng.randrange(1, 1 << self.narrow_width)))
                pc += 4
                body.append(_StaticUop(pc=pc, kind="br_data", opcode=Opcode.BR_COND))
            else:  # jump
                body.append(_StaticUop(pc=pc, kind="jump", opcode=Opcode.BR_UNCOND))
            pc += 4

        # Loop overhead: induction variable update, compare, back edge.
        body.append(_StaticUop(pc=pc, kind="inc", opcode=Opcode.INC,
                               dest=_COUNTER_REG, srcs=(_COUNTER_REG,)))
        body.append(_StaticUop(pc=pc + 4, kind="cmp_counter", opcode=Opcode.CMP,
                               srcs=(_COUNTER_REG, _BOUND_REG)))
        body.append(_StaticUop(pc=pc + 8, kind="br_loop", opcode=Opcode.BR_COND))
        return body

    def _build_alu_template(self, pc: int, dest: ArchReg, base_reg: ArchReg,
                            data_reg: ArchReg) -> _StaticUop:
        """Build an ALU template honouring the narrow-consumer-locality knob."""
        profile = self.profile
        rng = self._rng
        opcode = rng.choice(_ALU_OPCODES if rng.random() < 0.85 else _SHIFT_OPCODES)
        if rng.random() < profile.narrow_consumer_locality:
            # Narrow data manipulated by further data ops: second operand is
            # another data register or a narrow immediate.
            if rng.random() < 0.5:
                return _StaticUop(pc=pc, kind="alu_data", opcode=opcode, dest=dest,
                                  srcs=(data_reg,),
                                  imm=rng.randrange(0, 1 << self.narrow_width))
            other = rng.choice(_DATA_REGS)
            return _StaticUop(pc=pc, kind="alu_data", opcode=opcode, dest=dest,
                              srcs=(data_reg, other))
        if rng.random() < profile.pointer_arith_fraction:
            # Pure pointer arithmetic: wide in, wide out.
            return _StaticUop(pc=pc, kind="alu_ptr", opcode=Opcode.ADD, dest=base_reg,
                              srcs=(base_reg,), imm=rng.choice((4, 8, 16, 32, 64)),
                              narrow_template=False)
        # Narrow value used for addressing/indexing: narrow data combined with
        # a wide pointer, producing a wide result (the copy-heavy pattern that
        # hurts bzip2 under plain 8-8-8 steering).
        return _StaticUop(pc=pc, kind="alu_index", opcode=Opcode.ADD, dest=ArchReg.TMP3,
                          srcs=(base_reg, data_reg), narrow_template=False)

    # ------------------------------------------------------------- emulation
    def _emit_loop(self, loop: _LoopTemplate, trace: Trace) -> None:
        profile = self.profile
        rng = self._rng
        trip = max(1, int(rng.expovariate(1.0 / loop.trip_mean)) + 1)
        # Fill in the per-entry bound immediate so the counter/bound compare
        # and branch outcome are architecturally real.
        for static in loop.prologue:
            if static.kind == "init_bound":
                self._emit(static, trace, imm_override=trip)
            else:
                self._emit(static, trace)
        for iteration in range(trip):
            for static in loop.body:
                self._emit(static, trace, loop=loop, iteration=iteration, trip=trip)

    def _emit(self, static: _StaticUop, trace: Trace, *,
              loop: Optional[_LoopTemplate] = None, iteration: int = 0,
              trip: int = 1, imm_override: Optional[int] = None) -> None:
        rng = self._rng
        profile = self.profile
        opcode = static.opcode
        info = opcode_info(opcode)
        imm = imm_override if imm_override is not None else static.imm

        srcs = static.srcs
        src_values = tuple(self._regs.read(r) for r in srcs)
        producer_uids = tuple(self._producers[r] for r in srcs)

        dest = static.dest
        result: Optional[int] = None
        flags_value: Optional[int] = None
        mem_addr: Optional[int] = None
        mem_size = 1 if static.byte else 4
        is_taken = False

        if static.kind in ("init_base", "init_bound", "init_counter"):
            result, flags_value = execute(Opcode.MOVI, 0, imm or 0)
        elif static.kind == "load":
            base = src_values[0]
            index = src_values[1] if len(src_values) > 1 else (imm or 0)
            mem_addr = truncate(base + index)
            result = self._sample_load_value(static)
            if static.byte:
                result &= 0xFF
        elif static.kind == "store":
            base = src_values[0]
            index = src_values[1] if len(src_values) > 1 else (imm or 0)
            mem_addr = truncate(base + index)
        elif static.kind in ("cmp_data", "cmp_counter"):
            a = src_values[0]
            b = imm if len(src_values) < 2 else src_values[1]
            _, flags_value = execute(Opcode.CMP, a, b if b is not None else 0)
        elif static.kind == "br_loop":
            # Loop back edge: taken while the counter has not reached the bound.
            counter = self._regs.read(_COUNTER_REG)
            bound = self._regs.read(_BOUND_REG)
            is_taken = counter < bound
        elif static.kind == "br_data":
            flags = self._regs.read(ArchReg.FLAGS)
            is_taken = bool(flags & 0x2)  # ZF
        elif static.kind == "jump":
            is_taken = True
        elif static.kind == "fp":
            result = None if not info.has_dest else 0
        elif info.has_dest or info.writes_flags:
            a = src_values[0] if src_values else 0
            if imm is not None and len(src_values) < 2:
                b = imm
            else:
                b = src_values[1] if len(src_values) > 1 else 0
            result, flags_value = execute(opcode, a, b)
            if not info.has_dest:
                result = None

        if static.kind.startswith("br") or static.kind == "jump":
            srcs = (ArchReg.FLAGS,) if opcode == Opcode.BR_COND else ()
            src_values = tuple(self._regs.read(r) for r in srcs)
            producer_uids = tuple(self._producers[r] for r in srcs)

        uop = MicroOp(
            uid=self._uid,
            pc=static.pc,
            opcode=opcode,
            srcs=srcs,
            dest=dest if info.has_dest else None,
            imm=imm,
            src_values=src_values,
            result_value=result if info.has_dest else None,
            flags_value=flags_value if info.writes_flags else None,
            mem_addr=mem_addr,
            mem_size=mem_size,
            is_taken=is_taken,
            producer_uids=producer_uids,
            flags_producer_uid=self._flags_producer if info.reads_flags else None,
        )
        trace.uops.append(uop)

        # Architectural update.
        if info.has_dest and dest is not None and result is not None:
            self._regs.write(dest, result)
            self._producers[dest] = uop.uid
        if info.writes_flags and flags_value is not None:
            self._regs.write(ArchReg.FLAGS, flags_value)
            self._producers[ArchReg.FLAGS] = uop.uid
            self._flags_producer = uop.uid
        self._uid += 1

    def _sample_load_value(self, static: _StaticUop) -> int:
        """Sample a loaded value honouring per-PC width locality."""
        rng = self._rng
        profile = self.profile
        narrow = (rng.random() < profile.width_locality) == static.narrow_template
        if narrow:
            return rng.randrange(0, 1 << self.narrow_width)
        return rng.randrange(1 << self.narrow_width, 1 << (MACHINE_WIDTH - 1))


class GenerationStats:
    """Process-wide trace-generation counter.

    The cross-job trace store's contract is that a sweep generates each
    distinct (profile, length, seed, slicing) trace exactly once; this
    counter is what the counting tests assert against.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


#: Incremented on every :func:`generate_trace` call in this process.
GENERATION_STATS = GenerationStats()


def generate_trace(profile: BenchmarkProfile, num_uops: int, seed: int = 0,
                   name: Optional[str] = None) -> Trace:
    """Convenience wrapper: build a generator and produce one trace.

    The width of the profile's "narrow" data band follows
    ``profile.data_width`` (8 bits for the SPEC profiles, so existing traces
    are bit-identical; 16 produces halfword-heavy workloads for asymmetric
    helper-mix exploration).
    """
    GENERATION_STATS.count += 1
    return SyntheticTraceGenerator(
        profile, seed=seed,
        narrow_width=profile.data_width).generate(num_uops, name=name)
