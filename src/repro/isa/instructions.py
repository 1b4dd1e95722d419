"""Instruction set definition for the mini-ISA.

Design notes
------------
The ISA is a 32-register, 32-bit, load/store machine modelled on MIPS (the
paper synthesizes a MIPS core for its hardware numbers) with a handful of
extras that the UnSync/Reunion evaluation needs:

* ``TRAP``     — a software trap. Serializing: Reunion must drain and verify
  the in-flight fingerprint before the trap may commit.
* ``MEMBAR``   — memory barrier. Serializing for the same reason.
* ``SWAP``     — an atomic register<->memory exchange. Non-idempotent, hence
  serializing under Reunion (re-executing it after a rollback would corrupt
  memory), and the canonical example the Reunion paper itself gives.
* ``HALT``     — stops the program; simulators treat it as the end of the
  instruction stream.

Every opcode is tagged with an :class:`InstrClass`, which is what the
pipeline model keys its latencies, queue routing, and serializing behaviour
off. The functional semantics live in :meth:`Instruction.execute` so that
the golden (architectural) executor and the out-of-order core share one
source of truth for "what does this instruction *do*".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Optional, Tuple

#: Number of architectural general-purpose registers. ``r0`` is hard-wired
#: to zero, as in MIPS.
REG_COUNT = 32

#: Modulus for 32-bit register arithmetic.
WORD_MASK = 0xFFFFFFFF


class InstrClass(enum.Enum):
    """Broad execution class of an instruction.

    The pipeline uses the class to pick a functional unit and latency; the
    redundancy layers use it to decide serializing behaviour and store
    routing.
    """

    ALU = "alu"            # single-cycle integer ops
    MUL = "mul"            # pipelined multiplier
    DIV = "div"            # unpipelined divider
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"      # conditional branches
    JUMP = "jump"          # unconditional jumps / calls / returns
    SERIALIZING = "serializing"  # trap / membar / atomic swap
    NOP = "nop"
    HALT = "halt"


class Opcode(enum.Enum):
    """All opcodes of the mini-ISA."""

    # --- register-register ALU ---
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"     # set-less-than (signed)
    SLTU = "sltu"   # set-less-than (unsigned)
    SLL = "sll"     # shift left logical (by register)
    SRL = "srl"     # shift right logical
    SRA = "sra"     # shift right arithmetic
    # --- multiply / divide ---
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # --- register-immediate ALU ---
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    LUI = "lui"     # load upper immediate
    # --- memory ---
    LW = "lw"
    LH = "lh"
    LB = "lb"
    SW = "sw"
    SH = "sh"
    SB = "sb"
    # --- control ---
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    J = "j"
    JAL = "jal"
    JR = "jr"
    # --- serializing ---
    TRAP = "trap"
    MEMBAR = "membar"
    SWAP = "swap"   # atomic exchange rd <-> mem[rs1+imm]
    # --- misc ---
    NOP = "nop"
    HALT = "halt"


#: Opcode -> instruction class.
OPCODE_CLASS = {
    Opcode.ADD: InstrClass.ALU,
    Opcode.SUB: InstrClass.ALU,
    Opcode.AND: InstrClass.ALU,
    Opcode.OR: InstrClass.ALU,
    Opcode.XOR: InstrClass.ALU,
    Opcode.NOR: InstrClass.ALU,
    Opcode.SLT: InstrClass.ALU,
    Opcode.SLTU: InstrClass.ALU,
    Opcode.SLL: InstrClass.ALU,
    Opcode.SRL: InstrClass.ALU,
    Opcode.SRA: InstrClass.ALU,
    Opcode.MUL: InstrClass.MUL,
    Opcode.DIV: InstrClass.DIV,
    Opcode.REM: InstrClass.DIV,
    Opcode.ADDI: InstrClass.ALU,
    Opcode.ANDI: InstrClass.ALU,
    Opcode.ORI: InstrClass.ALU,
    Opcode.XORI: InstrClass.ALU,
    Opcode.SLTI: InstrClass.ALU,
    Opcode.SLLI: InstrClass.ALU,
    Opcode.SRLI: InstrClass.ALU,
    Opcode.SRAI: InstrClass.ALU,
    Opcode.LUI: InstrClass.ALU,
    Opcode.LW: InstrClass.LOAD,
    Opcode.LH: InstrClass.LOAD,
    Opcode.LB: InstrClass.LOAD,
    Opcode.SW: InstrClass.STORE,
    Opcode.SH: InstrClass.STORE,
    Opcode.SB: InstrClass.STORE,
    Opcode.BEQ: InstrClass.BRANCH,
    Opcode.BNE: InstrClass.BRANCH,
    Opcode.BLT: InstrClass.BRANCH,
    Opcode.BGE: InstrClass.BRANCH,
    Opcode.J: InstrClass.JUMP,
    Opcode.JAL: InstrClass.JUMP,
    Opcode.JR: InstrClass.JUMP,
    Opcode.TRAP: InstrClass.SERIALIZING,
    Opcode.MEMBAR: InstrClass.SERIALIZING,
    Opcode.SWAP: InstrClass.SERIALIZING,
    Opcode.NOP: InstrClass.NOP,
    Opcode.HALT: InstrClass.HALT,
}

#: Width in bytes of each memory opcode's access.
MEM_WIDTH = {
    Opcode.LW: 4, Opcode.SW: 4, Opcode.SWAP: 4,
    Opcode.LH: 2, Opcode.SH: 2,
    Opcode.LB: 1, Opcode.SB: 1,
}

#: Functional-unit classes, as the pipeline's issue stage keys them.
#: Plain ints, so the per-instruction test is an int compare rather than
#: a chain of Enum identity tests. ``FU_SERIAL`` (TRAP, MEMBAR) takes no
#: unit slot; ``FU_SWAP`` takes a memory port.
FU_ALU, FU_MUL, FU_DIV, FU_LOAD, FU_STORE, FU_SWAP, FU_SERIAL = range(7)

_FU_OF_CLASS = {
    InstrClass.ALU: FU_ALU, InstrClass.NOP: FU_ALU, InstrClass.HALT: FU_ALU,
    InstrClass.BRANCH: FU_ALU, InstrClass.JUMP: FU_ALU,
    InstrClass.MUL: FU_MUL, InstrClass.DIV: FU_DIV,
    InstrClass.LOAD: FU_LOAD, InstrClass.STORE: FU_STORE,
    InstrClass.SERIALIZING: FU_SERIAL,
}


def is_serializing(op: Opcode) -> bool:
    """True for instructions that force fingerprint synchronization in Reunion."""
    return OPCODE_CLASS[op] is InstrClass.SERIALIZING


def _s32(value: int) -> int:
    """Interpret ``value`` (mod 2**32) as a signed 32-bit integer."""
    value &= WORD_MASK
    return value - 0x100000000 if value & 0x80000000 else value


def _u32(value: int) -> int:
    """Wrap ``value`` to an unsigned 32-bit integer."""
    return value & WORD_MASK


def _div32(a: int, b: int) -> int:
    if _s32(b) == 0:
        return 0
    return _u32(int(_s32(a) / _s32(b)))  # trunc toward zero


def _rem32(a: int, b: int) -> int:
    if _s32(b) == 0:
        return 0
    q = int(_s32(a) / _s32(b))
    return _u32(_s32(a) - q * _s32(b))


#: Per-opcode pure ALU/MUL/DIV semantics: ``fn(a, b) -> result``. ``b`` is
#: the second operand (rs2's value or the immediate — the caller selects).
#: Both :meth:`Instruction.alu_result` and the golden executor's dispatch
#: table index this, so there is exactly one definition of each opcode.
ALU_FUNCS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: lambda a, b: (a + b) & WORD_MASK,
    Opcode.ADDI: lambda a, b: (a + b) & WORD_MASK,
    Opcode.SUB: lambda a, b: (a - b) & WORD_MASK,
    Opcode.AND: lambda a, b: (a & b) & WORD_MASK,
    Opcode.ANDI: lambda a, b: (a & b) & WORD_MASK,
    Opcode.OR: lambda a, b: (a | b) & WORD_MASK,
    Opcode.ORI: lambda a, b: (a | b) & WORD_MASK,
    Opcode.XOR: lambda a, b: (a ^ b) & WORD_MASK,
    Opcode.XORI: lambda a, b: (a ^ b) & WORD_MASK,
    Opcode.NOR: lambda a, b: ~(a | b) & WORD_MASK,
    Opcode.SLT: lambda a, b: 1 if _s32(a) < _s32(b) else 0,
    Opcode.SLTI: lambda a, b: 1 if _s32(a) < _s32(b) else 0,
    Opcode.SLTU: lambda a, b: 1 if (a & WORD_MASK) < (b & WORD_MASK) else 0,
    Opcode.SLL: lambda a, b: (a << (b & 31)) & WORD_MASK,
    Opcode.SLLI: lambda a, b: (a << (b & 31)) & WORD_MASK,
    Opcode.SRL: lambda a, b: (a & WORD_MASK) >> (b & 31),
    Opcode.SRLI: lambda a, b: (a & WORD_MASK) >> (b & 31),
    Opcode.SRA: lambda a, b: (_s32(a) >> (b & 31)) & WORD_MASK,
    Opcode.SRAI: lambda a, b: (_s32(a) >> (b & 31)) & WORD_MASK,
    Opcode.MUL: lambda a, b: (_s32(a) * _s32(b)) & WORD_MASK,
    Opcode.DIV: _div32,
    Opcode.REM: _rem32,
    Opcode.LUI: lambda a, b: (b << 16) & WORD_MASK,
}

#: Per-opcode conditional-branch predicates, same single-source idea.
BRANCH_FUNCS: Dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: lambda a, b: (a & WORD_MASK) == (b & WORD_MASK),
    Opcode.BNE: lambda a, b: (a & WORD_MASK) != (b & WORD_MASK),
    Opcode.BLT: lambda a, b: _s32(a) < _s32(b),
    Opcode.BGE: lambda a, b: _s32(a) >= _s32(b),
}


@dataclass(frozen=True)  # simlint: off=SIM201 — cached_property needs __dict__
class Instruction:
    """One decoded instruction.

    Fields follow a three-operand convention: ``rd`` is the destination
    register (or the data register of a store / swap), ``rs1``/``rs2`` are
    sources, ``imm`` the immediate/offset/target. Unused fields are ``None``
    / 0 so that instances hash and compare cheaply.
    """

    op: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    #: Original source line (for diagnostics); excluded from equality.
    source: str = field(default="", compare=False)

    # ------------------------------------------------------------------
    # static properties
    # ------------------------------------------------------------------
    # ``cached_property`` (not ``property``): instruction objects are
    # shared across every dynamic execution of a static instruction, so
    # each of these decode-time facts is computed once per program, not
    # once per simulated instruction. The cache lives in the instance
    # ``__dict__`` and does not participate in equality or hashing.
    @cached_property
    def iclass(self) -> InstrClass:
        return OPCODE_CLASS[self.op]

    @cached_property
    def is_mem(self) -> bool:
        return self.iclass in (InstrClass.LOAD, InstrClass.STORE) or self.op is Opcode.SWAP

    @cached_property
    def is_store(self) -> bool:
        return self.iclass is InstrClass.STORE or self.op is Opcode.SWAP

    @cached_property
    def is_load(self) -> bool:
        return self.iclass is InstrClass.LOAD or self.op is Opcode.SWAP

    @cached_property
    def fu_class(self) -> int:
        """Functional-unit class (``FU_*``) the issue stage schedules on."""
        if self.op is Opcode.SWAP:
            return FU_SWAP
        return _FU_OF_CLASS[self.iclass]

    @cached_property
    def is_branch(self) -> bool:
        return self.iclass in (InstrClass.BRANCH, InstrClass.JUMP)

    @cached_property
    def is_serializing(self) -> bool:
        return self.iclass is InstrClass.SERIALIZING

    @cached_property
    def mem_width(self) -> int:
        """Access width in bytes (memory instructions only)."""
        return MEM_WIDTH.get(self.op, 0)

    @cached_property
    def srcs(self) -> Tuple[int, ...]:
        """Cached :meth:`src_regs` (dispatch-stage hot path)."""
        return self.src_regs()

    @cached_property
    def writes_reg(self) -> bool:
        """True when the instruction architecturally writes ``rd``.

        ``rd == 0`` writes are architectural no-ops (r0 is wired to zero)
        but are still *renamed* by the pipeline for simplicity.
        """
        if self.op in (Opcode.SW, Opcode.SH, Opcode.SB, Opcode.NOP,
                       Opcode.HALT, Opcode.TRAP, Opcode.MEMBAR,
                       Opcode.J, Opcode.JR,
                       Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            return False
        return self.rd is not None

    @cached_property
    def step(self) -> Callable[..., Any]:
        """Golden step handler, ``STEP_DISPATCH[op]`` resolved once per
        static instruction (the table lookup hashes an ``Enum``, which
        costs a Python-level call on every dynamic instruction)."""
        from repro.isa.golden import STEP_DISPATCH
        return STEP_DISPATCH[self.op]

    def __getstate__(self) -> Dict[str, Any]:
        # step handlers are closures: leave them out of pickles and let
        # the copy resolve its own on first use
        state = self.__dict__.copy()
        state.pop("step", None)
        return state

    def src_regs(self) -> Tuple[int, ...]:
        """Architectural source register numbers read by this instruction."""
        op = self.op
        if op in (Opcode.SW, Opcode.SH, Opcode.SB):
            # store: data register is rd by our convention, address base rs1
            return tuple(r for r in (self.rd, self.rs1) if r is not None)
        if op is Opcode.SWAP:
            return tuple(r for r in (self.rd, self.rs1) if r is not None)
        if op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            return tuple(r for r in (self.rs1, self.rs2) if r is not None)
        if op is Opcode.JR:
            return (self.rs1,) if self.rs1 is not None else ()
        srcs = []
        if self.rs1 is not None:
            srcs.append(self.rs1)
        if self.rs2 is not None:
            srcs.append(self.rs2)
        return tuple(srcs)

    # ------------------------------------------------------------------
    # functional semantics
    # ------------------------------------------------------------------
    def alu_result(self, a: int, b: int) -> int:
        """Pure ALU/MUL/DIV result for source values ``a`` (rs1) and ``b``.

        ``b`` is the second operand: rs2's value for register forms, the
        immediate for immediate forms (the caller selects). All arithmetic
        wraps to 32 bits; division by zero returns 0 (matching the
        simulator's trap-free semantics). Semantics live in
        :data:`ALU_FUNCS`, shared with the golden executor's dispatch table.
        """
        fn = ALU_FUNCS.get(self.op)
        if fn is None:
            raise ValueError(f"{self.op} has no ALU semantics")
        return fn(a, b)

    def branch_taken(self, a: int, b: int) -> bool:
        """Evaluate a conditional branch for source values ``a``, ``b``."""
        fn = BRANCH_FUNCS.get(self.op)
        if fn is None:
            raise ValueError(f"{self.op} is not a conditional branch")
        return fn(a, b)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.op.value]
        ops = []
        if self.rd is not None:
            ops.append(f"r{self.rd}")
        if self.rs1 is not None:
            ops.append(f"r{self.rs1}")
        if self.rs2 is not None:
            ops.append(f"r{self.rs2}")
        if self.imm:
            ops.append(str(self.imm))
        return parts[0] + (" " + ", ".join(ops) if ops else "")
