"""Unit tests for instruction semantics and metadata."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.isa.golden import STEP_DISPATCH
from repro.isa.instructions import (
    Instruction, InstrClass, MEM_WIDTH, Opcode, OPCODE_CLASS, REG_COUNT,
    is_serializing, _s32, _u32,
)


def ins(op, **kw):
    return Instruction(op, **kw)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------
def test_every_opcode_has_a_class():
    for op in Opcode:
        assert op in OPCODE_CLASS


def test_serializing_set():
    assert is_serializing(Opcode.TRAP)
    assert is_serializing(Opcode.MEMBAR)
    assert is_serializing(Opcode.SWAP)
    assert not is_serializing(Opcode.ADD)
    assert not is_serializing(Opcode.SW)


def test_mem_width_table():
    assert MEM_WIDTH[Opcode.LW] == 4
    assert MEM_WIDTH[Opcode.LH] == 2
    assert MEM_WIDTH[Opcode.SB] == 1
    assert MEM_WIDTH[Opcode.SWAP] == 4


def test_is_mem_flags():
    assert ins(Opcode.LW, rd=1, rs1=2).is_mem
    assert ins(Opcode.SW, rd=1, rs1=2).is_mem
    assert ins(Opcode.SWAP, rd=1, rs1=2).is_mem
    assert not ins(Opcode.ADD, rd=1, rs1=2, rs2=3).is_mem


def test_swap_is_both_load_and_store():
    swap = ins(Opcode.SWAP, rd=1, rs1=2)
    assert swap.is_load and swap.is_store


def test_branch_flags():
    assert ins(Opcode.BEQ, rs1=1, rs2=2, imm=4).is_branch
    assert ins(Opcode.J, imm=4).is_branch
    assert ins(Opcode.JR, rs1=31).is_branch
    assert not ins(Opcode.ADD, rd=1, rs1=1, rs2=1).is_branch


def test_writes_reg():
    assert ins(Opcode.ADD, rd=3, rs1=1, rs2=2).writes_reg
    assert ins(Opcode.LW, rd=3, rs1=1).writes_reg
    assert ins(Opcode.JAL, rd=31, imm=0).writes_reg
    assert ins(Opcode.SWAP, rd=3, rs1=1).writes_reg
    assert not ins(Opcode.SW, rd=3, rs1=1).writes_reg
    assert not ins(Opcode.BEQ, rs1=1, rs2=2).writes_reg
    assert not ins(Opcode.NOP).writes_reg
    assert not ins(Opcode.TRAP).writes_reg


def test_src_regs_store_reads_data_and_base():
    assert set(ins(Opcode.SW, rd=3, rs1=1).src_regs()) == {3, 1}


def test_src_regs_branch():
    assert set(ins(Opcode.BEQ, rs1=4, rs2=5).src_regs()) == {4, 5}


def test_src_regs_jr():
    assert ins(Opcode.JR, rs1=31).src_regs() == (31,)


def test_src_regs_alu_imm():
    assert ins(Opcode.ADDI, rd=2, rs1=7, imm=1).src_regs() == (7,)


def test_src_regs_swap():
    assert set(ins(Opcode.SWAP, rd=3, rs1=9).src_regs()) == {3, 9}


# ---------------------------------------------------------------------------
# ALU semantics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("op,a,b,expect", [
    (Opcode.ADD, 5, 7, 12),
    (Opcode.ADD, 0xFFFFFFFF, 1, 0),               # wrap
    (Opcode.SUB, 3, 5, 0xFFFFFFFE),                # negative wraps
    (Opcode.AND, 0b1100, 0b1010, 0b1000),
    (Opcode.OR, 0b1100, 0b1010, 0b1110),
    (Opcode.XOR, 0b1100, 0b1010, 0b0110),
    (Opcode.NOR, 0, 0, 0xFFFFFFFF),
    (Opcode.SLT, 0xFFFFFFFF, 0, 1),                # -1 < 0 signed
    (Opcode.SLTU, 0xFFFFFFFF, 0, 0),               # unsigned max not < 0
    (Opcode.SLL, 1, 4, 16),
    (Opcode.SLL, 1, 36, 16),                       # shift mod 32
    (Opcode.SRL, 0x80000000, 31, 1),
    (Opcode.SRA, 0x80000000, 31, 0xFFFFFFFF),      # arithmetic fill
    (Opcode.MUL, 0xFFFFFFFF, 2, 0xFFFFFFFE),       # (-1)*2
    (Opcode.DIV, 7, 2, 3),
    (Opcode.DIV, 0xFFFFFFF9, 2, 0xFFFFFFFD),       # -7/2 = -3 trunc
    (Opcode.DIV, 5, 0, 0),                         # div-by-zero -> 0
    (Opcode.REM, 7, 2, 1),
    (Opcode.REM, 0xFFFFFFF9, 2, 0xFFFFFFFF),       # -7 rem 2 = -1
    (Opcode.REM, 5, 0, 0),
    (Opcode.LUI, 0, 0x1234, 0x12340000),
])
def test_alu_semantics(op, a, b, expect):
    assert ins(op, rd=1, rs1=2, rs2=3).alu_result(a, b) == expect


def test_alu_on_branch_raises():
    with pytest.raises(ValueError):
        ins(Opcode.BEQ, rs1=1, rs2=2).alu_result(1, 2)


@pytest.mark.parametrize("op,a,b,taken", [
    (Opcode.BEQ, 5, 5, True),
    (Opcode.BEQ, 5, 6, False),
    (Opcode.BNE, 5, 6, True),
    (Opcode.BLT, 0xFFFFFFFF, 0, True),             # -1 < 0
    (Opcode.BLT, 0, 0xFFFFFFFF, False),
    (Opcode.BGE, 0, 0xFFFFFFFF, True),             # 0 >= -1
    (Opcode.BGE, 3, 3, True),
])
def test_branch_semantics(op, a, b, taken):
    assert ins(op, rs1=1, rs2=2).branch_taken(a, b) is taken


def test_branch_taken_on_alu_raises():
    with pytest.raises(ValueError):
        ins(Opcode.ADD, rd=1, rs1=1, rs2=1).branch_taken(0, 0)


# ---------------------------------------------------------------------------
# 32-bit helpers (property-based)
# ---------------------------------------------------------------------------
@given(st.integers(min_value=-2**40, max_value=2**40))
def test_u32_is_mod_2_32(v):
    assert _u32(v) == v % 2**32


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_s32_round_trips_through_u32(v):
    assert _u32(_s32(v)) == v


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_add_matches_python_mod_arithmetic(a, b):
    assert ins(Opcode.ADD, rd=1, rs1=2, rs2=3).alu_result(a, b) == (a + b) % 2**32


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_sub_matches_python_mod_arithmetic(a, b):
    assert ins(Opcode.SUB, rd=1, rs1=2, rs2=3).alu_result(a, b) == (a - b) % 2**32


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_mul_matches_signed_python(a, b):
    expected = (_s32(a) * _s32(b)) % 2**32
    assert ins(Opcode.MUL, rd=1, rs1=2, rs2=3).alu_result(a, b) == expected


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=2**31 - 1))
def test_div_rem_reconstruct(a, b):
    """a == b*(a/b) + (a rem b), all in signed 32-bit arithmetic."""
    i = ins(Opcode.DIV, rd=1, rs1=2, rs2=3)
    r = ins(Opcode.REM, rd=1, rs1=2, rs2=3)
    q = _s32(i.alu_result(a, b))
    m = _s32(r.alu_result(a, b))
    assert _s32(_u32(b * q + m)) == _s32(a)


def test_reg_count():
    assert REG_COUNT == 32


def test_instruction_str_smoke():
    assert "add" in str(ins(Opcode.ADD, rd=1, rs1=2, rs2=3))


def test_step_handler_resolves_once_and_stays_out_of_pickles():
    add = ins(Opcode.ADD, rd=1, rs1=2, rs2=3)
    assert add.step is STEP_DISPATCH[Opcode.ADD]
    assert "step" in add.__dict__          # cached after first use
    copy = pickle.loads(pickle.dumps(add))  # handlers are closures
    assert copy == add and "step" not in copy.__dict__
    assert copy.step is add.step
