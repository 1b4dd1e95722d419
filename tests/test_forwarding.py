"""Store-to-load forwarding: the LSQ's word-indexed lookup against the
reference queue scan.

:func:`reference_forwarding_store` is the specification: the youngest
in-flight store older than the load whose bytes overlap the load's,
found by scanning every queued entry. The LSQ answers the same question
from a map of 4-byte words to the stores touching them; these tests hold
the two to the same entry.
"""

from __future__ import annotations

from typing import Iterable, Optional

from hypothesis import given, settings, strategies as st

from repro.core.lsq import LSQ
from repro.core.rob import ROBEntry
from repro.isa.instructions import Instruction, Opcode

LOADS = (Opcode.LB, Opcode.LH, Opcode.LW, Opcode.SWAP)
STORES = (Opcode.SB, Opcode.SH, Opcode.SW, Opcode.SWAP)


def reference_forwarding_store(entries: Iterable[ROBEntry],
                               load: ROBEntry) -> Optional[ROBEntry]:
    """Youngest older store whose access overlaps ``load``'s bytes."""
    lo = load.mem_addr
    if lo is None:
        return None
    hi = lo + load.ins.mem_width
    load_seq = load.seq
    best: Optional[ROBEntry] = None
    best_seq = -1
    for e in entries:
        seq = e.seq
        if seq >= load_seq or seq <= best_seq:
            continue
        ins = e.ins
        if not ins.is_store:
            continue
        s_lo = e.mem_addr
        if s_lo is None:
            continue
        if s_lo < hi and lo < s_lo + ins.mem_width:
            best = e
            best_seq = seq
    return best


def mem_entry(seq: int, op: Opcode, addr: int) -> ROBEntry:
    return ROBEntry(seq, Instruction(op, rd=1, rs1=2), 4 * seq,
                    mem_addr=addr)


def queued(ops):
    """An LSQ holding ``ops`` ((op, addr) pairs) dispatched in order."""
    lsq = LSQ(len(ops) + 1)
    entries = [mem_entry(seq, op, addr) for seq, (op, addr) in enumerate(ops)]
    for e in entries:
        lsq.push(e)
    return lsq, entries


def assert_lookup_matches(lsq, entries, load):
    want = reference_forwarding_store(entries, load)
    assert lsq.forwarding_store(load) is want
    return want


# ---------------------------------------------------------------------------
# directed cases
# ---------------------------------------------------------------------------
def test_each_width_forwards_only_its_own_bytes():
    # SB 0x101 covers byte 1, SH 0x106 bytes 6-7, SW 0x108 bytes 8-11
    lsq, entries = queued([(Opcode.SB, 0x101), (Opcode.SH, 0x106),
                           (Opcode.SW, 0x108)])
    sb, sh, sw = entries
    for addr, op, want in [(0x100, Opcode.LB, None), (0x101, Opcode.LB, sb),
                           (0x104, Opcode.LH, None), (0x106, Opcode.LB, sh),
                           (0x107, Opcode.LB, sh), (0x10B, Opcode.LB, sw),
                           (0x10C, Opcode.LW, None), (0x100, Opcode.LW, sb)]:
        assert assert_lookup_matches(lsq, entries,
                                     mem_entry(9, op, addr)) is want


def test_unaligned_accesses_span_two_words():
    lsq, entries = queued([(Opcode.SW, 0x102), (Opcode.SB, 0x10A)])
    unaligned_store, byte_store = entries
    # the store's second word (0x104) is found from an aligned load
    assert assert_lookup_matches(
        lsq, entries, mem_entry(5, Opcode.LB, 0x105)) is unaligned_store
    # an unaligned load reaches a store in its second word
    assert assert_lookup_matches(
        lsq, entries, mem_entry(5, Opcode.LW, 0x107)) is byte_store
    # one just past the unaligned store's last byte sees nothing
    assert assert_lookup_matches(
        lsq, entries, mem_entry(5, Opcode.LB, 0x106)) is None


def test_swap_acts_as_a_store():
    lsq, entries = queued([(Opcode.SWAP, 0x200)])
    assert assert_lookup_matches(
        lsq, entries, mem_entry(3, Opcode.LH, 0x202)) is entries[0]


def test_younger_stores_are_excluded():
    lsq, entries = queued([(Opcode.SW, 0x100), (Opcode.LW, 0x100),
                           (Opcode.SW, 0x100)])
    older, load, _younger = entries
    assert assert_lookup_matches(lsq, entries, load) is older


def test_youngest_of_several_overlapping_older_stores_wins():
    lsq, entries = queued([(Opcode.SW, 0x100), (Opcode.SB, 0x103),
                           (Opcode.SW, 0x102), (Opcode.SH, 0x100)])
    # a word load at 0x100 overlaps all four; the SH is youngest
    assert assert_lookup_matches(
        lsq, entries, mem_entry(9, Opcode.LW, 0x100)) is entries[3]
    # byte 3 is covered by the SW at 0x100, the SB and the unaligned SW
    assert assert_lookup_matches(
        lsq, entries, mem_entry(9, Opcode.LB, 0x103)) is entries[2]
    # the unaligned SW alone reaches into the next word
    assert assert_lookup_matches(
        lsq, entries, mem_entry(9, Opcode.LB, 0x104)) is entries[2]


# ---------------------------------------------------------------------------
# property: same entry as the reference scan, through dispatch and commit
# ---------------------------------------------------------------------------
ACCESS = st.tuples(st.sampled_from(LOADS + STORES),
                   st.integers(min_value=0x100, max_value=0x11F))


@settings(max_examples=200, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=24),
       st.integers(min_value=0, max_value=24))
def test_word_index_matches_reference_scan(ops, retired):
    lsq, entries = queued(ops)
    # commit retires the oldest entries; their stores leave the index
    retired = min(retired, len(entries))
    for e in entries[:retired]:
        assert lsq.pop() is e
    live = entries[retired:]
    for load in live:
        if load.ins.is_load:
            assert_lookup_matches(lsq, live, load)
    # a load younger than everything queued sees the youngest overlap
    for op, addr in ops:
        if op in LOADS:
            assert_lookup_matches(lsq, live,
                                  mem_entry(len(ops), op, addr))
