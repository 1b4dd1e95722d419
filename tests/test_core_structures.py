"""Tests for ROB, issue queue, LSQ, branch predictor, and configs.

The forwarding tests here exercise the LSQ's word-indexed lookup, the one
the pipeline's issue stage calls; ``tests/test_forwarding.py`` checks it
against the reference queue scan.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import Core
from repro.core.branch import BimodalPredictor
from repro.core.config import CoreConfig, SystemConfig
from repro.core.iq import IssueQueue
from repro.core.lsq import LSQ
from repro.core.rob import ROB, ROBEntry
from repro.isa.instructions import Instruction, Opcode


# ---------------------------------------------------------------------------
# ROB
# ---------------------------------------------------------------------------
def step_core(core, cycles, observe=None):
    """Step a core ``cycles`` times, calling ``observe(pipeline)`` before
    each step (what the step samples)."""
    for now in range(cycles):
        if observe is not None:
            observe(core.pipeline)
        core.step(now)


def test_rob_fifo_order(sum_loop):
    """The pipeline keeps the ROB in dispatch (= seq) order, oldest at
    the head, every cycle."""
    core = Core(sum_loop)

    def in_order(p):
        seqs = [e.seq for e in p.rob]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
    step_core(core, 300, in_order)
    assert core.pipeline.stats.committed > 0


def test_rob_capacity(sum_loop):
    core = Core(sum_loop, config=SystemConfig(core=CoreConfig(rob_entries=2)))

    def bounded(p):
        assert len(p.rob) <= 2
    step_core(core, 300, bounded)
    assert core.pipeline.stats.dispatch_stall_rob > 0


def test_rob_flush(sum_loop):
    core = Core(sum_loop)
    now = 0
    while not len(core.pipeline.rob) and now < 1000:
        core.step(now)
        now += 1
    held = len(core.pipeline.rob)
    assert held > 0
    assert core.pipeline.flush_pipeline() == held
    assert len(core.pipeline.rob) == 0


def test_rob_occupancy_sampling(sum_loop):
    """One sample per core-cycle, taken at the start of the cycle."""
    core = Core(sum_loop)
    seen = []
    step_core(core, 200, lambda p: seen.append(len(p.rob)))
    p = core.pipeline
    assert p.stats.cycles == len(seen)
    assert p.mean_occupancy(p.rob) == pytest.approx(sum(seen) / len(seen))
    assert p.mean_occupancy(p.rob) > 0


def test_rob_mean_occupancy_empty(sum_loop):
    p = Core(sum_loop).pipeline
    assert p.mean_occupancy(p.rob) == 0.0


def test_rob_zero_capacity_rejected():
    with pytest.raises(ValueError):
        ROB(0)


# ---------------------------------------------------------------------------
# Issue queue (bound and occupancy; issue order is tested in test_pipeline)
# ---------------------------------------------------------------------------
def test_iq_zero_capacity_rejected():
    with pytest.raises(ValueError):
        IssueQueue(0)


# ---------------------------------------------------------------------------
# LSQ + store-to-load forwarding
# ---------------------------------------------------------------------------
def make_store(seq, addr, width=4):
    e = ROBEntry(seq=seq, ins=Instruction(Opcode.SW, rd=1, rs1=2), pc=0)
    e.mem_addr = addr
    return e


def make_load(seq, addr, op=Opcode.LW):
    e = ROBEntry(seq=seq, ins=Instruction(op, rd=1, rs1=2), pc=0)
    e.mem_addr = addr
    return e


def test_forwarding_exact_overlap():
    lsq = LSQ(8)
    st_e = make_store(1, 0x100)
    lsq.push(st_e)
    ld = make_load(2, 0x100)
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is st_e
    assert lsq.forwards == 1


def test_forwarding_partial_overlap():
    lsq = LSQ(8)
    st_e = make_store(1, 0x100)        # bytes 0x100..0x103
    lsq.push(st_e)
    ld = make_load(2, 0x102)           # overlaps
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is st_e


def test_no_forwarding_from_younger_store():
    lsq = LSQ(8)
    ld = make_load(1, 0x100)
    lsq.push(ld)
    lsq.push(make_store(2, 0x100))     # younger than the load
    assert lsq.forwarding_store(ld) is None


def test_forwarding_picks_youngest_older_store():
    lsq = LSQ(8)
    s1 = make_store(1, 0x100)
    s2 = make_store(2, 0x100)
    lsq.push(s1)
    lsq.push(s2)
    ld = make_load(3, 0x100)
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is s2


def test_no_forwarding_disjoint():
    lsq = LSQ(8)
    lsq.push(make_store(1, 0x100))
    ld = make_load(2, 0x104)
    lsq.push(ld)
    assert lsq.forwarding_store(ld) is None


def test_lsq_pops_in_order_and_unindexes_stores():
    lsq = LSQ(4)
    s0, s1 = make_store(0, 0x100), make_store(1, 0x100)
    lsq.push(s0)
    lsq.push(s1)
    assert lsq.pop() is s0
    assert lsq.forwarding_store(make_load(2, 0x100)) is s1
    assert lsq.pop() is s1
    assert lsq.forwarding_store(make_load(2, 0x100)) is None
    assert len(lsq) == 0


def test_lsq_flush():
    lsq = LSQ(2)
    lsq.push(make_store(0, 0))
    lsq.push(make_store(1, 4))
    assert lsq.flush() == 2
    assert len(lsq) == 0
    assert lsq.forwarding_store(make_load(2, 0)) is None


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_forwarding_matches_interval_overlap(store_addr, load_addr):
    """Forwarding fires exactly when the 4-byte intervals intersect."""
    lsq = LSQ(4)
    s = make_store(1, store_addr)
    lsq.push(s)
    ld = make_load(2, load_addr)
    lsq.push(ld)
    overlap = store_addr < load_addr + 4 and load_addr < store_addr + 4
    assert (lsq.forwarding_store(ld) is s) == overlap


# ---------------------------------------------------------------------------
# Branch predictor
# ---------------------------------------------------------------------------
def test_predictor_learns_taken_loop():
    p = BimodalPredictor(64)
    pc = 0x40
    for _ in range(4):
        p.update(pc, True, 0x100)
    assert p.predict(pc)
    assert p.predict_target(pc) == 0x100


def test_predictor_learns_not_taken():
    p = BimodalPredictor(64)
    pc = 0x40
    for _ in range(4):
        p.update(pc, False, 0)
    assert not p.predict(pc)


def test_predictor_saturates():
    p = BimodalPredictor(64)
    pc = 0
    for _ in range(100):
        p.update(pc, True, 8)
    p.update(pc, False, 0)   # one not-taken shouldn't flip a saturated counter
    assert p.predict(pc)


def test_btb_capacity_fifo():
    p = BimodalPredictor(64, btb_entries=2)
    p.update(0x0, True, 1)
    p.update(0x4, True, 2)
    p.update(0x8, True, 3)   # evicts 0x0
    assert p.predict_target(0x0) is None
    assert p.predict_target(0x8) == 3


def test_mispredict_rate():
    p = BimodalPredictor(64)
    p.predict(0)
    p.record_mispredict()
    assert p.mispredict_rate() == 1.0


def test_predictor_entries_power_of_two():
    with pytest.raises(ValueError):
        BimodalPredictor(100)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------
def test_table1_describe_matches_paper_rows():
    desc = SystemConfig.table1().describe()
    assert "4 logical cores" in desc["Processor Cores"]
    assert desc["Issue Queue"] == "64"
    assert "32KB split I/D" in desc["L1 Cache"]
    assert "4MB" in desc["Shared L2 Cache"]
    assert "48 entries" in desc["I-TLB"]
    assert "64 entries" in desc["D-TLB"]
    assert "400 cycles" in desc["Memory"]


def test_core_config_scaled():
    c = CoreConfig().scaled(rob_entries=128)
    assert c.rob_entries == 128
    assert c.iq_entries == CoreConfig().iq_entries
