"""Tests for the Reunion baseline: CRC, CSB, CheckStage, full system."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.events import Outcome
from repro.faults.injector import Block, BlockInventory, FaultInjector
from repro.isa import assemble, golden
from repro.redundancy.pair import BaselineSystem
from repro.reunion.check_stage import CheckStage, GroupMap, ReunionParams
from repro.reunion.csb import CheckStageBuffer, csb_entries_for, ENTRY_BITS
from repro.checkpoint.snapshot import capture_system, restore_system
from repro.reunion.fingerprint import (
    CRC16_INIT, CRC16_POLY, FingerprintGenerator, crc16, crc16_update,
)
from repro.reunion.system import ReunionSystem


# ---------------------------------------------------------------------------
# CRC-16 fingerprints
# ---------------------------------------------------------------------------
def crc16_bitwise(crc, data):
    """Reference CRC-16/CCITT-FALSE update, one bit at a time (MSB first)."""
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_crc16_known_vector():
    # CRC-16/CCITT-FALSE of "123456789" is the classic 0x29B1
    assert crc16(b"123456789") == 0x29B1
    assert crc16_bitwise(CRC16_INIT, b"123456789") == 0x29B1


def test_crc16_update_matches_bitwise_reference():
    rng = random.Random(0x1021)
    for _ in range(2000):
        crc = rng.randrange(0x10000)
        data = rng.randbytes(rng.randrange(0, 17))
        assert crc16_update(crc, data) == crc16_bitwise(crc, data)


def test_crc16_incremental_equals_one_shot():
    data = b"hello fingerprint world"
    crc = 0xFFFF
    for i in range(0, len(data), 3):
        crc = crc16_update(crc, data[i:i + 3])
    assert crc == crc16(data)


def test_crc_detects_single_bit_flip():
    base = crc16(b"\x00" * 8)
    for byte in range(8):
        for bit in range(8):
            data = bytearray(8)
            data[byte] ^= 1 << bit
            assert crc16(bytes(data)) != base


def test_fingerprint_generator_order_sensitive():
    a = FingerprintGenerator()
    a.add(0x0, result=1)
    a.add(0x4, result=2)
    b = FingerprintGenerator()
    b.add(0x4, result=2)
    b.add(0x0, result=1)
    assert a.value != b.value


def test_fingerprint_includes_store_data():
    a = FingerprintGenerator()
    a.add(0x0, store_addr=0x100, store_value=1)
    b = FingerprintGenerator()
    b.add(0x0, store_addr=0x100, store_value=2)
    assert a.value != b.value


def test_fingerprint_reset():
    g = FingerprintGenerator()
    g.add(0, result=9)
    g.reset()
    h = FingerprintGenerator()
    assert g.value == h.value and g.length == 0


@settings(max_examples=30)
@given(st.binary(min_size=1, max_size=64))
def test_crc16_is_16_bits(data):
    assert 0 <= crc16(data) <= 0xFFFF


# ---------------------------------------------------------------------------
# CSB
# ---------------------------------------------------------------------------
def test_csb_sizing_rule_matches_paper():
    # Sec IV-3: FI=10, 6-cycle latency -> 17 entries
    assert csb_entries_for(10, 6) == 17
    # Sec IV-3: FI=50 -> the paper's 39,125 um^2 CSB is 57 entries
    assert csb_entries_for(50, 6) == 57


def test_csb_entry_bits():
    assert ENTRY_BITS == 66


def test_csb_in_order_admission_enforced():
    csb = CheckStageBuffer(4)
    csb.push(0, 0)
    with pytest.raises(ValueError):
        csb.push(0, 0)  # same seq again
    csb.push(5, 0)
    with pytest.raises(ValueError):
        csb.push(3, 0)


def test_csb_capacity():
    csb = CheckStageBuffer(1)
    csb.push(0, 0)
    assert csb.full
    with pytest.raises(RuntimeError):
        csb.push(1, 0)


def test_csb_sizing_validation():
    with pytest.raises(ValueError):
        csb_entries_for(0, 6)
    with pytest.raises(ValueError):
        csb_entries_for(10, -1)


# ---------------------------------------------------------------------------
# GroupMap
# ---------------------------------------------------------------------------
def test_groupmap_interval_cuts():
    g = GroupMap(interval=3)
    groups = [g.assign(s) for s in range(7)]
    assert groups == [0, 0, 0, 1, 1, 1, 2]
    assert g.size(0) == 3 and g.size(1) == 3 and g.size(2) is None


def test_groupmap_serializing_cut_before_and_after():
    g = GroupMap(interval=10)
    assert g.assign(0) == 0
    assert g.assign(1) == 0
    # serializing instruction: closes group 0, owns group 1, closes it
    assert g.assign(2, cut_before=True, cut_after=True) == 1
    assert g.size(0) == 2 and g.size(1) == 1
    assert g.assign(3) == 2


def test_groupmap_replay_returns_same_assignment():
    g = GroupMap(interval=4)
    first = [g.assign(s) for s in range(8)]
    replay = [g.assign(s) for s in range(8)]
    assert first == replay


def test_groupmap_out_of_order_extension_rejected():
    g = GroupMap(interval=4)
    g.assign(0)
    with pytest.raises(ValueError):
        g.assign(5)


def test_groupmap_cut_before_on_empty_group_is_noop():
    g = GroupMap(interval=10)
    # serializing as the very first instruction: no previous group to seal
    assert g.assign(0, cut_before=True, cut_after=True) == 0
    assert g.size(0) == 1


# ---------------------------------------------------------------------------
# CheckStage verification protocol
# ---------------------------------------------------------------------------
def make_stage(fi=2, lat=5, policy="cut"):
    return CheckStage(ReunionParams(fingerprint_interval=fi,
                                    comparison_latency=lat,
                                    serializing_policy=policy))


def complete_group(stage, core, group, seqs, now):
    for s in seqs:
        stage.record_completion(core, group, pc=4 * s, result=s,
                                store_addr=None, store_value=None, now=now)


def test_verification_needs_both_cores():
    stage = make_stage()
    for core in (0, 1):
        stage.on_dispatch(core, 0, False)
        stage.on_dispatch(core, 1, False)
    complete_group(stage, 0, 0, [0, 1], now=10)
    assert not stage.was_compared(0)
    complete_group(stage, 1, 0, [0, 1], now=20)
    assert stage.was_compared(0)
    assert not stage.is_verified(0, 24)   # latency 5 from max(10,20)
    assert stage.is_verified(0, 25)


def test_matching_streams_verify(sum_loop):
    # full-system check is in test_reunion_matches_golden; here the unit:
    stage = make_stage()
    for core in (0, 1):
        stage.on_dispatch(core, 0, False)
        stage.on_dispatch(core, 1, False)
        complete_group(stage, core, 0, [0, 1], now=5)
    assert stage.mismatches == 0
    assert stage.fingerprints_compared == 1


def test_diverging_streams_mismatch():
    stage = make_stage()
    for core in (0, 1):
        stage.on_dispatch(core, 0, False)
        stage.on_dispatch(core, 1, False)
    complete_group(stage, 0, 0, [0, 1], now=5)
    # core 1 produces a different result for seq 1
    stage.record_completion(1, 0, pc=0, result=0, store_addr=None,
                            store_value=None, now=5)
    stage.record_completion(1, 0, pc=4, result=999, store_addr=None,
                            store_value=None, now=5)
    assert stage.mismatches == 1
    assert stage.mismatch_ready(100) == 0


def mismatch_group(stage, group, now):
    """Complete single-member ``group`` on both cores with diverging
    results (the stage must use fingerprint_interval=1)."""
    stage.record_completion(0, group, pc=4 * group, result=1,
                            store_addr=None, store_value=None, now=now)
    stage.record_completion(1, group, pc=4 * group, result=2,
                            store_addr=None, store_value=None, now=now)


def test_mismatch_ready_returns_oldest_due_group():
    stage = make_stage(fi=1, lat=5)
    for core in (0, 1):
        stage.on_dispatch(core, 0, False)
        stage.on_dispatch(core, 1, False)
    mismatch_group(stage, 1, now=10)      # group 1 due at 15
    mismatch_group(stage, 0, now=30)      # group 0 due at 35
    assert stage.mismatches == 2
    assert stage.mismatch_ready(14) is None
    assert stage.mismatch_ready(15) == 1
    assert stage.mismatch_ready(34) == 1
    assert stage.mismatch_ready(35) == 0  # both due: the older group
    stage.reset_unverified([0, 0])
    assert stage.mismatch_ready(10**9) is None
    assert not stage.was_compared(0) and not stage.was_compared(1)


def test_comparison_drops_per_core_group_state():
    stage = make_stage(fi=2)
    for core in (0, 1):
        for seq in range(4):
            stage.on_dispatch(core, seq, False)
    for core in (0, 1):
        complete_group(stage, core, 0, [0, 1], now=5)
    complete_group(stage, 0, 1, [2, 3], now=6)
    assert stage.was_compared(0) and not stage.was_compared(1)
    # only the uncompared group's state is left, on the core that has it
    assert list(map(list, stage._fp)) == [[1], []]
    assert stage._fp[0][1].length == 2
    assert stage._done_cycle == [{1: 6}, {}]
    complete_group(stage, 1, 1, [2, 3], now=7)
    assert stage._fp == stage._done_cycle == [{}, {}]
    assert stage.is_verified(1, 7 + 5)


def test_corrupt_next_forces_mismatch():
    stage = make_stage()
    stage.corrupt_next[1] = True
    for core in (0, 1):
        stage.on_dispatch(core, 0, False)
        stage.on_dispatch(core, 1, False)
        complete_group(stage, core, 0, [0, 1], now=5)
    assert stage.mismatches == 1
    assert 0 in stage.corrupted_groups


def test_serializing_blocks_dispatch_until_verified():
    stage = make_stage(policy="drain")
    g = stage.on_dispatch(0, 0, serializing=True)
    assert not stage.dispatch_allowed(0, now=0)
    # other core catches up and the group verifies
    stage.on_dispatch(1, 0, serializing=True)
    complete_group(stage, 0, g, [0], now=1)
    complete_group(stage, 1, g, [0], now=2)
    assert not stage.dispatch_allowed(0, now=3)   # latency not elapsed
    assert stage.dispatch_allowed(0, now=2 + 5)


def test_send_policy_unblocks_on_local_drain():
    stage = make_stage(policy="send")
    g = stage.on_dispatch(0, 0, serializing=True)
    assert not stage.dispatch_allowed(0, now=0)
    complete_group(stage, 0, g, [0], now=1)       # local fingerprint sent
    assert stage.dispatch_allowed(0, now=1)       # no round-trip wait


def test_cut_policy_never_blocks():
    stage = make_stage(policy="cut")
    stage.on_dispatch(0, 0, serializing=True)
    assert stage.dispatch_allowed(0, now=0)


def test_reset_unverified_keeps_verified_groups():
    stage = make_stage()
    for core in (0, 1):
        stage.on_dispatch(core, 0, False)
        stage.on_dispatch(core, 1, False)
        complete_group(stage, core, 0, [0, 1], now=5)
    assert stage.was_compared(0)
    stage.reset_unverified([2, 2])
    assert stage.was_compared(0)          # verified & matched survives
    assert not stage.needs_hash(0)        # replays skip hashing


def test_closure_race_is_handled():
    """A group's last member may complete before the group is sealed."""
    stage = make_stage(fi=10)
    for core in (0, 1):
        stage.on_dispatch(core, 0, False)
        stage.on_dispatch(core, 1, False)
        # both members complete while the group is still open
        complete_group(stage, core, 0, [0, 1], now=3)
    assert not stage.was_compared(0)
    # the serializing dispatch seals group 0 retroactively
    stage.on_dispatch(0, 2, serializing=True, now=7)
    assert stage.was_compared(0)


def test_invalid_params():
    with pytest.raises(ValueError):
        ReunionParams(fingerprint_interval=0)
    with pytest.raises(ValueError):
        ReunionParams(comparison_latency=-1)
    with pytest.raises(ValueError):
        ReunionParams(serializing_policy="maybe")


# ---------------------------------------------------------------------------
# full system
# ---------------------------------------------------------------------------
def test_reunion_matches_golden(sum_loop):
    gold = golden.run(sum_loop)
    res = ReunionSystem(sum_loop).run()
    assert res.instructions == gold.instructions
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem
    assert res.extra["mismatches"] == 0


def test_reunion_with_traps_matches_golden(trap_loop):
    for policy in ("drain", "send", "cut"):
        gold = golden.run(trap_loop)
        res = ReunionSystem(trap_loop,
                            params=ReunionParams(serializing_policy=policy)).run()
        assert res.state.mem == gold.state.mem, policy


def test_reunion_slower_than_baseline(trap_loop):
    base = BaselineSystem(trap_loop).run()
    reu = ReunionSystem(trap_loop).run()
    assert reu.cycles > base.cycles


def test_drain_policy_costs_more_than_cut(trap_loop):
    drain = ReunionSystem(trap_loop,
                          params=ReunionParams(serializing_policy="drain")).run()
    cut = ReunionSystem(trap_loop,
                        params=ReunionParams(serializing_policy="cut")).run()
    assert drain.cycles > cut.cycles


def test_larger_latency_is_slower(sum_loop):
    fast = ReunionSystem(sum_loop, params=ReunionParams(
        fingerprint_interval=10, comparison_latency=6)).run()
    slow = ReunionSystem(sum_loop, params=ReunionParams(
        fingerprint_interval=30, comparison_latency=40)).run()
    assert slow.cycles > fast.cycles


def test_reunion_rollback_recovers_correctness(sum_loop):
    """Strikes restricted to pre-commit state force fingerprint mismatches
    and rollbacks; the final output must still match golden."""
    gold = golden.run(sum_loop)
    inv = BlockInventory([Block("rob", 80 * 72, pre_commit=True)])
    res = ReunionSystem(sum_loop,
                        injector=FaultInjector(1 / 300, seed=3,
                                               inventory=inv)).run()
    assert res.extra["rollbacks"] > 0
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem
    detected = [e for e in res.fault_events
                if e.outcome is Outcome.DETECTED_RECOVERED]
    assert detected


def test_reunion_uncovered_block_is_sdc(sum_loop):
    inv = BlockInventory([Block("regfile", 32 * 32, pre_commit=False)])
    res = ReunionSystem(sum_loop,
                        injector=FaultInjector(1 / 40, seed=5,
                                               inventory=inv)).run()
    assert res.fault_events
    assert all(e.outcome is Outcome.SDC for e in res.fault_events)


def test_reunion_l1_strike_corrected_by_secded(sum_loop):
    inv = BlockInventory([Block("l1d_data", 32 * 1024 * 8, pre_commit=False)])
    res = ReunionSystem(sum_loop,
                        injector=FaultInjector(1 / 40, seed=6,
                                               inventory=inv)).run()
    assert res.fault_events
    assert all(e.outcome is Outcome.DETECTED_RECOVERED
               for e in res.fault_events)
    assert res.extra["rollbacks"] == 0  # no rollback needed


def test_reunion_fingerprint_count_tracks_groups(sum_loop):
    gold = golden.run(sum_loop)
    params = ReunionParams(fingerprint_interval=10)
    res = ReunionSystem(sum_loop, params=params).run()
    # ~1 comparison per 10 instructions (plus halt-group)
    expected = gold.instructions / 10
    assert expected * 0.8 <= res.extra["fingerprints_compared"] <= expected * 1.4


def test_snapshot_after_dropped_group_state_restores_identically(sum_loop):
    """A mid-run snapshot, taken once compared groups' state is gone and
    with rollbacks in flight, restores and finishes identically."""
    def build():
        inv = BlockInventory([Block("rob", 80 * 72, pre_commit=True)])
        return ReunionSystem(sum_loop, injector=FaultInjector(
            1 / 300, seed=3, inventory=inv))

    def final(system):
        res = system.run()
        return (res.cycles, res.instructions, res.state.regs,
                sorted(res.state.mem.items()), res.metrics,
                [(e.cycle, e.outcome) for e in res.fault_events])

    original = build()
    for _ in range(300):
        original.step()
    check = original.check
    assert check.fingerprints_compared > 10
    assert sum(len(fps) for fps in check._fp) < 4
    replica = restore_system(capture_system(original, sum_loop), sum_loop)
    result = final(original)
    assert final(replica) == result
    assert result == final(build())   # snapshotting does not perturb
    assert original.rollbacks > 0
