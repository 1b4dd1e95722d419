"""Pipeline tests: golden equivalence, timing sanity, stall accounting.

The load-bearing invariant of the whole reproduction: for any fault-free
run, the out-of-order core's architectural results are bit-identical to
the golden interpreter's.
"""

import pytest

from repro.core import Core
from repro.core.config import CoreConfig, SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import EntryState
from repro.core.trace import PipelineTracer
from repro.isa import assemble, golden
from repro.workloads import KERNELS, load_benchmark, load_kernel


def assert_matches_golden(program):
    gold = golden.run(program, max_instructions=2_000_000)
    res = Core(program).run()
    assert res.instructions == gold.instructions
    assert res.state.regs == gold.state.regs
    assert res.state.mem == gold.state.mem
    return gold, res


# ---------------------------------------------------------------------------
# golden equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_match_golden(kernel):
    assert_matches_golden(load_kernel(kernel))


@pytest.mark.parametrize("bench", ["bzip2", "galgel", "mcf", "sha", "qsort"])
def test_benchmarks_match_golden(bench):
    assert_matches_golden(load_benchmark(bench))


def test_fixture_kernels_match_golden(sum_loop, trap_loop, store_burst):
    for prog in (sum_loop, trap_loop, store_burst):
        assert_matches_golden(prog)


def test_empty_program():
    prog = assemble("halt")
    res = Core(prog).run()
    assert res.instructions == 0


def test_program_without_halt_stops_at_end():
    prog = assemble("nop\nnop")
    res = Core(prog).run()
    assert res.instructions == 2


# ---------------------------------------------------------------------------
# timing sanity
# ---------------------------------------------------------------------------
def test_ipc_bounded_by_width(dot_product):
    res = Core(dot_product).run()
    assert 0 < res.ipc <= CoreConfig().commit_width


def test_dependent_chain_is_serial():
    # 100 dependent adds: IPC must be ~1 regardless of 4-wide issue
    body = "\n".join("    add r1, r1, r2" for _ in range(100))
    prog = assemble(f"main:\n    li r2, 1\n{body}\n    halt")
    res = Core(prog).run()
    assert res.ipc < 1.4


def test_independent_ops_reach_high_ipc():
    # loop so the I-cache warms up (straight-line code cold-misses every
    # 64-byte line exactly once, which caps IPC at the refill rate)
    body = "\n".join(f"    addi r{3 + (i % 8)}, r0, {i}" for i in range(40))
    prog = assemble(f"""
main:
    li r1, 20
loop:
{body}
    addi r1, r1, -1
    bne r1, r0, loop
    halt
""")
    res = Core(prog).run()
    assert res.ipc > 2.0


def test_smaller_rob_is_not_faster(sum_loop):
    big = Core(sum_loop, config=SystemConfig(core=CoreConfig(rob_entries=128))).run()
    small = Core(sum_loop, config=SystemConfig(core=CoreConfig(rob_entries=8))).run()
    assert small.cycles >= big.cycles


def test_narrow_commit_hurts(sum_loop):
    wide = Core(sum_loop).run()
    narrow = Core(sum_loop, config=SystemConfig(
        core=CoreConfig(commit_width=1, fetch_width=1, dispatch_width=1,
                        issue_width=1))).run()
    assert narrow.cycles > wide.cycles


def test_div_latency_visible():
    fast = assemble("main:\n" + "    add r1, r1, r2\n" * 20 + "    halt")
    slow = assemble("main:\n" + "    div r1, r1, r2\n" * 20 + "    halt")
    assert Core(slow).run().cycles > Core(fast).run().cycles + 100


def test_mispredict_penalty_costs_cycles():
    # data-dependent alternating branch (unpredictable by bimodal)
    src = """
main:
    li r1, 200
    li r5, 0
loop:
    andi r2, r1, 1
    beq r2, r0, even
    addi r5, r5, 1
even:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""
    res = Core(assemble(src)).run()
    assert res.mispredict_rate > 0.05  # alternating direction defeats bimodal


def test_cycle_budget_overrun_raises():
    prog = assemble("main:\n    nop\n    halt")
    core = Core(prog)
    with pytest.raises(RuntimeError):
        core.run(max_cycles=1)


# ---------------------------------------------------------------------------
# stall accounting
# ---------------------------------------------------------------------------
def test_rob_stall_counted_with_tiny_rob(sum_loop):
    core = Core(sum_loop, config=SystemConfig(core=CoreConfig(rob_entries=4)))
    core.run()
    assert core.pipeline.stats.dispatch_stall_rob > 0


def test_lsq_stall_counted_with_tiny_lsq(store_burst):
    core = Core(store_burst, config=SystemConfig(core=CoreConfig(lsq_entries=2)))
    core.run()
    assert core.pipeline.stats.dispatch_stall_lsq > 0


def test_iq_stall_counted_with_tiny_iq(sum_loop):
    core = Core(sum_loop, config=SystemConfig(core=CoreConfig(iq_entries=2)))
    res = core.run()
    assert core.pipeline.stats.dispatch_stall_iq > 0
    assert res.state.regs == golden.run(sum_loop).state.regs
    # every dispatched entry has issued by the end of the run
    assert core.pipeline.iq.count == 0
    assert 0 < core.pipeline.mean_occupancy(core.pipeline.iq) <= 2


def test_stats_committed_excludes_halt(sum_loop):
    gold = golden.run(sum_loop)
    res = Core(sum_loop).run()
    assert res.stats.committed == gold.instructions


def test_serializing_committed_counted(trap_loop):
    res = Core(trap_loop).run()
    assert res.stats.serializing_committed == 30


def test_store_load_counts(sum_loop):
    res = Core(sum_loop).run()
    assert res.stats.stores_committed == 51
    assert res.stats.loads_committed == 50


# ---------------------------------------------------------------------------
# issue order: oldest ready first, within the functional-unit limits
# ---------------------------------------------------------------------------
ISSUE_ORDER = """
main:
    addi r2, r0, 7
    addi r3, r0, 3
    div r1, r2, r3
    add r4, r1, r2
    add r5, r1, r2
    add r6, r1, r2
    add r7, r1, r2
    add r8, r1, r2
    add r9, r1, r2
    mul r10, r2, r3
    mul r11, r2, r3
    add r12, r2, r3
    halt
"""


def _issue_cycles(program):
    core = Core(program)
    tracer = PipelineTracer()
    core.pipeline.tracer = tracer
    core.run()
    return {r.ins.rd: r.issue_cycle for r in tracer.committed_records()}


def test_issue_takes_the_oldest_woken_entries_first():
    issued = _issue_cycles(assemble(ISSUE_ORDER))
    cfg = CoreConfig()
    # the divide wakes six adds in one cycle; the four ALUs take the four
    # oldest, the two youngest go next cycle
    dependents = [issued[rd] for rd in range(4, 10)]
    first = min(dependents)
    assert dependents == [first] * cfg.n_alu + [first + 1] * (6 - cfg.n_alu)


def test_issue_passes_an_entry_whose_unit_is_taken():
    issued = _issue_cycles(assemble(ISSUE_ORDER))
    # one multiplier: the second mul waits a cycle while the younger add
    # behind it issues alongside the first
    assert issued[11] == issued[10] + 1
    assert issued[12] == issued[10]


# ---------------------------------------------------------------------------
# flush / adopt (recovery primitives)
# ---------------------------------------------------------------------------
def test_flush_resets_to_committed_point(sum_loop):
    core = Core(sum_loop)
    for now in range(60):
        core.step(now)
    committed_before = core.pipeline.stats.committed
    snapshot = core.pipeline.committed_state.snapshot()
    dropped = core.pipeline.flush_pipeline()
    assert dropped >= 0
    assert core.pipeline.committed_state.snapshot() == snapshot
    assert core.pipeline._next_seq == committed_before
    # run to completion after the flush: still correct
    now = 60
    while not core.done:
        core.step(now)
        now += 1
    gold = golden.run(sum_loop)
    assert core.pipeline.committed_state.regs == gold.state.regs
    assert core.pipeline.committed_state.mem == gold.state.mem


def test_adopt_state_copies_architectural_point(sum_loop):
    a = Core(sum_loop, name="a")
    b = Core(sum_loop, name="b")
    for now in range(80):
        a.step(now)
    # b adopts a's committed state mid-run
    b.pipeline.flush_pipeline()
    b.pipeline.adopt_state(a.pipeline)
    assert b.pipeline.committed_state.snapshot() == \
        a.pipeline.committed_state.snapshot()
    assert b.pipeline.stats.committed == a.pipeline.stats.committed
    now = 80
    while not b.done:
        b.step(now)
        now += 1
    gold = golden.run(sum_loop)
    assert b.pipeline.committed_state.regs == gold.state.regs
    assert b.pipeline.committed_state.mem == gold.state.mem


def test_frozen_core_makes_no_progress(sum_loop):
    core = Core(sum_loop)
    core.pipeline.frozen_until = 50
    for now in range(50):
        core.step(now)
    assert core.pipeline.stats.committed == 0
    assert core.pipeline.stats.cycles == 50


# ---------------------------------------------------------------------------
# commit-gate contract: in-order post-execute admission
# ---------------------------------------------------------------------------
class OnePerCycleGate(CommitGate):
    """Admits at most one finished instruction per cycle, in program order.

    On every refusal it tallies the refused offers the full ready set
    represents (finished executions still waiting for admission), counted
    from the ROB rather than the pipeline's own ready list.
    """

    def __init__(self):
        self.pipeline = None
        self.next_seq = 0
        self.admitted_at = -1
        self.refusals = 0
        self.refused_offers = 0
        self.offers_after_refusal = 0
        self._refused_at = -1

    def on_complete(self, entry, now):
        if self._refused_at == now:
            self.offers_after_refusal += 1
        if entry.seq == self.next_seq and self.admitted_at != now:
            self.next_seq += 1
            self.admitted_at = now
            return True
        self.refusals += 1
        self._refused_at = now
        self.refused_offers += sum(
            1 for e in self.pipeline.rob._entries
            if e.state is EntryState.ISSUED and 0 <= e.complete_cycle <= now)
        return False


def test_in_order_gate_stall_count_equals_refused_offers(dot_product):
    gate = OnePerCycleGate()
    core = Core(dot_product, gate=gate)
    gate.pipeline = core.pipeline
    res = core.run()
    gold = golden.run(dot_product)
    assert res.state.regs == gold.state.regs
    assert gate.offers_after_refusal == 0   # stops at the first refusal
    assert gate.refusals > 0
    assert gate.refused_offers > gate.refusals  # whole tails were refused
    assert res.stats.writeback_stall_gate == gate.refused_offers
