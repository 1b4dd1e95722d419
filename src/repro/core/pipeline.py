"""The cycle-stepped out-of-order pipeline.

One :class:`Pipeline` models one core. Each call to :meth:`Pipeline.step`
advances one clock through, in order: commit -> writeback -> issue ->
dispatch -> fetch (reverse pipeline order, the standard trick so that a
slot freed this cycle is usable next cycle, not this one).

Timed state lives in one event wheel, a dict from cycle to the entries
that fall due then (after Libre-SOC's "cycles away" stage list). An entry
is scheduled at most twice: as an operand-ready wake-up, for the cycle its
last producer broadcasts (unless it is ready by the next cycle when it
dispatches), and as a completion, for the cycle its execution finishes. At the top of each unfrozen cycle the due slots are
delivered, wake-ups onto the seq-ordered list the issue stage walks and
completions onto the seq-ordered list writeback admits from. No stage
scans a queue for work that is not there; dependents are woken through
their producers' waiter lists, and store-to-load forwarding looks up a
word-indexed map of in-flight stores (:class:`~repro.core.lsq.LSQ`).
One :class:`~repro.core.rob.ROBEntry`, built at fetch, carries each
instruction from fetch to commit.

Functional execution is *eager*: an oracle interpreter runs at fetch,
attaching exact results, addresses and branch outcomes to each fetched
instruction. A second architectural image advances at commit. In a
fault-free run both images and the golden executor agree bit-for-bit
(tests enforce this); fault experiments corrupt one of the images
deliberately.

Redundancy schemes attach at three points through a :class:`CommitGate`:

* ``dispatch_allowed``   — Reunion's serializing-instruction drain;
* ``on_complete``        — Reunion's CHECK-stage buffer admission
  (a full CSB holds instructions in the execute stage);
* ``can_commit``/``on_commit`` — fingerprint verification (Reunion) and
  Communication Buffer admission (UnSync).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.core.branch import BimodalPredictor
from repro.core.config import CoreConfig
from repro.core.iq import IssueQueue
from repro.core.lsq import LSQ
from repro.core.rob import ROB, ROBEntry, EntryState
from repro.isa.golden import ArchState, StepInfo, step_state
from repro.isa.instructions import (
    FU_ALU, FU_DIV, FU_LOAD, FU_MUL, FU_STORE, FU_SWAP,
    InstrClass, Instruction, Opcode)
from repro.isa.program import Program
from repro.mem.hierarchy import MemPort


class CommitGate:
    """Hook interface for redundancy schemes. The default gates nothing."""

    def dispatch_allowed(self, now: int) -> bool:
        """False while the front end must stall (serializing drains)."""
        return True

    def on_dispatch(self, entry: ROBEntry, now: int) -> None:
        """Observe a dispatch (fingerprint-group assignment lives here)."""

    def on_complete(self, entry: ROBEntry, now: int) -> bool:
        """Admit a finishing instruction into the post-execute buffer.

        Returning False leaves the instruction in the execute stage; the
        pipeline retries every cycle (Reunion: CSB full).

        Admission is in program order: once a gate refuses an entry it
        must refuse every younger one offered in the same cycle. The
        pipeline relies on this and stops offering at the first refusal,
        counting the refused tail in ``writeback_stall_gate`` as if each
        entry had been offered.
        """
        return True

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        """May the ROB head retire this cycle?"""
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        """Observe retirement (stores are handed downstream here)."""


class NullGate(CommitGate):
    """Explicit no-op gate for the unprotected baseline."""


@dataclass
class PipelineStats:
    """Per-core run statistics."""

    cycles: int = 0
    committed: int = 0
    dispatch_stall_gate: int = 0
    dispatch_stall_rob: int = 0
    dispatch_stall_iq: int = 0
    dispatch_stall_lsq: int = 0
    commit_stall_gate: int = 0
    writeback_stall_gate: int = 0
    fetch_redirects: int = 0
    serializing_committed: int = 0
    stores_committed: int = 0
    loads_committed: int = 0

    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def metric_counters(self, prefix: str = "") -> Dict[str, float]:
        """Flat telemetry-counter view (``prefix`` is the dotted
        namespace, e.g. ``core0.pipeline.``). Driven off the dataclass
        fields so new counters are picked up automatically."""
        from dataclasses import asdict
        return {prefix + k: float(v) for k, v in asdict(self).items()}


_seq_key = attrgetter("seq")

#: an event-wheel slot: (operand-ready wake-ups, execution completions)
_Slot = Tuple[List[ROBEntry], List[ROBEntry]]


class Pipeline:
    """One out-of-order core executing one :class:`Program`."""

    def __init__(self,
                 program: Program,
                 config: CoreConfig,
                 memport: MemPort,
                 gate: Optional[CommitGate] = None,
                 name: str = "core0",
                 commit_replay: str = "reuse",
                 crosscheck_interval: int = 64) -> None:
        self.program = program
        self.config = config
        self.mem = memport
        self.gate = gate or NullGate()
        self.name = name
        #: "reuse" applies the fetch-time oracle record at commit (with a
        #: periodic full re-execution cross-check); "always" re-executes
        #: every instruction at commit — mandatory under fault injection,
        #: where the two images must stay independent.
        self.commit_replay = commit_replay
        self.crosscheck_interval = crosscheck_interval
        self._crosscheck_countdown = crosscheck_interval
        # Bind overridden gate hooks once; None means "default no-op" and
        # lets the per-instruction stage loops skip the call entirely
        # (the baseline/UnSync gates override only the commit hooks).
        gcls = type(self.gate)
        g = self.gate
        self._g_dispatch_allowed = (
            g.dispatch_allowed
            if gcls.dispatch_allowed is not CommitGate.dispatch_allowed
            else None)
        self._g_on_dispatch = (
            g.on_dispatch
            if gcls.on_dispatch is not CommitGate.on_dispatch else None)
        self._g_on_complete = (
            g.on_complete
            if gcls.on_complete is not CommitGate.on_complete else None)

        # oracle (fetch-time) and architectural (commit-time) state
        self.oracle = ArchState()
        self.oracle.load_data(program)
        self.oracle.pc = program.entry_pc
        self.committed_state = ArchState()
        self.committed_state.load_data(program)
        self.committed_state.pc = program.entry_pc

        self.rob = ROB(config.rob_entries)
        self.iq = IssueQueue(config.iq_entries)
        self.lsq = LSQ(config.lsq_entries)
        self.predictor = BimodalPredictor(config.predictor_entries)

        #: fetched entries awaiting dispatch (``ready_at`` = fetch done)
        self._fetch_buffer: Deque[ROBEntry] = deque()
        self._fetch_buffer_cap = 2 * config.fetch_width
        self._fetch_ready_at = 0
        #: the mispredicted branch fetch is blocked on (or None); its seq
        #: is below ``stats.committed`` once it has committed
        self._fetch_blocked_on: Optional[ROBEntry] = None
        self._next_seq = 0
        self._halt_fetched = False
        #: architectural register -> its youngest in-flight producer
        self._reg_producer: Dict[int, ROBEntry] = {}
        #: divider busy-until cycle (unpipelined unit)
        self._div_free_at = 0
        #: the event wheel: cycle -> (wake-ups, completions) due then
        self._wheel: Dict[int, _Slot] = {}
        #: first cycle whose wheel slot has not been delivered yet
        self._wheel_next = 0
        #: woken entries waiting for a functional unit, in seq order
        self._issue_ready: List[ROBEntry] = []
        #: completed-execution entries the gate has not yet admitted,
        #: kept in seq (= ROB age) order
        self._wb_ready: List[ROBEntry] = []
        #: external stall (recovery freeze): no stage runs before this cycle
        self.frozen_until = 0
        #: optional PipelineTracer (see repro.core.trace); None = no cost
        self.tracer = None

        # fetch-group geometry and core widths, hoisted out of the
        # per-cycle loops (both configs are immutable after construction)
        self._iline_bytes = self.mem.icache.config.line_bytes
        self._ifetch_hit = self.mem.icache.config.hit_latency
        self._fetch_width = config.fetch_width
        self._dispatch_width = config.dispatch_width
        self._issue_width = config.issue_width
        self._commit_width = config.commit_width

        self.stats = PipelineStats()
        self.done = False

    def mean_occupancy(self, structure: Union[ROB, IssueQueue, LSQ]
                       ) -> float:
        """Mean entries held by ``structure`` (this core's ROB, IQ or
        LSQ) per core-cycle: one sample is summed every cycle ``step``
        counts, so ``stats.cycles`` is the sample count."""
        cycles = self.stats.cycles
        return structure.occupancy_sum / cycles if cycles else 0.0

    @property
    def commit_replay(self) -> str:
        return "always" if self._replay_always else "reuse"

    @commit_replay.setter
    def commit_replay(self, mode: str) -> None:
        if mode not in ("reuse", "always"):
            raise ValueError(
                f"commit_replay must be 'reuse' or 'always', got {mode!r}")
        self._replay_always = mode == "always"

    # ------------------------------------------------------------------
    # public stepping
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        """Advance one clock cycle (cycle number ``now``)."""
        if self.done:
            return
        self.stats.cycles += 1
        # occupancy sampling, inlined: this runs every cycle of every core
        # (``stats.cycles`` is the sample count; see mean_occupancy)
        rob = self.rob
        rob.occupancy_sum += len(rob._entries)
        iq = self.iq
        iq.occupancy_sum += iq.count
        lsq = self.lsq
        lsq.occupancy_sum += len(lsq._entries)
        if now < self.frozen_until:
            return
        if self._wheel:
            self._deliver(now)
        self._wheel_next = now + 1
        self._commit(now)
        self._writeback(now)
        self._issue(now)
        self._dispatch(now)
        self._fetch(now)

    def _deliver(self, now: int) -> None:
        """Move the wheel slots due by ``now`` onto the ready lists.

        Normally that is the one slot for ``now``; after a freeze it is
        every slot that fell due while the stages were skipped. Both lists
        are re-sorted by seq, so delivery order never matters.
        """
        wheel = self._wheel
        if self._wheel_next == now:
            slot = wheel.pop(now, None)
            if slot is None:
                return
            wakes, dones = slot
        else:
            wakes = []
            dones = []
            for cycle in sorted(c for c in wheel if c <= now):
                w, d = wheel.pop(cycle)
                wakes += w
                dones += d
        if wakes:
            ready = self._issue_ready
            ready += wakes
            if len(ready) > 1:
                ready.sort(key=_seq_key)
        if dones:
            ready = self._wb_ready
            ready += dones
            if len(ready) > 1:
                ready.sort(key=_seq_key)

    # ------------------------------------------------------------------
    # stages (reverse order)
    # ------------------------------------------------------------------
    def _commit(self, now: int) -> None:
        # cheap head probe before any local binding: most cycles nothing
        # is ready to retire and this stage must cost almost nothing.
        entries = self.rob._entries
        if not entries:
            return
        COMPLETED = EntryState.COMPLETED
        head = entries[0]
        if head.state is not COMPLETED or head.complete_cycle >= now:
            return
        gate = self.gate
        stats = self.stats
        tracer = self.tracer
        reg_producer = self._reg_producer
        lsq = self.lsq
        store_latency = self.mem.store_latency
        for _ in range(self._commit_width):
            if not gate.can_commit(head, now):
                stats.commit_stall_gate += 1
                return
            entries.popleft()
            if tracer is not None:
                tracer.commit(head.seq, now)
            ins = head.ins
            rd = ins.rd
            if reg_producer.get(rd) is head:
                # producer leaves flight; later readers find the ARF value
                del reg_producer[rd]
            # architectural replay (exact semantics, second image)
            if ins.op is Opcode.HALT:
                self.done = True
                gate.on_commit(head, now)
                return
            if self._replay_always:
                mem_addr = step_state(self.committed_state, ins).mem_addr
            else:
                self._crosscheck_countdown -= 1
                if self._crosscheck_countdown <= 0:
                    self._crosscheck_countdown = self.crosscheck_interval
                    info = step_state(self.committed_state, ins)
                    self._crosscheck(head, info)
                    mem_addr = info.mem_addr
                else:
                    mem_addr = self._apply_recorded(head)
            if ins.is_mem:
                if ins.is_store:
                    # write-through L1 write at retirement; latency is
                    # absorbed by the store path (write buffer / CB), not
                    # commit.
                    store_latency(mem_addr, now)
                    stats.stores_committed += 1
                if ins.is_load:
                    stats.loads_committed += 1
                lsq.pop()
            if ins.is_serializing:
                stats.serializing_committed += 1
            stats.committed += 1
            gate.on_commit(head, now)
            if not entries:
                return
            head = entries[0]
            if head.state is not COMPLETED or head.complete_cycle >= now:
                return

    def _apply_recorded(self, entry: ROBEntry) -> Optional[int]:
        """Advance the architectural image from the oracle record captured
        at fetch, instead of re-executing the instruction.

        Valid only while the two images are known-identical; any system
        that arms a fault injector forces ``commit_replay="always"`` so
        the commit-time image stays an independent re-execution.
        """
        st = self.committed_state
        ins = entry.ins
        if entry.result is not None:
            rd = ins.rd
            if rd:
                st.regs[rd] = entry.result
        if entry.store_value is not None:
            st.mem.write(entry.mem_addr, entry.store_value, ins.mem_width)
        st.pc = entry.branch_target
        return entry.mem_addr

    def _crosscheck(self, entry: ROBEntry, info: StepInfo) -> None:
        """Compare a commit-time re-execution against the fetch-time
        record (periodic safety net for the ``reuse`` fast path)."""
        if (info.result != entry.result
                or info.mem_addr != entry.mem_addr
                or info.store_value != entry.store_value
                or info.next_pc != entry.branch_target
                or info.taken != entry.branch_taken):
            raise RuntimeError(
                f"{self.name}: commit replay diverged from fetch-time "
                f"oracle at seq={entry.seq} pc={entry.pc:#x} ({entry.ins})")

    def _writeback(self, now: int) -> None:
        # transition finished executions to COMPLETED, subject to the
        # gate's post-execute buffer (CSB) admission. Completions arrive
        # from the event wheel; gate-refused entries stay in _wb_ready
        # and retry.
        ready = self._wb_ready
        if not ready:
            return
        on_complete = self._g_on_complete
        tracer = self.tracer
        COMPLETED = EntryState.COMPLETED
        if on_complete is None:
            # no gate: everything ready completes this cycle
            for entry in ready:
                entry.state = COMPLETED
                if tracer is not None:
                    tracer.complete(entry.seq, entry.complete_cycle)
            ready.clear()
            return
        # in-order admission (the on_complete contract): the first
        # refusal refuses the whole younger tail
        for i, entry in enumerate(ready):
            if not on_complete(entry, now):
                self.stats.writeback_stall_gate += len(ready) - i
                del ready[:i]
                return
            entry.state = COMPLETED
            if tracer is not None:
                tracer.complete(entry.seq, entry.complete_cycle)
        ready.clear()

    def _issue(self, now: int) -> None:
        # walk the woken entries oldest-first; an entry whose unit is
        # taken this cycle stays for the next
        ready = self._issue_ready
        if not ready:
            return
        cfg = self.config
        alu_left = cfg.n_alu
        mul_left = cfg.n_mul
        mem_left = cfg.n_mem_ports
        width_left = self._issue_width
        tracer = self.tracer
        wheel = self._wheel
        ISSUED = EntryState.ISSUED
        kept: List[ROBEntry] = []
        for entry in ready:
            if width_left == 0:
                break
            fu = entry.ins.fu_class
            if fu == FU_ALU:
                if alu_left == 0:
                    kept.append(entry)
                    continue
                alu_left -= 1
                latency = cfg.alu_latency
            elif fu == FU_LOAD:
                if mem_left == 0:
                    kept.append(entry)
                    continue
                mem_left -= 1
                if self.lsq.forwarding_store(entry) is not None:
                    latency = 1
                else:
                    latency = self.mem.load_latency(entry.mem_addr, now)
            elif fu == FU_STORE:
                # address generation only; the write happens at commit
                if mem_left == 0:
                    kept.append(entry)
                    continue
                mem_left -= 1
                latency = 1
            elif fu == FU_MUL:
                if mul_left == 0:
                    kept.append(entry)
                    continue
                mul_left -= 1
                latency = cfg.mul_latency
            elif fu == FU_DIV:
                if self._div_free_at > now:
                    kept.append(entry)
                    continue
                latency = cfg.div_latency
                self._div_free_at = now + latency
            elif fu == FU_SWAP:
                if mem_left == 0:
                    kept.append(entry)
                    continue
                mem_left -= 1
                latency = self.mem.load_latency(entry.mem_addr, now)
            else:
                # TRAP/MEMBAR execute as cheap ops here; their *cost* is
                # scheme-defined (Reunion blocks dispatch until the group
                # containing them verifies; UnSync charges nothing), which
                # is exactly the Figure 4 comparison.
                latency = cfg.alu_latency

            entry.state = ISSUED
            cc = now + latency
            entry.complete_cycle = cc
            waiters = entry.waiters
            if waiters is not None:
                # wake the consumers whose last producer this is, for the
                # cycle all their producers have broadcast (> now)
                for dep in waiters:
                    if cc > dep.ready_at:
                        dep.ready_at = cc
                    dep.pending -= 1
                    if not dep.pending:
                        at = dep.ready_at
                        slot = wheel.get(at)
                        if slot is None:
                            wheel[at] = ([dep], [])
                        else:
                            slot[0].append(dep)
                entry.waiters = None
            slot = wheel.get(cc)
            if slot is None:
                wheel[cc] = ([], [entry])
            else:
                slot[1].append(entry)
            if tracer is not None:
                tracer.issue(entry.seq, now)
            width_left -= 1
        n_issued = self._issue_width - width_left
        if n_issued:
            self.iq.count -= n_issued
            del ready[:n_issued + len(kept)]
            if kept:
                ready[:0] = kept

    def _dispatch(self, now: int) -> None:
        buf = self._fetch_buffer
        if not buf or buf[0].ready_at > now:
            return
        rob_entries = self.rob._entries
        rob_cap = self.rob.capacity
        iq = self.iq
        iq_cap = iq.capacity
        lsq = self.lsq
        lsq_cap = lsq.capacity
        stats = self.stats
        tracer = self.tracer
        reg_producer = self._reg_producer
        issue_ready = self._issue_ready
        wheel = self._wheel
        dispatch_allowed = self._g_dispatch_allowed
        on_dispatch = self._g_on_dispatch
        for _ in range(self._dispatch_width):
            if not buf:
                return
            entry = buf[0]
            if entry.ready_at > now:
                return
            if dispatch_allowed is not None and not dispatch_allowed(now):
                stats.dispatch_stall_gate += 1
                return
            if len(rob_entries) >= rob_cap:
                stats.dispatch_stall_rob += 1
                return
            if iq.count >= iq_cap:
                stats.dispatch_stall_iq += 1
                return
            ins = entry.ins
            is_mem = ins.is_mem
            if is_mem and len(lsq._entries) >= lsq_cap:
                stats.dispatch_stall_lsq += 1
                return
            buf.popleft()

            # register the entry with each in-flight producer: not-yet-
            # issued producers get a waiter link (they wake us when they
            # issue); already-issued producers just contribute their
            # broadcast cycle. reg_producer never maps r0 and drops
            # committed producers.
            ready_at = 0
            for r in ins.srcs:
                producer = reg_producer.get(r)
                if producer is None:
                    continue
                cc = producer.complete_cycle
                if cc < 0:
                    entry.pending += 1
                    w = producer.waiters
                    if w is None:
                        producer.waiters = [entry]
                    else:
                        w.append(entry)
                elif cc > ready_at:
                    ready_at = cc
            entry.ready_at = ready_at
            if not entry.pending:
                # issue has run this cycle, so next cycle is the earliest
                if ready_at <= now + 1:
                    issue_ready.append(entry)
                else:
                    slot = wheel.get(ready_at)
                    if slot is None:
                        wheel[ready_at] = ([entry], [])
                    else:
                        slot[0].append(entry)
            rob_entries.append(entry)
            if tracer is not None:
                tracer.dispatch(entry.seq, now)
            iq.count += 1
            if is_mem:
                lsq.push(entry)
            if ins.writes_reg and ins.rd != 0:
                reg_producer[ins.rd] = entry
            if on_dispatch is not None:
                on_dispatch(entry, now)

    def _fetch(self, now: int) -> None:
        if self._halt_fetched or now < self._fetch_ready_at:
            return
        branch = self._fetch_blocked_on
        if branch is not None:
            if branch.seq < self.stats.committed:
                # branch already committed; redirect cost already absorbed
                self._fetch_blocked_on = None
            else:
                # blocked until the branch resolves (it may still sit in
                # the fetch buffer, where complete_cycle is -1)
                cc = branch.complete_cycle
                if 0 <= cc <= now:
                    self._fetch_ready_at = (
                        cc + self.config.branch_mispredict_penalty)
                    self._fetch_blocked_on = None
                    self.stats.fetch_redirects += 1
                return
        buf = self._fetch_buffer
        if len(buf) + self._fetch_width > self._fetch_buffer_cap:
            return

        oracle = self.oracle
        pc = oracle.pc
        latency = self.mem.ifetch_latency(pc, now)
        fetch_done = now + latency
        # pipelined fetch: the next group may start next cycle on a hit,
        # or after the miss resolves.
        self._fetch_ready_at = now + 1 + max(0, latency - self._ifetch_hit)

        instrs = self.program.instructions
        n_instr = len(instrs)
        tracer = self.tracer
        line_bytes = self._iline_bytes
        group_line = pc // line_bytes
        for _ in range(self._fetch_width):
            idx = oracle.pc >> 2
            ins = instrs[idx] if 0 <= idx < n_instr else None
            if ins is None:
                ins = Instruction(Opcode.HALT)
            seq = self._next_seq
            self._next_seq = seq + 1
            if ins.op is Opcode.HALT:
                buf.append(ROBEntry(seq, ins, oracle.pc, fetch_done,
                                    branch_target=oracle.pc))
                self._halt_fetched = True
                return
            info = ins.step(oracle, ins)
            if tracer is not None:
                tracer.fetch(seq, info.pc, ins, fetch_done)
            entry = ROBEntry(seq, ins, info.pc, fetch_done, info.result,
                             info.mem_addr, info.store_value, info.taken,
                             info.next_pc)
            buf.append(entry)
            if ins.is_branch:
                if not self._handle_branch_fetch(entry, info, fetch_done):
                    return  # fetch group ends; possibly blocked
            # group also ends when the next pc leaves this line
            if info.next_pc // line_bytes != group_line:
                return

    def _handle_branch_fetch(self, entry: ROBEntry, info: StepInfo,
                             fetch_done: int) -> bool:
        """Predict a just-fetched branch; returns True when fetch may
        continue within the same group (correctly-predicted not-taken)."""
        ins = info.ins
        actual_taken = info.taken
        actual_target = info.next_pc
        if ins.iclass is InstrClass.BRANCH:
            predicted_taken = self.predictor.predict(info.pc)
            btb_target = self.predictor.predict_target(info.pc)
            self.predictor.update(info.pc, actual_taken, actual_target)
            if predicted_taken != actual_taken or (
                    actual_taken and btb_target != actual_target):
                self.predictor.record_mispredict()
                self._fetch_blocked_on = entry
                return False
            # correct prediction: taken branch still ends the fetch group
            return not actual_taken
        if ins.op in (Opcode.J, Opcode.JAL):
            if ins.op is Opcode.JAL:
                self.predictor.push_return(info.pc + 4)
            # direct target, known at decode: one-cycle bubble only
            self._fetch_ready_at = max(self._fetch_ready_at, fetch_done)
            return False
        # JR: indirect target; the return-address stack (or, failing
        # that, a BTB hit with the right target) avoids the resolution
        # stall.
        predicted = self.predictor.pop_return()
        if predicted is None:
            predicted = self.predictor.predict_target(info.pc)
        self.predictor.update(info.pc, True, actual_target)
        if predicted != actual_target:
            self.predictor.record_mispredict()
            self._fetch_blocked_on = entry
        return False

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def flush_pipeline(self) -> int:
        """Squash all in-flight work (recovery step 2); returns count."""
        n = self.rob.flush()
        self.iq.count = 0
        self.lsq.flush()
        self._wheel.clear()
        self._issue_ready.clear()
        self._wb_ready.clear()
        self._fetch_buffer.clear()
        self._reg_producer.clear()
        self._fetch_blocked_on = None
        self._halt_fetched = False
        # restart the oracle from the committed point; sequence numbers
        # restart there too (commit is in-order, so the next instruction's
        # seq equals the committed count), keeping replays seq-identical.
        self.oracle = self.committed_state.clone()
        self._next_seq = self.stats.committed
        return n

    def adopt_state(self, other: "Pipeline") -> None:
        """Copy the architectural state of ``other``'s committed point onto
        this core (recovery step 3); the caller charges the cycle cost.
        Call it on a flushed core: in-flight entries carry seqs of the
        old committed point."""
        self.committed_state = other.committed_state.clone()
        self.oracle = other.committed_state.clone()
        self.stats.committed = other.stats.committed
        # commit is in-order, so the next instruction at the adopted point
        # carries seq == committed count — keeping the two cores' store
        # streams seq-aligned for CB matching.
        self._next_seq = other.stats.committed
        self.done = other.done

    def restore_to(self, state: ArchState, committed: int) -> None:
        """Rewind the *committed* point itself to an earlier snapshot
        (checkpoint rollback — unlike :meth:`adopt_state`, this may move
        backwards past work this core already retired)."""
        self.flush_pipeline()
        self.committed_state = state.clone()
        self.oracle = state.clone()
        self.stats.committed = committed
        self._next_seq = committed
        self.done = False

    @property
    def arch_state(self) -> ArchState:
        """The committed architectural state (recovery source/target)."""
        return self.committed_state

