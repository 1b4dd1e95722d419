"""MEEKSystem: a cheap in-order checker core trailing an OoO leader.

MEEK (arXiv:2504.01347) pairs the big out-of-order core with a small
in-order checker: the leader retires at full speed, every retirement
enters a bounded **check queue** with its operand/result values, and the
checker re-executes the stream ``check_width`` instructions per cycle
once entries have matured ``check_latency`` cycles. Mapped onto this
repo's model:

* the checker is an abstract verification engine (no second
  :class:`~repro.core.pipeline.Pipeline` — its in-order core is an order
  of magnitude smaller than the leader, which is the scheme's whole
  selling point and what the hwcost entry charges);
* the leader's commit gate needs a check-queue slot for *every*
  instruction — a full queue back-pressures commit (stall-on-full), the
  directed backpressure test pins this;
* stores are released to the L2 only after the checker verifies them;
* coverage follows the forwarding design: the checker re-executes with
  its own register file, so register and pre-commit pipeline state are
  covered, but load values are *forwarded* from the leader rather than
  re-loaded — L1/TLB corruption flows straight through as SDC. That
  asymmetry is the taxonomy contrast with the full-pair schemes.

Detection triggers a **recheck**: squash the leader, freeze for the
recheck penalty plus the committed-but-unchecked window, and re-verify.
Strikes inside that window burn bounded retries, then degrade to DUE.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import ROBEntry
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import Block, FaultInjector, Strike
from repro.isa.program import Program
from repro.redundancy.pair import DualCoreSystem
from repro.redundancy.stats import WriteBuffer
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    CHECKQ_DRAIN, CHECKQ_GATE, FAULT_DETECTED, FAULT_DUE, FAULT_SDC,
    RECOVERY_ABORT, RECOVERY_REENTRY,
)

#: blocks the checker's re-execution covers: its private register file
#: shadows the leader's, and pre-commit pipeline state feeds the compared
#: results. Memory arrays are NOT here — load values are forwarded from
#: the leader unverified.
MEEK_COVERED_BLOCKS = frozenset(
    ("regfile", "pc", "pipeline_regs", "rob", "iq", "lsq"))

#: MEEK's scheme-private uncore structure: the check queue carries the
#: leader's retirement records (values + tags) to the checker core.
MEEK_UNCORE_BLOCKS = (
    Block("check_queue", 64 * 100, pre_commit=False),
)


@dataclass(frozen=True)
class MEEKParams:
    """MEEK knobs on top of the Table I system."""

    #: bounded check-queue capacity (leader retirements awaiting the
    #: checker); a full queue back-pressures leader commit
    queue_entries: int = 64
    #: instructions the in-order checker verifies per cycle (the paper's
    #: parallel checking lanes — sized to keep up with the leader's
    #: commit width so steady-state slowdown stays small)
    check_width: int = 4
    #: cycles an entry matures in the queue before the checker may take
    #: it (transfer + the checker's own pipeline depth)
    check_latency: int = 8
    #: squash + re-steer cost of one recheck episode
    recheck_penalty: int = 24
    #: recheck restarts tolerated inside one episode before degrading to
    #: a detected-unrecoverable outcome
    recheck_retry_budget: int = 2
    #: verified-store release queue between the checker and the L2
    store_buffer_entries: int = 16

    def __post_init__(self) -> None:
        if self.queue_entries <= 0:
            raise ValueError("queue_entries must be positive")
        if self.check_width <= 0:
            raise ValueError("check_width must be positive")
        if self.check_latency < 0:
            raise ValueError("check_latency must be >= 0")
        if self.recheck_penalty <= 0:
            raise ValueError("recheck_penalty must be positive")
        if self.recheck_retry_budget < 0:
            raise ValueError("recheck_retry_budget must be >= 0")
        if self.store_buffer_entries <= 0:
            raise ValueError("store_buffer_entries must be positive")


@dataclass(slots=True)
class _CheckRecord:
    """One leader retirement awaiting checker verification."""

    seq: int
    is_store: bool
    mem_addr: Optional[int]
    store_value: Optional[int]
    mem_width: int
    commit_cycle: int


class _MEEKGate(CommitGate):
    """Leader gate: every retirement needs a check-queue slot."""

    def __init__(self, system: "MEEKSystem") -> None:
        self.system = system
        self._ev = system._ev
        self._stall_start: Optional[int] = None

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        system = self.system
        if len(system.check_queue) >= system.params.queue_entries:
            system.checkq_full_stalls += 1
            if self._ev is not None and self._stall_start is None:
                self._stall_start = now
            return False
        if self._stall_start is not None:
            self._ev.emit(CHECKQ_GATE, self._stall_start, "core0.checkq",
                          dur=now - self._stall_start)
            self._stall_start = None
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        system = self.system
        system.check_queue.append(_CheckRecord(
            seq=entry.seq, is_store=entry.ins.is_store,
            mem_addr=entry.mem_addr, store_value=entry.store_value,
            mem_width=entry.ins.mem_width, commit_cycle=now))
        if len(system.check_queue) > system.checkq_max_occupancy:
            system.checkq_max_occupancy = len(system.check_queue)


class MEEKSystem(DualCoreSystem):
    """OoO leader + small in-order checker over a bounded check queue."""

    scheme = "meek"
    #: the checker is a verification engine, not a second pipeline
    n_cores = 1

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 params: Optional[MEEKParams] = None,
                 injector: Optional[FaultInjector] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.params = params or MEEKParams()
        self.check_queue: Deque[_CheckRecord] = deque()
        self.store_buffer = WriteBuffer(
            capacity=self.params.store_buffer_entries)
        self.checks = 0
        self.checked_seqs = 0
        self.checkq_full_stalls = 0
        self.checkq_max_occupancy = 0
        self.rechecks = 0
        self.recovery_cycles_total = 0
        self.due_count = 0
        self.recheck_reentries = 0
        self.recheck_aborts = 0
        self._recheck_until = 0
        self._recheck_retries_left = self.params.recheck_retry_budget
        #: fault events awaiting checker verification of the struck
        #: instruction: (checked-count threshold, event)
        self._pending: List = []
        super().__init__(program, config, name=name, telemetry=telemetry,
                         injector=injector)

    def make_gate(self, core_id: int) -> CommitGate:
        return _MEEKGate(self)

    # -- per-cycle engine ---------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if self.injector is not None:
            self._process_strikes(now)
            if self._pending:
                self._adjudicate(now)
        if now >= self._recheck_until:
            self._check(now)
        # drain checker-verified stores whenever the bus is idle
        self.store_buffer.drain(self.bus, self.l2, now)

    def _check(self, now: int) -> None:
        """The in-order checker: verify up to ``check_width`` mature
        entries, releasing verified stores to the store buffer."""
        queue = self.check_queue
        taken = 0
        while queue and taken < self.params.check_width:
            head = queue[0]
            if now - head.commit_cycle < self.params.check_latency:
                break
            if head.is_store and not self.store_buffer.can_accept():
                break
            queue.popleft()
            taken += 1
            self.checks += 1
            self.checked_seqs = head.seq + 1
            if head.is_store:
                self.store_buffer.push(head.seq, head.mem_addr,
                                       head.store_value, head.mem_width)
        if taken and self._ev is not None:
            self._ev.emit(CHECKQ_DRAIN, now, "checkq",
                          args={"n": taken, "left": len(queue)})

    # -- faults -------------------------------------------------------------
    def on_strike(self, now: int, strike: Strike, event: FaultEvent) -> None:
        if now < self._recheck_until:
            self._strike_during_recheck(now, event)
        elif strike.block == "check_queue":
            self._strike_queue(event)
        elif strike.block in MEEK_COVERED_BLOCKS:
            # surfaces when the checker re-executes the struck
            # instruction (value compare, no parity blind spot)
            event.outcome = None  # pending verification
            self._pending.append((self.pipelines[0].stats.committed, event))
        else:
            # forwarded load values are never re-verified: L1 and TLB
            # corruption sails straight past the checker
            event.outcome = Outcome.SDC
            if self._ev is not None:
                self._ev.emit(FAULT_SDC, now, "core0",
                              args={"block": strike.block,
                                    "flipped": strike.flipped_bits})

    def _strike_queue(self, event: FaultEvent) -> None:
        """A strike on a buffered check record: an empty queue is masked,
        otherwise the corrupted record mis-compares at the checker — a
        spurious mismatch repaired by an ordinary recheck."""
        if not self.check_queue:
            event.outcome = Outcome.MASKED
            return
        event.outcome = None
        self._pending.append((self.checked_seqs, event))

    def _strike_during_recheck(self, now: int, event: FaultEvent) -> None:
        """A strike landing inside an in-progress recheck window."""
        self.recheck_reentries += 1
        if self._ev is not None:
            self._ev.emit(RECOVERY_REENTRY, now, "checkq",
                          args={"block": event.block,
                                "retries_left": self._recheck_retries_left})
        if self._recheck_retries_left > 0:
            self._recheck_retries_left -= 1
            self.recheck_aborts += 1
            penalty = self.params.recheck_penalty
            self._recheck_until = max(self._recheck_until, now + penalty)
            leader = self.pipelines[0]
            leader.frozen_until = max(leader.frozen_until, now + penalty)
            self.recovery_cycles_total += penalty
            event.outcome = Outcome.DETECTED_RECOVERED
            if self._ev is not None:
                self._ev.emit(RECOVERY_ABORT, now, "checkq",
                              args={"block": event.block})
        else:
            event.outcome = Outcome.DETECTED_UNRECOVERABLE
            self.due_count += 1
            if self._ev is not None:
                self._ev.emit(FAULT_DUE, now, "core0",
                              args={"block": event.block,
                                    "reason": "retry-budget-exhausted"})

    def _adjudicate(self, now: int) -> None:
        """Resolve pending events the checker has verified past."""
        matured = [(t, e) for t, e in self._pending
                   if self.checked_seqs > t]
        if not matured:
            return
        for _, event in matured:
            event.outcome = Outcome.DETECTED_RECOVERED
            event.detection_latency = max(0, now - event.cycle)
            if self._ev is not None:
                self._ev.emit(FAULT_DETECTED, now, "core0",
                              args={"block": event.block,
                                    "latency": event.detection_latency})
            self._met.histogram("meek.detection.latency").observe(
                event.detection_latency)
        self._pending = [(t, e) for t, e in self._pending
                         if self.checked_seqs <= t]
        self._recheck(now)

    def _recheck(self, now: int) -> None:
        """Squash the leader and re-verify the unchecked window."""
        self.rechecks += 1
        window = len(self.check_queue)
        penalty = self.params.recheck_penalty + window
        if now >= self._recheck_until:
            # a fresh recheck episode resets the abort-retry budget
            self._recheck_retries_left = self.params.recheck_retry_budget
        self._recheck_until = max(self._recheck_until, now + penalty)
        if self.injector is not None:
            # a chase strike queued for this window must preempt the
            # pre-drawn strike or it would be delivered after the squash
            self.injector.on_recovery(now, penalty)
            self._next_strike = self.injector.preempt(self._next_strike)
        self._met.histogram("meek.recheck.penalty").observe(penalty)
        leader = self.pipelines[0]
        leader.flush_pipeline()
        leader.frozen_until = max(leader.frozen_until, now + penalty)
        self.recovery_cycles_total += penalty

    # -- driving ------------------------------------------------------------
    def finished(self) -> bool:
        return (self.pipelines[0].done and not self.check_queue
                and not len(self.store_buffer))

    def cycles(self) -> int:
        # the checker keeps verifying after the leader halts
        return max(super().cycles(), self.now)

    # -- results ------------------------------------------------------------
    #: legacy `extra` keys, derived from the named telemetry counters
    LEGACY_EXTRA = {
        "checkq_full_stalls": "meek.checkq.full_stalls",
        "checks": "meek.check.count",
        "rechecks": "meek.recheck.count",
        "recovery_cycles": "meek.recovery.cycles",
    }

    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "meek.check.count": float(self.checks),
            "meek.checkq.full_stalls": float(self.checkq_full_stalls),
            "meek.checkq.max_occupancy": float(self.checkq_max_occupancy),
            "meek.recheck.count": float(self.rechecks),
            "meek.recheck.reentries": float(self.recheck_reentries),
            "meek.recheck.aborts": float(self.recheck_aborts),
            "meek.recovery.cycles": float(self.recovery_cycles_total),
            "meek.due.count": float(self.due_count),
            "meek.store_buffer.pushes": float(self.store_buffer.pushes),
            "meek.store_buffer.full_stalls": float(
                self.store_buffer.full_stalls),
        }
