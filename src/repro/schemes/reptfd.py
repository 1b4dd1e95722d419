"""RepTFDSystem: delayed-replay comparison against the leading core.

RepTFD ("replay-based transient fault detection", arXiv:1206.2132)
detects soft errors by re-executing the committed instruction stream on a
second core a fixed *replay lag* behind the leader and comparing the two
commit-time images value-for-value. Mapped onto this repo's pair chassis:

* **core 0 (leader)** runs ahead; every retirement deposits an oracle
  record — the same commit-time record the pipeline's replay machinery
  produces — into a bounded **replay queue** (stall-on-full, like the CB);
* **core 1 (trailer)** may only retire an instruction once the leader's
  record for it has aged ``replay_lag`` cycles, and its own commit-time
  re-execution is compared against that record (pc, result, store
  address/value);
* only trailer-verified stores are released to the shared L2 — the
  trailer's commit point is the verification point;
* a mismatch rolls both cores back (squash + freeze) and additionally
  charges the leader's committed-but-unverified window, which is what
  makes detection latency — and hence ``replay_lag`` — expensive.

The comparison is a full-value check, so there is no CRC-aliasing escape
and no parity blind spot: multi-bit clusters are detected exactly like
single flips. The exposure that remains is the recovery window itself
(bounded retries, then DUE) and the replay queue's own storage (a
corrupted record forces a spurious rollback).
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
    FAULT_DUE, RECOVERY_ABORT, RECOVERY_REENTRY, REPLAY_COMPARE,
    REPLAY_GATE, ROLLBACK,
)

#: RepTFD's scheme-private uncore structure: the replay queue holds the
#: leader's commit records (pc + result + address + value + tags) until
#: the trailer consumes them. Sized for the default 96-entry queue.
REPTFD_UNCORE_BLOCKS = (
    Block("replay_queue", 96 * 130, pre_commit=False),
)


@dataclass(frozen=True)
class RepTFDParams:
    """RepTFD knobs on top of the Table I system."""

    #: minimum age (cycles) of a leader record before the trailer may
    #: retire the same instruction — the detection-latency floor
    replay_lag: int = 64
    #: bounded replay-queue capacity; a full queue back-pressures the
    #: leader's commit exactly like a full CB
    queue_entries: int = 96
    #: squash + re-steer cost of one rollback episode (both cores)
    rollback_penalty: int = 40
    #: rollback restarts tolerated inside one episode before the pair
    #: degrades to a detected-unrecoverable outcome
    rollback_retry_budget: int = 2
    #: verified-store release queue between trailer commit and the L2
    store_queue_entries: int = 16

    def __post_init__(self) -> None:
        if self.replay_lag <= 0:
            raise ValueError("replay_lag must be positive")
        if self.queue_entries <= 0:
            raise ValueError("queue_entries must be positive")
        if self.rollback_penalty <= 0:
            raise ValueError("rollback_penalty must be positive")
        if self.rollback_retry_budget < 0:
            raise ValueError("rollback_retry_budget must be >= 0")
        if self.store_queue_entries <= 0:
            raise ValueError("store_queue_entries must be positive")


@dataclass(slots=True)
class _ReplayRecord:
    """One leader retirement awaiting trailer comparison."""

    seq: int
    pc: int
    result: Optional[int]
    mem_addr: Optional[int]
    store_value: Optional[int]
    is_store: bool
    commit_cycle: int


class _LeaderGate(CommitGate):
    """Core 0: every retirement needs a replay-queue slot."""

    def __init__(self, system: "RepTFDSystem") -> None:
        self.system = system
        self._ev = system._ev
        self._stall_start: Optional[int] = None

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        system = self.system
        if len(system.replay_queue) >= system.params.queue_entries:
            system.queue_full_stalls += 1
            if self._ev is not None and self._stall_start is None:
                self._stall_start = now
            return False
        if self._stall_start is not None:
            self._ev.emit(REPLAY_GATE, self._stall_start, "core0.replay",
                          dur=now - self._stall_start)
            self._stall_start = None
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        system = self.system
        system.replay_queue.append(_ReplayRecord(
            seq=entry.seq, pc=entry.pc, result=entry.result,
            mem_addr=entry.mem_addr, store_value=entry.store_value,
            is_store=entry.ins.is_store, commit_cycle=now))
        if len(system.replay_queue) > system.queue_max_occupancy:
            system.queue_max_occupancy = len(system.replay_queue)


class _TrailerGate(CommitGate):
    """Core 1: retire only aged leader records, comparing on the way."""

    def __init__(self, system: "RepTFDSystem") -> None:
        self.system = system

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        system = self.system
        queue = system.replay_queue
        if not queue:
            return False
        head = queue[0]
        if head.seq != entry.seq:
            # the leader is mid-resteer after a rollback; wait for its
            # record stream to catch up with the trailer's commit point
            return False
        if now - head.commit_cycle < system.params.replay_lag:
            return False
        if entry.ins.is_store:
            # verified stores need a release-queue slot
            return system.store_queue.can_accept()
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        system = self.system
        record = system.replay_queue.popleft()
        system.compares += 1
        if (record.pc != entry.pc or record.result != entry.result
                or record.mem_addr != entry.mem_addr
                or record.store_value != entry.store_value):
            # fault-free runs never diverge (both images re-execute the
            # same deterministic program); kept as a live invariant
            system.value_divergences += 1  # pragma: no cover
        if entry.ins.is_store:
            system.store_queue.push(entry.seq, entry.mem_addr,
                                    entry.store_value, entry.ins.mem_width)


class RepTFDSystem(DualCoreSystem):
    """Leader/trailer pair with delayed full-value replay comparison."""

    scheme = "reptfd"
    LEADER = 0
    TRAILER = 1

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 params: Optional[RepTFDParams] = None,
                 injector: Optional[FaultInjector] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None,
                 **uncore) -> None:
        self.params = params or RepTFDParams()
        self.replay_queue: Deque[_ReplayRecord] = deque()
        self.store_queue = WriteBuffer(
            capacity=self.params.store_queue_entries)
        self.compares = 0
        self.value_divergences = 0
        self.queue_full_stalls = 0
        self.queue_max_occupancy = 0
        self.rollbacks = 0
        self.rollback_cycles_total = 0
        self.due_count = 0
        self.rollback_reentries = 0
        self.rollback_aborts = 0
        self._rollback_until = 0
        self._rollback_retries_left = self.params.rollback_retry_budget
        #: fault events awaiting the trailer's comparison of the struck
        #: instruction: (trailer-commit threshold, event)
        self._pending: List = []
        super().__init__(program, config, name=name, telemetry=telemetry,
                         injector=injector, **uncore)

    # -- construction hooks -------------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        if core_id == self.LEADER:
            return _LeaderGate(self)
        return _TrailerGate(self)

    # -- per-cycle engine ---------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if self.injector is not None:
            self._process_strikes(now)
            if self._pending:
                self._adjudicate(now)
        # drain trailer-verified stores whenever the bus is idle
        self.store_queue.drain(self.bus, self.l2, now, self.addr_offset)

    # -- faults -------------------------------------------------------------
    def on_strike(self, now: int, strike: Strike, event: FaultEvent) -> None:
        if now < self._rollback_until:
            self._strike_during_rollback(now, event.core_id, event)
        elif strike.block == "replay_queue":
            self._strike_queue(now, event)
        else:
            # every core block feeds the compared commit-time image — the
            # corruption surfaces when the trailer re-executes the struck
            # instruction, regardless of cluster size (the full-value
            # compare has no parity blind spot)
            threshold = self.pipelines[event.core_id].stats.committed
            event.outcome = None  # pending comparison
            self._pending.append((threshold, event))

    def _strike_queue(self, now: int, event: FaultEvent) -> None:
        """A strike on a buffered replay record.

        An empty queue has no record to corrupt (masked). Otherwise the
        corrupted record mis-compares when the trailer consumes it — a
        spurious mismatch, detected and repaired by an ordinary rollback.
        """
        if not self.replay_queue:
            event.outcome = Outcome.MASKED
            return
        event.outcome = None
        self._pending.append(
            (self.pipelines[self.TRAILER].stats.committed, event))

    def _strike_during_rollback(self, now: int, core_id: int,
                                event: FaultEvent) -> None:
        """A strike landing inside an in-progress rollback window.

        The squash-and-restart state is exactly what the next comparison
        round depends on, so the rollback aborts and restarts (bounded
        retries); an exhausted budget degrades to DUE.
        """
        self.rollback_reentries += 1
        if self._ev is not None:
            self._ev.emit(RECOVERY_REENTRY, now, "replay",
                          args={"core": core_id, "block": event.block,
                                "retries_left": self._rollback_retries_left})
        if self._rollback_retries_left > 0:
            self._rollback_retries_left -= 1
            self.rollback_aborts += 1
            penalty = self.params.rollback_penalty
            self._rollback_until = max(self._rollback_until, now + penalty)
            for pipeline in self.pipelines:
                pipeline.frozen_until = max(pipeline.frozen_until,
                                            now + penalty)
            self.rollback_cycles_total += penalty
            event.outcome = Outcome.DETECTED_RECOVERED
            if self._ev is not None:
                self._ev.emit(RECOVERY_ABORT, now, "replay",
                              args={"core": core_id, "block": event.block})
        else:
            event.outcome = Outcome.DETECTED_UNRECOVERABLE
            self.due_count += 1
            if self._ev is not None:
                self._ev.emit(FAULT_DUE, now, f"core{core_id}",
                              args={"block": event.block,
                                    "reason": "retry-budget-exhausted"})

    def _adjudicate(self, now: int) -> None:
        """Resolve pending events the trailer's comparison has reached."""
        verified = self.pipelines[self.TRAILER].stats.committed
        matured = [(t, e) for t, e in self._pending if verified > t]
        if not matured:
            return
        for _, event in matured:
            event.outcome = Outcome.DETECTED_RECOVERED
            event.detection_latency = max(0, now - event.cycle)
            if self._ev is not None:
                self._ev.emit(REPLAY_COMPARE, now, "replay",
                              args={"core": event.core_id,
                                    "block": event.block,
                                    "latency": event.detection_latency})
            self._met.histogram("reptfd.detection.latency").observe(
                event.detection_latency)
        self._pending = [(t, e) for t, e in self._pending
                         if verified <= t]
        self._rollback(now)

    # -- rollback -----------------------------------------------------------
    def _rollback(self, now: int) -> None:
        """Squash both cores and re-run the unverified window.

        The leader has committed ``lag_window`` instructions the trailer
        never verified; restoring the pair to the last verified point
        costs the fixed squash penalty *plus* that window's re-execution
        — the price of delayed detection. The replay queue is never
        cleared: it still holds the records for the leader commits the
        trailer has yet to consume, and draining them is what lets the
        episode converge.
        """
        self.rollbacks += 1
        lag_window = (self.pipelines[self.LEADER].stats.committed
                      - self.pipelines[self.TRAILER].stats.committed)
        penalty = self.params.rollback_penalty + max(0, lag_window)
        if now >= self._rollback_until:
            # a fresh rollback episode resets the abort-retry budget
            self._rollback_retries_left = self.params.rollback_retry_budget
        self._rollback_until = max(self._rollback_until, now + penalty)
        if self.injector is not None:
            # a chase strike queued for this window must preempt the
            # pre-drawn strike or it would be delivered after the squash
            self.injector.on_recovery(now, penalty)
            self._next_strike = self.injector.preempt(self._next_strike)
        if self._ev is not None:
            self._ev.emit(ROLLBACK, now, "replay", dur=penalty,
                          args={"window": lag_window})
        self._met.histogram("reptfd.rollback.penalty").observe(penalty)
        for pipeline in self.pipelines:
            pipeline.flush_pipeline()
            pipeline.frozen_until = max(pipeline.frozen_until, now + penalty)
        self.rollback_cycles_total += penalty

    # -- results ------------------------------------------------------------
    #: legacy `extra` keys, derived from the named telemetry counters
    LEGACY_EXTRA = {
        "replay_compares": "reptfd.replay.compares",
        "replay_queue_full_stalls": "reptfd.queue.full_stalls",
        "rollbacks": "reptfd.rollback.count",
        "rollback_cycles": "reptfd.rollback.cycles",
    }

    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "reptfd.replay.compares": float(self.compares),
            "reptfd.replay.divergences": float(self.value_divergences),
            "reptfd.queue.full_stalls": float(self.queue_full_stalls),
            "reptfd.queue.max_occupancy": float(self.queue_max_occupancy),
            "reptfd.rollback.count": float(self.rollbacks),
            "reptfd.rollback.cycles": float(self.rollback_cycles_total),
            "reptfd.rollback.reentries": float(self.rollback_reentries),
            "reptfd.rollback.aborts": float(self.rollback_aborts),
            "reptfd.due.count": float(self.due_count),
            "reptfd.store_queue.pushes": float(self.store_queue.pushes),
            "reptfd.store_queue.full_stalls": float(
                self.store_queue.full_stalls),
        }
