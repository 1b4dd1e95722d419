"""CheckpointSystem: redundant pair with checkpoint-interval fingerprints.

Protocol per checkpoint interval of I committed instructions:

1. both cores accumulate a CRC-16 over their retirement streams;
2. at each interval boundary the *system* quiesces and captures a full
   (registers + memory delta) checkpoint — both cores pay the capture
   stall, the scheme's heavy-weight signature;
3. the two interval fingerprints are exchanged and compared; on a match
   the new checkpoint becomes the rollback base and the previous one
   retires; on a mismatch both cores rewind to the base — losing up to a
   whole interval of work and discovering the error up to
   ``interval + comparison latency`` cycles after it happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.store import CheckpointStore
from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import ROBEntry
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import BlockInventory, FaultInjector, Strike
from repro.faults.detection import NoDetector, SECDEDDetector
from repro.isa.program import Program
from repro.redundancy.pair import DualCoreSystem
from repro.redundancy.stats import WriteBuffer
from repro.reunion.fingerprint import FingerprintGenerator


@dataclass(frozen=True)
class CheckpointParams:
    """The scheme's knobs."""

    #: committed instructions per checkpoint interval (>> Reunion's FI)
    interval: int = 500
    #: cycles to exchange + compare the interval fingerprints
    comparison_latency: int = 10
    #: fixed quiesce cost of every capture, plus per-byte transfer
    capture_base_cycles: int = 20
    capture_bytes_per_cycle: int = 8
    #: restore cost on rollback, beyond re-execution
    restore_base_cycles: int = 30
    #: unverified checkpoints allowed in flight
    store_capacity: int = 2

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.comparison_latency < 0:
            raise ValueError("comparison latency cannot be negative")


class _CheckpointGate(CommitGate):
    """Accumulates the interval fingerprint; stalls commit at a boundary
    until the system has a checkpoint slot."""

    def __init__(self, system: "CheckpointSystem", core_id: int) -> None:
        self.system = system
        self.core_id = core_id
        self.fp = FingerprintGenerator()

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        # a core that reached an interval boundary commits nothing more
        # until the pair-wide capture happens (checkpoint lockstep)
        return self.core_id not in self.system.awaiting_capture

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        sys_ = self.system
        if sys_.check_corrupt(self.core_id):
            result = ((entry.result or 0) ^ 0x1) & 0xFFFFFFFF
        else:
            result = entry.result
        self.fp.add(entry.pc, result,
                    entry.mem_addr if entry.ins.is_store else None,
                    entry.store_value)
        if entry.ins.is_store and self.core_id == 0:
            if sys_.store_queue.can_accept():
                sys_.store_queue.push(entry.seq, entry.mem_addr,
                                      entry.store_value,
                                      entry.ins.mem_width)
        committed = sys_.pipelines[self.core_id].stats.committed + 1
        if committed % sys_.params.interval == 0:
            sys_.reach_boundary(self.core_id, committed, self.fp.value, now)
            self.fp = FingerprintGenerator()


class CheckpointSystem(DualCoreSystem):
    """Checkpoint-based fingerprinting pair (related-work comparator)."""

    scheme = "checkpoint"

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 params: Optional[CheckpointParams] = None,
                 injector: Optional[FaultInjector] = None,
                 name: Optional[str] = None,
                 **uncore) -> None:
        self.params = params or CheckpointParams()
        self.store = CheckpointStore(self.params.store_capacity)
        self.store_queue = WriteBuffer(capacity=16)
        self.inventory = (injector.inventory if injector is not None
                          else BlockInventory())
        self._corrupt_next = [False, False]
        self._unbound_events: List[FaultEvent] = []
        #: corruption events keyed by the boundary that will reveal them
        self._events_by_boundary: Dict[int, List[FaultEvent]] = {}
        #: cores stalled at an interval boundary awaiting the pair capture
        self.awaiting_capture: Dict[int, tuple] = {}
        #: boundary seq -> {core: fp}; comparison state
        self._boundary_fp: Dict[int, Dict[int, int]] = {}
        #: boundary seq -> (verified_at_cycle, matched)
        self._verdict: Dict[int, tuple] = {}
        self.rollbacks = 0
        self.captures_stalled_cycles = 0
        self.detection_latencies: List[int] = []
        super().__init__(program, config, name=name, injector=injector,
                         **uncore)
        # base checkpoint: the initial state
        self.store.capture(0, 0, self.pipelines[0].committed_state)

    def make_gate(self, core_id: int) -> CommitGate:
        return _CheckpointGate(self, core_id)

    # -- gate callbacks ------------------------------------------------------
    def check_corrupt(self, core_id: int) -> bool:
        if self._corrupt_next[core_id]:
            self._corrupt_next[core_id] = False
            # bind the pending events to the interval this corruption was
            # hashed into: they are adjudicated when *that* boundary's
            # fingerprints are compared, not by any earlier verdict
            committed = self.pipelines[core_id].stats.committed
            boundary = (committed // self.params.interval + 1) \
                * self.params.interval
            self._events_by_boundary.setdefault(boundary, []).extend(
                self._unbound_events)
            self._unbound_events.clear()
            return True
        return False

    def reach_boundary(self, core_id: int, committed: int, fp: int,
                       now: int) -> None:
        """A core finished an interval: stall it until the pair captures."""
        self.awaiting_capture[core_id] = (committed, fp, now)

    # -- per-cycle engine -------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if self.injector is not None:
            self._process_strikes(now)
        self._try_capture(now)
        self._check_verdicts(now)
        self.store_queue.drain(self.bus, self.l2, now, self.addr_offset)

    def _try_capture(self, now: int) -> None:
        if len(self.awaiting_capture) < 2:
            return
        (c0, fp0, _), (c1, fp1, _) = (self.awaiting_capture[0],
                                      self.awaiting_capture[1])
        if c0 != c1:  # pragma: no cover - determinism guard
            raise RuntimeError("cores disagree on the boundary watermark")
        if not self.store.can_capture():
            return  # checkpoint pressure: both cores stay stalled
        cp = self.store.capture(c0, now, self.pipelines[0].committed_state)
        capture_cycles = (self.params.capture_base_cycles
                          + cp.delta_bytes // self.params.capture_bytes_per_cycle)
        freeze_until = now + capture_cycles
        for p in self.pipelines:
            p.frozen_until = max(p.frozen_until, freeze_until)
        self.captures_stalled_cycles += capture_cycles
        self.bus.request(now, max(1, capture_cycles // 2))
        self._boundary_fp[c0] = {0: fp0, 1: fp1}
        self._verdict[c0] = (freeze_until + self.params.comparison_latency,
                             fp0 == fp1)
        self.awaiting_capture.clear()

    def _check_verdicts(self, now: int) -> None:
        due = [b for b, (at, _) in self._verdict.items() if now >= at]
        for boundary in sorted(due):
            at, matched = self._verdict.pop(boundary)
            if matched:
                # the new checkpoint is good: the older base retires
                if len(self.store) > 1:
                    self.store.retire_oldest()
                self._resolve_events(now, boundary, detected=False)
            else:
                self._rollback(now, boundary)

    def _rollback(self, now: int, boundary: int) -> None:
        self.rollbacks += 1
        # the newest checkpoint captured the corrupt state: discard it
        while len(self.store) > 1:
            self.store._stack.pop()
        base = self.store.rollback_target()
        restore_cycles = (self.params.restore_base_cycles
                          + self.store.REG_BYTES
                          // self.params.capture_bytes_per_cycle)
        for p in self.pipelines:
            p.restore_to(base.state, base.seq)
            p.frozen_until = max(p.frozen_until, now + restore_cycles)
        for gate_core in (0, 1):
            self.pipelines[gate_core].gate.fp = FingerprintGenerator()
        self.awaiting_capture.clear()
        self._resolve_events(now, boundary, detected=True)

    def _resolve_events(self, now: int, boundary: int,
                        detected: bool) -> None:
        events = self._events_by_boundary.pop(boundary, [])
        for e in events:
            if detected:
                e.outcome = Outcome.DETECTED_RECOVERED
                e.detection_latency = now - e.cycle
                self.detection_latencies.append(e.detection_latency)
            else:
                # a matched interval with hashed corruption = CRC alias
                e.outcome = Outcome.SDC

    # -- faults --------------------------------------------------------------
    def on_strike(self, now: int, strike: Strike, event: FaultEvent) -> None:
        if self.inventory.get(strike.block).pre_commit:
            self._corrupt_next[event.core_id] = True
            self._unbound_events.append(event)
        elif strike.block.startswith("l1"):
            event.outcome = Outcome.DETECTED_RECOVERED  # SECDED L1
        else:
            event.outcome = Outcome.SDC

    # -- results ----------------------------------------------------------------
    def extra_stats(self) -> dict:
        mean_latency = (sum(self.detection_latencies)
                        / len(self.detection_latencies)
                        if self.detection_latencies else 0.0)
        return {
            "checkpoints": float(self.store.captures),
            "checkpoint_bytes": float(self.store.bytes_captured),
            "capture_stall_cycles": float(self.captures_stalled_cycles),
            "rollbacks": float(self.rollbacks),
            "mean_detection_latency": mean_latency,
            "checkpoint_full_stalls": float(self.store.full_stalls),
        }
