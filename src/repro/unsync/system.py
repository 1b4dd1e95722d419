"""UnSyncSystem: the full architecture wired together.

Composition (Figure 1): two cores with write-through L1s -> per-core
Communication Buffers -> one copy drains to the shared ECC L2 when the bus
is free; parity/DMR detectors on every sequential block -> EIH -> pair-wide
always-forward recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import ROBEntry
from repro.faults.detection import Detector, NoDetector
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import (
    BlockInventory, FaultInjector, Strike, UNSYNC_DETECTORS,
)
from repro.isa.program import Program
from repro.mem.cache import WritePolicy
from repro.redundancy.pair import DualCoreSystem
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    CB_DRAIN, CB_GATE, EIH_INTERRUPT, EIH_RECOVERY, FAULT_DETECTED,
    FAULT_DUE, FAULT_SDC, RECOVERY_ABORT, RECOVERY_REENTRY,
)
from repro.unsync.comm_buffer import CBEntry, CommBuffer
from repro.unsync.eih import EIHConfig, ErrorInterruptHandler
from repro.unsync.recovery import RecoveryCostModel


@dataclass(frozen=True)
class UnSyncConfig:
    """UnSync-specific knobs on top of the Table I system."""

    #: CB entries per core. The default is the 2 KB operating point —
    #: Figure 6's knee, where CB back-pressure vanishes; the paper's
    #: hardware synthesis point (10 entries, Table II) is what
    #: ``repro.hwcost`` charges, and Figure 6 sweeps the full range via
    #: :meth:`CommBuffer.from_kilobytes`.
    cb_entries: int = 170
    cb_entry_bytes: int = 12
    #: bytes actually moved per drain: the 32-bit data + address pair
    #: packs into one 64-bit bus beat.
    drain_payload_bytes: int = 8
    eih: EIHConfig = field(default_factory=EIHConfig)
    recovery: RecoveryCostModel = field(default_factory=RecoveryCostModel)
    #: how many times an in-progress recovery may abort-and-restart when
    #: a new strike lands inside its window before the pair degrades to a
    #: detected-unrecoverable (DUE) outcome
    recovery_retry_budget: int = 2
    #: paired-strike vulnerability window: a detected strike on the clean
    #: core within this many cycles of a recovery makes the copy source
    #: suspect -> DUE. ``None`` derives signal + stall latency (the EIH's
    #: own detection-to-quiesce window).
    pair_due_window: Optional[int] = None

    def due_window(self) -> int:
        if self.pair_due_window is not None:
            return self.pair_due_window
        return self.eih.signal_latency + self.eih.stall_latency


class _UnSyncGate(CommitGate):
    """Per-core commit gate: stores need a CB slot to retire."""

    def __init__(self, system: "UnSyncSystem", core_id: int) -> None:
        self.system = system
        self.core_id = core_id
        #: this core's CB, bound once (the CommBuffer object is stable;
        #: recovery mutates its contents, never replaces it)
        self._cb = system.cbs[core_id]
        #: telemetry event sink (None when disabled) and the open
        #: commit-stall episode, reported as one cb.gate span per episode
        #: rather than one event per stalled cycle
        self._ev = system._ev
        self._ev_track = f"core{core_id}.cb"
        self._stall_start: Optional[int] = None

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        if entry.ins.is_store:
            if self._cb.can_accept():
                if self._stall_start is not None:
                    self._ev.emit(CB_GATE, self._stall_start, self._ev_track,
                                  dur=now - self._stall_start)
                    self._stall_start = None
                return True
            if self._ev is not None and self._stall_start is None:
                self._stall_start = now
            return False
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        if entry.ins.is_store:
            self._cb.push(CBEntry(
                seq=entry.seq, addr=entry.mem_addr,
                value=entry.store_value, width=entry.ins.mem_width))


class UnSyncSystem(DualCoreSystem):
    """Two un-synchronized redundant cores with CB + EIH recovery."""

    scheme = "unsync"

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 unsync: Optional[UnSyncConfig] = None,
                 injector: Optional[FaultInjector] = None,
                 detectors: Optional[Dict[str, Detector]] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None,
                 **uncore) -> None:
        self.unsync = unsync or UnSyncConfig()
        self.cbs: List[CommBuffer] = [
            CommBuffer(self.unsync.cb_entries, self.unsync.cb_entry_bytes)
            for _ in range(2)]
        self.eih = ErrorInterruptHandler(self.unsync.eih)
        self.detectors = detectors if detectors is not None else dict(UNSYNC_DETECTORS)
        self.recovery_cycles_total = 0
        self.due_count = 0
        self.recovery_reentries = 0
        self.recovery_aborts = 0
        self._recovering_until = 0
        self._recovery_retries_left = self.unsync.recovery_retry_budget
        #: cycle of the last *detected* strike per core (paired-strike
        #: DUE window checks; -inf sentinel keeps arithmetic branchless)
        self._last_detected_strike = [-(10 ** 9), -(10 ** 9)]
        # UnSync *requires* write-through L1s (Sec III-C-1)
        cfg = config or SystemConfig.table1()
        if cfg.dcache.policy is not WritePolicy.WRITE_THROUGH:
            raise ValueError(
                "UnSync requires a write-through L1 D-cache (see Figure 2's "
                "unrecoverable write-back scenario)")
        super().__init__(program, cfg, name=name, telemetry=telemetry,
                         injector=injector, **uncore)

    # -- construction hooks --------------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        return _UnSyncGate(self, core_id)

    # -- per-cycle engine ------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if self.injector is not None:
            self._process_strikes(now)
        if self.eih._pending:
            pending = self.eih.poll(now)
            if pending is not None:
                event = self.eih.last_popped.token
                if now < self._recovering_until:
                    self._reenter_recovery(now, *pending, event=event)
                else:
                    self._recovery_retries_left = \
                        self.unsync.recovery_retry_budget
                    self._recover(now, *pending, event=event)
        if now >= self._recovering_until:
            self._drain(now)

    def _drain(self, now: int) -> None:
        cb0, cb1 = self.cbs
        f0 = cb0._fifo
        f1 = cb1._fifo
        drained = 0
        while f0 and f1:
            h0 = f0[0]
            h1 = f1[0]
            if h0.seq != h1.seq:
                # one core is mid-recovery resync; only the common prefix
                # is drainable and the heads disagree — wait.
                break
            xfer = self.bus.transfer_cycles(self.unsync.drain_payload_bytes)
            if self.bus.try_request(now, xfer) < 0:
                break
            cb0.pop()
            cb1.pop()
            drained += 1
            # one copy of the data goes to the ECC L2
            self.l2.access(h0.addr + self.addr_offset, is_write=True, now=now)
        if drained and self._ev is not None:
            self._ev.emit(CB_DRAIN, now, "cb",
                          args={"n": drained, "left": len(f0)})

    # -- faults ---------------------------------------------------------------
    def on_strike(self, now: int, strike: Strike, event: FaultEvent) -> None:
        if strike.block == "eih_pending":
            self._strike_eih_queue(now, event)
        elif strike.block == "recovery_copy":
            self._strike_recovery_copy(now, event.core_id, event)
        else:
            self._strike_block(now, event.core_id, strike, event)

    def _strike_block(self, now: int, core_id: int, strike: Strike,
                      event: FaultEvent) -> None:
        """The standard detector-adjudicated path (any inventory block)."""
        detector = self.detectors.get(strike.block, NoDetector())
        result = detector.check(strike.flipped_bits)
        if result.detected or result.corrected:
            event.detection_latency = result.latency_cycles
            event.outcome = Outcome.DETECTED_RECOVERED
            if not result.corrected:
                # corrected (e.g. SECDED) is fixed in place, no recovery;
                # detected-only raises the pair-wide recovery interrupt
                self._last_detected_strike[core_id] = now
                self.eih.raise_interrupt(now + result.latency_cycles,
                                         core_id, strike.block, token=event)
            if self._ev is not None:
                self._ev.emit(FAULT_DETECTED, now, f"core{core_id}",
                              args={"block": strike.block,
                                    "latency": result.latency_cycles,
                                    "corrected": result.corrected})
            self._met.histogram("unsync.detection.latency").observe(
                result.latency_cycles)
        else:
            # even-weight clusters defeat 1-bit parity: a true SDC
            event.outcome = Outcome.SDC
            if self._ev is not None:
                self._ev.emit(FAULT_SDC, now, f"core{core_id}",
                              args={"block": strike.block,
                                    "flipped": strike.flipped_bits})

    def _strike_eih_queue(self, now: int, event: FaultEvent) -> None:
        """A strike on the EIH pending queue destroys a queued interrupt.

        The destroyed interrupt's fault *was* detected, but its recovery
        signal is gone — that error is now detected-unrecoverable. The
        queue strike itself corrupts only bookkeeping state: masked.
        """
        event.outcome = Outcome.MASKED
        dropped = self.eih.drop_latest_pending()
        if dropped is None:
            return
        lost: Optional[FaultEvent] = dropped.token
        if lost is not None:
            lost.outcome = Outcome.DETECTED_UNRECOVERABLE
        self.due_count += 1
        if self._ev is not None:
            self._ev.emit(FAULT_DUE, now, "eih",
                          args={"block": dropped.block,
                                "core": dropped.core_id,
                                "reason": "interrupt-lost"})

    def _strike_recovery_copy(self, now: int, core_id: int,
                              event: FaultEvent) -> None:
        """A strike on the in-flight recovery copy.

        Outside a recovery window there is no copy in flight (masked);
        inside one, the copy engine's DMR catches the corruption and the
        recovery must abort and restart.
        """
        if now >= self._recovering_until:
            event.outcome = Outcome.MASKED
            return
        event.outcome = Outcome.DETECTED_RECOVERED
        self._last_detected_strike[core_id] = now
        self.eih.raise_interrupt(now, core_id, "recovery_copy", token=event)
        if self._ev is not None:
            self._ev.emit(FAULT_DETECTED, now, f"core{core_id}",
                          args={"block": "recovery_copy", "latency": 0,
                                "corrected": False})

    def _reenter_recovery(self, now: int, bad_core: int, block: str,
                          stall_complete: int,
                          event: Optional[FaultEvent]) -> None:
        """A new detection landed while a recovery was already running.

        With retry budget left the in-progress copy is abandoned and the
        whole recovery restarts (its cycles are sunk cost); once the
        budget is exhausted the pair gives up: detected, unrecoverable.
        """
        self.recovery_reentries += 1
        if self._ev is not None:
            self._ev.emit(RECOVERY_REENTRY, now, "eih",
                          args={"core": bad_core, "block": block,
                                "retries_left": self._recovery_retries_left})
        if self._recovery_retries_left > 0:
            self._recovery_retries_left -= 1
            self.recovery_aborts += 1
            if self._ev is not None:
                self._ev.emit(RECOVERY_ABORT, now, "eih",
                              args={"core": bad_core, "block": block})
            self._recover(now, bad_core, block, stall_complete, event=event)
        else:
            self._declare_due(now, bad_core, block, event,
                              reason="retry-budget-exhausted")

    def _declare_due(self, now: int, bad_core: int, block: str,
                     event: Optional[FaultEvent], reason: str) -> None:
        """Graceful degradation: a detected error the pair cannot repair."""
        if event is not None:
            event.outcome = Outcome.DETECTED_UNRECOVERABLE
        self.due_count += 1
        if self._ev is not None:
            self._ev.emit(FAULT_DUE, now, "eih",
                          args={"core": bad_core, "block": block,
                                "reason": reason})

    def _recover(self, now: int, bad_core: int, block: str,
                 stall_complete: int,
                 event: Optional[FaultEvent] = None) -> None:
        """Execute the six-step always-forward recovery."""
        good_core = 1 - bad_core
        # the paper's unrecoverable case: the copy *source* was itself
        # struck inside the detection window (or its own interrupt is
        # still in flight) — there is no clean core to go forward from
        window = self.unsync.due_window()
        if (self.eih.pending_for(good_core)
                or now - self._last_detected_strike[good_core] <= window):
            self._declare_due(now, bad_core, block, event,
                              reason="paired-strike")
            return
        good = self.pipelines[good_core]
        bad = self.pipelines[bad_core]
        plan = self.unsync.recovery.plan(
            stall_cycles=max(0, stall_complete - now),
            l1_resident_lines=self.ports[good_core].dcache.resident_count(),
            cb_entries=len(self.cbs[good_core]),
            cb_entry_bytes=self.unsync.cb_entry_bytes,
        )
        freeze_until = now + plan.total_cycles
        for p in self.pipelines:
            p.frozen_until = max(p.frozen_until, freeze_until)
        self._recovering_until = max(self._recovering_until, freeze_until)
        self.recovery_cycles_total += plan.total_cycles
        if self.injector is not None:
            # adversarial injectors may chase the recovery window; any
            # strike queued just now must preempt the pre-drawn one
            self.injector.on_recovery(now, plan.total_cycles)
            self._next_strike = self.injector.preempt(self._next_strike)
        if self._ev is not None:
            # emitted at `now` (poll time), keeping the eih track monotonic
            # even though the interrupt was *raised* detection-latency ago
            self._ev.emit(EIH_INTERRUPT, now, "eih",
                          args={"core": bad_core, "block": block})
            self._ev.emit(EIH_RECOVERY, now, "eih", dur=plan.total_cycles,
                          args={"core": bad_core, "block": block,
                                "stall": plan.stall_cycles,
                                "flush": plan.flush_cycles,
                                "regfile_copy": plan.regfile_copy_cycles,
                                "l1_copy": plan.l1_copy_cycles,
                                "cb_copy": plan.cb_copy_cycles})
        self._met.histogram("unsync.recovery.duration").observe(
            plan.total_cycles)

        # steps 2-3: flush the erroneous pipeline, adopt the clean state
        bad.flush_pipeline()
        bad.adopt_state(good)
        bad_port, good_port = self.ports[bad_core], self.ports[good_core]
        if self.unsync.recovery.l1_restore == "copy":
            # the copied L1 arrives warm: mirror the clean core's tags
            bad_port.dcache._sets = {
                idx: [replace_line(l) for l in ways]
                for idx, ways in good_port.dcache._sets.items()}
        else:
            # write-through L1: invalidation is sufficient, refills come
            # from the ECC L2 (cost shows up as post-recovery misses)
            bad_port.dcache.invalidate_all()
        bad_port.icache.invalidate_all()
        # step 5: overwrite the erroneous CB
        self.cbs[bad_core].overwrite_from(self.cbs[good_core])
        # the copy traffic owns the bus for its duration
        self.bus.request(now, max(1, plan.total_cycles - plan.stall_cycles))
        if self.fault_events:
            self.fault_events[-1].recovery_cycles = plan.total_cycles

    # -- results ------------------------------------------------------------
    #: legacy `extra` keys, derived from the named telemetry counters
    LEGACY_EXTRA = {
        "cb_full_stalls": "unsync.cb.full_stalls",
        "cb_pushes": "unsync.cb.pushes",
        "cb_drains": "unsync.cb.drains",
        "recoveries": "unsync.eih.recoveries",
        "recovery_cycles": "unsync.recovery.cycles",
    }

    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "unsync.cb.pushes": float(self.cbs[0].pushes),
            "unsync.cb.drains": float(self.cbs[0].drains),
            "unsync.cb.full_stalls": float(
                sum(cb.full_stalls for cb in self.cbs)),
            "unsync.cb.max_occupancy": float(
                max(cb.max_occupancy for cb in self.cbs)),
            "unsync.eih.interrupts": float(self.eih.interrupts_received),
            "unsync.eih.recoveries": float(self.eih.recoveries_signalled),
            "unsync.eih.dropped_interrupts": float(
                self.eih.interrupts_dropped),
            "unsync.recovery.cycles": float(self.recovery_cycles_total),
            "unsync.recovery.reentries": float(self.recovery_reentries),
            "unsync.recovery.aborts": float(self.recovery_aborts),
            "unsync.due.count": float(self.due_count),
        }


def replace_line(line):
    """Copy one cache line's metadata (used by the recovery L1 mirror)."""
    from repro.mem.cache import Line
    return Line(tag=line.tag, valid=line.valid, dirty=line.dirty,
                last_use=line.last_use)
