"""Triple modular redundancy comparator (extension).

The paper positions UnSync against the classic redundancy spectrum: DMR
detects, TMR detects *and corrects* by majority vote at ~200% overhead
(Sec II / III-B-1). This module implements a core-level TMR system over
the same substrate so the trade-off is measurable rather than cited:

* three identical cores run the thread; their store streams meet in
  three Communication Buffers;
* an entry drains once a *majority* (2 of 3) has produced it — the vote;
* a fault on one core never stalls the majority: only the struck core
  freezes, adopts a majority member's architectural state, and catches
  up (TMR's availability advantage over pair-recovery);
* the price is a third core's worth of area, power, and uncore traffic —
  the hwcost model (``repro.hwcost.redundancy_cost``) quantifies it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate
from repro.core.rob import ROBEntry
from repro.faults.events import FaultEvent, Outcome
from repro.faults.injector import FaultInjector, Strike
from repro.isa.program import Program
from repro.redundancy.pair import DualCoreSystem
from repro.unsync.comm_buffer import CBEntry, CommBuffer
from repro.unsync.recovery import RecoveryCostModel


class _TMRGate(CommitGate):
    """Per-core gate: stores enter this core's CB (or are dropped if the
    majority already voted them through while this core lagged)."""

    def __init__(self, system: "TMRSystem", core_id: int) -> None:
        self.system = system
        self.core_id = core_id

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        if entry.ins.is_store:
            if entry.seq <= self.system.drained_seq:
                return True  # already voted through; no CB slot needed
            return self.system.cbs[self.core_id].can_accept()
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        if entry.ins.is_store and entry.seq > self.system.drained_seq:
            self.system.cbs[self.core_id].push(CBEntry(
                seq=entry.seq, addr=entry.mem_addr,
                value=entry.store_value, width=entry.ins.mem_width))


class TMRSystem(DualCoreSystem):
    """Three cores, one thread, majority-voted store stream."""

    scheme = "tmr"
    n_cores = 3
    LEGACY_EXTRA = {
        "votes": "tmr.vote.count",
        "corrections": "tmr.correction.count",
        "cb_full_stalls": "tmr.cb.full_stalls",
    }

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 cb_entries: int = 170,
                 injector: Optional[FaultInjector] = None,
                 recovery: Optional[RecoveryCostModel] = None,
                 name: Optional[str] = None) -> None:
        self.cbs: List[CommBuffer] = [CommBuffer(cb_entries)
                                      for _ in range(self.n_cores)]
        #: highest store seq already voted and written to L2
        self.drained_seq = -1
        self.recovery = recovery or RecoveryCostModel(l1_restore="invalidate")
        self.corrections = 0
        self.votes = 0
        super().__init__(program, config, name=name, injector=injector)

    def make_gate(self, core_id: int) -> CommitGate:
        return _TMRGate(self, core_id)

    # -- drain / vote ------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if self.injector is not None:
            self._process_strikes(now)
        self._purge_stale()
        self._drain(now)

    def _drain(self, now: int) -> None:
        while True:
            heads = [cb.head().seq for cb in self.cbs if len(cb)]
            if not heads:
                return
            oldest = min(heads)
            holders = [cb for cb in self.cbs
                       if len(cb) and cb.head().seq == oldest]
            if len(holders) < 2:
                return  # no majority for the oldest store yet
            xfer = self.bus.transfer_cycles(8)
            if self.bus.try_request(now, xfer) < 0:
                return
            self.votes += 1
            head = holders[0].head()
            for cb in holders:
                cb.pop()
            self.l2.access(head.addr, is_write=True, now=now)
            self.drained_seq = oldest

    def _purge_stale(self) -> None:
        """Drop already-voted entries from a lagging core's CB."""
        for cb in self.cbs:
            while len(cb) and cb.head().seq <= self.drained_seq:
                cb.pop()

    # -- faults --------------------------------------------------------------
    def struck_core(self, strike: Strike) -> int:
        if strike.core is not None:
            return strike.core
        return strike.bit % self.n_cores

    def on_strike(self, now: int, strike: Strike, event: FaultEvent) -> None:
        # TMR's detection is the vote itself: any corrupted core is
        # out-voted; the struck core resynchronises while the other two
        # keep running.
        self._recover_core(now, event.core_id)
        event.outcome = Outcome.DETECTED_RECOVERED
        self.corrections += 1

    def _recover_core(self, now: int, bad_core: int) -> None:
        donors = [i for i in range(self.n_cores) if i != bad_core]
        # adopt from whichever healthy core has committed furthest
        donor = max(donors,
                    key=lambda i: self.pipelines[i].stats.committed)
        bad = self.pipelines[bad_core]
        plan = self.recovery.plan(
            stall_cycles=2,
            l1_resident_lines=self.ports[donor].dcache.resident_count(),
            cb_entries=len(self.cbs[donor]))
        bad.flush_pipeline()
        bad.adopt_state(self.pipelines[donor])
        self.ports[bad_core].dcache.invalidate_all()
        self.ports[bad_core].icache.invalidate_all()
        self.cbs[bad_core].overwrite_from(self.cbs[donor])
        # ONLY the struck core freezes — the majority keeps executing
        bad.frozen_until = max(bad.frozen_until, now + plan.total_cycles)

    # -- results ---------------------------------------------------------------
    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "tmr.vote.count": float(self.votes),
            "tmr.correction.count": float(self.corrections),
            "tmr.cb.full_stalls": float(sum(cb.full_stalls
                                            for cb in self.cbs)),
        }
