"""The system chassis every core count shares, and the unprotected baseline.

:class:`DualCoreSystem` is the one chassis: ``n_cores`` cores (one for the
baseline and MEEK, two for the redundant pairs, three for TMR) running the
same program over one shared bus + ECC L2, stepped in lockstep of
*wall-clock cycles only* — the cores' pipelines drift apart freely, which
is the whole point of UnSync. The chassis owns construction (uncore, L2
prewarm, ports, pipelines), the cycle loop and its :class:`SimulationHang`
watchdog, fault-injector arming and strike delivery, and result assembly.
A system specialises it through hooks:

* :meth:`~DualCoreSystem.make_gate` — the commit gate of each core;
* :meth:`~DualCoreSystem.on_cycle` — per-cycle engines (strike handling,
  drains, verification) that run before the cores step;
* :meth:`~DualCoreSystem.on_strike` — adjudicate one delivered strike;
* :meth:`~DualCoreSystem.finished` — completion, where it means more than
  "every core halted";
* :meth:`~DualCoreSystem.scheme_metrics` + ``LEGACY_EXTRA`` — the named
  counters and the legacy ``extra`` view derived from them.

:class:`BaselineSystem` is the one-core, unprotected Table I core with a
store write buffer — the reference every Figure 4-6 overhead is computed
against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.pipeline import CommitGate, Pipeline
from repro.core.rob import ROBEntry
from repro.faults.events import FaultEvent
from repro.faults.injector import FaultInjector, Strike
from repro.isa.program import Program
from repro.mem.bus import Bus
from repro.mem.hierarchy import MemPort
from repro.mem.l2 import SharedL2
from repro.mem.prewarm import prewarm_l2
from repro.redundancy.stats import RunResult, WriteBuffer
from repro.telemetry import NULL_REGISTRY, Telemetry
from repro.telemetry.events import (
    FAULT_INJECTED, FAULT_MULTIBIT, WATCHDOG_TRIP,
)


class SimulationHang(RuntimeError):
    """The cycle-budget watchdog fired: the simulated system wedged.

    A ``RuntimeError`` subclass so every historical ``except RuntimeError``
    / ``pytest.raises(RuntimeError)`` site keeps working, but carries
    enough context (cycles burned, instructions committed) for the
    campaign trial runner to classify the run as a ``HANG`` outcome
    instead of aborting the whole grid. Attributes are plain scalars so
    the exception pickles cleanly across process-pool workers.
    """

    def __init__(self, message: str, cycles: int = 0,
                 committed: int = 0) -> None:
        super().__init__(message)
        self.cycles = cycles
        self.committed = committed


class DualCoreSystem:
    """``n_cores`` cores, one thread, shared L2 — the system chassis."""

    scheme = "pair"
    #: cores running the thread
    n_cores = 2

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 name: Optional[str] = None,
                 bus: Optional[Bus] = None,
                 l2: Optional[SharedL2] = None,
                 addr_offset: int = 0,
                 telemetry: Optional[Telemetry] = None,
                 injector: Optional[FaultInjector] = None) -> None:
        self.program = program
        self.config = config or SystemConfig.table1()
        self.name = name or program.name
        # telemetry sinks, bound before gates/ports so make_gate overrides
        # and the MemPorts can pick them up. `_ev is None` is the hot-path
        # "disabled" test (same idiom as Pipeline.tracer); `_met` is the
        # null registry when disabled so warm paths may call through.
        self.telemetry = telemetry
        self._ev = telemetry.events if telemetry is not None else None
        self._met = telemetry.metrics if telemetry is not None \
            else NULL_REGISTRY
        self.injector = injector
        self.fault_events: List[FaultEvent] = []
        self._next_strike: Optional[Strike] = None
        # bus/l2 may be supplied by a multi-pair chassis so that several
        # pairs contend for the same uncore (the paper's 4-core CMP)
        self.bus = bus if bus is not None else Bus(
            width_bytes=self.config.bus_width_bytes)
        self.l2 = l2 if l2 is not None else SharedL2(
            config=self.config.l2, mshrs=self.config.l2_mshrs)
        self.addr_offset = addr_offset
        prewarm_l2(self.l2, program, addr_offset)
        self.ports: List[MemPort] = []
        self.pipelines: List[Pipeline] = []
        for i in range(self.n_cores):
            port = MemPort(self.bus, self.l2,
                           icache_cfg=self.config.icache,
                           dcache_cfg=self.config.dcache,
                           itlb_cfg=self.config.itlb,
                           dtlb_cfg=self.config.dtlb,
                           l1_mshrs=self.config.l1_mshrs,
                           name=f"{self.name}.core{i}",
                           addr_offset=addr_offset)
            if self._ev is not None:
                port.attach_events(self._ev, track=f"core{i}.mem")
            self.ports.append(port)
            gate = self.make_gate(i)
            self.pipelines.append(Pipeline(program, self.config.core, port,
                                           gate=gate, name=f"core{i}"))
        self.now = 0
        if injector is not None:
            # Injected runs must keep the commit-time image an independent
            # re-execution, never a replay of fetch-time records.
            for p in self.pipelines:
                p.commit_replay = "always"
            self._arm_next_strike(0)

    # -- scheme hooks ------------------------------------------------------
    def make_gate(self, core_id: int) -> CommitGate:
        """Commit gate for core ``core_id`` (override per scheme)."""
        return CommitGate()

    def on_cycle(self, now: int) -> None:
        """Per-cycle housekeeping before the cores step (drains, checks)."""

    def on_strike(self, now: int, strike: Strike, event: FaultEvent) -> None:
        """Adjudicate one delivered strike, setting ``event.outcome``."""
        raise NotImplementedError(f"{self.scheme} takes no fault injection")

    def finished(self) -> bool:
        for p in self.pipelines:
            if not p.done:
                return False
        return True

    def extra_stats(self) -> dict:
        """Scheme-specific counters merged into the result.

        Since the telemetry subsystem this is a derived view: the default
        maps :attr:`LEGACY_EXTRA` (legacy key -> metric name) over
        :meth:`scheme_metrics`, so the historical keys keep their exact
        values while the named counters are the single source of truth.
        """
        metrics = self.scheme_metrics()
        return {legacy: float(metrics[name])
                for legacy, name in self.LEGACY_EXTRA.items()}

    #: legacy ``extra`` key -> telemetry counter name (per scheme)
    LEGACY_EXTRA: Dict[str, str] = {}

    def scheme_metrics(self) -> Dict[str, float]:
        """Scheme-level named telemetry counters (override per scheme)."""
        return {}

    def metric_counters(self) -> Dict[str, float]:
        """The full flat counter rollup: per-core pipeline + memory
        hierarchy counters plus the scheme-level counters."""
        m: Dict[str, float] = {}
        for i, (p, port) in enumerate(zip(self.pipelines, self.ports)):
            m.update(p.stats.metric_counters(f"core{i}.pipeline."))
            m.update(port.metric_counters(f"core{i}."))
        m.update(self.scheme_metrics())
        return m

    # -- faults --------------------------------------------------------------
    def _arm_next_strike(self, now: int) -> None:
        self._next_strike = self.injector.next_strike(now)

    def struck_core(self, strike: Strike) -> int:
        """The core ``strike`` lands in."""
        return strike.core_id()

    def _process_strikes(self, now: int) -> None:
        """Deliver every strike due by ``now`` to :meth:`on_strike`."""
        while self._next_strike is not None and self._next_strike.cycle <= now:
            strike = self._next_strike
            event = FaultEvent(cycle=now, core_id=self.struck_core(strike),
                               block=strike.block, bit=strike.bit)
            if self._ev is not None:
                # a one-core system has one core track, whichever core
                # the strike's bit would name in a pair
                track = f"core{event.core_id}" if self.n_cores > 1 \
                    else "core0"
                self._ev.emit(FAULT_INJECTED, now, track,
                              args={"block": strike.block,
                                    "bit": strike.bit,
                                    "flipped": strike.flipped_bits})
                if strike.flipped_bits > 1:
                    self._ev.emit(FAULT_MULTIBIT, now, track,
                                  args={"block": strike.block,
                                        "flipped": strike.flipped_bits})
            self.on_strike(now, strike, event)
            self.fault_events.append(event)
            self._arm_next_strike(now)

    # -- driving -----------------------------------------------------------
    def step(self) -> None:
        self.on_cycle(self.now)
        for p in self.pipelines:
            p.step(self.now)
        self.now += 1

    def run(self, max_cycles: int = 2_000_000) -> RunResult:
        while not self.finished():
            if self.now >= max_cycles:
                committed = [p.stats.committed for p in self.pipelines]
                args = {"budget": max_cycles}
                message = f"{self.name}[{self.scheme}]: exceeded " \
                    f"{max_cycles} cycles"
                if self.n_cores > 1:
                    args["committed"] = committed
                    message += f" (committed: {committed})"
                if self._ev is not None:
                    self._ev.emit(WATCHDOG_TRIP, self.now, "watchdog",
                                  args=args)
                raise SimulationHang(message, cycles=self.now,
                                     committed=committed[0])
            self.step()
        return self.result()

    def cycles(self) -> int:
        """Run length: the slowest core's completion."""
        return max(p.stats.cycles for p in self.pipelines)

    def result(self) -> RunResult:
        # per-thread performance: the cores retire ONE logical thread, so
        # instructions = one stream
        if self._ev is not None:
            for port in self.ports:
                port.flush_miss_bursts()
        metrics = self.metric_counters()
        if self.telemetry is not None:
            self.telemetry.metrics.merge_counters(metrics)
        return RunResult(
            name=self.name,
            scheme=self.scheme,
            cycles=self.cycles(),
            instructions=self.pipelines[0].stats.committed,
            state=self.pipelines[0].committed_state,
            core_stats=[p.stats for p in self.pipelines],
            fault_events=list(self.fault_events),
            extra=self.extra_stats(),
            metrics=metrics,
        )

    # -- verification helper -------------------------------------------------
    def states_agree(self) -> bool:
        """Architectural agreement between the cores (fault-free
        invariant; tests lean on this)."""
        first = self.pipelines[0].committed_state
        return all(p.committed_state.regs == first.regs
                   and p.committed_state.mem == first.mem
                   for p in self.pipelines[1:])


class _WriteBufferGate(CommitGate):
    """Baseline gate: retired stores enter the write buffer."""

    def __init__(self, system: "BaselineSystem") -> None:
        self.system = system

    def can_commit(self, entry: ROBEntry, now: int) -> bool:
        if entry.ins.is_store:
            return self.system.wbuf.can_accept()
        return True

    def on_commit(self, entry: ROBEntry, now: int) -> None:
        if entry.ins.is_store:
            self.system.wbuf.push(entry.seq, entry.mem_addr,
                                  entry.store_value, entry.ins.mem_width)


class BaselineSystem(DualCoreSystem):
    """Single unprotected core + write buffer: the Figure 4-6 reference.

    Takes no fault injector: the unprotected core has nothing to
    adjudicate a strike with.
    """

    scheme = "baseline"
    n_cores = 1
    LEGACY_EXTRA = {"wbuf_full_stalls": "baseline.wbuf.full_stalls"}

    def __init__(self, program: Program,
                 config: Optional[SystemConfig] = None,
                 name: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.wbuf = WriteBuffer()
        super().__init__(program, config, name=name, telemetry=telemetry)

    def make_gate(self, core_id: int) -> CommitGate:
        return _WriteBufferGate(self)

    def on_cycle(self, now: int) -> None:
        self.wbuf.drain(self.bus, self.l2, now)

    def scheme_metrics(self) -> Dict[str, float]:
        return {
            "baseline.wbuf.pushes": float(self.wbuf.pushes),
            "baseline.wbuf.full_stalls": float(self.wbuf.full_stalls),
        }
