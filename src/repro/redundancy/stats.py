"""Run results and the baseline store write buffer."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.core.pipeline import PipelineStats
from repro.faults.events import FaultEvent
from repro.isa.golden import ArchState
from repro.mem.bus import Bus
from repro.mem.l2 import SharedL2


@dataclass
class RunResult:
    """Outcome of one (system, workload) simulation."""

    name: str
    scheme: str
    cycles: int
    instructions: int
    state: ArchState
    core_stats: List[PipelineStats] = field(default_factory=list)
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: legacy scheme-specific counters. Since the telemetry subsystem this
    #: is a *derived view* over :attr:`metrics` (each system maps its
    #: historical keys onto the named counters), kept for backward
    #: compatibility with every figure driver and test that reads it.
    extra: Dict[str, float] = field(default_factory=dict)
    #: flat hierarchical telemetry counters (``core0.l1d.misses``,
    #: ``unsync.cb.full_stalls``, ...) — the canonical counter namespace.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def overhead_vs(self, baseline: "RunResult") -> float:
        """Relative slowdown against a baseline run of the same workload.

        0.08 means 8% more cycles than the baseline.
        """
        if baseline.cycles == 0:
            raise ValueError("baseline has zero cycles")
        if baseline.instructions != self.instructions:
            raise ValueError(
                f"incomparable runs: {self.instructions} vs "
                f"{baseline.instructions} instructions")
        return self.cycles / baseline.cycles - 1.0


class WriteBuffer:
    """Store buffer between a write-through L1 and the L2.

    The unprotected baseline needs one so that write-through stores do not
    serialise commit: retired stores queue here and drain whenever the bus
    is free. A full buffer back-pressures commit exactly like UnSync's CB
    (same mechanism, no pairing rule) — which is why UnSync with a large
    CB converges to baseline performance in Figure 6.
    """

    def __init__(self, capacity: int = 16, entry_bytes: int = 12) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.entry_bytes = entry_bytes
        self._entries: Deque[Tuple[int, int, int, int]] = deque()
        self.pushes = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def can_accept(self) -> bool:
        if self.full:
            self.full_stalls += 1
            return False
        return True

    def push(self, seq: int, addr: int, value: int, width: int) -> None:
        if self.full:
            raise RuntimeError("push into full write buffer")
        self._entries.append((seq, addr, value, width))
        self.pushes += 1

    def drain(self, bus: Bus, l2: SharedL2, now: int,
              addr_offset: int = 0) -> None:
        """Write entries to ``l2``, oldest first, while ``bus`` is idle."""
        entries = self._entries
        if not entries:
            return
        xfer = bus.transfer_cycles(self.entry_bytes)
        while entries and bus.try_request(now, xfer) >= 0:
            l2.access(entries.popleft()[1] + addr_offset, is_write=True,
                      now=now)
