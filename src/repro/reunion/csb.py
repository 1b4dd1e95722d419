"""CHECK-stage buffer (CSB).

Sec IV-3: completed instructions and their output data wait here, after
the Memory stage, until their fingerprint is verified. Entries are 66 bits
with one write and three read ports — the cell is 1.3x a register-file
cell, which is where the hardware cost model gets its CSB area. The paper
derives 17 entries for FI=10 with the minimum 6-cycle comparison latency
("since at any point in time, two fingerprints exist"), which
:func:`csb_entries_for` generalises.

Admission is *in program order* (the CHECK stage sits at the in-order tail
of the pipeline); a full CSB holds the next instruction in the execute
stage, which is how Reunion's back-pressure reaches the ROB.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple, Optional

#: CSB entry width in bits (instruction tag + output data), from Sec IV-3.
ENTRY_BITS = 66


def csb_entries_for(fingerprint_interval: int, comparison_latency: int) -> int:
    """Paper's CSB sizing rule.

    One full interval must fit, plus the instructions that complete while
    the previous fingerprint is in flight (bounded by the comparison
    latency), plus the in-comparison slot. FI=10, latency=6 -> 17, matching
    Sec IV-3.
    """
    if fingerprint_interval <= 0:
        raise ValueError("fingerprint interval must be positive")
    if comparison_latency < 0:
        raise ValueError("comparison latency cannot be negative")
    return fingerprint_interval + comparison_latency + 1


class CSBEntry(NamedTuple):
    seq: int
    group: int


class CheckStageBuffer:
    """Bounded in-order buffer of completed-unverified instructions."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("CSB needs at least one entry")
        self.capacity = capacity
        self._fifo: Deque[CSBEntry] = deque()
        self.pushes = 0
        self.full_stalls = 0
        #: high-water mark (checks the paper's csb_entries_for sizing)
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        return len(self._fifo) >= self.capacity

    @property
    def size_bits(self) -> int:
        return self.capacity * ENTRY_BITS

    def push(self, seq: int, group: int) -> None:
        fifo = self._fifo
        occupancy = len(fifo) + 1
        if occupancy > self.capacity:
            raise RuntimeError("push into full CSB")
        if fifo and seq <= fifo[-1].seq:
            raise ValueError("CSB admission must be in program order")
        fifo.append(CSBEntry(seq, group))
        self.pushes += 1
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy

    def head(self) -> Optional[CSBEntry]:
        return self._fifo[0] if self._fifo else None

    def pop(self) -> CSBEntry:
        return self._fifo.popleft()

    def clear(self) -> None:
        self._fifo.clear()
