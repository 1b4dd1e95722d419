"""Re-order buffer.

The ROB is the central bookkeeping structure of the pipeline and the
structure whose *occupancy* Reunion's CHECK stage inflates (Fig 5): an
instruction's entry lives from dispatch until commit, and commit may be
delayed by a redundancy gate long after execution completes.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, Optional

from repro.isa.instructions import Instruction


class EntryState(enum.Enum):
    DISPATCHED = "dispatched"   # in ROB + IQ, waiting for operands/FU
    ISSUED = "issued"           # executing on an FU
    COMPLETED = "completed"     # result broadcast; waiting to commit


@dataclass(slots=True, eq=False)
class ROBEntry:
    """One in-flight instruction, from fetch to commit.

    Fetch builds the entry from the oracle's record, so one object carries
    the instruction through the fetch buffer, the ROB, the event wheel,
    the ready lists and the LSQ. ``slots=True``: one of these is allocated
    per dynamic instruction, so the per-instance dict is measurable
    overhead at campaign scale. ``eq=False``: entries compare by identity
    — two distinct in-flight instructions are never "equal".

    Field order is the fetch stage's positional constructor call.
    """

    seq: int                    # global dynamic sequence number
    ins: Instruction
    pc: int
    #: earliest cycle the entry may leave its current queue: in the fetch
    #: buffer, the cycle fetch delivers it to dispatch; from dispatch on,
    #: the cycle by which every issued producer has broadcast its result
    ready_at: int = 0
    #: functional results, from the fetch-time oracle (eager execution)
    result: Optional[int] = None
    mem_addr: Optional[int] = None
    store_value: Optional[int] = None
    branch_taken: bool = False
    branch_target: int = 0
    state: EntryState = EntryState.DISPATCHED
    #: cycle at which execution finishes (set at issue)
    complete_cycle: int = -1
    #: wake-up bookkeeping: number of producers that have not issued yet
    #: (decremented by the producer when it issues). The entry is woken
    #: into the issue stage's ready list once ``pending == 0``, at
    #: ``ready_at``.
    pending: int = 0
    #: consumers to notify when this entry issues (lazily allocated;
    #: entries of one pipeline only, so a flush drops both sides at once)
    waiters: Optional[list] = None
    #: Reunion: index of the fingerprint group this entry belongs to
    fp_group: int = -1


class ROB:
    """Bounded FIFO of :class:`ROBEntry`."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[ROBEntry] = deque()
        #: entries summed over every core-cycle (for the Fig 5
        #: discussion); ``Pipeline.mean_occupancy`` averages it
        self.occupancy_sum = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ROBEntry]:
        return iter(self._entries)

    def flush(self) -> int:
        """Drop every in-flight entry (recovery); returns count dropped."""
        n = len(self._entries)
        self._entries.clear()
        return n
