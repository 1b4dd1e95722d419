"""Issue queue: capacity and occupancy.

The issue queue holds dispatched-but-not-issued instructions (Table I: 64
entries, 4-wide issue). The pipeline keeps the waiting entries themselves
in its wake-up structures — a producer's waiter list, the event wheel, or
the seq-ordered ready list the issue stage walks — so what remains here is
the bound dispatch stalls on and the occupancy the AVF model reads. An
entry leaves at issue, so IQ pressure — unlike ROB pressure — is *not*
inflated by Reunion's deferred commit; keeping the two structures separate
is what lets the model show Reunion hurting via the ROB specifically.
"""

from __future__ import annotations


class IssueQueue:
    """Bound and occupancy count of the waiting instructions."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("IQ capacity must be positive")
        self.capacity = capacity
        #: entries dispatched and not yet issued
        self.count = 0
        #: ``count`` summed over every core-cycle
        self.occupancy_sum = 0
