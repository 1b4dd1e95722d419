"""Load-store queue.

Memory instructions hold an LSQ slot from dispatch to commit. Both ends
are in program order — dispatch appends, commit retires the oldest — so
the queue is a deque popped at its head.

The LSQ also answers store-to-load forwarding queries: a load whose bytes
overlap an older in-flight store receives the value over the bypass
network in one cycle instead of accessing the D-cache. In-flight stores
are indexed by the 4-byte words they touch (an unaligned store sits under
both of its words), so a query looks at the stores of at most two words
instead of scanning the queue. (Addresses are exact — the model executes
eagerly at fetch — so there is no speculative disambiguation to get
wrong.)

The LSQ is one of UnSync's parity-protected storage blocks (Sec III-B-1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.rob import ROBEntry


def _words(entry: ROBEntry) -> range:
    """The 4-byte words (``addr >> 2``) a memory access touches."""
    addr = entry.mem_addr
    return range(addr >> 2, ((addr + entry.ins.mem_width - 1) >> 2) + 1)


class LSQ:
    """Bounded in-order queue of in-flight memory instructions."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("LSQ capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[ROBEntry] = deque()
        #: word address (``addr >> 2``) -> in-flight stores touching that
        #: word, oldest first
        self._stores: Dict[int, List[ROBEntry]] = {}
        self.forwards = 0
        #: entries summed over every core-cycle
        self.occupancy_sum = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: ROBEntry) -> None:
        """Append a dispatched memory instruction (the caller has checked
        capacity). Stores, SWAP included, enter the forwarding index."""
        self._entries.append(entry)
        if entry.ins.is_store:
            stores = self._stores
            for word in _words(entry):
                words = stores.get(word)
                if words is None:
                    stores[word] = [entry]
                else:
                    words.append(entry)

    def pop(self) -> ROBEntry:
        """Retire the oldest entry (commit is in program order)."""
        entry = self._entries.popleft()
        if entry.ins.is_store:
            # the oldest in-flight instruction is first under every word
            stores = self._stores
            for word in _words(entry):
                words = stores[word]
                if len(words) == 1:
                    del stores[word]
                else:
                    del words[0]
        return entry

    def flush(self) -> int:
        n = len(self._entries)
        self._entries.clear()
        self._stores.clear()
        return n

    def forwarding_store(self, load: ROBEntry) -> Optional[ROBEntry]:
        """Youngest store older than ``load`` whose bytes overlap it."""
        stores = self._stores
        if not stores:
            return None
        lo = load.mem_addr
        hi = lo + load.ins.mem_width
        load_seq = load.seq
        best: Optional[ROBEntry] = None
        for word in _words(load):
            words = stores.get(word)
            if words is None:
                continue
            for store in reversed(words):
                seq = store.seq
                if seq >= load_seq:
                    continue  # younger than the load
                if best is not None and seq <= best.seq:
                    break  # the other word already has a younger one
                s_lo = store.mem_addr
                if s_lo < hi and lo < s_lo + store.ins.mem_width:
                    best = store
                    break
        if best is not None:
            self.forwards += 1
        return best
