"""Peak resident memory of a process tree, sampled from ``/proc``."""

from __future__ import annotations

import os
import threading
from typing import List


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids.extend(int(k) for k in f.read().split())
    except OSError:
        pass
    return kids


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_kb(root: int) -> int:
    """Summed RSS of ``root`` and all its descendants."""
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        total += _rss_kb(pid)
        todo.extend(_children(pid))
    return total


class PeakRSS:
    """Samples this process's tree every ``interval`` seconds."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="peak-rss")

    def _sample(self) -> None:
        self.peak_kb = max(self.peak_kb, tree_rss_kb(os.getpid()))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRSS":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
