"""The system chassis every simulated system builds on.

Every system — the one-core baseline and MEEK, the UnSync, Reunion,
RepTFD and checkpointing pairs, the three-core TMR — runs ``n_cores``
cores on one thread over a shared bus + L2.
:class:`~repro.redundancy.pair.DualCoreSystem` owns that shape once:
construction, the cycle loop and its watchdog, fault-injector arming and
strike delivery, completion detection and result assembly. A system
supplies hooks — ``make_gate``, ``on_cycle``, ``on_strike``,
``finished``, ``scheme_metrics``/``LEGACY_EXTRA`` — for its own
behaviour. The unprotected baseline that Figures 4-6 normalise against
lives here too (a single core with a plain store write buffer).
"""

from repro.redundancy.pair import DualCoreSystem, BaselineSystem
from repro.redundancy.stats import RunResult, WriteBuffer

__all__ = ["DualCoreSystem", "BaselineSystem", "RunResult", "WriteBuffer"]
