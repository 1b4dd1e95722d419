"""Served-versus-simulated accounting for differential-mode campaigns.

A differential trial whose first strike falls at or after the cycle the
fault-free prefix finished on is *served*: its record is the cached
prefix verdict and no cycle is stepped for it. Every other trial is
*replayed* from the newest snapshot epoch at or before its first strike,
and only the instructions and cycles after that restore point were
simulated. Throughput counts simulated work only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


def is_served(first_strike: Optional[int], final_cycle: int) -> bool:
    return first_strike is None or first_strike >= final_cycle


def differential_accounting(trials: Iterable[Dict]) -> Dict[str, int]:
    """Split trial work into served and simulated.

    Each entry holds the trial record's ``instructions`` and ``cycles``,
    its ``first_strike`` cycle (``None`` = never), the prefix's
    ``final_cycle`` and, for replayed trials, the restore point's
    ``restore_cycle`` and ``restore_committed`` instruction count.
    """
    out = {"served_trials": 0, "replayed_trials": 0, "served_instr": 0,
           "replayed_instr": 0, "replayed_cycles": 0}
    for t in trials:
        if is_served(t["first_strike"], t["final_cycle"]):
            out["served_trials"] += 1
            out["served_instr"] += t["instructions"]
            continue
        out["replayed_trials"] += 1
        out["replayed_instr"] += t["instructions"] - t["restore_committed"]
        out["replayed_cycles"] += t["cycles"] - t["restore_cycle"]
    return out


def simulated_instructions(prefix_instr: int, accounting: Dict[str, int]
                           ) -> int:
    """Instructions the simulator stepped in a differential campaign:
    each fault-free prefix once, plus every replay after its restore."""
    return prefix_instr + accounting["replayed_instr"]


def record_counts(records: List[Dict]) -> Tuple[Dict, Dict]:
    """Simulated work and fault outcomes of fully simulated trial
    records: ``({runs, cycles, instructions}, {strikes, <outcome>_trials})``.
    """
    outcomes = [r["outcome"] for r in records]
    work = {"runs": len(records),
            "cycles": sum(r["cycles"] for r in records),
            "instructions": sum(r["instructions"] for r in records)}
    faults = {"strikes": sum(r["strikes"] for r in records),
              **{f"{o}_trials": outcomes.count(o)
                 for o in ("recovered", "sdc", "due", "hang")}}
    return work, faults
