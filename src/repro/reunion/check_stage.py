"""Fingerprint-interval bookkeeping shared by a Reunion core pair.

The :class:`CheckStage` is the pair's verification brain: it assigns every
dynamic instruction to a fingerprint *group* (deterministically, so both
cores and any post-rollback re-execution agree), accumulates each core's
CRC over the in-order retirement stream, declares a group *verified* once
both cores have produced it and the comparison latency has elapsed, and
reports mismatches for the system to roll back.

Group-cut rules (Sec IV):

* a group closes after ``fingerprint_interval`` instructions, or
* immediately at a serializing instruction (traps, barriers, atomics must
  be the last member of their fingerprint so they can be verified before
  executing their irreversible effect), or
* at the end of the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.reunion.fingerprint import FingerprintGenerator


@dataclass(frozen=True)
class ReunionParams:
    """The two knobs of Figure 5."""

    #: instructions per fingerprint (paper default/minimum: 10)
    fingerprint_interval: int = 10
    #: cycles to generate + transfer + compare one fingerprint. The paper
    #: assumes a 6-cycle minimum over nominal buses (Sec IV-3) — that is
    #: the default here and the Figure 4 operating point; Figure 5 sweeps
    #: this from 10 to 40+ explicitly.
    comparison_latency: int = 6
    #: rollback cost beyond re-execution: squash + refill of both pipelines
    rollback_penalty: int = 8
    #: serializing-instruction policy:
    #: * ``"drain"`` — dispatch stalls until the fingerprint containing
    #:   the serializing instruction is fully verified (the strong reading
    #:   of Sec IV-5; most faithful to Reunion's non-speculative retire);
    #: * ``"send"`` — dispatch stalls until this core has *generated and
    #:   sent* the fingerprint containing the serializing instruction
    #:   (i.e. the local pipeline has drained through the CHECK stage),
    #:   but not for the cross-core comparison round trip; commit still
    #:   waits for full verification. An intermediate reading, kept for
    #:   ablation.
    #: * ``"cut"``  — the serializing instruction still seals its own
    #:   fingerprint (so it is verified before it commits — correctness is
    #:   identical) but the front end keeps dispatching; the in-order
    #:   commit gate and the extra fingerprint traffic are paid (the weak
    #:   reading: "the pipeline stalls *when data-dependent instructions
    #:   are in the issue queue*" — dataflow already makes dependents
    #:   wait). This is the default: it reproduces Figure 4's magnitudes
    #:   (≈8% average, bzip2/ammp/galgel above 10%); the stronger policies
    #:   overshoot the paper by 2-3x and are kept for ablation.
    serializing_policy: str = "cut"
    #: Relaxed input replication (Sec II): both cores load directly from
    #: memory, so a racing writer on another pair can hand the two
    #: replicas *different* values — "input incoherence", which Reunion
    #: treats exactly like a transient fault. Our workloads are
    #: single-threaded (replicas can never actually diverge), so the
    #: phenomenon is injected as a Poisson event rate per cycle; each
    #: event costs a load re-issue on both cores and, with
    #: ``incoherence_escalation_prob``, escalates to a synchronizing
    #: memory request.
    input_incoherence_rate: float = 0.0
    #: probability a re-issued load pair still disagrees and needs the
    #: synchronizing request (Sec II: "issuing the load a third time")
    incoherence_escalation_prob: float = 0.1
    #: cost of one re-issue (an extra L1/L2 round trip on both cores)
    reissue_penalty: int = 12
    #: cost of a synchronizing memory request (exclusive line acquisition)
    sync_request_penalty: int = 40
    #: how many times an in-progress rollback may abort-and-restart when
    #: a strike lands inside its squash window before the pair degrades
    #: to a detected-unrecoverable (DUE) outcome
    rollback_retry_budget: int = 2

    def __post_init__(self) -> None:
        if self.fingerprint_interval <= 0:
            raise ValueError("fingerprint interval must be positive")
        if self.comparison_latency < 0:
            raise ValueError("comparison latency cannot be negative")
        if self.serializing_policy not in ("drain", "send", "cut"):
            raise ValueError(
                "serializing_policy must be 'drain', 'send' or 'cut'")


class GroupMap:
    """Deterministic seq -> fingerprint-group assignment.

    Built monotonically by whichever core dispatches a seq first; replays
    (the other core, or re-execution after rollback) read the recorded
    assignment, so the mapping can never diverge.
    """

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self._group_of: List[int] = []     # seq -> group
        self._sizes: Dict[int, int] = {}   # group -> final size (closed)
        self._current = 0
        self._count = 0

    def assign(self, seq: int, cut_before: bool = False,
               cut_after: bool = False) -> int:
        """Group of ``seq``; extends the map when ``seq`` is new.

        ``cut_before`` seals the currently-open group before assigning
        (serializing instructions must head their own fingerprint so that
        everything older verifies first — otherwise commit of the older
        work would wait on an instruction that cannot issue until they
        commit). ``cut_after`` closes the group right after this
        instruction (serializing instructions and program end).
        """
        if seq < len(self._group_of):
            return self._group_of[seq]
        if seq != len(self._group_of):
            raise ValueError(
                f"group map must be extended in order (got seq {seq}, "
                f"expected {len(self._group_of)})")
        if cut_before and self._count:
            self._sizes[self._current] = self._count
            self._current += 1
            self._count = 0
        group = self._current
        self._group_of.append(group)
        self._count += 1
        if cut_after or self._count >= self.interval:
            self._sizes[group] = self._count
            self._current += 1
            self._count = 0
        return group

    def group_of(self, seq: int) -> int:
        return self._group_of[seq]

    def size(self, group: int) -> Optional[int]:
        """Final member count of ``group`` (None while still open)."""
        return self._sizes.get(group)

    @property
    def groups_closed(self) -> int:
        """Number of sealed groups (they are sealed in index order)."""
        return len(self._sizes)


class CheckStage:
    """Pair-shared verification state.

    Per-core fingerprint state (``_fp``, ``_done_cycle``) exists only for
    groups still awaiting comparison: the comparison drops it, so its
    size tracks the groups in flight, not run length. A generator's
    ``length`` is the number of the group's members hashed so far.
    """

    def __init__(self, params: ReunionParams) -> None:
        self.params = params
        self.groups = GroupMap(params.fingerprint_interval)
        self._fp: List[Dict[int, FingerprintGenerator]] = [{}, {}]
        self._done_cycle: List[Dict[int, int]] = [{}, {}]
        #: group -> (verified_at_cycle, fingerprints_matched)
        self._verdict: Dict[int, Tuple[int, bool]] = {}
        #: failed comparisons awaiting rollback: group -> verdict cycle
        self._mismatched: Dict[int, int] = {}
        #: serializing drain: group each core's front end waits on
        self.block_group: List[Optional[int]] = [None, None]
        #: pending single-shot fingerprint corruption per core (faults)
        self.corrupt_next: List[bool] = [False, False]
        #: groups whose stream was corrupted (fault adjudication)
        self.corrupted_groups: set = set()
        #: telemetry event sink (installed by ReunionSystem; None = off)
        self.events = None
        # statistics
        self.fingerprints_compared = 0
        self.mismatches = 0
        self.aliased_corruptions = 0

    # -- dispatch side ------------------------------------------------------
    def on_dispatch(self, core: int, seq: int, serializing: bool,
                    end_of_program: bool = False, now: int = 0) -> int:
        before = self.groups.groups_closed
        group = self.groups.assign(seq, cut_before=serializing,
                                   cut_after=serializing or end_of_program)
        if serializing and self.params.serializing_policy in ("drain", "send"):
            self.block_group[core] = group
        # Closing a group can retroactively complete it: its last member may
        # have finished execution before the closure was known (the closure
        # happens at the *next* dispatch). Re-check both cores.
        for closed in range(before, self.groups.groups_closed):
            for c in range(2):
                self._check_group_done(c, closed, now)
        return group

    def _check_group_done(self, core: int, group: int, now: int) -> None:
        """Declare ``group`` done on ``core`` if all members are hashed."""
        if group in self._done_cycle[core] or group in self._verdict:
            return
        size = self.groups.size(group)
        fp = self._fp[core].get(group)
        if size is None or fp is None or fp.length != size:
            return
        other_done = self._done_cycle[1 - core].get(group)
        if other_done is None:
            self._done_cycle[core][group] = now
            return
        verified_at = max(now, other_done) + self.params.comparison_latency
        fp0 = self._fp[0].pop(group)
        fp1 = self._fp[1].pop(group)
        matched = fp0.value == fp1.value
        # nothing reads a compared group's per-core state again
        del self._done_cycle[1 - core][group]
        self._verdict[group] = (verified_at, matched)
        self.fingerprints_compared += 1
        if not matched:
            self.mismatches += 1
            self._mismatched[group] = verified_at
        elif group in self.corrupted_groups:
            self.aliased_corruptions += 1
        if self.events is not None:
            from repro.telemetry.events import FP_COMPARE, FP_MISMATCH
            # ts is the comparison *decision* cycle; the in-flight latency
            # lands the verdict at args["verified_at"]
            self.events.emit(FP_COMPARE, now, "check",
                             args={"group": group, "matched": matched,
                                   "verified_at": verified_at})
            if not matched:
                self.events.emit(FP_MISMATCH, now, "check",
                                 args={"group": group})

    def dispatch_allowed(self, core: int, now: int) -> bool:
        group = self.block_group[core]
        if group is None:
            return True
        if self.params.serializing_policy == "send":
            # resume once this core's fingerprint has left (local drain)
            if group in self._done_cycle[core] or group in self._verdict:
                self.block_group[core] = None
                return True
            return False
        verdict = self._verdict.get(group)
        if verdict is not None and now >= verdict[0]:
            self.block_group[core] = None
            return True
        return False

    # -- completion / fingerprint side -----------------------------------------
    def record_completion(self, core: int, group: int, pc: int,
                          result: Optional[int], store_addr: Optional[int],
                          store_value: Optional[int], now: int) -> None:
        """Hash one in-order completion into the core's group fingerprint.

        Call only for groups that are not already verified (re-executions
        of verified work skip hashing).
        """
        fps = self._fp[core]
        fp = fps.get(group)
        if fp is None:
            fp = fps[group] = FingerprintGenerator()
        if self.corrupt_next[core]:
            # a strike perturbed this instruction's output: hash a flipped
            # value so the comparison sees what the hardware would see.
            self.corrupt_next[core] = False
            self.corrupted_groups.add(group)
            result = ((result or 0) ^ 0x1) & 0xFFFFFFFF
        fp.add(pc, result, store_addr, store_value)
        if fp.length == self.groups.size(group):
            self._check_group_done(core, group, now)

    def is_verified(self, group: int, now: int) -> bool:
        verdict = self._verdict.get(group)
        return verdict is not None and verdict[1] and now >= verdict[0]

    def was_compared(self, group: int) -> bool:
        return group in self._verdict

    def mismatch_ready(self, now: int) -> Optional[int]:
        """Oldest group whose comparison failed and is due at ``now``."""
        mismatched = self._mismatched
        if not mismatched:
            return None
        due = [g for g, at in mismatched.items() if now >= at]
        return min(due) if due else None

    # -- rollback ------------------------------------------------------------
    def reset_unverified(self, committed_seq: List[int]) -> None:
        """Drop bookkeeping for every group that is not verified-and-matched.

        ``committed_seq`` gives each core's committed watermark (seq of the
        next instruction to re-execute); verified groups stay verified so
        re-executed tails commit immediately without re-hashing.
        """
        for g in self._mismatched:
            del self._verdict[g]
        self._mismatched.clear()
        # per-core state only ever belongs to not-yet-compared groups
        for core in range(2):
            self._fp[core].clear()
            self._done_cycle[core].clear()
            self.block_group[core] = None

    def needs_hash(self, group: int) -> bool:
        """True when completions of ``group`` must still be fingerprinted
        (False for already-verified groups being replayed)."""
        return group not in self._verdict
