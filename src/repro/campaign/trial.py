"""One Monte Carlo trial: seed in, adjudicated outcomes out.

``run_trial`` is the process-pool worker entry point (top-level so it
pickles). It deliberately contains *no* simulation logic of its own —
the injector, detectors and recovery paths are exactly the ones
``repro run --inject`` exercises, so campaign statistics and single-run
debugging always agree.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.campaign.spec import TrialSpec
from repro.faults.events import Outcome

#: outcome keys in record order (FaultEvent outcomes plus derived ones)
OUTCOME_KEYS: Tuple[str, ...] = tuple(o.value for o in Outcome)


def classify_trial(outcomes: Dict[str, int]) -> str:
    """Collapse a trial's per-event outcome counts into ONE taxonomy label.

    Worst-first priority over :data:`~repro.faults.events.TRIAL_OUTCOMES`:
    ``crash > hang > sdc > due > recovered`` — a trial that both corrupted
    data *and* flagged a DUE is an SDC trial (the corruption is what
    escaped detection). A trial whose strikes were all masked or recovered
    — or that saw no strikes at all — is ``"recovered"``; the aggregate
    still distinguishes clean trials via strike counts.
    """
    if outcomes.get(Outcome.CRASH.value, 0):
        return "crash"
    if outcomes.get(Outcome.HANG.value, 0):
        return "hang"
    if outcomes.get(Outcome.SDC.value, 0):
        return "sdc"
    if outcomes.get(Outcome.DETECTED_UNRECOVERABLE.value, 0):
        return "due"
    return "recovered"


class _TrialContext:
    """Per-worker memo of assembled programs and golden reference runs.

    A pool worker receives many trials for the same handful of workloads;
    assembling a kernel from source on every ``load_workload`` call (and
    re-interpreting it for any golden-reference consumer) was measurable
    against trials that simulate only a few thousand instructions. The
    context lives at module level, so it persists for the lifetime of the
    worker process, and programs are immutable (``Instruction`` is frozen)
    so sharing one instance across trials is safe.

    Both memos are LRU-bounded (``cap`` workloads each): a long
    multi-workload grid recycles the same worker processes for every
    cell, and unbounded memos grow worker RSS with every workload the
    grid visits. Recency order is maintained on every hit, so the grid's
    active workloads stay resident.
    """

    __slots__ = ("programs", "goldens", "cap")

    #: workloads kept per memo unless a context overrides it
    DEFAULT_CAP = 8

    def __init__(self, cap: Optional[int] = None) -> None:
        if cap is not None and cap < 1:
            raise ValueError("memo cap must be at least 1")
        self.cap = cap if cap is not None else self.DEFAULT_CAP
        self.programs: "OrderedDict[str, object]" = OrderedDict()
        self.goldens: "OrderedDict[str, object]" = OrderedDict()

    def _touch(self, memo: "OrderedDict[str, object]", workload: str,
               value: object) -> object:
        memo[workload] = value
        memo.move_to_end(workload)
        while len(memo) > self.cap:
            memo.popitem(last=False)
        return value

    def program(self, workload: str):
        """The assembled :class:`~repro.isa.program.Program` (memoized)."""
        prog = self.programs.get(workload)
        if prog is None:
            from repro.workloads import load_workload
            prog = load_workload(workload)
        return self._touch(self.programs, workload, prog)

    def golden(self, workload: str):
        """The fault-free golden run of ``workload`` (memoized)."""
        res = self.goldens.get(workload)
        if res is None:
            from repro.isa import golden
            res = golden.run(self.program(workload),
                             max_instructions=2_000_000)
        return self._touch(self.goldens, workload, res)

    def clear(self) -> None:
        self.programs.clear()
        self.goldens.clear()


#: the worker-process-wide context ``run_trial`` pulls programs from
CONTEXT = _TrialContext()


@dataclass(frozen=True)
class TrialResult:
    """Everything one trial contributes to the campaign aggregate.

    All counters are integers so that aggregation is exact and
    order-independent — the root of the serial == parallel and
    resumed == uninterrupted guarantees.
    """

    scheme: str
    workload: str
    ser: float
    seed: int
    cycles: int
    instructions: int
    #: strikes injected during the run
    strikes: int
    #: Outcome.value -> event count
    outcomes: Dict[str, int]
    #: total recovery/rollback cycles charged during the run
    recovery_cycles: int
    #: scheme-level telemetry counters (integral, non-zero only — see
    #: ``trial_metrics``); integer-summed by the aggregator, so merges
    #: stay exact and order-independent
    metrics: Dict[str, int] = field(default_factory=dict)
    #: single taxonomy label for the whole trial — one of
    #: :data:`~repro.faults.events.TRIAL_OUTCOMES` ("" = classify lazily,
    #: the back-compat path for records written before the taxonomy)
    outcome: str = ""
    #: harness-level failure detail (HANG/CRASH trials only)
    error: Optional[str] = None

    @property
    def cell(self) -> str:
        from repro.campaign.spec import cell_id
        return cell_id(self.scheme, self.workload, self.ser)

    def key(self) -> Tuple[str, int]:
        return (self.cell, self.seed)

    def count(self, outcome: Outcome) -> int:
        return self.outcomes.get(outcome.value, 0)

    @property
    def suffered_sdc(self) -> bool:
        return self.count(Outcome.SDC) > 0

    @property
    def suffered_due(self) -> bool:
        return self.count(Outcome.DETECTED_UNRECOVERABLE) > 0

    @property
    def recovered(self) -> bool:
        return self.count(Outcome.DETECTED_RECOVERED) > 0

    @property
    def taxonomy(self) -> str:
        """The trial's single outcome label (classifying lazily when the
        record predates the taxonomy field)."""
        return self.outcome or classify_trial(self.outcomes)

    # -- JSONL round-trip ---------------------------------------------------
    def to_record(self) -> Dict:
        record = {
            "cell": self.cell,
            "scheme": self.scheme,
            "workload": self.workload,
            "ser": self.ser,
            "seed": self.seed,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "strikes": self.strikes,
            "outcomes": {k: v for k, v in sorted(self.outcomes.items()) if v},
            "recovery_cycles": self.recovery_cycles,
            "metrics": {k: v for k, v in sorted(self.metrics.items()) if v},
            "outcome": self.taxonomy,
        }
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_record(cls, record: Dict) -> "TrialResult":
        # `.get` keeps stores written before the telemetry subsystem
        # readable (their trials simply contribute no metrics)
        return cls(scheme=record["scheme"], workload=record["workload"],
                   ser=float(record["ser"]), seed=int(record["seed"]),
                   cycles=int(record["cycles"]),
                   instructions=int(record["instructions"]),
                   strikes=int(record["strikes"]),
                   outcomes={k: int(v)
                             for k, v in record["outcomes"].items()},
                   recovery_cycles=int(record["recovery_cycles"]),
                   metrics={k: int(v)
                            for k, v in record.get("metrics", {}).items()},
                   outcome=record.get("outcome", ""),
                   error=record.get("error"))


def trial_metrics(run_metrics: Dict[str, float]) -> Dict[str, int]:
    """Scheme-level metric counters worth persisting per trial.

    Per-core counters (``core0.*``) are dropped — they are bulky and
    derivable from debugging single runs — and only non-zero *integral*
    values survive, so the aggregate's integer sums stay exact regardless
    of merge order (the campaign determinism invariant).
    """
    out: Dict[str, int] = {}
    for name, value in run_metrics.items():
        if name.startswith("core"):
            continue
        if not value or float(value) != int(value):
            continue
        out[name] = int(value)
    return out


def build_injector(trial: TrialSpec):
    """The injector a trial's ``fault_model`` calls for, seeded from the
    trial so the run stays a pure function of its :class:`TrialSpec`."""
    if trial.fault_model == "adversarial":
        from repro.faults.adversarial import adversarial_injector
        return adversarial_injector(trial.scheme, trial.ser, seed=trial.seed)
    from repro.faults.injector import FaultInjector
    return FaultInjector(trial.ser, seed=trial.seed)


def hang_result(trial: TrialSpec, exc) -> TrialResult:
    """A :class:`TrialResult` for a watchdog-tripped (wedged) simulation.

    The simulation never finished, so per-event adjudication is moot; the
    whole trial is the single ``HANG`` outcome, keeping the partial cycle
    and commit counts the watchdog salvaged from the wreck.
    """
    return TrialResult(scheme=trial.scheme, workload=trial.workload,
                       ser=trial.ser, seed=trial.seed,
                       cycles=int(getattr(exc, "cycles", 0)),
                       instructions=int(getattr(exc, "committed", 0)),
                       strikes=0, outcomes={Outcome.HANG.value: 1},
                       recovery_cycles=0, outcome="hang", error=str(exc))


def crash_result(trial: TrialSpec, cause: str) -> TrialResult:
    """A :class:`TrialResult` for a trial whose *harness* died.

    Recorded so one pathological seed documents itself in the store as a
    ``CRASH`` instead of aborting the whole grid. ``cause`` keeps the
    traceback tail for debugging.
    """
    return TrialResult(scheme=trial.scheme, workload=trial.workload,
                       ser=trial.ser, seed=trial.seed,
                       cycles=0, instructions=0, strikes=0,
                       outcomes={Outcome.CRASH.value: 1},
                       recovery_cycles=0, outcome="crash",
                       error=cause[-2000:])


def finish_trial(trial: TrialSpec, res) -> TrialResult:
    """Adjudicate a finished run into a :class:`TrialResult`.

    Pure function of the :class:`~repro.redundancy.stats.RunResult` —
    shared verbatim between the full-replay path below and the
    differential-replay path (:mod:`repro.campaign.snapshot`), which is
    what makes "both modes produce byte-identical records" a property of
    the simulation, not of two parallel adjudication implementations.
    """
    from repro.schemes import get as get_scheme

    outcomes = Counter(e.outcome.value for e in res.fault_events
                       if e.outcome is not None)
    # Each scheme declares which `extra` keys charge recovery/rollback
    # cycles (UnSync charges recovery_cycles, Reunion rollback_cycles);
    # the default covers both, byte-identically to the old hard-coded sum.
    recovery = get_scheme(trial.scheme).recovery_cycles(res.extra)
    return TrialResult(scheme=trial.scheme, workload=trial.workload,
                       ser=trial.ser, seed=trial.seed,
                       cycles=res.cycles, instructions=res.instructions,
                       strikes=len(res.fault_events),
                       outcomes=dict(outcomes), recovery_cycles=recovery,
                       metrics=trial_metrics(res.metrics),
                       outcome=classify_trial(dict(outcomes)))


def run_trial(trial: TrialSpec) -> TrialResult:
    """Worker entry point: run one seeded injection trial.

    Imports stay inside the function so a forked/spawned worker only
    pays for what it uses.
    """
    from repro.harness.runner import run_scheme
    from repro.redundancy.pair import SimulationHang

    program = CONTEXT.program(trial.workload)
    injector = build_injector(trial)
    try:
        res = run_scheme(trial.scheme, program, injector=injector,
                         max_cycles=trial.watchdog_cycles)
    except SimulationHang as exc:
        return hang_result(trial, exc)
    return finish_trial(trial, res)
