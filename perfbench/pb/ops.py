"""The benchmark's workloads: inputs from a seed, one timed operation
each, the checks on their outputs, and the layer probes of a traced run.

Everything here runs inside a fresh child process (``pb/child.py``), so
the simulator's per-process memos (``harness.runner._baseline_cache``,
``campaign.trial.CONTEXT``, ``campaign.snapshot.CACHE``) start empty in
every timed repetition, as they do for a user's CLI run.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from typing import Dict, List, Optional

from repro.campaign.trial import TrialResult

from pb.accounting import (
    differential_accounting,
    is_served,
    record_counts,
    simulated_instructions,
)
from pb.config import (
    CAMPAIGN_KERNELS,
    DIFF_SERS,
    DIFF_TRIALS,
    EARLY_CYCLES,
    EPOCH_CYCLES,
    FIG4_EXTRA,
    FULL_SER,
    FULL_TRIALS,
    HORIZON_CYCLES,
    LATE_CYCLES,
    SCHEMES,
    WATCHDOG_CYCLES,
)
from pb.digest import digest, records_digest
from pb.stats import median
from pb.tracing import Tracer

#: scheme name -> the repro package whose code its ``run`` spends time in
SYSTEM_LAYER = {"baseline": "core", "unsync": "unsync",
                "reunion": "reunion", "reptfd": "schemes",
                "meek": "schemes"}


# -- inputs -------------------------------------------------------------------
def _strike_cycles(ser: float, trial_seed: int) -> List[int]:
    """Strike cycles before ``LATE_CYCLES``, read from the injector."""
    from repro.faults.injector import FaultInjector
    return [s.cycle for s in
            FaultInjector(ser, seed=trial_seed).schedule(LATE_CYCLES)]


def _full_mix(strikes: List[List[int]]) -> bool:
    """As many strikes within the horizon as the rate predicts."""
    expected = round(len(strikes) * FULL_SER * HORIZON_CYCLES)
    return sum(c < HORIZON_CYCLES for s in strikes for c in s) == expected


def _differential_mix(strikes: List[List[int]]) -> bool:
    """Half the trials struck once before any cell's fault-free run can
    end, the rest not before every cell's has, and the replays from the
    struck trials' snapshot epochs half that early window long on
    average."""
    early = [s for s in strikes if s and s[0] < EARLY_CYCLES]
    late = [s for s in strikes if not s or s[0] >= LATE_CYCLES]
    if len(early) != len(strikes) // 2 \
            or len(early) + len(late) != len(strikes) \
            or any(len(s) != 1 for s in early):
        return False
    span = sum(EARLY_CYCLES - s[0] // EPOCH_CYCLES * EPOCH_CYCLES
               for s in early)
    return abs(span / (len(early) * EARLY_CYCLES / 2) - 1) <= 0.1


def seed_base(workload: str, seed: int, rep: int = 0) -> int:
    """The first trial seed of repetition ``rep`` of a campaign workload.

    Every cell of a spec uses the same trial seeds, so a handful of
    seeds decides how much a campaign simulates: how many strikes land
    inside a run, how many differential trials replay, and from where.
    Left to chance, that work varies by half from one workload seed to
    the next. The workload seed therefore walks a sequence of disjoint
    seed blocks and takes the first whose strike schedule, read from the
    injector alone, has the mix the workload is defined by (``_full_mix``
    or ``_differential_mix``). Which trials run still depends on the
    seed; how much they simulate stays put. Each repetition of a run
    draws its own block, so a run averages over several.
    """
    full = workload == "campaign-full"
    trials = FULL_TRIALS if full else DIFF_TRIALS
    ser = FULL_SER if full else max(DIFF_SERS)
    accept = _full_mix if full else _differential_mix
    for k in range(1000):
        base = (seed * 100_000 + rep * 1000 + k) * trials
        if accept([_strike_cycles(ser, base + i) for i in range(trials)]):
            return base
    raise RuntimeError(f"no seed block for {workload} seed {seed}")


def campaign_spec(workload: str, seed: int, rep: int = 0):
    from repro.campaign import CampaignSpec
    full = workload == "campaign-full"
    return CampaignSpec(
        schemes=SCHEMES, workloads=CAMPAIGN_KERNELS,
        sers=(FULL_SER,) if full else DIFF_SERS,
        trials=FULL_TRIALS if full else DIFF_TRIALS,
        seed_base=seed_base(workload, seed, rep),
        watchdog_cycles=WATCHDOG_CYCLES)


def fig4_benchmarks():
    from repro.harness.experiments import FIG4_DEFAULT
    return tuple(FIG4_DEFAULT) + FIG4_EXTRA


# -- instrumentation ----------------------------------------------------------
class WorkCounter:
    """Runs, cycles and instructions of every finished system run."""

    def __init__(self) -> None:
        self.runs = self.cycles = self.instructions = 0

    def add(self, result) -> None:
        self.runs += 1
        self.cycles += result.cycles
        self.instructions += result.instructions


def instrument_systems(counter: WorkCounter,
                       tracer: Optional[Tracer] = None) -> None:
    """Count (and optionally trace) every scheme system's ``run``."""
    from repro.redundancy.pair import BaselineSystem, DualCoreSystem
    from repro.schemes import available, get
    from repro.schemes.meek import MEEKSystem

    for cls in (BaselineSystem, DualCoreSystem, MEEKSystem):
        def run(self, max_cycles: int = 2_000_000, _run=cls.run):
            if tracer is None:
                result = _run(self, max_cycles)
            else:
                layer = SYSTEM_LAYER.get(self.scheme, "schemes")
                name = f"{layer}.run" if layer == self.scheme \
                    else f"{layer}.{self.scheme}.run"
                with tracer.span(name):
                    result = _run(self, max_cycles)
            counter.add(result)
            return result
        cls.run = run
    if tracer is not None:
        for name in available():
            tracer.patch(type(get(name)), "build_system",
                         "schemes.build_system")


# -- paper-sweep --------------------------------------------------------------
def paper_sweep_setup() -> None:
    from repro.harness.experiments import FIG5_DEFAULT, FIG6_DEFAULT
    from repro.workloads.suites import load_benchmark
    for name in set(fig4_benchmarks()) | set(FIG5_DEFAULT) \
            | set(FIG6_DEFAULT):
        load_benchmark(name)


def paper_sweep(tracer: Optional[Tracer] = None) -> Dict:
    from repro.harness import experiments as ex

    counter = WorkCounter()
    instrument_systems(counter, tracer)
    sweeps = (("fig4_serializing", ex.fig4_serializing,
               (fig4_benchmarks(),)),
              ("fig5_fi_latency", ex.fig5_fi_latency, ()),
              ("fig6_cb_size", ex.fig6_cb_size, ()))
    rows = {}
    start = time.perf_counter()
    for name, fn, args in sweeps:
        if tracer is None:
            rows[name] = fn(*args)
        else:
            with tracer.span(f"harness.{name}"):
                rows[name] = fn(*args)
    wall = time.perf_counter() - start
    digests = {name: digest([dataclasses.asdict(r) for r in out])
               for name, out in rows.items()}
    out = {"wall_s": wall, "ops": len(sweeps), "trials": counter.runs,
           "digests": digests,
           "work": {"runs": counter.runs, "cycles": counter.cycles,
                    "instructions": counter.instructions}}
    if tracer is not None:
        out["spans"] = tracer.take()
    return out


# -- campaigns ----------------------------------------------------------------
def campaign_setup(workload: str, seed: int, rep: int):
    from repro.campaign.trial import CONTEXT
    spec = campaign_spec(workload, seed, rep)
    for kernel in spec.workloads:
        CONTEXT.program(kernel)
    return spec


#: the traced run's recorder; module-level so forked pool workers (which
#: inherit the class-level patches bound to it) record into their copy
TRACER: Optional[Tracer] = None


@dataclasses.dataclass(frozen=True)
class ShippedTrialResult(TrialResult):
    """A trial result plus the spans a pool worker recorded for it; the
    engine stores its record exactly as the base class's."""

    spans: tuple = ()


def _with_spans(runner, name: str):
    def traced(trial):
        mark = len(TRACER.spans)
        with TRACER.span(name):
            result = runner(trial)
        if TRACER.pid == os.getpid():
            return result
        spans = tuple(TRACER.spans[mark:])
        del TRACER.spans[mark:]
        fields = {f.name: getattr(result, f.name)
                  for f in dataclasses.fields(TrialResult)}
        return ShippedTrialResult(**fields, spans=spans)
    return traced


def traced_full_trial(trial):
    from repro.campaign.trial import run_trial
    return _with_spans(run_trial, "campaign.run_trial")(trial)


def traced_differential_trial(trial):
    from repro.campaign.snapshot import run_trial_differential
    return _with_spans(run_trial_differential,
                       "campaign.run_trial_differential")(trial)


def traced_executor(trials, **kwargs):
    """``execute_trials`` inside a wave span; adopts worker spans."""
    from repro.campaign.executor import execute_trials
    on_result = kwargs["on_result"]
    with TRACER.span("campaign.execute_trials") as wave:
        def collect(result):
            shipped = getattr(result, "spans", ())
            if shipped:
                TRACER.adopt(shipped, wave["id"])
            on_result(result)
        kwargs["on_result"] = collect
        return execute_trials(trials, **kwargs)


def _trace_campaign_layers(tracer: Tracer, snapshots: List[int]) -> None:
    """Class-level spans for the layers a campaign trial calls into."""
    from repro.campaign import snapshot as snap_mod
    from repro.campaign import trial as trial_mod
    from repro.campaign.store import ResultStore
    from repro.schemes.base import ResilienceScheme

    instrument_systems(WorkCounter(), tracer)
    tracer.patch(ResultStore, "append_trial", "campaign.store_append")
    tracer.patch(trial_mod, "build_injector", "faults.build_injector")
    tracer.patch(snap_mod, "build_injector", "faults.build_injector")
    tracer.patch(ResilienceScheme, "restore", "checkpoint.restore")
    capture = ResilienceScheme.snapshot

    def snapshot(self, system, pool=None, ins_index=None):
        with tracer.span("checkpoint.capture"):
            snap = capture(self, system, pool=pool, ins_index=ins_index)
        snapshots.append(snap.delta_bytes)
        return snap
    ResilienceScheme.snapshot = snapshot

    built = set()
    lookup = snap_mod.PrefixSnapshotCache.prefix

    def prefix(self, trial):
        key = (trial.scheme, trial.workload, trial.watchdog_cycles)
        if key in built:
            return lookup(self, trial)
        built.add(key)
        with tracer.span("campaign.prefix_build"):
            return lookup(self, trial)
    snap_mod.PrefixSnapshotCache.prefix = prefix


def _primary_committed(system) -> int:
    pipes = getattr(system, "pipelines", None)
    pipe = pipes[0] if pipes else system.pipeline
    return int(pipe.stats.committed)


def _trial_of(record: Dict, spec):
    from repro.campaign.spec import TrialSpec
    return TrialSpec(record["scheme"], record["workload"],
                     float(record["ser"]), int(record["seed"]),
                     fault_model=spec.fault_model,
                     watchdog_cycles=spec.watchdog_cycles)


def _differential_work(records: List[Dict], spec) -> Dict:
    """Served/replayed split of a finished differential campaign, read
    back from this process's prefix cache (built by the campaign)."""
    from repro.campaign.snapshot import CACHE, peek_first_strike
    from repro.schemes import get as get_scheme

    entries = []
    restored: Dict[tuple, int] = {}
    prefixes: Dict[tuple, object] = {}
    for record in records:
        trial = _trial_of(record, spec)
        prefix = CACHE.prefix(trial)
        key = (trial.scheme, trial.workload, trial.watchdog_cycles)
        prefixes[key] = prefix
        first = peek_first_strike(trial)
        entry = {"instructions": record["instructions"],
                 "cycles": record["cycles"], "first_strike": first,
                 "final_cycle": prefix.final_cycle, "restore_cycle": 0,
                 "restore_committed": 0, "trial": trial}
        if not is_served(first, prefix.final_cycle):
            cp = prefix.ring.at_or_before(first)
            if (key, cp.cycle) not in restored:
                system = get_scheme(trial.scheme).restore(cp.state,
                                                          prefix.program)
                restored[(key, cp.cycle)] = _primary_committed(system)
            entry["restore_cycle"] = cp.cycle
            entry["restore_committed"] = restored[(key, cp.cycle)]
        entries.append(entry)
    acct = differential_accounting(entries)
    prefix_instr = sum(p.result.instructions if p.result is not None
                       else p.hang[2] for p in prefixes.values())
    prefix_cycles = sum(p.final_cycle for p in prefixes.values())
    acct["prefix_instr"] = prefix_instr
    acct["entries"] = entries
    return {"runs": len(prefixes) + acct["replayed_trials"],
            "cycles": prefix_cycles + acct["replayed_cycles"],
            "instructions": simulated_instructions(prefix_instr, acct),
            "accounting": acct}


def _spot_check(records: List[Dict], spec, picks: List[int]) -> int:
    """Re-run the picked trials in full mode, in this process; count
    records that differ from the campaign's."""
    from repro.campaign.trial import run_trial
    return sum(run_trial(_trial_of(records[i], spec)).to_record()
               != TrialResult.from_record(records[i]).to_record()
               for i in picks)


def _full_vs_replay(entries: List[Dict], limit: int = 4) -> Dict:
    """Host us per stepped cycle of the same replayed trials, run fresh
    from cycle 0 and restored from their epoch."""
    from repro.campaign.snapshot import CACHE
    from repro.campaign.trial import run_trial

    fresh_s = fresh_cycles = replay_s = replay_cycles = 0.0
    picked = [e for e in entries
              if not is_served(e["first_strike"], e["final_cycle"])][:limit]
    for e in picked:
        start = time.perf_counter()
        res = run_trial(e["trial"])
        fresh_s += time.perf_counter() - start
        fresh_cycles += res.cycles
        start = time.perf_counter()
        res = CACHE.run(e["trial"])
        replay_s += time.perf_counter() - start
        replay_cycles += res.cycles - e["restore_cycle"]
    return {
        "campaign.full_us_per_cycle":
            fresh_s / fresh_cycles * 1e6 if fresh_cycles else 0.0,
        "campaign.replay_us_per_cycle":
            replay_s / replay_cycles * 1e6 if replay_cycles else 0.0}


def campaign(workload: str, spec, store_path: str, spot: int,
             tracer: Optional[Tracer] = None) -> Dict:
    """Run one campaign; check and account for its records."""
    global TRACER
    from repro.campaign import ResultStore, run_campaign

    full = workload == "campaign-full"
    kwargs = {"workers": (os.cpu_count() or 1) if full else 1,
              "exec_mode": "full" if full else "differential",
              "ticker_enabled": False}
    snapshots: List[int] = []
    if tracer is not None:
        TRACER = tracer
        _trace_campaign_layers(tracer, snapshots)
        kwargs["executor"] = traced_executor
        kwargs["runner"] = traced_full_trial if full \
            else traced_differential_trial
    start = time.perf_counter()
    if tracer is None:
        run_campaign(spec, store_path, **kwargs)
    else:
        with tracer.span("campaign.run_campaign"):
            run_campaign(spec, store_path, **kwargs)
    wall = time.perf_counter() - start

    records = list(ResultStore(store_path).iter_trials())
    work, faults = record_counts(records)
    out = {"wall_s": wall, "ops": 1, "trials": len(records),
           "digests": {"records": records_digest(records)},
           "crashes": sum(r["outcome"] == "crash" for r in records),
           "work": work, "faults": faults}
    if tracer is not None:
        # the checks below run patched code too; keep their spans out
        out["spans"] = tracer.take()
    if full:
        struck = [i for i, r in enumerate(records) if r["strikes"]]
        picks = struck[:spot]
    else:
        simulated = _differential_work(records, spec)
        acct = simulated.pop("accounting")
        out["work"] = simulated
        out["differential"] = {k: v for k, v in acct.items()
                               if k != "entries"}
        served = [is_served(e["first_strike"], e["final_cycle"])
                  for e in acct["entries"]]
        replayed = [i for i, hit in enumerate(served) if not hit]
        picks = (replayed[:max(spot - 1, 0)]
                 + [i for i, hit in enumerate(served) if hit][:1])[:spot]
        if tracer is not None:
            out["layers"] = _full_vs_replay(acct["entries"])
            out["layers"]["checkpoint.snapshot_kb"] = \
                median(snapshots) / 1024.0 if snapshots else 0.0
    out["spot_checked"] = len(picks)
    out["spot_failures"] = _spot_check(records, spec, picks)
    return out


# -- layer probes (traced runs only) ------------------------------------------
def _median_of(fn, repeats: int = 3) -> float:
    return median([fn() for _ in range(repeats)])


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def probe_golden() -> float:
    from repro.isa import golden
    from repro.workloads import load_workload
    programs = [load_workload(w) for w in CAMPAIGN_KERNELS + FIG4_EXTRA]

    def rate():
        instr = secs = 0.0
        for program in programs:
            dt, res = _timed(lambda: golden.run(program,
                                                max_instructions=2_000_000))
            instr += res.instructions
            secs += dt
        return instr / secs
    return _median_of(rate)


def probe_core(kernel: str) -> float:
    from repro.core.core import Core
    from repro.workloads import load_workload
    program = load_workload(kernel)

    def us_per_cycle():
        dt, res = _timed(lambda: Core(program).run())
        return dt / res.cycles * 1e6
    return _median_of(us_per_cycle)


def probe_scheme(scheme: str) -> float:
    from repro.harness.runner import run_scheme
    from repro.workloads import load_workload
    program = load_workload(CAMPAIGN_KERNELS[0])

    def us_per_cycle():
        dt, res = _timed(lambda: run_scheme(scheme, program))
        return dt / res.cycles * 1e6
    return _median_of(us_per_cycle)


def canned_trial(template, trial):
    """Replayed-result runner: a real trial's result re-labelled."""
    return dataclasses.replace(template, scheme=trial.scheme,
                               workload=trial.workload, ser=trial.ser,
                               seed=trial.seed)


def probe_campaign_layer(tmpdir: str) -> Dict[str, float]:
    """Engine cost per trial with simulation replaced, and store I/O."""
    from repro.campaign import CampaignSpec, ResultStore, run_campaign
    from repro.campaign.spec import TrialSpec
    from repro.campaign.trial import run_trial

    runner = functools.partial(canned_trial, run_trial(TrialSpec(
        "unsync", CAMPAIGN_KERNELS[0], FULL_SER, 1,
        watchdog_cycles=WATCHDOG_CYCLES)))
    spec = CampaignSpec(schemes=SCHEMES, workloads=CAMPAIGN_KERNELS,
                        sers=(FULL_SER,), trials=50,
                        watchdog_cycles=WATCHDOG_CYCLES)

    def engine_us():
        path = os.path.join(tmpdir, f"engine-{time.perf_counter_ns()}.jsonl")
        dt, _ = _timed(lambda: run_campaign(spec, path, workers=1,
                                            runner=runner,
                                            ticker_enabled=False))
        os.remove(path)
        return dt / spec.total_trials * 1e6

    path = os.path.join(tmpdir, "store-probe.jsonl")
    store = ResultStore(path)
    store.create(spec)
    appends = []
    for trial in spec.expand():
        record = runner(trial).to_record()
        dt, _ = _timed(lambda: store.append_trial(record))
        appends.append(dt)
    load_ms = _median_of(
        lambda: _timed(lambda: list(store.iter_trials()))[0] * 1e3)
    os.remove(path)
    return {"campaign.engine_us_per_trial": _median_of(engine_us),
            "campaign.store_append_us": median(appends) * 1e6,
            "campaign.store_load_ms": load_ms}


def probes(tmpdir: str) -> Dict[str, float]:
    out = {"isa.golden_instr_per_s": probe_golden(),
           "core.us_per_cycle_l1_resident":
               probe_core(CAMPAIGN_KERNELS[0]),
           "core.us_per_cycle_l1_spill": probe_core(CAMPAIGN_KERNELS[1])}
    for scheme in SCHEMES:
        out[f"{scheme}.us_per_cycle"] = probe_scheme(scheme)
    out.update(probe_campaign_layer(tmpdir))
    return out
