#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-full --seed 1 \\
        --seconds 12 --trace 0

Workloads: ``paper-sweep``, ``campaign-full``, ``campaign-differential``
and ``serve-e2e`` (see ``perfbench/README.md`` for what each measures and
why). Every timed repetition starts in a fresh process, so no
per-process memo serves it from memory. Outputs are checked against
the digests in ``perfbench/digests.json`` (default seed) and against
repeated or direct runs (any seed).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, and the spans are
written as Chrome trace-event JSON under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import tracing  # noqa: E402
from pb.config import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    campaign_trials,
)
from pb.accounting import record_counts  # noqa: E402
from pb.digest import digest  # noqa: E402
from pb.metrics import END_TO_END, PER_LAYER, SPAN_LAYERS  # noqa: E402
from pb.rss import PeakRSS  # noqa: E402
from pb.stats import median, tail  # noqa: E402

#: every child must be done by then (the run's own limit is 180 s)
RUN_BUDGET_S = 170.0
#: set-up is timed at least this many times per run; the median counts
SETUP_SAMPLES = 3
#: campaign trials re-run in full mode, in-process, after each
#: repetition (a byte-identity spot check that works for any seed)
SPOT_TRIALS = 2
OUT_DIR = ".perfbench_out"
TMP_DIR = ".perfbench_tmp"


class Run:
    """One benchmark invocation: its arguments, clock and scratch."""

    def __init__(self, args: argparse.Namespace, root: str) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.root = root
        self.start = time.perf_counter()
        self.tmp = os.path.join(root, TMP_DIR, str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        with open(os.path.join(HERE, "digests.json")) as f:
            self.digests = json.load(f)

    @property
    def deadline(self) -> float:
        return self.start + RUN_BUDGET_S

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)

    def child(self, kind: str, rep: int = 0, trace: bool = False) -> Dict:
        """Run ``pb/child.py`` in a fresh interpreter; adds ``setup_s``."""
        request = {"root": self.root, "kind": kind,
                   "workload": self.workload, "seed": self.seed,
                   "rep": rep, "trace": trace, "tmp": self.tmp,
                   "spot": SPOT_TRIALS}
        cmd = [sys.executable, os.path.join(HERE, "pb", "child.py"),
               json.dumps(request)]
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{kind} child timed out"}
        if proc.returncode != 0:
            return {"error": f"{kind} child exited {proc.returncode}: "
                             f"{err.strip()[-1500:]}"}
        data = json.loads(out.strip().splitlines()[-1])
        if "ready" in data:
            data["setup_s"] = data["ready"] - spawned
        return data


# -- fresh-process workloads (paper-sweep, campaigns) -------------------------
def _expected_ops(run: Run) -> int:
    return 3 if run.workload == "paper-sweep" \
        else campaign_trials(run.workload)


def check_rep(run: Run, index: int, rep: Dict) -> None:
    """Count one repetition's operations and failures."""
    if "error" in rep:
        run.attempted += _expected_ops(run)
        run.fail(_expected_ops(run), rep["error"])
        return
    if run.workload == "paper-sweep":
        run.attempted += rep["ops"]
        for name, value in rep["digests"].items():
            if value != run.digests["paper-sweep"][name]:
                run.fail(1, f"{name} digest {value} differs from the "
                            f"committed one")
        return
    trials = rep["trials"]
    run.attempted += trials
    if rep["crashes"]:
        run.fail(rep["crashes"], f"{rep['crashes']} CRASH trials")
    if rep["spot_failures"]:
        run.fail(rep["spot_failures"], f"{rep['spot_failures']} trials "
                 f"differ from an in-process full-mode re-run")
    committed = run.digests[run.workload] if run.seed == DEFAULT_SEED \
        else []
    got = rep["digests"]["records"]
    if index < len(committed) and got != committed[index]:
        run.fail(trials, f"repetition {index} records digest {got} "
                         f"differs from the committed {committed[index]}")


def repetitions(run: Run) -> List[Dict]:
    """Fresh-process repetitions until ``--seconds`` have passed."""
    reps: List[Dict] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < run.seconds:
        rep = run.child("op", rep=len(reps))
        check_rep(run, len(reps), rep)
        reps.append(rep)
        if "error" in rep:
            break
    return reps


def setup_samples(run: Run, reps: List[Dict]) -> List[float]:
    samples = [r["setup_s"] for r in reps if "setup_s" in r]
    while len(samples) < SETUP_SAMPLES:
        probe = run.child("setup")
        if "error" in probe:
            run.fail(1, probe["error"])
            break
        samples.append(probe["setup_s"])
    return samples


def end_to_end(run: Run, walls: List[float], trials: int, instructions: int,
               busy_s: float, setups: List[float], peak_kb: int) -> Dict:
    """The end-to-end metrics from one run's operation latencies."""
    tail_info = tail(walls)
    run.notes.append(
        f"job_tail_s is p{tail_info['percentile']:.1f} of "
        f"{tail_info['samples']} operations ({tail_info['beyond']} beyond)")
    return {"setup_s": median(setups) if setups else 0.0,
            "wall_s": median(walls),
            "sim_instr_per_s": instructions / busy_s,
            "trials_per_s": trials / busy_s,
            "job_p50_s": median(walls),
            "job_tail_s": tail_info["value"],
            "peak_rss_mb": peak_kb / 1024.0}


def fresh_process_workload(run: Run) -> Dict:
    with PeakRSS() as rss:
        reps = repetitions(run)
    ok = [r for r in reps if "error" not in r]
    setups = setup_samples(run, reps)
    if not ok:
        return {}
    busy = sum(r["wall_s"] for r in ok)
    return end_to_end(run, [r["wall_s"] for r in ok],
                      sum(r["trials"] for r in ok),
                      sum(r["work"]["instructions"] for r in ok),
                      busy, setups, rss.peak_kb)


def probe_layers(run: Run) -> Dict:
    """Every per-layer metric at 0, then the layer probes' values."""
    layers = {name: 0.0 for name, _ in PER_LAYER}
    probes = run.child("probes")
    if "error" in probes:
        run.fail(1, probes["error"])
    else:
        layers.update(probes)
    return layers


def traced_fresh_process_workload(run: Run) -> Dict:
    """Untraced op, traced op, then the layer probes."""
    base = run.child("op")
    check_rep(run, 0, base)
    traced = run.child("op", trace=True)
    check_rep(run, 0, traced)
    layers = probe_layers(run)
    if "error" in base or "error" in traced:
        return layers
    spans = traced["spans"]
    layers.update(work_layers(traced["work"], traced.get("faults", {})))
    layers.update(traced.get("layers", {}))
    layers.update(span_layers(spans))
    split = traced.get("differential", {})
    for key in ("served_trials", "replayed_trials", "served_instr"):
        if key in split:
            layers[f"campaign.{key}"] = split[key]
    finish_trace(run, layers, spans, traced["wall_s"] - base["wall_s"])
    return layers


def span_layers(spans: List[Dict]) -> Dict:
    """Campaign and checkpoint metrics read off a traced op's spans."""
    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]
    trials = durations("campaign.run_trial") \
        + durations("campaign.run_trial_differential")
    out = {"campaign.prefix_build_s": sum(durations(
        "campaign.prefix_build"))}
    if trials:
        out["campaign.trial_ms_p50"] = median(trials) * 1e3
        out["campaign.trial_ms_tail"] = tail(trials)["value"] * 1e3
    for name, key in (("checkpoint.capture", "checkpoint.capture_ms"),
                      ("checkpoint.restore", "checkpoint.restore_ms")):
        if durations(name):
            out[key] = median(durations(name)) * 1e3
    return out


def work_layers(work: Dict, faults: Dict) -> Dict:
    out = {"sim.runs": work["runs"], "sim.cycles": work["cycles"],
           "sim.instructions": work["instructions"]}
    out.update({f"faults.{k}": v for k, v in faults.items()})
    return out


def finish_trace(run: Run, layers: Dict, spans: List[Dict],
                 overhead_s: float) -> None:
    for layer, secs in tracing.layer_self_times(spans).items():
        if layer in SPAN_LAYERS:
            layers[f"{layer}.self_s"] = secs
    layers["trace.overhead_s"] = overhead_s
    layers["trace.spans"] = len(spans)
    os.makedirs(os.path.join(run.root, OUT_DIR), exist_ok=True)
    path = os.path.join(run.root, OUT_DIR,
                        f"trace-{run.workload}-seed{run.seed}.json")
    with open(path, "w") as f:
        json.dump(tracing.chrome_trace(spans), f)
    run.notes.append(f"trace: {os.path.relpath(path, run.root)} "
                     f"({len(spans)} spans)")


# -- serve-e2e ----------------------------------------------------------------
def serve_workload(run: Run) -> Dict:
    from pb import serve

    sys.path.insert(0, os.path.join(run.root, "src"))
    setups: List[float] = []
    rss = PeakRSS()
    with rss:
        for i in range(SETUP_SAMPLES):
            svc = serve.Service(run.root, os.path.join(run.tmp, f"svc{i}"))
            try:
                svc.start()
            except (RuntimeError, OSError) as exc:
                svc.stop()
                run.attempted += 1
                run.fail(1, f"service start-up failed: {exc}")
                return {}
            setups.append(svc.setup_s)
            if i < SETUP_SAMPLES - 1:
                svc.stop()
        try:
            base = serve.session(svc, run.seed, run.seconds)
            traced = None
            if run.trace:
                tracer = tracing.Tracer(
                    f"{run.workload}:{run.seed}:{os.getpid()}")
                traced = serve.session(svc, run.seed, run.seconds,
                                       tracer)
                traced["spans"] = tracer.take()
        finally:
            svc.stop()
    sessions = [s for s in (base, traced) if s is not None]
    for sess in sessions:
        _verify(run, sess)
    jobs = [j for j in base["jobs"] if j["ok"]]
    if not run.trace:
        if not jobs:
            return {}
        walls = [j["latency_s"] for j in jobs]
        records = [r for j in jobs for r in j["records"]]
        return end_to_end(run, walls, len(records),
                          sum(r["instructions"] for r in records),
                          sum(walls), setups, rss.peak_kb)
    layers = probe_layers(run)
    tjobs = [j for j in traced["jobs"] if j["ok"]]
    if tjobs:
        records = [r for j in tjobs for r in j["records"]]
        layers.update(work_layers(*record_counts(records)))
        layers.update(serve.service_layers(tjobs, traced["leases"]))
    overhead = (median([j["latency_s"] for j in tjobs])
                - median([j["latency_s"] for j in jobs])) \
        if tjobs and jobs else 0.0
    finish_trace(run, layers, traced["spans"], overhead)
    return layers


def _verify(run: Run, sess: Dict) -> None:
    from pb import serve
    committed = run.digests["serve-e2e"] if run.seed == DEFAULT_SEED \
        else []
    for index, job in enumerate(sess["jobs"]):
        run.attempted += 1
        if not job["ok"]:
            run.fail(1, f"job {index} ended {job['state']}")
            continue
        local = serve.local_results(job["submission"], run.tmp)
        got = digest(job["summary"])
        if got != digest(json.loads(json.dumps(local["summary"]))):
            run.fail(1, f"job {index} results differ from a direct run")
        elif index < len(committed) and got != committed[index]:
            run.fail(1, f"job {index} digest differs from the committed one")
        job["records"] = local["records"]


# -- entry point --------------------------------------------------------------
def check_checkout(root: str) -> Optional[str]:
    for need in (os.path.join("src", "repro", "__init__.py"),
                 os.path.join("perfbench", "digests.json")):
        if not os.path.isfile(os.path.join(root, need)):
            return f"{need} not found under {root}: run from the root " \
                   f"of a repository checkout"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    problem = check_checkout(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # compile once so no timed set-up pays for bytecode compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join("src", "repro")], cwd=root, check=True,
                   stdout=subprocess.DEVNULL)
    run = Run(args, root)
    try:
        if run.workload == "serve-e2e":
            metrics = serve_workload(run)
        elif run.trace:
            metrics = traced_fresh_process_workload(run)
        else:
            metrics = fresh_process_workload(run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, TMP_DIR))
        except OSError:
            pass
    catalogue = PER_LAYER if run.trace else END_TO_END
    values = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
              for name, unit in catalogue}
    for name, v in values.items():
        print(f"{name:34s} {v['value']:.6g} {v['unit']}")
    attempted = max(run.attempted, 1)
    print(f"{'failed_frac':34s} {run.failed / attempted:.6g} "
          f"({run.failed}/{attempted})")
    for note in run.notes:
        print(f"note: {note}")
    print(json.dumps({"correct": run.failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": run.failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
