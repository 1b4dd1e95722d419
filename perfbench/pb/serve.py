"""The serve-e2e workload: a loopback ``repro serve`` and one
``repro worker`` as subprocesses, driven by one closed-loop client.

The client keeps exactly one job in flight: it submits, polls the job's
status every 0.2 s (``ServiceClient.wait``'s default) until it is final,
fetches the results, and only then submits the next job. Server and
worker keep their default poll intervals.
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from pb.config import serve_submission
from pb.stats import median
from pb.tracing import Tracer

#: ``ServiceClient.wait``'s default poll interval
CLIENT_POLL_S = 0.2
#: a job not final after this long counts as failed
JOB_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Service:
    """One server + worker pair; ``setup_s`` times its start-up.

    Both write their output to log files beside ``data_dir`` (never to
    a pipe nobody drains), and readiness is read from the HTTP API, so
    anything they print cannot stall or confuse the start-up.
    """

    def __init__(self, root: str, data_dir: str) -> None:
        self.root = root
        self.data_dir = data_dir
        self.port = _free_port()
        self.procs: List[subprocess.Popen] = []
        self.logs: List = []
        self.setup_s = 0.0

    def _spawn(self, name: str, *args: str) -> subprocess.Popen:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        log = open(f"{self.data_dir}.{name}.log", "w")
        self.logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", name, *args], cwd=self.root,
            env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT)
        self.procs.append(proc)
        return proc

    def _await(self, ready, what: str, deadline: float) -> None:
        from repro.service.client import ServiceError
        while True:
            try:
                if ready():
                    return
            except (ServiceError, OSError):
                pass
            if time.perf_counter() > deadline \
                    or any(p.poll() is not None for p in self.procs):
                raise RuntimeError(f"{what} did not come up")
            time.sleep(0.01)

    def start(self) -> "Service":
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        deadline = start + STARTUP_TIMEOUT_S
        self.client = ServiceClient("127.0.0.1", self.port)
        self._spawn("serve", "--port", str(self.port),
                    "--data-dir", self.data_dir, "--expect-workers", "1")
        self._await(self.client.healthz, "server", deadline)
        self._spawn("worker", "--connect", f"127.0.0.1:{self.port}")
        self._await(lambda: self.workers()["leases"]["live_workers"] >= 1,
                    "worker", deadline)
        self.setup_s = time.perf_counter() - start
        return self

    def workers(self) -> Dict:
        return self.client._request("GET", "/api/workers")

    def stop(self) -> None:
        """Worker first (it finishes its lease), then the server."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()
        for log in self.logs:
            log.close()
            os.remove(log.name)
        self.logs.clear()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def run_job(client, submission: Dict, tracer: Optional[Tracer]) -> Dict:
    """Submit one job and wait for it; returns its timings and results.

    An HTTP error or a job that is not ``done`` leaves ``ok`` false.
    """
    from repro.service.client import FINAL_STATES, ServiceError

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    def timed(key, call):
        with span(f"service.{key}"):
            t = time.perf_counter()
            value = call()
            timings.setdefault(key, []).append(time.perf_counter() - t)
        return value

    timings: Dict[str, List[float]] = {}
    job = {"submission": submission, "ok": False, "timings": timings,
           "state": "unsubmitted"}
    try:
        with span("service.job"):
            start = time.perf_counter()
            status = timed("submit", lambda: client.submit(submission))
            running_at = None
            while status["state"] not in FINAL_STATES \
                    and time.perf_counter() - start <= JOB_TIMEOUT_S:
                time.sleep(CLIENT_POLL_S)
                status = timed("status",
                               lambda: client.status(status["job_id"]))
                if running_at is None and status["state"] != "queued":
                    running_at = time.perf_counter()
            done_at = time.perf_counter()
            job["state"] = status["state"]
            job["latency_s"] = done_at - start
            job["queue_s"] = (running_at or done_at) - start
            job["run_s"] = done_at - (running_at or done_at)
            if status["state"] == "done":
                job["summary"] = timed(
                    "results",
                    lambda: client.results(status["job_id"]))["summary"]
                job["ok"] = True
    except (ServiceError, OSError) as exc:
        job["state"] = f"error: {exc}"
    return job


def session(service: Service, seed: int, seconds: float,
            tracer: Optional[Tracer] = None) -> Dict:
    """Closed-loop jobs until ``seconds`` have passed (at least one)."""
    jobs = []
    before = service.workers()["leases"]["counters"]
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(run_job(service.client,
                            serve_submission(seed, len(jobs)), tracer))
    after = service.workers()["leases"]["counters"]
    return {"jobs": jobs,
            "leases": {k: after[k] - before.get(k, 0) for k in after}}


def local_results(submission: Dict, tmp: str) -> Dict:
    """The same grid run directly (serial, full mode) in this process:
    its summary and trial records."""
    from repro.campaign import ResultStore, run_campaign
    from repro.service.server import spec_from_request

    path = os.path.join(tmp, f"local-{submission['seed_base']}.jsonl")
    summary = run_campaign(spec_from_request(submission), path, workers=1,
                           exec_mode="full", ticker_enabled=False)
    records = list(ResultStore(path).iter_trials())
    os.remove(path)
    return {"summary": summary.stats_dict(), "records": records}


def service_layers(jobs: List[Dict], leases: Dict) -> Dict[str, float]:
    def med_ms(key):
        values = [v for j in jobs for v in j["timings"].get(key, [])]
        return median(values) * 1e3 if values else 0.0
    return {"service.submit_ms": med_ms("submit"),
            "service.status_ms": med_ms("status"),
            "service.results_ms": med_ms("results"),
            "service.queue_s": median([j["queue_s"] for j in jobs]),
            "service.run_s": median([j["run_s"] for j in jobs]),
            "service.leases_granted": leases.get("granted", 0),
            "service.leases_requeued": leases.get("requeued", 0),
            "service.leases_expired": leases.get("expired", 0)}
