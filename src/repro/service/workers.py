"""Distributed worker tier: wave leases, heartbeats, at-least-once requeue.

Topology::

    repro serve (coordinator)                     repro worker --connect
    +---------------------------------+           +---------------------+
    | scheduler -- WaveDispatcher     |  claim    | lease -> run trials |
    |                 |               | (held)    | heartbeat (TTL/3)   |
    |             LeaseBroker         | <-------> | post records        |
    |                                 |  results  |                     |
    +---------------------------------+           +---------------------+

The engine's wave loop is untouched: :class:`WaveDispatcher` is a
drop-in for :func:`repro.campaign.executor.execute_trials`, so waves,
batch boundaries, early stopping and store append order are decided
exactly as in a direct CLI run. The dispatcher slices each wave into
per-cell **leases**, the broker hands them to registered workers, and
workers stream back ``TrialResult`` records. Crash safety is
at-least-once: an expired lease (dead worker, dropped heartbeats) is
requeued, and because every trial is a pure function of its spec, the
first completion per (cell, seed) key wins and the store stays
byte-identical to a local run.

A claim is a long poll: the worker asks the coordinator to hold it open
for up to :data:`CLAIM_WAIT` seconds, and the broker wakes the held
claim the moment a lease is offered or requeued, so an idle worker
starts a new lease without sleeping between claims.

Graceful degradation, in order of escalation:

* no worker ever registers within ``worker_wait`` -> the dispatcher
  pins itself to local execution for the rest of the job;
* no worker is live at a wave boundary -> that wave runs locally and
  the next wave re-checks (a respawned worker can rejoin);
* every worker dies mid-wave -> outstanding leases are withdrawn and
  finished in-process;
* a lease exhausts its requeue budget (flapping workers) -> it is
  abandoned by the broker and finished in-process.

All worker<->coordinator HTTP goes through
:func:`repro.service.retry.call_with_retry`, so transient 500s and
socket timeouts are absorbed with jittered backoff instead of
hand-rolled loops.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    TypeVar)

from repro.campaign.executor import ExecutionReport, execute_trials
from repro.campaign.spec import TrialSpec
from repro.campaign.trial import TrialResult, run_trial
from repro.service.chaos import ChaosController
from repro.service.client import ServiceError
from repro.service.retry import (HTTP_RETRY, RetryError, RetryPolicy,
                                 call_with_retry)

T = TypeVar("T")

#: lease lifecycle states
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
#: requeue budget exhausted — the dispatcher must finish it locally
ABANDONED = "abandoned"
#: taken back by the dispatcher for local execution; late completions
#: from presumed-dead workers are rejected so results stay single-source
WITHDRAWN = "withdrawn"

#: longest a claim is held open waiting for a lease (seconds): what
#: ``run_worker`` asks for and the most the coordinator grants. Well
#: under half of ``run_worker``'s default 5 s request timeout, so a held
#: claim never reads as a dead socket; a drain ends the hold early.
CLAIM_WAIT = 1.0


def trial_to_wire(trial: TrialSpec) -> Dict:
    """JSON-safe encoding of a :class:`TrialSpec` for the worker API."""
    wire: Dict = {"scheme": trial.scheme, "workload": trial.workload,
                  "ser": trial.ser, "seed": trial.seed,
                  "fault_model": trial.fault_model}
    if trial.watchdog_cycles is not None:
        wire["watchdog_cycles"] = trial.watchdog_cycles
    return wire


def trial_from_wire(wire: Dict) -> TrialSpec:
    return TrialSpec(scheme=wire["scheme"], workload=wire["workload"],
                     ser=float(wire["ser"]), seed=int(wire["seed"]),
                     fault_model=wire.get("fault_model", "standard"),
                     watchdog_cycles=wire.get("watchdog_cycles"))


@dataclass
class Lease:
    """One claimable slice of a wave (all trials share a cell)."""

    lease_id: str
    job_id: str
    trials: List[TrialSpec]
    state: str = PENDING
    worker_id: Optional[str] = None
    deadline: float = 0.0
    requeues: int = 0
    #: records posted by the completing worker (DONE leases only)
    records: List[Dict] = field(default_factory=list)
    #: recovery-latency bookkeeping: first expiry -> completion
    first_expired_at: Optional[float] = None


@dataclass
class WorkerInfo:
    worker_id: str
    name: str
    registered_at: float
    last_seen: float
    leases: Set[str] = field(default_factory=set)


class LeaseBroker:
    """Coordinator-side lease/worker state. Thread-safe.

    Liveness is heartbeat-driven: a worker is *live* while its last
    heartbeat (or claim) is within ``worker_ttl``; a claimed lease whose
    ``deadline`` (renewed by heartbeats) lapses is requeued — up to
    ``max_requeues`` times, after which it is abandoned to the
    dispatcher. Completions are first-wins: a late post for an
    already-completed or withdrawn lease is rejected, which is what
    makes at-least-once delivery safe to deduplicate.
    """

    def __init__(self, *, lease_ttl: float = 10.0,
                 worker_ttl: Optional[float] = None,
                 max_requeues: int = 3,
                 clock: Callable[[], float] = time.monotonic,
                 metrics=None) -> None:
        if lease_ttl <= 0.0:
            raise ValueError("lease_ttl must be positive")
        self.lease_ttl = lease_ttl
        self.worker_ttl = worker_ttl if worker_ttl is not None \
            else 2.5 * lease_ttl
        self.max_requeues = max_requeues
        self.clock = clock
        self.metrics = metrics
        self._cv = threading.Condition()
        self._workers: Dict[str, WorkerInfo] = {}
        self._leases: Dict[str, Lease] = {}
        self._queue: List[str] = []
        #: held claims' wake-up callbacks, each fired (and dropped) once
        #: a lease becomes claimable
        self._claimers: List[Callable[[], object]] = []
        self._worker_seq = itertools.count(1)
        self.ever_registered = False
        self.counters: Dict[str, int] = {
            "granted": 0, "completed": 0, "expired": 0, "requeued": 0,
            "abandoned": 0, "rejected": 0,
        }
        self.recovery_latencies: List[float] = []

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        if self.metrics is not None:
            self.metrics.counter(f"service.lease.{name}").inc(amount)

    # -- worker lifecycle ---------------------------------------------------
    def register(self, name: Optional[str] = None) -> Dict:
        """Register a worker; returns its id and protocol intervals."""
        with self._cv:
            worker_id = f"w{next(self._worker_seq):04d}"
            now = self.clock()
            self._workers[worker_id] = WorkerInfo(
                worker_id=worker_id, name=name or worker_id,
                registered_at=now, last_seen=now)
            self.ever_registered = True
            self._cv.notify_all()
            return {"worker_id": worker_id,
                    "lease_ttl": self.lease_ttl,
                    "heartbeat_interval": self.lease_ttl / 3.0}

    def heartbeat(self, worker_id: str,
                  lease_ids: Sequence[str]) -> Optional[Dict]:
        """Renew worker liveness and held-lease deadlines.

        Returns ``None`` for an unknown worker (the HTTP layer turns
        that into a 404 and the worker re-registers — coordinator
        restarts drop broker state by design). ``lost`` lists leases
        the worker thinks it holds but the broker has already requeued.
        """
        with self._cv:
            info = self._workers.get(worker_id)
            if info is None:
                return None
            now = self.clock()
            info.last_seen = now
            lost: List[str] = []
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if lease is not None and lease.state == CLAIMED \
                        and lease.worker_id == worker_id:
                    lease.deadline = now + self.lease_ttl
                else:
                    lost.append(lease_id)
            return {"ok": True, "lost": lost}

    def live_workers(self) -> int:
        with self._cv:
            return self._live_locked()

    def _live_locked(self) -> int:
        horizon = self.clock() - self.worker_ttl
        return sum(1 for info in self._workers.values()
                   if info.last_seen >= horizon)

    def workers_status(self) -> List[Dict]:
        with self._cv:
            horizon = self.clock() - self.worker_ttl
            return [{"worker_id": info.worker_id, "name": info.name,
                     "live": info.last_seen >= horizon,
                     "leases": sorted(info.leases)}
                    for info in self._workers.values()]

    # -- lease lifecycle ----------------------------------------------------
    def offer(self, leases: Sequence[Lease]) -> None:
        with self._cv:
            for lease in leases:
                self._leases[lease.lease_id] = lease
                self._queue.append(lease.lease_id)
            self._wake_claimers_locked()
            self._cv.notify_all()

    def claim(self, worker_id: str,
              on_claimable: Optional[Callable[[], object]] = None
              ) -> Optional[Dict]:
        """Hand the next pending lease to ``worker_id`` (None if idle).

        When there is none and ``on_claimable`` is given, it is called
        once — from whichever thread offers or requeues a lease, with
        the broker lock held, so it must only schedule work — unless
        :meth:`drop_claimer` removes it first. Registering under the
        same lock as the failed claim means no offer can slip between.

        Raises :class:`KeyError` for an unknown worker so the HTTP
        layer can 404 and trigger re-registration.
        """
        with self._cv:
            info = self._workers.get(worker_id)
            if info is None:
                raise KeyError(worker_id)
            now = self.clock()
            info.last_seen = now  # claiming is proof of life
            self._expire_locked()
            while self._queue:
                lease_id = self._queue.pop(0)
                lease = self._leases.get(lease_id)
                if lease is None or lease.state != PENDING:
                    continue
                lease.state = CLAIMED
                lease.worker_id = worker_id
                lease.deadline = now + self.lease_ttl
                info.leases.add(lease_id)
                self._count("granted")
                return {"lease_id": lease.lease_id,
                        "job_id": lease.job_id,
                        "ttl": self.lease_ttl,
                        "trials": [trial_to_wire(t) for t in lease.trials]}
            if on_claimable is not None:
                self._claimers.append(on_claimable)
            return None

    def drop_claimer(self, on_claimable: Callable[[], object]) -> None:
        """Forget a held claim's callback (its hold ended unwoken)."""
        with self._cv:
            if on_claimable in self._claimers:
                self._claimers.remove(on_claimable)

    def wake_claimers(self) -> None:
        """Fire every held claim's callback (a drain ends the holds)."""
        with self._cv:
            self._wake_claimers_locked()

    def _wake_claimers_locked(self) -> None:
        claimers, self._claimers = self._claimers, []
        for wake in claimers:
            wake()

    def complete(self, worker_id: str, lease_id: str,
                 records: Sequence[Dict]) -> bool:
        """Accept a worker's results for a lease; first completion wins.

        A completion for a requeued-but-not-yet-reclaimed lease is
        accepted (the work is valid; the requeue becomes a no-op), a
        completion for a DONE or WITHDRAWN lease is rejected.
        """
        with self._cv:
            info = self._workers.get(worker_id)
            if info is not None:
                info.last_seen = self.clock()
                info.leases.discard(lease_id)
            lease = self._leases.get(lease_id)
            if lease is None or lease.state in (DONE, WITHDRAWN):
                self._count("rejected")
                return False
            if lease.worker_id is not None:
                holder = self._workers.get(lease.worker_id)
                if holder is not None:
                    holder.leases.discard(lease_id)
            lease.records = list(records)
            lease.state = DONE
            if lease.first_expired_at is not None:
                self.recovery_latencies.append(
                    self.clock() - lease.first_expired_at)
            self._count("completed")
            self._cv.notify_all()
            return True

    def _expire_locked(self) -> int:
        now = self.clock()
        expired = 0
        for lease in self._leases.values():
            if lease.state != CLAIMED or now <= lease.deadline:
                continue
            holder = self._workers.get(lease.worker_id or "")
            if holder is not None:
                holder.leases.discard(lease.lease_id)
            expired += 1
            lease.requeues += 1
            if lease.first_expired_at is None:
                lease.first_expired_at = now
            self._count("expired")
            if lease.requeues > self.max_requeues:
                lease.state = ABANDONED
                self._count("abandoned")
            else:
                lease.state = PENDING
                lease.worker_id = None
                self._queue.append(lease.lease_id)
                self._count("requeued")
                self._wake_claimers_locked()
        return expired

    def expire_overdue(self) -> int:
        """Requeue (or abandon) claimed leases whose TTL has lapsed."""
        with self._cv:
            expired = self._expire_locked()
            if expired:
                self._cv.notify_all()
            return expired

    def poll(self, lease_ids: Sequence[str]
             ) -> Dict[str, Tuple[str, List[Dict]]]:
        """Snapshot (state, records) for the given leases."""
        with self._cv:
            out: Dict[str, Tuple[str, List[Dict]]] = {}
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if lease is not None:
                    out[lease_id] = (lease.state, lease.records)
            return out

    def withdraw(self, lease_ids: Sequence[str]) -> List[Lease]:
        """Reclaim unfinished leases for local execution.

        Withdrawn leases reject late completions: once the dispatcher
        owns the trials again, results are single-source.
        """
        with self._cv:
            taken: List[Lease] = []
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if lease is None or lease.state in (DONE, WITHDRAWN):
                    continue
                holder = self._workers.get(lease.worker_id or "")
                if holder is not None:
                    holder.leases.discard(lease_id)
                lease.state = WITHDRAWN
                lease.worker_id = None
                taken.append(lease)
            return taken

    def forget(self, lease_ids: Sequence[str]) -> None:
        """Drop finished leases so broker memory stays wave-bounded."""
        with self._cv:
            for lease_id in lease_ids:
                self._leases.pop(lease_id, None)
            self._queue = [lid for lid in self._queue
                           if lid in self._leases]

    def wait(self, timeout: float) -> None:
        """Block until broker state changes (or the timeout lapses)."""
        with self._cv:
            self._cv.wait(timeout=timeout)

    def stats(self) -> Dict:
        with self._cv:
            latencies = list(self.recovery_latencies)
            return {
                "counters": dict(self.counters),
                "live_workers": self._live_locked(),
                "ever_registered": self.ever_registered,
                "recovery_latencies": latencies,
                "recovery_latency_max": max(latencies, default=0.0),
            }


class WaveDispatcher:
    """Drop-in for ``execute_trials`` that fans a wave over HTTP workers.

    Instantiated per job by the scheduler and handed to the engine as
    its ``executor``; the engine's wave loop, early stopping, and store
    appends are untouched. ``on_result`` fires in the wave's original
    order (an ordered-prefix emit over an arrival dict), so distributed
    stores are byte-identical to local ones.
    """

    def __init__(self, broker: LeaseBroker, *, job_id: str,
                 expect_workers: int = 0, worker_wait: float = 10.0,
                 poll_interval: float = 0.05,
                 clock: Callable[[], float] = time.monotonic,
                 metrics=None) -> None:
        self.broker = broker
        self.job_id = job_id
        self.expect_workers = expect_workers
        self.worker_wait = worker_wait
        self.poll_interval = poll_interval
        self.clock = clock
        self.metrics = metrics
        self._wave = 0
        self._waited = False
        self._local_only = False

    # -- executor protocol --------------------------------------------------
    def __call__(self, trials: Sequence[TrialSpec],
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 runner: Callable[[TrialSpec], TrialResult] = run_trial,
                 on_result: Optional[Callable[[TrialResult], None]] = None,
                 report: Optional[ExecutionReport] = None,
                 submit_order: Optional[Callable[[TrialSpec], object]]
                 = None,
                 ) -> List[TrialResult]:
        if report is None:
            report = ExecutionReport()
        if not trials:
            return []
        self._wave += 1
        if not self._distributed_ready():
            return execute_trials(trials, workers=workers, timeout=timeout,
                                  runner=runner, on_result=on_result,
                                  report=report, submit_order=submit_order)
        return self._run_wave(list(trials), workers, timeout, runner,
                              on_result, report)

    def _distributed_ready(self) -> bool:
        if self._local_only:
            return False
        if self.broker.live_workers() > 0:
            return True
        if self.expect_workers > 0 and not self._waited:
            self._waited = True
            deadline = self.clock() + self.worker_wait
            while self.clock() < deadline:
                if self.broker.live_workers() > 0:
                    return True
                self.broker.wait(timeout=min(
                    0.05, max(0.0, deadline - self.clock())))
            if not self.broker.ever_registered:
                # nobody ever showed up: stop re-checking every wave
                self._local_only = True
                if self.metrics is not None:
                    self.metrics.counter(
                        "service.dispatch.fallback_local").inc()
        return False

    def _make_leases(self, trials: Sequence[TrialSpec]) -> List[Lease]:
        leases: List[Lease] = []
        for index, (_, group) in enumerate(
                itertools.groupby(trials, key=lambda t: t.cell)):
            leases.append(Lease(
                lease_id=f"{self.job_id}-v{self._wave}-{index}",
                job_id=self.job_id, trials=list(group)))
        return leases

    def _run_wave(self, trials: List[TrialSpec], workers: Optional[int],
                  timeout: Optional[float],
                  runner: Callable[[TrialSpec], TrialResult],
                  on_result: Optional[Callable[[TrialResult], None]],
                  report: ExecutionReport) -> List[TrialResult]:
        leases = self._make_leases(trials)
        lease_ids = [lease.lease_id for lease in leases]
        self.broker.offer(leases)
        arrived: Dict[Tuple[str, int], TrialResult] = {}
        settled: Set[str] = set()
        emitted = 0
        try:
            while len(settled) < len(leases):
                self.broker.wait(timeout=self.poll_interval)
                expired = self.broker.expire_overdue()
                if expired:
                    # lost leases count like pool worker failures: the
                    # requeue is the distributed tier's retry
                    report.worker_failures += expired
                    report.retries += expired
                states = self.broker.poll(lease_ids)
                local_leases: List[Lease] = []
                for lease in leases:
                    if lease.lease_id in settled:
                        continue
                    state, records = states.get(lease.lease_id,
                                                (WITHDRAWN, []))
                    if state == DONE:
                        settled.add(lease.lease_id)
                        for record in records:
                            result = TrialResult.from_record(record)
                            arrived.setdefault(result.key(), result)
                    elif state == ABANDONED:
                        local_leases.extend(
                            self.broker.withdraw([lease.lease_id]))
                if len(settled) < len(leases) \
                        and self.broker.live_workers() == 0:
                    # every worker is gone mid-wave: reclaim the rest
                    outstanding = [lid for lid in lease_ids
                                   if lid not in settled]
                    local_leases.extend(self.broker.withdraw(outstanding))
                if local_leases:
                    self._run_local(local_leases, arrived, workers,
                                    timeout, runner, report)
                    settled.update(lease.lease_id
                                   for lease in local_leases)
                emitted = self._emit(trials, arrived, emitted, on_result)
        finally:
            self.broker.forget(lease_ids)
        self._emit(trials, arrived, emitted, on_result)
        missing = [t for t in trials if t.key() not in arrived]
        if missing:  # structurally unreachable; fail loudly if not
            raise RuntimeError(
                f"wave lost {len(missing)} trial(s): {missing[:3]!r}")
        return [arrived[t.key()] for t in trials]

    def _run_local(self, leases: Sequence[Lease],
                   arrived: Dict[Tuple[str, int], TrialResult],
                   workers: Optional[int], timeout: Optional[float],
                   runner: Callable[[TrialSpec], TrialResult],
                   report: ExecutionReport) -> None:
        if self.metrics is not None:
            self.metrics.counter("service.dispatch.local_takeover").inc()
        remaining = [t for lease in leases for t in lease.trials
                     if t.key() not in arrived]
        if not remaining:
            return
        for result in execute_trials(remaining, workers=workers,
                                     timeout=timeout, runner=runner,
                                     report=report):
            arrived.setdefault(result.key(), result)

    @staticmethod
    def _emit(trials: Sequence[TrialSpec],
              arrived: Dict[Tuple[str, int], TrialResult], emitted: int,
              on_result: Optional[Callable[[TrialResult], None]]) -> int:
        """Fire ``on_result`` for the longest arrived prefix, in order."""
        while emitted < len(trials) \
                and trials[emitted].key() in arrived:
            if on_result is not None:
                on_result(arrived[trials[emitted].key()])
            emitted += 1
        return emitted


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _transient(exc: BaseException) -> bool:
    """Retryable worker-API failures: connection trouble or 5xx."""
    if isinstance(exc, ServiceError):
        return exc.status >= 500
    return isinstance(exc, OSError)


class WorkerClient:
    """Retrying JSON client for the coordinator's worker API.

    Every endpoint is idempotent-or-safe under at-least-once delivery:
    a duplicated ``register`` leaves a zombie record that ages out, a
    duplicated ``claim`` strands a lease until its TTL requeues it, and
    a duplicated ``complete`` is first-wins — so the retry wrapper can
    re-send blindly after a 500 or a socket timeout.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 5.0,
                 policy: RetryPolicy = HTTP_RETRY,
                 rng: Optional[random.Random] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.policy = policy
        self.rng = rng if rng is not None else random.Random(port)

    def _once(self, method: str, path: str,
              body: Optional[Dict]) -> Dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = (json.dumps(body, sort_keys=True).encode()
                       if body is not None else None)
            headers = {"Content-Type": "application/json"} if payload \
                else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw.decode() or "{}")
            except json.JSONDecodeError:
                data = {"error": raw.decode(errors="replace")[:200]}
            if response.status >= 300:
                raise ServiceError(
                    response.status,
                    str(data.get("error", "unexpected response")))
            return data
        finally:
            conn.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Dict:
        def attempt() -> Dict:
            return self._once(method, path, body)
        return call_with_retry(attempt, policy=self.policy, rng=self.rng,
                               retry_on=_transient)

    def register(self, name: Optional[str] = None) -> Dict:
        return self._request("POST", "/api/workers/register",
                             {"name": name})

    def claim(self, worker_id: str, wait: float = 0.0) -> Optional[Dict]:
        """Claim a lease, letting the coordinator hold the request up to
        ``wait`` seconds for one to be offered."""
        data = self._request("POST", f"/api/workers/{worker_id}/claim",
                             {"wait": wait})
        return data.get("lease")

    def heartbeat(self, worker_id: str,
                  lease_ids: Sequence[str]) -> Dict:
        return self._request("POST",
                             f"/api/workers/{worker_id}/heartbeat",
                             {"leases": list(lease_ids)})

    def complete(self, worker_id: str, lease_id: str,
                 records: Sequence[Dict]) -> Dict:
        return self._request("POST",
                             f"/api/workers/{worker_id}/results",
                             {"lease_id": lease_id,
                              "records": list(records)})


def _heartbeat_loop(client: WorkerClient, state: Dict,
                    held: Set[str], held_lock: threading.Lock,
                    stop: threading.Event, interval: float,
                    chaos: Optional[ChaosController]) -> None:
    while not stop.wait(timeout=interval):
        if chaos is not None and chaos.drop_heartbeat():
            continue
        if chaos is not None:
            delay = chaos.heartbeat_delay()
            if delay > 0.0 and stop.wait(timeout=delay):
                break
        with held_lock:
            lease_ids = sorted(held)
        try:
            client.heartbeat(state["worker_id"], lease_ids)
        except (ServiceError, RetryError, OSError):
            # coordinator unreachable or restarting: the lease will
            # expire and requeue — at-least-once keeps the campaign
            # whole, so the heartbeat loop just keeps trying
            continue


def run_worker(host: str, port: int, *, name: Optional[str] = None,
               runner: Callable[[TrialSpec], TrialResult] = run_trial,
               max_idle: Optional[float] = None,
               chaos: Optional[ChaosController] = None,
               stop: Optional[threading.Event] = None,
               policy: RetryPolicy = HTTP_RETRY,
               request_timeout: float = 5.0,
               clock: Callable[[], float] = time.monotonic) -> Dict:
    """Worker main loop: register, claim leases, run trials, post results.

    Each claim is held open by the coordinator until a lease is offered
    or :data:`CLAIM_WAIT` passes (less when less ``max_idle`` time is
    left), and an empty answer loops straight back into the next claim.
    Exits cleanly when ``stop`` is set (noticed once the current claim
    or lease ends) or after ``max_idle`` seconds without a lease (None =
    run until signalled). A 404 from the coordinator (restart wiped
    broker state) triggers re-registration; a lost lease simply
    requeues on the coordinator side.
    """
    if stop is None:
        stop = threading.Event()
    client = WorkerClient(host, port, timeout=request_timeout,
                          policy=policy)
    session = client.register(name)
    state = {"worker_id": session["worker_id"]}
    interval = float(session.get("heartbeat_interval", 1.0))
    held: Set[str] = set()
    held_lock = threading.Lock()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(client, state, held, held_lock, stop, interval, chaos),
        name="worker-heartbeat", daemon=True)
    beat.start()
    stats = {"leases": 0, "trials": 0, "reregistered": 0, "lost": 0}
    # half the socket timeout leaves room for the answer to come back
    hold = min(CLAIM_WAIT, request_timeout / 2.0)
    idle_deadline = None if max_idle is None else clock() + max_idle
    try:
        while not stop.is_set():
            wait = hold
            if idle_deadline is not None:
                wait = min(wait, idle_deadline - clock())
                if wait <= 0.0:
                    break
            try:
                payload = client.claim(state["worker_id"], wait)
            except ServiceError as exc:
                if exc.status == 404:
                    session = client.register(name)
                    state["worker_id"] = session["worker_id"]
                    stats["reregistered"] += 1
                    continue
                raise
            if payload is None:
                continue
            if idle_deadline is not None:
                idle_deadline = clock() + max_idle  # type: ignore[operator]
            lease_id = payload["lease_id"]
            trials = [trial_from_wire(w) for w in payload["trials"]]
            with held_lock:
                held.add(lease_id)
            records: List[Dict] = []
            try:
                for trial in trials:
                    result = runner(trial)
                    records.append(result.to_record())
                    stats["trials"] += 1
                    if chaos is not None:
                        chaos.after_trial()
                try:
                    client.complete(state["worker_id"], lease_id, records)
                except (ServiceError, RetryError):
                    # lease is lost (coordinator restarted or requeued
                    # it); the trials re-run elsewhere — count and move on
                    stats["lost"] += 1
                else:
                    stats["leases"] += 1
            finally:
                with held_lock:
                    held.discard(lease_id)
            if chaos is not None:
                chaos.at_wave_boundary()
    finally:
        stop.set()
        beat.join(timeout=2.0 * interval)
    return stats
