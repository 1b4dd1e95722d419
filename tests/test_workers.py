"""Distributed worker tier tests: lease broker, wave dispatcher,
worker loop over HTTP, chaos injection, and the byte-identity of
distributed stores against direct local runs."""

import asyncio
import http.client
import json
import os
import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignSpec, TrialResult
from repro.campaign.engine import run_campaign
from repro.campaign.executor import ExecutionReport
from repro.service import server as server_mod, workers as workers_mod
from repro.service.chaos import ChaosConfig, ChaosController, ChaosError
from repro.service.client import ServiceClient, ServiceError
from repro.service.journal import JobJournal
from repro.service.scheduler import DONE, JobScheduler
from repro.service.server import CampaignService
from repro.service.workers import (ABANDONED, CLAIM_WAIT, CLAIMED, PENDING,
                                   Lease, LeaseBroker, WaveDispatcher,
                                   WorkerClient, run_worker,
                                   trial_from_wire, trial_to_wire)


def small_spec(**overrides):
    base = dict(schemes=("unsync",), workloads=("fibonacci",),
                sers=(0.01,), trials=4, batch=2)
    base.update(overrides)
    return CampaignSpec(**base)


def fast_runner(trial):
    strikes = 1 + trial.seed % 2
    return TrialResult(scheme=trial.scheme, workload=trial.workload,
                       ser=trial.ser, seed=trial.seed, cycles=100,
                       instructions=120, strikes=strikes,
                       outcomes={"detected-recovered": strikes},
                       recovery_cycles=10 * strikes)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def wire_trials(spec):
    return [t for axes in spec.cells() for t in spec.cell_trials(*axes)]


def broker_worker(broker, stop, runner=fast_runner, name="t"):
    """In-thread worker driving the broker directly (no HTTP)."""
    session = broker.register(name)
    worker_id = session["worker_id"]
    while not stop.is_set():
        lease = broker.claim(worker_id)
        if lease is None:
            time.sleep(0.005)
            continue
        records = [runner(trial_from_wire(w)).to_record()
                   for w in lease["trials"]]
        broker.complete(worker_id, lease["lease_id"], records)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------
def test_trial_wire_round_trip():
    for trial in wire_trials(small_spec(fault_model="adversarial",
                                        watchdog_cycles=5000)):
        wire = json.loads(json.dumps(trial_to_wire(trial)))
        assert trial_from_wire(wire) == trial


# ---------------------------------------------------------------------------
# lease broker
# ---------------------------------------------------------------------------
def test_broker_register_claim_complete():
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=10.0, clock=clock)
    worker_id = broker.register("alpha")["worker_id"]
    trials = wire_trials(small_spec())
    from repro.service.workers import Lease
    broker.offer([Lease(lease_id="L1", job_id="j", trials=trials)])
    lease = broker.claim(worker_id)
    assert lease["lease_id"] == "L1"
    assert [trial_from_wire(w) for w in lease["trials"]] == trials
    assert broker.claim(worker_id) is None  # queue drained
    records = [fast_runner(t).to_record() for t in trials]
    assert broker.complete(worker_id, "L1", records) is True
    # duplicate completion (late at-least-once replay) is rejected
    assert broker.complete(worker_id, "L1", records) is False
    state, got = broker.poll(["L1"])["L1"]
    assert state == "done" and got == records
    assert broker.counters["completed"] == 1
    assert broker.counters["rejected"] == 1


def test_broker_unknown_worker_claim_raises():
    broker = LeaseBroker(lease_ttl=1.0)
    with pytest.raises(KeyError):
        broker.claim("w9999")


def test_heartbeat_renews_lease_and_liveness():
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=10.0, clock=clock)
    worker_id = broker.register()["worker_id"]
    from repro.service.workers import Lease
    broker.offer([Lease(lease_id="L1", job_id="j",
                        trials=wire_trials(small_spec())[:1])])
    broker.claim(worker_id)
    clock.now += 8.0
    ack = broker.heartbeat(worker_id, ["L1"])
    assert ack == {"ok": True, "lost": []}
    clock.now += 8.0  # 16s after claim, 8s after renewal: still valid
    assert broker.expire_overdue() == 0
    assert broker.live_workers() == 1
    clock.now += 30.0
    assert broker.live_workers() == 0
    assert broker.heartbeat("w-nope", []) is None


def test_expired_lease_requeues_and_late_complete_is_first_wins():
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=5.0, clock=clock)
    dead = broker.register("dead")["worker_id"]
    heir = broker.register("heir")["worker_id"]
    trials = wire_trials(small_spec())[:2]
    from repro.service.workers import Lease
    broker.offer([Lease(lease_id="L1", job_id="j", trials=trials)])
    broker.claim(dead)
    clock.now += 6.0
    assert broker.expire_overdue() == 1
    assert broker.counters["requeued"] == 1
    state, _ = broker.poll(["L1"])["L1"]
    assert state == PENDING
    # the presumed-dead worker posts first: its work is valid, accepted
    clock.now += 1.5
    records = [fast_runner(t).to_record() for t in trials]
    assert broker.complete(dead, "L1", records) is True
    # the heir claims nothing (the requeue became a no-op)
    assert broker.claim(heir) is None
    # recovery latency was recorded for the expired->completed lease
    assert broker.stats()["recovery_latency_max"] > 0.0


def test_lease_abandoned_after_requeue_budget():
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=5.0, max_requeues=2, clock=clock)
    worker_id = broker.register()["worker_id"]
    from repro.service.workers import Lease
    broker.offer([Lease(lease_id="L1", job_id="j",
                        trials=wire_trials(small_spec())[:1])])
    for _ in range(2):
        assert broker.claim(worker_id)["lease_id"] == "L1"
        clock.now += 6.0
        assert broker.expire_overdue() == 1
    assert broker.claim(worker_id)["lease_id"] == "L1"
    clock.now += 6.0
    assert broker.expire_overdue() == 1
    state, _ = broker.poll(["L1"])["L1"]
    assert state == ABANDONED
    assert broker.counters["abandoned"] == 1
    # withdrawn for local execution; a late post is now rejected
    taken = broker.withdraw(["L1"])
    assert len(taken) == 1
    assert broker.complete(worker_id, "L1", []) is False


def test_withdraw_skips_done_leases():
    broker = LeaseBroker(lease_ttl=5.0)
    worker_id = broker.register()["worker_id"]
    from repro.service.workers import Lease
    broker.offer([Lease(lease_id="L1", job_id="j",
                        trials=wire_trials(small_spec())[:1])])
    lease = broker.claim(worker_id)
    broker.complete(worker_id, "L1",
                    [fast_runner(trial_from_wire(w)).to_record()
                     for w in lease["trials"]])
    assert broker.withdraw(["L1"]) == []


# ---------------------------------------------------------------------------
# wave dispatcher
# ---------------------------------------------------------------------------
def run_distributed(tmp_path, spec, n_workers=2, **dispatch_kwargs):
    broker = LeaseBroker(lease_ttl=10.0)
    stop = threading.Event()
    threads = [threading.Thread(target=broker_worker,
                                args=(broker, stop), daemon=True)
               for _ in range(n_workers)]
    for thread in threads:
        thread.start()
    dispatcher = WaveDispatcher(broker, job_id="job-d",
                                poll_interval=0.01, **dispatch_kwargs)
    store = tmp_path / "dist.jsonl"
    try:
        summary = run_campaign(spec, store, runner=fast_runner,
                               workers=1, executor=dispatcher)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
    return store, summary


def test_dispatcher_store_byte_identical_to_local_run(tmp_path):
    spec = small_spec(schemes=("unsync", "reunion"), trials=6, batch=2)
    direct = tmp_path / "direct.jsonl"
    run_campaign(spec, direct, runner=fast_runner, workers=1)
    dist, summary = run_distributed(tmp_path, spec)
    assert dist.read_bytes() == direct.read_bytes()
    assert summary.progress["trials_run"] == spec.total_trials


def test_dispatcher_local_fallback_when_no_worker_registers(tmp_path):
    spec = small_spec()
    broker = LeaseBroker(lease_ttl=10.0)
    dispatcher = WaveDispatcher(broker, job_id="job-f",
                                expect_workers=2, worker_wait=0.2,
                                poll_interval=0.01)
    store = tmp_path / "fallback.jsonl"
    started = time.monotonic()
    run_campaign(spec, store, runner=fast_runner, workers=1,
                 executor=dispatcher)
    assert time.monotonic() - started < 5.0
    direct = tmp_path / "direct.jsonl"
    run_campaign(spec, direct, runner=fast_runner, workers=1)
    assert store.read_bytes() == direct.read_bytes()
    assert dispatcher._local_only is True


def test_dispatcher_opportunistic_without_expectations(tmp_path):
    """expect_workers=0: no one is live, waves run locally at once."""
    spec = small_spec()
    broker = LeaseBroker(lease_ttl=10.0)
    dispatcher = WaveDispatcher(broker, job_id="job-o",
                                poll_interval=0.01)
    store = tmp_path / "opp.jsonl"
    started = time.monotonic()
    run_campaign(spec, store, runner=fast_runner, workers=1,
                 executor=dispatcher)
    assert time.monotonic() - started < 2.0
    assert dispatcher._local_only is False  # workers may still join


def test_dispatcher_survives_all_workers_dying_mid_wave(tmp_path):
    spec = small_spec(trials=6, batch=3)
    broker = LeaseBroker(lease_ttl=0.15)
    worker_id = broker.register("doomed")["worker_id"]

    def doomed():
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if broker.claim(worker_id) is not None:
                return  # dies holding the lease, never completes
            time.sleep(0.005)

    thread = threading.Thread(target=doomed, daemon=True)
    thread.start()
    dispatcher = WaveDispatcher(broker, job_id="job-x",
                                poll_interval=0.02)
    report = ExecutionReport()
    store = tmp_path / "died.jsonl"

    # drive the engine manually so we can inspect the wave report
    summary = run_campaign(
        spec, store, runner=fast_runner, workers=1,
        executor=lambda *a, **kw: dispatcher(
            *a, **{**kw, "report": report}))
    thread.join(timeout=5)
    direct = tmp_path / "direct.jsonl"
    run_campaign(spec, direct, runner=fast_runner, workers=1)
    assert store.read_bytes() == direct.read_bytes()
    assert summary.progress["trials_run"] == spec.total_trials
    # the died-with-lease worker registered as an expiry/requeue
    assert report.worker_failures >= 1


def test_dispatcher_results_deduplicate_on_cell_seed(tmp_path):
    """A lease completed twice (late replay) contributes once."""
    broker = LeaseBroker(lease_ttl=10.0)
    trials = wire_trials(small_spec())
    worker_id = broker.register()["worker_id"]
    from repro.service.workers import Lease
    broker.offer([Lease(lease_id="L1", job_id="j", trials=trials)])
    lease = broker.claim(worker_id)
    records = [fast_runner(trial_from_wire(w)).to_record()
               for w in lease["trials"]]
    assert broker.complete(worker_id, "L1", records) is True
    assert broker.complete(worker_id, "L1", records) is False
    state, got = broker.poll(["L1"])["L1"]
    assert len(got) == len(trials)


# ---------------------------------------------------------------------------
# chaos controller
# ---------------------------------------------------------------------------
def test_chaos_spec_parsing():
    config = ChaosConfig.parse(
        "seed=7,kill-after=5,kill-point=boundary,hb-drop=3,"
        "hb-delay=0.5,http-500-rate=0.2,http-stall-rate=0.1,"
        "http-stall=0.25,tear-journal-every=3")
    assert config.seed == 7
    assert config.kill_after == 5
    assert config.kill_point == "boundary"
    assert config.hb_drop == 3
    assert config.http_500_rate == 0.2
    assert config.tear_journal_every == 3
    with pytest.raises(ChaosError):
        ChaosConfig.parse("unknown-key=1")
    with pytest.raises(ChaosError):
        ChaosConfig.parse("seed")
    with pytest.raises(ChaosError):
        ChaosConfig.parse("kill-after=x")
    with pytest.raises(ChaosError):
        ChaosConfig.parse("kill-point=sideways")
    assert ChaosController.from_spec(None) is None
    assert ChaosController.from_spec("") is None


def test_chaos_kill_mid_wave_fires_once_at_threshold():
    kills = []
    chaos = ChaosController(ChaosConfig(kill_after=3),
                            kill=lambda: kills.append(1))
    for _ in range(2):
        chaos.after_trial()
    assert kills == []
    chaos.after_trial()
    assert kills == [1]
    chaos.after_trial()  # never kills twice
    chaos.at_wave_boundary()  # wrong kill-point: no-op
    assert kills == [1]


def test_chaos_kill_at_boundary_waits_for_boundary():
    kills = []
    chaos = ChaosController(
        ChaosConfig(kill_after=2, kill_point="boundary"),
        kill=lambda: kills.append(1))
    chaos.after_trial()
    chaos.after_trial()
    assert kills == []  # mid-wave: still alive
    chaos.at_wave_boundary()
    assert kills == [1]


def test_chaos_heartbeat_drops_are_counted():
    chaos = ChaosController(ChaosConfig(hb_drop=2, hb_delay=0.25))
    assert chaos.drop_heartbeat() is True
    assert chaos.drop_heartbeat() is True
    assert chaos.drop_heartbeat() is False
    assert chaos.heartbeat_delay() == 0.25


def test_chaos_http_faults_are_seed_deterministic():
    def sequence(seed):
        chaos = ChaosController(ChaosConfig(
            seed=seed, http_500_rate=0.3, http_stall_rate=0.2))
        return [chaos.http_fault() for _ in range(50)]

    first = sequence(11)
    assert first == sequence(11)
    assert first != sequence(12)
    kinds = {fault[0] for fault in first if fault is not None}
    assert kinds == {"error", "stall"}


def test_chaos_journal_tear_every_nth():
    chaos = ChaosController(ChaosConfig(tear_journal_every=3))
    pattern = [chaos.tear_journal() for _ in range(6)]
    assert pattern == [False, False, True, False, False, True]


# ---------------------------------------------------------------------------
# torn journal + repair
# ---------------------------------------------------------------------------
def test_journal_chaos_tear_is_repaired_on_next_append(tmp_path):
    chaos = ChaosController(ChaosConfig(tear_journal_every=2))
    journal = JobJournal(tmp_path / "j.jsonl", chaos=chaos)
    journal.submitted("job-000001", spec={}, tenant="t", priority=0,
                      store="s", shards=0, workers=None,
                      exec_mode="full", fingerprint="")
    journal.finished("job-000001")  # torn mid-line by chaos
    raw = (tmp_path / "j.jsonl").read_bytes()
    assert not raw.endswith(b"\n")
    # replay tolerates the torn tail: the job looks unfinished, which
    # is crash-equivalent (re-adoption re-runs zero missing trials)
    assert [e.job_id for e in journal.orphans()] == ["job-000001"]
    # the next append repairs the tear instead of corrupting mid-file
    journal.started("job-000001")
    entries = journal.replay()
    assert [e.state for e in entries] == ["started"]


def test_journal_repair_completes_newline_less_record(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    with open(journal.path, "w") as fh:
        fh.write('{"event": "submitted", "job_id": "job-000001"}')
    assert journal.repair() is True
    assert (tmp_path / "j.jsonl").read_bytes().endswith(b"}\n")
    assert journal.repair() is False


# ---------------------------------------------------------------------------
# HTTP worker loop end-to-end
# ---------------------------------------------------------------------------
class RunningService:
    """Service with a lease broker on an event loop in its own thread.

    There is NO local runner injection: submitted jobs can only finish
    through distributed workers or the dispatcher's local fallback
    (which uses fast_runner)."""

    def __init__(self, tmp_path, broker):
        self.broker = broker
        sched = JobScheduler(
            tmp_path, journal=JobJournal(tmp_path / "journal.jsonl"),
            runner=fast_runner, default_workers=1, broker=broker,
            expect_workers=1, worker_wait=10.0)
        self.svc = CampaignService(sched, port=0, stream_interval=0.05)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        deadline = time.monotonic() + 10.0
        while not self.svc.port and time.monotonic() < deadline:
            time.sleep(0.01)
        self._stopped = False

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.svc.start())
        self.loop.run_forever()

    def stop(self):
        """Drain the service; returns how long ``stop()`` took."""
        if self._stopped:
            return 0.0
        self._stopped = True
        started = time.monotonic()
        asyncio.run_coroutine_threadsafe(
            self.svc.stop(), self.loop).result(timeout=30)
        took = time.monotonic() - started
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        self.loop.close()
        return took


@pytest.fixture()
def running_service(tmp_path):
    services = []

    def start(broker=None):
        service = RunningService(tmp_path, broker or LeaseBroker(
            lease_ttl=2.0))
        services.append(service)
        return service
    yield start
    for service in services:
        service.stop()


@pytest.fixture()
def worker_service(running_service):
    service = running_service()
    return service.svc, service.broker


def test_worker_over_http_runs_job(tmp_path, worker_service):
    svc, broker = worker_service
    stop = threading.Event()
    worker = threading.Thread(
        target=run_worker, args=("127.0.0.1", svc.port),
        kwargs=dict(name="w-http", runner=fast_runner, stop=stop),
        daemon=True)
    worker.start()
    client = ServiceClient("127.0.0.1", svc.port, timeout=10.0)
    job = client.submit({"schemes": ["unsync"],
                         "workloads": ["fibonacci"],
                         "sers": [0.01], "trials": 4, "batch": 2})
    status = client.wait(job["job_id"], timeout=30.0)
    assert status["state"] == "done"
    assert status["trials_done"] == 4
    workers_view = client._request("GET", "/api/workers")
    assert any(w["name"] == "w-http" for w in workers_view["workers"])
    assert workers_view["leases"]["counters"]["completed"] >= 1
    stop.set()
    worker.join(timeout=10)
    # distributed store is byte-identical to a direct local run
    direct = tmp_path / "direct.jsonl"
    run_campaign(small_spec(), direct, runner=fast_runner, workers=1)
    store = svc.scheduler.get(job["job_id"]).store_path
    with open(store, "rb") as fh:
        assert fh.read() == direct.read_bytes()


def test_worker_client_absorbs_injected_500s(tmp_path, worker_service):
    svc, broker = worker_service
    svc.chaos = ChaosController(ChaosConfig(seed=5, http_500_rate=0.4))
    from repro.service.retry import RetryPolicy
    client = WorkerClient(
        "127.0.0.1", svc.port, timeout=5.0,
        policy=RetryPolicy(max_attempts=12, base_delay=0.005,
                           max_delay=0.02, budget=20.0),
        rng=random.Random(0))
    for _ in range(5):
        session = client.register("resilient")
        assert session["worker_id"]
    svc.chaos = None


def test_worker_404_triggers_reregistration(worker_service):
    svc, broker = worker_service
    client = WorkerClient("127.0.0.1", svc.port, timeout=5.0)
    with pytest.raises(ServiceError) as info:
        client.claim("w-unknown")
    assert info.value.status == 404


def test_run_worker_max_idle_exits(worker_service):
    """The claim hold shrinks to the idle time left, so an idle worker
    still exits on time."""
    svc, broker = worker_service
    started = time.monotonic()
    stats = run_worker("127.0.0.1", svc.port, name="idler",
                       runner=fast_runner, max_idle=0.2)
    assert time.monotonic() - started < 0.5
    assert stats["leases"] == 0
    assert stats["trials"] == 0


# ---------------------------------------------------------------------------
# long-poll claims
# ---------------------------------------------------------------------------
def post(port, path, body=None, timeout=10.0):
    """One worker-API request without retries: (status, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else body.encode()
        conn.request("POST", path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def held_claim(port, worker_id, wait):
    """Start a claim in a thread; ``result`` gets (status, body, when)."""
    result = {}

    def claim():
        status, body = post(port, f"/api/workers/{worker_id}/claim",
                            json.dumps({"wait": wait}))
        result.update(status=status, body=body, at=time.monotonic())

    thread = threading.Thread(target=claim, daemon=True)
    thread.start()
    return thread, result


def one_lease(lease_id):
    return Lease(lease_id=lease_id, job_id="j",
                 trials=wire_trials(small_spec())[:1])


def test_held_claim_returns_lease_offered_later(worker_service):
    svc, broker = worker_service
    worker_id = broker.register("parked")["worker_id"]
    thread, result = held_claim(svc.port, worker_id, 1.0)
    time.sleep(0.3)
    offered_at = time.monotonic()
    broker.offer([one_lease("L-late")])
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert result["status"] == 200
    assert result["body"]["lease"]["lease_id"] == "L-late"
    assert result["at"] - offered_at < 0.15


def test_held_claim_returns_requeued_lease(running_service):
    clock = FakeClock()
    broker = LeaseBroker(lease_ttl=5.0, clock=clock)
    service = running_service(broker)
    dead = broker.register("dead")["worker_id"]
    heir = broker.register("heir")["worker_id"]
    broker.offer([one_lease("L-orphan")])
    assert broker.claim(dead)["lease_id"] == "L-orphan"
    thread, result = held_claim(service.svc.port, heir, 1.0)
    time.sleep(0.3)
    clock.now += 6.0
    requeued_at = time.monotonic()
    assert broker.expire_overdue() == 1
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert result["body"]["lease"]["lease_id"] == "L-orphan"
    assert result["at"] - requeued_at < 0.15


def test_held_claim_of_vanished_worker_takes_no_lease(worker_service):
    """A worker that dies while its claim is held must not be handed
    the next lease (it would sit claimed until its TTL lapsed)."""
    svc, broker = worker_service
    dead = broker.register("dead")["worker_id"]
    body = json.dumps({"wait": 1.0}).encode()
    with socket.create_connection(("127.0.0.1", svc.port)) as sock:
        sock.sendall(f"POST /api/workers/{dead}/claim HTTP/1.1\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n".encode()
                     + body)
        time.sleep(0.1)
    time.sleep(0.2)
    broker.offer([one_lease("L-spare")])
    time.sleep(0.1)
    heir = broker.register("heir")["worker_id"]
    assert broker.claim(heir)["lease_id"] == "L-spare"


def test_claim_without_body_returns_at_once(worker_service):
    svc, broker = worker_service
    worker_id = broker.register("eager")["worker_id"]
    started = time.monotonic()
    status, body = post(svc.port, f"/api/workers/{worker_id}/claim")
    assert (status, body) == (200, {"lease": None})
    assert time.monotonic() - started < CLAIM_WAIT / 2


def test_drain_answers_held_claims(running_service):
    """stop() wakes held claims, which answer {"lease": null} instead of
    being cut off or held to the end of their wait."""
    service = running_service()
    claims = [held_claim(service.svc.port,
                         service.broker.register()["worker_id"], 1.0)
              for _ in range(3)]
    time.sleep(0.2)
    stop_started = time.monotonic()
    assert service.stop() < CLAIM_WAIT + 1.0
    for thread, result in claims:
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert (result["status"], result["body"]) == (200, {"lease": None})
        assert result["at"] - stop_started < CLAIM_WAIT / 2


def test_held_claims_do_not_starve_job_threads(running_service,
                                               monkeypatch):
    """Jobs run on the loop's default executor; held claims must not
    occupy it. With more held claims than it has threads, and holds far
    longer than the job, the job still finishes at once."""
    hold = 5.0
    monkeypatch.setattr(workers_mod, "CLAIM_WAIT", hold)
    monkeypatch.setattr(server_mod, "CLAIM_WAIT", hold)
    service = running_service()
    n_workers = min(32, (os.cpu_count() or 1) + 4) + 2
    stop = threading.Event()
    threads = [threading.Thread(
        target=run_worker, args=("127.0.0.1", service.svc.port),
        kwargs=dict(name=f"held-{i}", runner=fast_runner, stop=stop,
                    request_timeout=4 * hold), daemon=True)
        for i in range(n_workers)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10.0
    while len(service.broker.workers_status()) < n_workers \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.3)  # every worker is now inside a held claim
    client = ServiceClient("127.0.0.1", service.svc.port, timeout=10.0)
    started = time.monotonic()
    job = client.submit({"schemes": ["unsync"], "workloads": ["fibonacci"],
                         "sers": [0.01], "trials": 4, "batch": 2})
    status = client.wait(job["job_id"], timeout=30.0, poll_interval=0.02)
    assert status["state"] == "done"
    assert time.monotonic() - started < hold / 2
    stop.set()
    service.stop()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# malformed worker-API bodies
# ---------------------------------------------------------------------------
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
worker_bodies = json_values | st.fixed_dictionaries({}, optional={
    "name": json_values, "leases": json_values, "lease_id": json_values,
    "records": json_values | st.lists(json_values, max_size=3),
    "wait": json_values | st.floats(min_value=0.0, max_value=0.05)})


def test_worker_routes_reject_malformed_bodies(worker_service):
    """Any JSON body on a worker route gets an answer, never a dropped
    connection; ``wait`` must be a non-negative number."""
    svc, broker = worker_service
    known = broker.register("target")["worker_id"]
    for bad in ("[1]", '"x"', "null", '{"wait": -1}', '{"wait": NaN}',
                '{"wait": "1"}', '{"wait": true}'):
        assert post(svc.port, f"/api/workers/{known}/claim", bad)[0] == 400
    assert post(svc.port, f"/api/workers/{known}/heartbeat",
                '{"leases": 5}')[0] == 400
    assert post(svc.port, f"/api/workers/{known}/results",
                '{"records": 3, "lease_id": "L"}')[0] == 400
    assert post(svc.port, f"/api/workers/{known}/results",
                '{"records": [1], "lease_id": "L"}')[0] == 400

    @settings(max_examples=60, deadline=None)
    @given(body=worker_bodies,
           route=st.sampled_from(["register", "claim", "heartbeat",
                                  "results"]),
           worker_id=st.sampled_from([known, "w-unknown"]))
    def check(body, route, worker_id):
        path = "/api/workers/register" if route == "register" \
            else f"/api/workers/{worker_id}/{route}"
        status, _ = post(svc.port, path, json.dumps(body))
        assert status in {200, 400, 404}

    check()
    assert ServiceClient("127.0.0.1", svc.port).healthz()["ok"] is True
