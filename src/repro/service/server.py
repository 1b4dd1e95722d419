"""``repro serve``: the campaign service's HTTP face (stdlib only).

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no framework, no new runtime dependency — exposing the scheduler::

    GET  /                      live dashboard (HTML)
    GET  /healthz               liveness + drain state
    GET  /api/jobs              all jobs
    POST /api/jobs              submit a grid (JSON spec body)
    GET  /api/jobs/<id>         one job's status
    POST /api/jobs/<id>/cancel  request cancellation
    GET  /api/jobs/<id>/results campaign summary (partial while running)
    GET  /api/metrics           MetricsRegistry snapshot + rollup
    GET  /api/stream            rollups as server-sent events

Worker API (the distributed tier — see :mod:`repro.service.workers`)::

    POST /api/workers/register        join the worker pool
    GET  /api/workers                 worker + lease-broker status
    POST /api/workers/<id>/claim      claim the next pending lease,
                                      held up to ``{"wait": s}`` seconds
                                      for one to be offered
    POST /api/workers/<id>/heartbeat  renew liveness + held leases
    POST /api/workers/<id>/results    post a lease's trial records

With ``--chaos`` the worker API also doubles as a fault surface:
seeded 500s and response stalls are injected ahead of routing, and
journal appends can be torn mid-line — the soak harness for the
retry/requeue machinery.

A claim with a ``wait`` is a long poll. It parks on the event loop (a
future the broker resolves through ``loop.call_soon_threadsafe``), never
on a pool thread: the default executor is what runs jobs, and parked
claims must not keep a job from starting. The hold is capped at
:data:`~repro.service.workers.CLAIM_WAIT`, and a drain ends it with
``{"lease": null}``. A claim without ``wait`` is answered at once.

Every response is ``Connection: close`` — requests are short-lived and
the streaming endpoint holds its connection open anyway. Submissions are
journaled before the handler replies, so a reply of ``job_id`` is a
durability promise: kill the server at any instant afterwards and a
restart re-adopts the job.
"""

from __future__ import annotations

import asyncio
import json
import signal
from functools import partial
from typing import Callable, Dict, Optional, Set, Tuple

from repro.campaign.engine import summarize_store, summarize_stores
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.journal import JobJournal
from repro.service.scheduler import DONE, JobScheduler
from repro.service.shards import shard_paths
from repro.service.workers import CLAIM_WAIT, LeaseBroker

#: request-line / header limits (we only ever serve small JSON bodies)
MAX_HEADER_LINES = 64
MAX_BODY_BYTES = 1 << 20

#: fields a submission body may carry besides the CampaignSpec ones
_SUBMIT_FIELDS = frozenset({"tenant", "priority", "workers", "shards",
                            "exec_mode"})
_SPEC_FIELDS = frozenset({"schemes", "workloads", "sers", "trials",
                          "seed_base", "ci_halfwidth", "batch",
                          "fault_model", "watchdog_cycles"})


def spec_from_request(data: Dict) -> CampaignSpec:
    """Build a validated :class:`CampaignSpec` from a submission body.

    Unknown fields and unknown workloads are rejected with the same
    actionable messages the CLI gives, so a 400 response tells the
    client exactly what to fix.
    """
    if not isinstance(data, dict):
        raise CampaignError("submission body must be a JSON object")
    unknown = set(data) - _SPEC_FIELDS - _SUBMIT_FIELDS
    if unknown:
        raise CampaignError(
            f"unknown submission field(s) {sorted(unknown)} (spec "
            f"fields: {sorted(_SPEC_FIELDS)}; service fields: "
            f"{sorted(_SUBMIT_FIELDS)})")
    for required in ("schemes", "workloads", "sers"):
        if not data.get(required):
            raise CampaignError(f"submission needs a non-empty "
                                f"{required!r} list")
    from repro.workloads import workload_names
    known = workload_names()
    for name in data["workloads"]:
        if name not in known:
            raise CampaignError(
                f"unknown workload {name!r} (try one of "
                f"{', '.join(known)})")
    return CampaignSpec(
        schemes=tuple(data["schemes"]),
        workloads=tuple(data["workloads"]),
        sers=tuple(float(s) for s in data["sers"]),
        trials=int(data.get("trials", 50)),
        seed_base=int(data.get("seed_base", 0)),
        ci_halfwidth=data.get("ci_halfwidth"),
        batch=int(data.get("batch", 25)),
        fault_model=data.get("fault_model", "standard"),
        watchdog_cycles=data.get("watchdog_cycles"))


class CampaignService:
    """Scheduler + HTTP server bound to one event loop.

    ``start``/``stop`` are the programmatic lifecycle (tests drive it in
    a thread); :func:`serve` wraps it with signal handling for the CLI.
    """

    def __init__(self, scheduler: JobScheduler, *,
                 host: str = "127.0.0.1", port: int = 0,
                 stream_interval: float = 1.0, chaos=None) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.stream_interval = stream_interval
        self.chaos = chaos
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional["asyncio.Task[None]"] = None
        self._conn_tasks: list = []
        #: connection tasks serving a claim; a drain lets them answer
        self._claim_tasks: Set["asyncio.Task[None]"] = set()

    async def start(self) -> None:
        self.scheduler.adopt_orphans()
        self._scheduler_task = asyncio.create_task(self.scheduler.run())
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: stop admissions, finish in-flight waves,
        close the listener, and wait for the scheduler to settle."""
        self.scheduler.request_stop()
        if self.scheduler.broker is not None:
            # held claims see the drain and answer {"lease": null}
            self.scheduler.broker.wake_claimers()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler_task is not None:
            await self._scheduler_task
        # open connections (long-lived SSE streams, mostly) die with us;
        # woken claims are left to send their {"lease": null}
        pending = list(self._conn_tasks)
        for conn in pending:
            if conn not in self._claim_tasks:
                conn.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- plumbing -----------------------------------------------------------
    @staticmethod
    def _json_bytes(payload: object) -> bytes:
        return (json.dumps(payload, sort_keys=True) + "\n").encode()

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              body: bytes,
                              content_type: str = "application/json"
                              ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode() + body)
        await writer.drain()

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.append(task)
        try:
            request = await self._read_request(reader)
            if request is None:
                await self._write_response(
                    writer, 400, self._json_bytes({"error": "bad request"}))
                return
            method, target, body = request
            if target == "/api/stream" and method == "GET":
                await self._stream(writer)
                return
            if self.chaos is not None \
                    and target.startswith("/api/workers"):
                fault = self.chaos.http_fault()
                if fault is not None:
                    kind, delay = fault
                    if kind == "error":
                        await self._write_response(
                            writer, 500,
                            self._json_bytes({"error": "chaos: 500"}))
                        return
                    # stall only this connection past the client's
                    # socket timeout; the loop keeps serving others
                    await asyncio.sleep(delay)
            status, payload, content_type = await self._route(
                method, target, body, reader.at_eof)
            await self._write_response(writer, status, payload,
                                       content_type)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            if task is not None and task in self._conn_tasks:
                self._conn_tasks.remove(task)
                self._claim_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- routing ------------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes,
                     client_gone: Callable[[], bool]
                     ) -> Tuple[int, bytes, str]:
        target = target.split("?", 1)[0]
        if target == "/" and method == "GET":
            return 200, DASHBOARD_HTML.encode(), "text/html; charset=utf-8"
        if target == "/healthz" and method == "GET":
            return 200, self._json_bytes(
                {"ok": True, "draining": self.scheduler.stopping}), \
                "application/json"
        if target == "/api/jobs":
            if method == "GET":
                return 200, self._json_bytes(
                    {"jobs": [j.status() for j in self.scheduler.jobs()]}), \
                    "application/json"
            if method == "POST":
                return self._submit(body)
            return 405, self._json_bytes({"error": "method not allowed"}), \
                "application/json"
        if target == "/api/metrics" and method == "GET":
            return 200, self._json_bytes(
                {"registry": self.scheduler.metrics.snapshot(),
                 "rollup": self.scheduler.rollup()}), "application/json"
        if target.startswith("/api/jobs/"):
            return self._job_route(method, target[len("/api/jobs/"):])
        if target == "/api/workers" or target.startswith("/api/workers/"):
            return await self._worker_route(method, target, body,
                                            client_gone)
        return 404, self._json_bytes({"error": f"no route {target!r}"}), \
            "application/json"

    async def _worker_route(self, method: str, target: str, body: bytes,
                            client_gone: Callable[[], bool]
                            ) -> Tuple[int, bytes, str]:
        broker = self.scheduler.broker
        if broker is None:
            return 404, self._json_bytes(
                {"error": "this server has no worker tier"}), \
                "application/json"
        if target == "/api/workers" and method == "GET":
            return 200, self._json_bytes(
                {"workers": broker.workers_status(),
                 "leases": broker.stats()}), "application/json"
        try:
            data = json.loads(body.decode() or "{}")
        except ValueError:
            return self._bad_request("bad JSON body")
        if not isinstance(data, dict):
            return self._bad_request("body must be a JSON object")
        if target == "/api/workers/register" and method == "POST":
            name = data.get("name")
            if name is not None and not isinstance(name, str):
                return self._bad_request("'name' must be a string")
            return 200, self._json_bytes(broker.register(name)), \
                "application/json"
        rest = target[len("/api/workers/"):]
        worker_id, _, action = rest.partition("/")
        if method != "POST":
            return 405, self._json_bytes({"error": "method not allowed"}), \
                "application/json"
        if action == "claim":
            wait = data.get("wait", 0.0)
            # ``not wait >= 0`` also rejects NaN
            if isinstance(wait, bool) or not isinstance(wait, (int, float)) \
                    or not wait >= 0:
                return self._bad_request(
                    "'wait' must be a non-negative number of seconds")
            try:
                lease = await self._claim(broker, worker_id,
                                          float(min(wait, CLAIM_WAIT)),
                                          client_gone)
            except KeyError:
                return self._unknown_worker(worker_id)
            return 200, self._json_bytes({"lease": lease}), \
                "application/json"
        if action == "heartbeat":
            leases = data.get("leases", [])
            if not isinstance(leases, list):
                return self._bad_request("'leases' must be a list")
            ack = broker.heartbeat(worker_id, [str(x) for x in leases])
            if ack is None:
                return self._unknown_worker(worker_id)
            return 200, self._json_bytes(ack), "application/json"
        if action == "results":
            records = data.get("records", [])
            if not isinstance(records, list) \
                    or not all(isinstance(r, dict) for r in records):
                return self._bad_request(
                    "'records' must be a list of objects")
            accepted = broker.complete(
                worker_id, str(data.get("lease_id", "")), records)
            return 200, self._json_bytes({"accepted": accepted}), \
                "application/json"
        return 404, self._json_bytes(
            {"error": f"no worker route {target!r}"}), "application/json"

    async def _claim(self, broker: LeaseBroker, worker_id: str,
                     hold: float, client_gone: Callable[[], bool]
                     ) -> Optional[Dict]:
        """Claim a lease for ``worker_id``, parking up to ``hold``
        seconds until the broker offers or requeues one.

        A wake-up is a hint, not a grant: another held claim may take
        the lease first, so the loop claims again and parks for what is
        left of the hold. A claim whose worker hung up while parked
        (killed, say) takes nothing, so no lease waits out a TTL on a
        dead connection. Raises :class:`KeyError` for an unknown worker.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + hold
        task = asyncio.current_task()
        if task is not None:
            self._claim_tasks.add(task)
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                return broker.claim(worker_id)
            if self.scheduler.stopping:
                return None
            woken: "asyncio.Future[None]" = loop.create_future()
            wake = partial(loop.call_soon_threadsafe, _settle, woken)
            lease = broker.claim(worker_id, wake)
            if lease is not None:
                return lease
            try:
                await asyncio.wait((woken,), timeout=remaining)
            finally:
                broker.drop_claimer(wake)
            if client_gone():
                return None

    def _bad_request(self, message: str) -> Tuple[int, bytes, str]:
        return 400, self._json_bytes({"error": message}), \
            "application/json"

    def _unknown_worker(self, worker_id: str) -> Tuple[int, bytes, str]:
        return 404, self._json_bytes(
            {"error": f"unknown worker {worker_id!r}; re-register"}), \
            "application/json"

    def _submit(self, body: bytes) -> Tuple[int, bytes, str]:
        if self.scheduler.stopping:
            return 409, self._json_bytes(
                {"error": "server is draining; resubmit after restart"}), \
                "application/json"
        try:
            data = json.loads(body.decode() or "{}")
            spec = spec_from_request(data)
            job = self.scheduler.submit(
                spec,
                tenant=str(data.get("tenant", "default")),
                priority=int(data.get("priority", 0)),
                workers=data.get("workers"),
                shards=data.get("shards"),
                exec_mode=data.get("exec_mode"))
        except (CampaignError, ValueError) as exc:
            return 400, self._json_bytes({"error": str(exc)}), \
                "application/json"
        return 200, self._json_bytes(job.status()), "application/json"

    def _job_route(self, method: str,
                   rest: str) -> Tuple[int, bytes, str]:
        job_id, _, action = rest.partition("/")
        job = self.scheduler.get(job_id)
        if job is None:
            return 404, self._json_bytes(
                {"error": f"unknown job {job_id!r}"}), "application/json"
        if not action and method == "GET":
            return 200, self._json_bytes(job.status()), "application/json"
        if action == "cancel" and method == "POST":
            self.scheduler.cancel(job_id)
            return 200, self._json_bytes(job.status()), "application/json"
        if action == "results" and method == "GET":
            return self._results(job)
        return 405, self._json_bytes({"error": "method not allowed"}), \
            "application/json"

    def _results(self, job) -> Tuple[int, bytes, str]:
        """The job's deterministic summary — final for DONE jobs, the
        current store aggregate otherwise (byte-comparable to what
        ``repro campaign summarize`` prints for the same store)."""
        if job.state == DONE and job.summary is not None:
            stats = job.summary
        else:
            try:
                if job.shards > 1:
                    summary = summarize_stores(shard_paths(job.store_path))
                else:
                    summary = summarize_store(job.store_path)
            except CampaignError as exc:
                return 409, self._json_bytes(
                    {"error": f"no results yet: {exc}"}), "application/json"
            stats = summary.stats_dict()
        return 200, self._json_bytes(
            {"job_id": job.job_id, "state": job.state,
             "trials_done": job.trials_done, "summary": stats}), \
            "application/json"

    # -- server-sent events -------------------------------------------------
    async def _stream(self, writer: asyncio.StreamWriter) -> None:
        """Push rollups until the client hangs up or we drain."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        while True:
            payload = json.dumps(self.scheduler.rollup(), sort_keys=True)
            writer.write(f"data: {payload}\n\n".encode())
            await writer.drain()
            if self.scheduler.stopping:
                return
            await asyncio.sleep(self.stream_interval)


def _settle(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


async def _serve_async(service: CampaignService) -> None:
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop_requested.set)
    await service.start()
    print(f"repro serve: listening on "
          f"http://{service.host}:{service.port} "
          f"(dashboard at /, API under /api)", flush=True)
    await stop_requested.wait()
    print("repro serve: draining (in-flight waves finish, queued jobs "
          "stay journaled for re-adoption)", flush=True)
    await service.stop()


def serve(*, host: str, port: int, data_dir: str,
          max_concurrent: int, tenant_quota: int,
          shards: int, workers: Optional[int], exec_mode: str,
          journal_path: Optional[str] = None,
          stream_interval: float = 1.0,
          lease_ttl: float = 10.0,
          expect_workers: int = 0,
          worker_wait: float = 10.0,
          chaos: Optional[str] = None) -> int:
    """CLI entry point: run the service until SIGINT/SIGTERM, then drain."""
    import os

    from repro.service.chaos import ChaosController
    from repro.telemetry.metrics import MetricsRegistry
    chaos_ctl = ChaosController.from_spec(chaos)
    journal = JobJournal(journal_path if journal_path is not None
                         else os.path.join(data_dir, "journal.jsonl"),
                         chaos=chaos_ctl)
    metrics = MetricsRegistry()
    broker = LeaseBroker(lease_ttl=lease_ttl, metrics=metrics)
    scheduler = JobScheduler(
        data_dir, max_concurrent=max_concurrent,
        tenant_quota=tenant_quota, journal=journal,
        default_shards=shards, default_workers=workers,
        exec_mode=exec_mode, metrics=metrics, broker=broker,
        expect_workers=expect_workers, worker_wait=worker_wait)
    service = CampaignService(scheduler, host=host, port=port,
                              stream_interval=stream_interval,
                              chaos=chaos_ctl)
    asyncio.run(_serve_async(service))
    return 0
