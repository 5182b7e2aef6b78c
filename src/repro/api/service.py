"""Persistent job-service mode (``repro-smt serve``).

A :class:`JobService` wraps a submit/status/result/cancel queue around
the workspace facade, and :class:`ServiceServer` exposes it over plain
HTTP + JSON (stdlib ``http.server`` — no new runtime dependencies).
The execution tier comes in two flavors:

* **in-process** (default): worker threads over one warm
  :class:`~repro.api.Workspace`, so repeated jobs against the same
  design hit the compiled-state caches instead of cold-starting;
* **sharded** (``shards > 0``): a :class:`~repro.api.shards.ShardPool`
  of worker *processes*, routed by the design's SHA-256 netlist
  fingerprint — each shard keeps its own warm workspace, so
  same-design jobs stay cache-local while different designs run truly
  in parallel (no shared GIL).

Around either tier the service layers three traffic mechanisms:

* **request coalescing** — identical in-flight work (same job kind +
  frozen request payload + design fingerprint + config digest)
  collapses onto one computation; later duplicates become
  *subscribers* that resolve the moment the primary finishes
  (``service.coalesced`` counts them);
* a **persistent result store**
  (:class:`~repro.api.resultstore.ResultStore`) — finished payloads
  are written to disk keyed by the same content key, so a restarted
  service answers previously computed requests without recomputing
  (``service.result_store_hits`` counts them);
* **back-pressure** — with ``queue_limit`` set, submissions past the
  queued backlog are rejected with HTTP **429** and a ``Retry-After``
  hint instead of accepting unbounded work
  (:class:`~repro.api.client.ServiceClient` retries these with
  bounded exponential backoff).

Endpoints (all payloads JSON)::

    GET  /v1/health              -> {"status": "ok", "jobs": N,
                                     "queue_depth": N,
                                     "jobs_by_kind": {...},
                                     "cache_stats": {...}}
    GET  /v1/metrics             -> schema-stamped MetricsSnapshot
                                    (counters, gauges, histograms,
                                    cache stats tree)
    GET  /v1/schemas             -> {"schemas": [...]}
    POST /v1/jobs                -> {"job_id": "..."}   (submit)
    GET  /v1/jobs                -> {"jobs": [status...]}
    GET  /v1/jobs/<id>           -> job status
    GET  /v1/jobs/<id>?wait=S    -> job status once the job is terminal,
                                    or after S seconds (capped at
                                    MAX_WAIT_S), whichever is first
    GET  /v1/jobs/<id>/result    -> the typed result payload
    POST /v1/jobs/<id>/cancel    -> job status

A submission body names a job kind, a circuit, and optionally a typed
request payload plus flow-config overrides::

    {"kind": "signoff", "circuit": "c432",
     "request": {"schema": "signoff_request", "schema_version": 1,
                 "technique": "improved_smt",
                 "corners": ["tt_nom", "ss_1.08v_125c"]},
     "config": {"timing_margin": 0.12}}

Errors come back as ``{"error": {"message": ..., "status": ...}}``
with the matching HTTP status (400 malformed, 404 unknown job, 408
request body stalled, 409 conflicting state, 413 request body over
:data:`MAX_BODY_BYTES`, 429 queue full, 500 unexpected server error).

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY``; one idle
longer than :data:`IDLE_TIMEOUT_S` is closed.  A 400 for a malformed
``Content-Length``, a 408 and a 413 close the connection.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import queue
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api import schemas
from repro.api.requests import JOB_KINDS
from repro.api.resultstore import ResultStore, work_key
from repro.api.shards import ShardPool, execute_kind
from repro.api.workspace import Workspace
from repro.config import FlowConfig
from repro.errors import ReproError, ServiceError
from repro.obs import (
    MetricsSnapshot,
    REGISTRY,
    get_logger,
    install_builtin_sources,
)
from repro.obs.spans import span

logger = get_logger("repro.api.service")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Cap (seconds) on how long one status request may be held waiting for
#: its job to finish; each held request keeps one handler thread.
MAX_WAIT_S = 60.0

#: Seconds a kept-alive connection may sit idle, or a request body may
#: stall, before the handler closes the connection: each open
#: connection keeps one handler thread.
IDLE_TIMEOUT_S = 30.0

#: Largest request body (bytes) the service reads; a longer declared
#: ``Content-Length`` is refused with a 413 before any of it is read.
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclasses.dataclass(frozen=True)
class JobStatus:
    """One job's externally visible state."""

    job_id: str
    kind: str
    circuit: str
    status: str
    error: str | None = None


schemas.dataclass_schema("job_status", 1, JobStatus)


class _Job:
    """Internal mutable job record (lock-protected by the service)."""

    def __init__(self, job_id: str, kind: str, circuit: str, request,
                 config: FlowConfig, fingerprint: str = "",
                 work_key: str = "", request_payload: dict | None = None,
                 config_payload: dict | None = None):
        self.job_id = job_id
        self.kind = kind
        self.circuit = circuit
        self.request = request
        self.config = config
        self.fingerprint = fingerprint
        self.work_key = work_key
        self.request_payload = request_payload
        self.config_payload = config_payload
        self.status = QUEUED
        self.result_payload: dict | None = None
        self.error: str | None = None
        #: Coalescing: job ids riding on this job's computation.
        self.subscribers: list[str] = []
        #: Set on subscriber jobs: the primary job id they ride on.
        self.coalesced_into: str | None = None
        #: Set once the job is terminal; held status requests wait on it.
        self.finished = threading.Event()
        #: Submission time (``perf_counter``), for the queue-wait
        #: histogram.
        self.submitted = time.perf_counter()

    def snapshot(self) -> JobStatus:
        return JobStatus(job_id=self.job_id, kind=self.kind,
                         circuit=self.circuit, status=self.status,
                         error=self.error)


def parse_submission(payload) -> tuple[str, str, object, FlowConfig]:
    """Validate a submit body -> (kind, circuit, request, config).

    Raises :class:`ServiceError` (400) on anything malformed; the
    message names what is wrong so clients can fix the body.
    """
    if not isinstance(payload, dict):
        raise ServiceError("submission body must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; known: {sorted(JOB_KINDS)}")
    circuit = payload.get("circuit")
    if not isinstance(circuit, str) or not circuit:
        raise ServiceError("submission needs a non-empty 'circuit' name")
    from repro.benchcircuits.suite import available_circuits

    if circuit not in available_circuits():
        raise ServiceError(f"unknown circuit {circuit!r}")
    request_payload = payload.get("request")
    request_cls = JOB_KINDS[kind]
    if request_payload is None:
        # No payload -> the facade builds the default request.
        request = None
    else:
        try:
            request = schemas.from_dict(request_payload)
        except ReproError as exc:
            raise ServiceError(f"bad request payload: {exc}") from exc
        if not isinstance(request, request_cls):
            raise ServiceError(
                f"request payload is a "
                f"{schemas.entry_for(request).name!r}, but job kind "
                f"{kind!r} needs a "
                f"{schemas.entry_for(request_cls).name!r}")
    overrides = payload.get("config")
    if overrides is None:
        overrides = {}   # absent or null: the default FlowConfig
    if not isinstance(overrides, dict):
        raise ServiceError("'config' must be an object of FlowConfig "
                           "field overrides")
    try:
        config = FlowConfig(**overrides)
    except TypeError as exc:
        raise ServiceError(f"bad config override: {exc}") from exc
    except ReproError as exc:
        raise ServiceError(f"bad config override: {exc}") from exc
    return kind, circuit, request, config


def parse_wait(query: str) -> float | None:
    """Validate a status query -> seconds to hold, or None for none.

    ``wait`` is the only parameter, given at most once, and must be a
    finite number >= 0; anything else raises :class:`ServiceError`
    (400) naming it.
    """
    fields = urllib.parse.parse_qs(query, keep_blank_values=True)
    unknown = sorted(set(fields) - {"wait"})
    if unknown:
        raise ServiceError(f"unknown query parameter(s) {unknown}; the "
                           f"status route takes only 'wait'")
    values = fields.get("wait")
    if values is None:
        return None
    if len(values) > 1:
        raise ServiceError("'wait' is given more than once")
    try:
        seconds = float(values[0])
    except ValueError:
        seconds = math.nan
    if not 0.0 <= seconds < math.inf:
        raise ServiceError(f"'wait' must be a finite number of seconds "
                           f">= 0, got {values[0]!r}")
    return seconds


class JobService:
    """A persistent job queue over the workspace facade.

    ``workers`` is the number of worker threads draining the queue.
    In the default in-process tier they execute on the shared warm
    workspace (per-design locks keep that race-free); with
    ``shards > 0`` each worker thread dispatches to the
    fingerprint-routed process pool and blocks on the result, so
    ``workers`` is raised to at least the shard count to keep every
    shard busy.
    """

    #: Default cap on retained *finished* job records (results
    #: included); the oldest finished jobs are evicted past it, so a
    #: long-lived service does not grow without bound.
    DEFAULT_RETAIN = 1000

    #: The Retry-After hint (seconds) sent with 429 rejections.
    RETRY_AFTER_S = 1

    def __init__(self, workspace: Workspace | None = None, jobs: int = 1,
                 workers: int = 1, retain: int | None = None,
                 shards: int = 0, queue_limit: int | None = None,
                 result_store: "ResultStore | str | None" = None):
        self.workspace = workspace or Workspace(jobs=jobs)
        self.retain = self.DEFAULT_RETAIN if retain is None \
            else max(1, int(retain))
        self.shards = max(0, int(shards))
        self.queue_limit = None if queue_limit is None \
            else max(1, int(queue_limit))
        if isinstance(result_store, (str, bytes)) or \
                hasattr(result_store, "__fspath__"):
            result_store = ResultStore(result_store)
        self._store: ResultStore | None = result_store
        self._pool: ShardPool | None = None
        if self.shards:
            self._pool = ShardPool(self.shards,
                                   library=self.workspace.peek_library(),
                                   jobs=jobs)
        self._jobs: dict[str, _Job] = {}
        self._order: list[str] = []
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: work_key -> primary job id, while that job is queued/running.
        self._inflight: dict[str, str] = {}
        #: Jobs enqueued and not yet picked up or cancelled (the
        #: back-pressure budget; coalesced subscribers are free).
        self._queued = 0
        workers = max(1, int(workers))
        if self.shards:
            workers = max(workers, self.shards)
        self._workers = [
            threading.Thread(target=self._work, daemon=True,
                             name=f"repro-api-worker-{index}")
            for index in range(workers)
        ]
        self._started = False
        self._closed = False
        # One coherent metrics surface: the library-wide cache sources
        # plus this service's workspace tree (re-registering on
        # restart replaces the previous workspace's source).
        install_builtin_sources()
        REGISTRY.register_source(
            "workspace", self.workspace.stats.tree)
        if self._store is not None:
            REGISTRY.register_source("result_store", self._store.stats)
        else:
            REGISTRY.unregister_source("result_store")
        REGISTRY.set_gauge("service.queue_depth", 0)

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> "JobService":
        if not self._started:
            self._started = True
            for worker in self._workers:
                worker.start()
        return self

    def close(self):
        """Stop accepting work, resolve queued jobs, unblock workers.

        Jobs still queued when the service closes are marked
        ``cancelled`` (with an explanatory error) instead of being
        left ``queued`` forever for clients to poll.
        """
        with self._lock:
            self._closed = True
            for job in self._jobs.values():
                if job.status == QUEUED:
                    job.status = CANCELLED
                    job.error = "service closed before the job ran"
                    job.finished.set()
            self._queued = 0
            self._inflight.clear()
        self._set_queue_gauge()
        for _ in self._workers:
            self._queue.put(None)
        if self._pool is not None:
            self._pool.close()

    # --- the queue ----------------------------------------------------------

    def submit(self, payload: dict) -> JobStatus:
        kind, circuit, request, config = parse_submission(payload)
        # Fingerprint/encodings outside the lock: the first touch of a
        # circuit loads its netlist (workspace-locked separately).
        fingerprint = self.workspace.fingerprint(circuit)
        request_payload = None if request is None \
            else schemas.to_dict(request)
        config_payload = schemas.to_dict(config)
        key = work_key(kind, fingerprint, request_payload, config_payload)
        with self._lock:
            if self._closed:
                raise ServiceError("service is shutting down", status=409)
            job_id = f"job-{next(self._ids)}"
            job = _Job(job_id, kind, circuit, request, config,
                       fingerprint=fingerprint, work_key=key,
                       request_payload=request_payload,
                       config_payload=config_payload)
            primary_id = self._inflight.get(key)
            primary = self._jobs.get(primary_id) \
                if primary_id is not None else None
            if primary is not None and primary.status in (QUEUED, RUNNING):
                # Coalesce: identical in-flight work -> one
                # computation, N subscribers.
                job.coalesced_into = primary.job_id
                primary.subscribers.append(job_id)
                self._jobs[job_id] = job
                self._order.append(job_id)
                self._evict_finished()
                REGISTRY.inc("service.coalesced")
                return job.snapshot()
            if self.queue_limit is not None \
                    and self._queued >= self.queue_limit:
                REGISTRY.inc("service.rejected")
                raise ServiceError(
                    f"queue is full ({self._queued} jobs queued, "
                    f"limit {self.queue_limit}); retry later",
                    status=429, retry_after=self.RETRY_AFTER_S)
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._inflight[key] = job_id
            self._queued += 1
            self._evict_finished()
        self._queue.put(job_id)
        self._set_queue_gauge()
        return job.snapshot()

    def _evict_finished(self):
        """Drop the oldest finished jobs past the retention cap.

        Called with the lock held.  Queued/running jobs are never
        evicted, so the cap bounds memory without losing live work.
        ``_order`` is rebuilt once per eviction pass (not
        ``.remove()``d per job, which made eviction O(n^2)).
        """
        terminal = (DONE, FAILED, CANCELLED)
        finished = [job_id for job_id in self._order
                    if self._jobs[job_id].status in terminal]
        excess = len(finished) - self.retain
        if excess <= 0:
            return
        doomed = set(finished[:excess])
        for job_id in doomed:
            del self._jobs[job_id]
        self._order = [job_id for job_id in self._order
                       if job_id not in doomed]

    def _get(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            return self._get(job_id).snapshot()

    def wait(self, job_id: str, timeout: float) -> JobStatus:
        """The job's status once it is terminal, or after ``timeout``
        seconds (capped at :data:`MAX_WAIT_S`), whichever comes first.

        The job cannot be evicted while it waits: eviction takes
        terminal jobs only.
        """
        with self._lock:
            job = self._get(job_id)
        job.finished.wait(min(timeout, MAX_WAIT_S))
        with self._lock:
            return job.snapshot()

    def jobs(self) -> list[JobStatus]:
        with self._lock:
            return [self._jobs[job_id].snapshot()
                    for job_id in self._order]

    def queue_depth(self) -> int:
        """Jobs enqueued but not yet picked up by a worker
        (coalesced subscribers ride a primary and do not count)."""
        with self._lock:
            return self._queued

    def _set_queue_gauge(self):
        REGISTRY.set_gauge("service.queue_depth", self.queue_depth())

    def jobs_by_kind(self) -> dict[str, int]:
        """Retained job counts per kind (any lifecycle state)."""
        with self._lock:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.kind] = counts.get(job.kind, 0) + 1
            return counts

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The ``/v1/metrics`` payload: registry + live queue gauge."""
        self._set_queue_gauge()
        return MetricsSnapshot.from_registry(REGISTRY)

    def cache_stats(self) -> dict:
        """The ``/v1/health`` cache view: workspace + result store."""
        stats = self.workspace.cache_stats()
        if self._store is not None:
            stats["result_store"] = self._store.stats()
        return stats

    def result(self, job_id: str) -> dict:
        with self._lock:
            job = self._get(job_id)
            if job.status in (QUEUED, RUNNING):
                raise ServiceError(
                    f"job {job_id} is still {job.status}", status=409)
            if job.status == CANCELLED:
                raise ServiceError(f"job {job_id} was cancelled",
                                   status=409)
            if job.status == FAILED:
                raise ServiceError(
                    f"job {job_id} failed: {job.error}", status=409)
            return dict(job.result_payload)

    def cancel(self, job_id: str) -> JobStatus:
        """Cancel a queued job; running/finished jobs are a conflict."""
        with self._lock:
            job = self._get(job_id)
            if job.status != QUEUED:
                raise ServiceError(
                    f"job {job_id} is {job.status}; only queued jobs "
                    f"can be cancelled", status=409)
            job.status = CANCELLED
            job.finished.set()
            if job.coalesced_into is not None:
                primary = self._jobs.get(job.coalesced_into)
                if primary is not None \
                        and job_id in primary.subscribers:
                    primary.subscribers.remove(job_id)
            else:
                self._queued -= 1
                self._promote_subscriber_locked(job)
            snapshot = job.snapshot()
        self._set_queue_gauge()
        return snapshot

    def _promote_subscriber_locked(self, job: _Job):
        """A queued primary was cancelled: its oldest live subscriber
        becomes the new primary and is enqueued in its place."""
        if self._inflight.get(job.work_key) == job.job_id:
            del self._inflight[job.work_key]
        live = [sub_id for sub_id in job.subscribers
                if sub_id in self._jobs
                and self._jobs[sub_id].status == QUEUED]
        job.subscribers = []
        if not live:
            return
        primary = self._jobs[live[0]]
        primary.coalesced_into = None
        primary.subscribers = live[1:]
        for sub_id in live[1:]:
            self._jobs[sub_id].coalesced_into = primary.job_id
        self._inflight[job.work_key] = primary.job_id
        self._queued += 1
        self._queue.put(primary.job_id)

    # --- execution ----------------------------------------------------------

    def _work(self):
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.status != QUEUED:
                    # Cancelled (or shutdown-cancelled) while queued;
                    # its queue slot was released by cancel()/close().
                    continue
                job.status = RUNNING
                self._queued -= 1
            REGISTRY.observe("service.queue_wait_s",
                             time.perf_counter() - job.submitted)
            self._set_queue_gauge()
            logger.info("job %s start: %s %s", job.job_id, job.kind,
                        job.circuit)
            started = time.perf_counter()
            try:
                payload = self._store.load(job.work_key) \
                    if self._store is not None else None
                if payload is not None:
                    REGISTRY.inc("service.result_store_hits")
                else:
                    with span("service.job", kind=job.kind,
                              circuit=job.circuit, job_id=job.job_id,
                              shard=(self._pool.shard_for(job.fingerprint)
                                     if self._pool is not None else -1)):
                        if self._pool is not None:
                            shard = self._pool.shard_for(job.fingerprint)
                            REGISTRY.inc(f"service.shard.{shard}.jobs")
                            payload = self._pool.run(
                                job.kind, job.circuit, job.fingerprint,
                                job.request_payload, job.config_payload)
                        else:
                            result = self._execute(job)
                            payload = schemas.check_round_trip(result)
                    if self._store is not None:
                        self._store.store(job.work_key, payload)
                with self._lock:
                    job.result_payload = payload
                    job.status = DONE
                    self._finish_locked(job)
            except Exception as exc:  # noqa: BLE001 — jobs never kill
                #                       the worker; errors land on the job
                with self._lock:
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.status = FAILED
                    self._finish_locked(job)
                REGISTRY.inc("service.jobs_failed")
                logger.warning("job %s failed: %s", job.job_id, job.error)
            elapsed = time.perf_counter() - started
            REGISTRY.inc(f"service.jobs.{job.kind}")
            REGISTRY.observe("service.job_latency_s", elapsed)
            logger.info("job %s %s in %.3fs", job.job_id, job.status,
                        elapsed)

    def _finish_locked(self, job: _Job):
        """Resolve a finished primary: release the in-flight slot,
        propagate the outcome to every coalesced subscriber and wake
        the requests held on any of them."""
        if self._inflight.get(job.work_key) == job.job_id:
            del self._inflight[job.work_key]
        job.finished.set()
        for sub_id in job.subscribers:
            sub = self._jobs.get(sub_id)
            if sub is None or sub.status != QUEUED:
                continue
            if job.status == DONE:
                sub.result_payload = dict(job.result_payload)
                sub.status = DONE
            else:
                sub.error = job.error
                sub.status = FAILED
            sub.finished.set()
        job.subscribers = []

    def _execute(self, job: _Job):
        design = self.workspace.design(job.circuit, job.config)
        return execute_kind(design, job.kind, job.request)


def _error_payload(error: ServiceError) -> dict:
    payload = {"error": {"message": str(error), "status": error.status}}
    if error.retry_after is not None:
        payload["error"]["retry_after"] = error.retry_after
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes the /v1 endpoints onto the owning :class:`JobService`."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two sends; with Nagle's algorithm on,
    #: the body waits for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    # --- plumbing -----------------------------------------------------------

    def setup(self):
        # The socket timeout: an idle connection's next request line,
        # or a stalled body, raises TimeoutError after it.
        self.timeout = IDLE_TIMEOUT_S
        super().setup()
        REGISTRY.inc("service.connections")

    def log_message(self, fmt, *args):  # quiet by default
        if self.server.verbose:
            super().log_message(fmt, *args)

    def _send(self, status: int, payload: dict,
              headers: dict | None = None):
        # allow_nan=False keeps the wire strict JSON: non-finite floats
        # must have been string-encoded by the schema layer.  The body
        # is built before the status line goes out, so an encoding
        # failure here can still be answered with a clean 500.
        body = json.dumps(payload, sort_keys=True,
                          allow_nan=False).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        if not self._body:
            raise ServiceError("request body must be JSON")
        try:
            return json.loads(self._body)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: "
                               f"{exc}") from exc

    def _dispatch(self, method: str):
        service = self.server.service
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        headers = {}
        try:
            # Always drain the body up front: a route that ignores it
            # (e.g. cancel) must not leave bytes on a keep-alive
            # connection, where they would corrupt the next request.
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                # The body length is unknown, so the connection cannot
                # carry another request: answer, then close it.
                headers["Connection"] = "close"
                raise ServiceError(
                    f"malformed Content-Length header {declared!r}")
            if length > MAX_BODY_BYTES:
                # Refused unread, so the connection cannot carry
                # another request either.
                headers["Connection"] = "close"
                raise ServiceError(
                    f"Content-Length header {declared!r} exceeds the "
                    f"{MAX_BODY_BYTES}-byte body limit", status=413)
            try:
                self._body = self.rfile.read(length) if length else b""
            except TimeoutError:
                headers["Connection"] = "close"
                raise ServiceError(
                    f"request body stalled: {length} bytes declared, "
                    f"nothing more arrived for {self.timeout:g} s",
                    status=408) from None
            if parts[:1] != ["v1"]:
                raise ServiceError(f"unknown path {self.path!r}",
                                   status=404)
            rest = parts[1:]
            if method == "GET" and rest == ["health"]:
                self._send(200, {
                    "status": "ok",
                    "jobs": len(service.jobs()),
                    "queue_depth": service.queue_depth(),
                    "jobs_by_kind": service.jobs_by_kind(),
                    "cache_stats": service.cache_stats(),
                })
            elif method == "GET" and rest == ["metrics"]:
                self._send(200, schemas.check_round_trip(
                    service.metrics_snapshot()))
            elif method == "GET" and rest == ["schemas"]:
                self._send(200, {"schemas": list(schemas.schema_names())})
            elif method == "POST" and rest == ["jobs"]:
                status = service.submit(self._read_json())
                self._send(202, schemas.to_dict(status))
            elif method == "GET" and rest == ["jobs"]:
                self._send(200, {"jobs": [schemas.to_dict(s)
                                          for s in service.jobs()]})
            elif method == "GET" and len(rest) == 2 and rest[0] == "jobs":
                hold = parse_wait(query)
                status = service.status(rest[1]) if hold is None \
                    else service.wait(rest[1], hold)
                self._send(200, schemas.to_dict(status))
            elif method == "GET" and len(rest) == 3 \
                    and rest[0] == "jobs" and rest[2] == "result":
                self._send(200, service.result(rest[1]))
            elif method == "POST" and len(rest) == 3 \
                    and rest[0] == "jobs" and rest[2] == "cancel":
                self._send(200, schemas.to_dict(service.cancel(rest[1])))
            else:
                raise ServiceError(f"unknown path {self.path!r}",
                                   status=404)
        except ServiceError as error:
            if error.retry_after is not None:
                headers["Retry-After"] = error.retry_after
            self._send(error.status, _error_payload(error),
                       headers=headers)
        except Exception as exc:  # noqa: BLE001 — anything else must
            #                       still answer with a JSON 500, not a
            #                       silently dropped connection
            logger.exception("unhandled error serving %s %s",
                             method, self.path)
            try:
                self._send(500, {"error": {
                    "message": f"internal server error: "
                               f"{type(exc).__name__}: {exc}",
                    "status": 500}})
            except Exception:  # the socket itself is gone
                self.close_connection = True

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")


class ServiceServer(ThreadingHTTPServer):
    """The HTTP front of a :class:`JobService`."""

    daemon_threads = True
    #: Listen backlog.  The stdlib default (5) resets connections the
    #: moment a few dozen clients connect at once; the service's
    #: back-pressure must come from the 429 queue limit, not from the
    #: kernel dropping SYNs.
    request_queue_size = 128

    def __init__(self, service: JobService, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False):
        self.service = service
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(host: str = "127.0.0.1", port: int = 0, jobs: int = 1,
          workers: int = 1, workspace: Workspace | None = None,
          retain: int | None = None, shards: int = 0,
          queue_limit: int | None = None,
          result_store: "ResultStore | str | None" = None,
          verbose: bool = False) -> ServiceServer:
    """Build and start a service (worker threads + HTTP listener).

    Returns the running server; call ``serve_forever()`` to block, or
    use it programmatically (tests drive it from a background thread).
    """
    service = JobService(workspace=workspace, jobs=jobs,
                         workers=workers, retain=retain, shards=shards,
                         queue_limit=queue_limit,
                         result_store=result_store).start()
    return ServiceServer(service, host=host, port=port, verbose=verbose)
