"""Minimal stdlib client for the job service.

Speaks the :mod:`repro.api.service` JSON protocol over ``http.client``
— used by the test suite, the CI smoke script and any script that
wants typed results back from a remote service.  The client itself does
no computation: the only heavy work it triggers is the one-time import
of the :mod:`repro.api` package (for the schema registry that decodes
result payloads).

One connection per thread: each calling thread keeps one persistent
HTTP/1.1 connection (held in a ``threading.local``, ``TCP_NODELAY`` on
its socket), so a thread's exchanges after its first open no new
connection and no new server handler thread.  A thread's connection is
dropped after an answer that says ``Connection: close`` and after any
error; the next call opens a fresh one.  A call whose connection breaks
before any of the answer arrives first reads what the service already
sent (a 413 refuses a body over its limit unread); with nothing to
read on a reused connection, it is sent once more on a fresh one: the
service closed that connection while it sat idle, so it never read the
request.

Back-pressure aware: when the service rejects a call with HTTP 429
(queue full), the client retries with bounded exponential backoff —
``backoff_s * 2**attempt`` capped at ``max_backoff_s``, at most
``retries`` retries — honoring the server's ``Retry-After`` hint as a
lower bound (still capped, so tests can keep backoff tight).

:meth:`ServiceClient.run` is the convenience loop: submit, wait until
terminal (each status request held by the service until the job
finishes), decode the result payload back into the typed result object
via the schema registry.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse

from repro.api import schemas
from repro.errors import ServiceError

#: What a connection raises when the service stopped reading it: after
#: answering, or by closing it while it sat idle.
_BROKEN = (ConnectionResetError, BrokenPipeError)


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://127.0.0.1:8731")``."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 5, backoff_s: float = 0.05,
                 max_backoff_s: float = 2.0):
        self.base_url = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme in {base_url!r}; "
                             f"the service speaks http or https")
        self._connection_class = http.client.HTTPSConnection \
            if url.scheme == "https" else http.client.HTTPConnection
        self._netloc = url.netloc
        self._prefix = url.path
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._local = threading.local()

    # --- HTTP plumbing ------------------------------------------------------

    def _call(self, method: str, path: str, body: dict | None = None):
        for attempt in range(self.retries + 1):
            try:
                return self._call_once(method, path, body)
            except ServiceError as exc:
                if exc.status != 429 or attempt >= self.retries:
                    raise
                delay = min(self.max_backoff_s,
                            self.backoff_s * (2 ** attempt))
                if exc.retry_after is not None:
                    delay = min(self.max_backoff_s,
                                max(delay, float(exc.retry_after)))
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_once(self, method: str, path: str, body: dict | None):
        data = json.dumps(body).encode() if body is not None else None
        response, raw = self._exchange(method, self._prefix + path, data)
        if 200 <= response.status < 300:
            return json.loads(raw)
        retry_after = None
        try:
            payload = json.loads(raw)
            message = payload["error"]["message"]
            retry_after = payload["error"].get("retry_after")
        except Exception:  # noqa: BLE001 — non-JSON error body
            message = f"HTTP Error {response.status}: {response.reason}"
        if retry_after is None:
            header = response.getheader("Retry-After")
            try:
                retry_after = float(header) if header else None
            except ValueError:
                retry_after = None
        raise ServiceError(message, status=response.status,
                           retry_after=retry_after)

    def _exchange(self, method: str, target: str, data: bytes | None):
        """One request and its whole answer on this thread's connection
        -> (response, body bytes)."""
        for _ in range(2):
            conn = getattr(self._local, "conn", None)
            reused = conn is not None
            if not reused:
                conn = self._local.conn = self._connect()
            response = None
            try:
                conn.request(method, target, body=data,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                raw = response.read()
            except BaseException as exc:
                broken = response is None and isinstance(exc, _BROKEN)
                if broken:
                    try:  # the answer sent before the break, if any
                        response = conn.getresponse()
                        raw = response.read()
                    except (http.client.HTTPException, OSError):
                        response = None
                self._drop()
                if broken and response is not None:
                    return response, raw
                # No answer: the service closed the connection while it
                # sat idle, unread.  A resend runs on a fresh connection,
                # so at most once.
                if reused and broken:
                    continue
                raise
            if response.will_close:
                self._drop()
            return response, raw
        raise AssertionError("unreachable")  # pragma: no cover

    def _connect(self) -> http.client.HTTPConnection:
        conn = self._connection_class(self._netloc, timeout=self.timeout)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _drop(self):
        """Close and forget this thread's connection."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    def close(self):
        """Close the calling thread's connection; its next call opens a
        new one.  Other threads' connections close when they end."""
        self._drop()

    # --- protocol -----------------------------------------------------------

    def health(self) -> dict:
        return self._call("GET", "/v1/health")

    def metrics(self) -> dict:
        """The schema-stamped metrics snapshot (``GET /v1/metrics``)."""
        return self._call("GET", "/v1/metrics")

    def metrics_snapshot(self):
        """The typed :class:`~repro.obs.MetricsSnapshot` object."""
        return schemas.from_dict(self.metrics())

    def schema_names(self) -> list[str]:
        return self._call("GET", "/v1/schemas")["schemas"]

    def submit(self, kind: str, circuit: str, request=None,
               config: dict | None = None) -> str:
        """Submit a job; returns its id.

        ``request`` may be a typed request object (encoded via the
        schema registry) or an already encoded payload dict.
        ``config`` is sent whenever it is not ``None`` — an explicit
        empty dict means "the default FlowConfig", and that intent
        reaches the service rather than being silently dropped.
        """
        body: dict = {"kind": kind, "circuit": circuit}
        if request is not None:
            if not isinstance(request, dict):
                request = schemas.to_dict(request)
            body["request"] = request
        if config is not None:
            body["config"] = config
        return self._call("POST", "/v1/jobs", body)["job_id"]

    def status(self, job_id: str) -> dict:
        return self._call("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._call("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._call("POST", f"/v1/jobs/{job_id}/cancel", body={})

    def result_payload(self, job_id: str) -> dict:
        return self._call("GET", f"/v1/jobs/{job_id}/result")

    def result(self, job_id: str):
        """The typed result object (decoded via the schema registry)."""
        return schemas.from_dict(self.result_payload(job_id))

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> dict:
        """Wait until the job reaches a terminal state.

        Each status request asks the service to hold it until the job
        is terminal (``GET /v1/jobs/<id>?wait=S``), ``S`` being the time
        left before ``timeout`` kept below half this client's socket
        timeout, so a finished job is seen the moment it finishes.
        ``poll_s`` is the pause before asking again after an answer that
        is not terminal: a hold that hit its cap, or a service that does
        not hold.

        A job that disappears mid-wait (the service's retention cap
        evicted it between submissions) raises a :class:`ServiceError`
        that says so, instead of surfacing as a bare 404.
        """
        deadline = time.monotonic() + timeout
        while True:
            hold = max(0.0, min(deadline - time.monotonic(),
                                self.timeout / 2))
            try:
                status = self._call("GET",
                                    f"/v1/jobs/{job_id}?wait={hold:.3f}")
            except ServiceError as exc:
                if exc.status == 404:
                    raise ServiceError(
                        f"job {job_id} was evicted or is unknown — the "
                        f"service's retention cap may have dropped it "
                        f"mid-wait (raise `serve --retain`, or fetch "
                        f"results sooner)", status=404) from None
                raise
            if status["status"] not in ("queued", "running"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(last status: {status['status']})", status=409)
            time.sleep(poll_s)

    def run(self, kind: str, circuit: str, request=None,
            config: dict | None = None, timeout: float = 300.0,
            poll_s: float = 0.05):
        """Submit, wait, and return the typed result object."""
        job_id = self.submit(kind, circuit, request=request, config=config)
        status = self.wait(job_id, timeout=timeout, poll_s=poll_s)
        if status["status"] != "done":
            raise ServiceError(
                f"job {job_id} ended {status['status']}: "
                f"{status.get('error')}", status=409)
        return self.result(job_id)
