"""Held status requests: ``GET /v1/jobs/<id>?wait=S`` returns the moment
the job is terminal, and ``ServiceClient.wait`` rides on it."""

import contextlib
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ServiceClient, Workspace, schemas
from repro.api import service as service_module
from repro.api.requests import MonteCarloRequest
from repro.api.service import JobService, ServiceServer
from repro.errors import ServiceError
from repro.obs import REGISTRY

CONFIG = {"timing_margin": 0.2}
ANALYZE = {"kind": "analyze", "circuit": "c17", "config": CONFIG}
#: A hold no test waits out: a held request must return long before it.
LONG_HOLD_S = 20.0


@contextlib.contextmanager
def live_server(service):
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        service.close()


def gate(service) -> threading.Event:
    """Hold every job the service executes until the returned event is
    set; the job computes first, so it finishes (done or failed) the
    moment it is released."""
    release = threading.Event()
    execute = service._execute

    def gated(job):
        try:
            return execute(job)
        finally:
            release.wait(60)

    service._execute = gated
    return release


def until_running(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while service.status(job_id).status != "running":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.005)


class Held:
    """One held wait in a background thread; records when it returned."""

    def __init__(self, call):
        self.status = None
        self.returned = None
        self._thread = threading.Thread(target=self._run, args=(call,))
        self._thread.start()

    def _run(self, call):
        self.status = call()
        self.returned = time.perf_counter()

    def join(self):
        self._thread.join(LONG_HOLD_S + 10)
        assert not self._thread.is_alive()


def held(service, job_id) -> Held:
    """``JobService.wait`` on ``job_id`` with a long hold."""
    return Held(lambda: service.wait(job_id, LONG_HOLD_S).status)


def get_status(server, job_id, query=""):
    """The job's status over HTTP, with ``query`` on the status route."""
    url = f"{server.address}/v1/jobs/{job_id}{query}"
    with urllib.request.urlopen(url, timeout=LONG_HOLD_S + 10) as reply:
        return json.loads(reply.read())["status"]


def test_held_request_returns_within_half_a_second_of_release(library):
    service = JobService(workspace=Workspace(library=library))
    release = gate(service)
    with live_server(service.start()) as server:
        job_id = service.submit(dict(ANALYZE)).job_id
        until_running(service, job_id)
        wait = Held(lambda: get_status(server, job_id,
                                       f"?wait={LONG_HOLD_S}"))
        time.sleep(0.3)
        assert wait.returned is None   # still held while the job runs
        released = time.perf_counter()
        release.set()
        wait.join()
        assert wait.status == "done"
        assert wait.returned - released < 0.5


def test_client_wait_makes_one_status_request(library):
    """A job that finishes inside the hold costs exactly one status
    request (polling every ``poll_s`` would make dozens)."""
    service = JobService(workspace=Workspace(library=library))
    release = gate(service)
    with live_server(service.start()) as server:
        paths = []

        class Counting(service_module._Handler):
            def do_GET(self):
                paths.append(self.path)
                super().do_GET()

        server.RequestHandlerClass = Counting
        client = ServiceClient(server.address)
        job_id = client.submit("analyze", "c17", config=CONFIG)
        until_running(service, job_id)
        timer = threading.Timer(0.5, release.set)
        timer.start()
        try:
            assert client.wait(job_id, poll_s=0.01)["status"] == "done"
        finally:
            timer.join(5)
        status_paths = [path for path in paths
                        if path.split("?")[0] == f"/v1/jobs/{job_id}"]
        assert len(status_paths) == 1, status_paths


def test_held_wait_returns_when_the_job_is_cancelled(library):
    service = JobService(workspace=Workspace(library=library))  # no start
    try:
        job_id = service.submit(dict(ANALYZE)).job_id
        wait = held(service, job_id)
        time.sleep(0.1)
        cancelled = time.perf_counter()
        service.cancel(job_id)
        wait.join()
        assert wait.status == "cancelled"
        assert wait.returned - cancelled < 0.5
    finally:
        service.close()


def test_held_wait_returns_when_the_service_closes(library):
    service = JobService(workspace=Workspace(library=library))  # no start
    job_id = service.submit(dict(ANALYZE)).job_id
    wait = held(service, job_id)
    time.sleep(0.1)
    closed = time.perf_counter()
    service.close()
    wait.join()
    assert wait.status == "cancelled"
    assert wait.returned - closed < 0.5


@pytest.mark.parametrize("outcome", ["done", "failed"])
def test_held_waits_on_subscribers_return_with_the_primary(library,
                                                           outcome):
    service = JobService(workspace=Workspace(library=library))  # no start
    release = gate(service)
    body = dict(ANALYZE)
    if outcome == "failed":
        body = {"kind": "montecarlo", "circuit": "c17", "config": CONFIG,
                "request": schemas.to_dict(MonteCarloRequest(
                    samples=2, corner="bogus_corner"))}
    primary = service.submit(dict(body)).job_id
    subscribers = [service.submit(dict(body)).job_id for _ in range(2)]
    try:
        assert service.queue_depth() == 1   # the duplicates coalesced
        waits = [held(service, job_id)
                 for job_id in (primary, *subscribers)]
        service.start()
        until_running(service, primary)
        time.sleep(0.3)
        released = time.perf_counter()
        release.set()
        for wait in waits:
            wait.join()
            assert wait.status == outcome
            assert wait.returned - released < 0.5
    finally:
        release.set()
        service.close()


def test_short_hold_on_a_running_job_returns_running(library):
    service = JobService(workspace=Workspace(library=library))
    release = gate(service)
    with live_server(service.start()) as server:
        job_id = service.submit(dict(ANALYZE)).job_id
        until_running(service, job_id)
        try:
            began = time.perf_counter()
            assert get_status(server, job_id, "?wait=0.3") == "running"
            assert time.perf_counter() - began >= 0.3
            # Without wait the route answers at once.
            began = time.perf_counter()
            assert get_status(server, job_id) == "running"
            assert time.perf_counter() - began < 0.25
        finally:
            release.set()


def test_hold_is_capped(library, monkeypatch):
    monkeypatch.setattr(service_module, "MAX_WAIT_S", 0.2)
    service = JobService(workspace=Workspace(library=library))
    release = gate(service)
    with live_server(service.start()) as server:
        job_id = service.submit(dict(ANALYZE)).job_id
        until_running(service, job_id)
        try:
            began = time.perf_counter()
            assert get_status(server, job_id, "?wait=1e9") == "running"
            assert 0.2 <= time.perf_counter() - began < 5.0
        finally:
            release.set()


def test_held_wait_on_an_unknown_job_is_404(library):
    service = JobService(workspace=Workspace(library=library))
    try:
        with pytest.raises(ServiceError) as excinfo:
            service.wait("job-424242", LONG_HOLD_S)
        assert excinfo.value.status == 404
    finally:
        service.close()


@pytest.mark.parametrize("query", ["?wait=nan", "?wait=inf"])
def test_bad_wait_is_400_naming_wait(library, query):
    """The route answers a bad ``wait`` with a 400, not a 500 (the
    values themselves are pinned in ``tests/test_parser_errors.py``)."""
    service = JobService(workspace=Workspace(library=library))
    with live_server(service.start()) as server:
        job_id = service.submit(dict(ANALYZE)).job_id
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_status(server, job_id, query)
        assert excinfo.value.code == 400
        assert b"'wait'" in excinfo.value.read()
        assert ServiceClient(server.address).health()["status"] == "ok"


def test_queue_wait_histogram_counts_every_executed_job(library):
    """One ``service.queue_wait_s`` observation per job a worker picks
    up, a promoted subscriber included; riders and cancelled jobs add
    none."""
    def observed():
        histogram = REGISTRY.snapshot()["histograms"].get(
            "service.queue_wait_s", {})
        return histogram.get("count", 0), histogram.get("sum", 0.0)

    service = JobService(workspace=Workspace(library=library))  # no start
    try:
        before, before_s = observed()
        primary = service.submit(dict(ANALYZE)).job_id
        promoted = service.submit(dict(ANALYZE)).job_id
        rider = service.submit(dict(ANALYZE)).job_id
        other = service.submit({**ANALYZE, "circuit": "s27"}).job_id
        service.cancel(primary)   # ``promoted`` takes its queue slot
        time.sleep(0.2)
        service.start()
        for job_id in (promoted, rider, other):
            assert service.wait(job_id, 60).status == "done"
        count, total_s = observed()
        assert count - before == 2   # promoted and other
        # Each counts from its own submission, before the 0.2 s pause.
        assert total_s - before_s >= 2 * 0.2
    finally:
        service.close()


def test_no_held_wait_misses_its_wake_up(library):
    """Stress: more workers than cores, a tiny switch interval, and a
    held wait on every job (primaries, riders, cancelled ones); a lost
    wake-up would hold its request to LONG_HOLD_S."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    service = JobService(workspace=Workspace(library=library), workers=4)
    try:
        ids = [service.submit({**ANALYZE, "circuit": circuit,
                               "config": {"timing_margin": margin}}).job_id
               for margin in (0.1, 0.2, 0.3) for circuit in ("c17", "s27")
               for _ in range(2)]
        began = time.perf_counter()
        waits = [held(service, job_id) for job_id in ids]
        service.start()
        for job_id in ids[::5]:
            with contextlib.suppress(ServiceError):   # 409 once running
                service.cancel(job_id)
        for wait in waits:
            wait.join()
            assert wait.status in ("done", "cancelled")
            assert wait.returned - began < LONG_HOLD_S / 2
    finally:
        sys.setswitchinterval(interval)
        service.close()
