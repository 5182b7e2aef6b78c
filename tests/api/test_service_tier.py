"""The rebuilt service tier: coalescing, shards, back-pressure,
persistent results — and the service-layer bugfix regressions."""

import contextlib
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ServiceClient, Workspace, schemas
from repro.api.requests import MonteCarloRequest
from repro.api.service import JobService, ServiceServer
from repro.api.shards import shard_index
from repro.config import FlowConfig
from repro.errors import ServiceError
from repro.obs import REGISTRY

CONFIG = {"timing_margin": 0.2}


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


def _drain(service, job_ids, timeout=120.0):
    deadline = time.monotonic() + timeout
    while any(service.status(job_id).status in ("queued", "running")
              for job_id in job_ids):
        assert time.monotonic() < deadline, "jobs did not finish"
        time.sleep(0.01)


# --- bugfix: unexpected exceptions answer as JSON 500 ------------------------


def test_unexpected_handler_error_is_json_500_not_dropped_connection(
        library):
    """Regression: a non-ServiceError escaping a route handler used to
    drop the connection; it must answer a JSON 500 and leave the
    server healthy."""
    service = JobService(workspace=Workspace(library=library))
    with live_server(service) as server:
        def explode():
            raise RuntimeError("cache stats backend fell over")

        service.cache_stats = explode  # fault-inject the health route
        request = urllib.request.Request(f"{server.address}/v1/health")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 500
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["status"] == 500
        assert "internal server error" in payload["error"]["message"]
        assert "cache stats backend fell over" in \
            payload["error"]["message"]
        # The server survives and serves the next request normally.
        del service.cache_stats
        client = ServiceClient(server.address)
        assert client.health()["status"] == "ok"


# --- bugfix: shutdown races --------------------------------------------------


def test_close_resolves_queued_jobs_as_cancelled(library):
    """Regression: close() used to leave queued jobs 'queued' forever
    for clients to poll."""
    service = JobService(workspace=Workspace(library=library))  # no start
    ids = [service.submit({"kind": "analyze", "circuit": "c17",
                           "config": CONFIG}).job_id
           for _ in range(2)]
    service.close()
    for job_id in ids:
        status = service.status(job_id)
        assert status.status == "cancelled"
        assert "closed" in status.error
    assert service.queue_depth() == 0


def test_submit_after_close_is_409(library):
    service = JobService(workspace=Workspace(library=library))
    service.close()
    with pytest.raises(ServiceError) as excinfo:
        service.submit({"kind": "analyze", "circuit": "c17"})
    assert excinfo.value.status == 409
    assert "shutting down" in str(excinfo.value)


def test_submits_racing_close_never_strand_a_queued_job(library):
    """Regression: submit() read _closed outside the lock, so a submit
    racing close() could enqueue a job nobody would ever run."""
    service = JobService(workspace=Workspace(library=library))
    service.workspace.fingerprint("c17")  # pre-warm outside the race
    accepted, rejected = [], []
    start = threading.Barrier(5)

    def hammer():
        start.wait()
        for _ in range(50):
            try:
                status = service.submit({"kind": "analyze",
                                         "circuit": "c17",
                                         "config": CONFIG})
                accepted.append(status.job_id)
            except ServiceError as exc:
                assert exc.status == 409
                rejected.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    start.wait()
    time.sleep(0.002)
    service.close()
    for thread in threads:
        thread.join()
    # Every accepted job must have been resolved by close(); none may
    # be stranded 'queued' on a service that will never run it.
    for job_id in accepted:
        assert service.status(job_id).status == "cancelled"
    assert service.queue_depth() == 0
    assert REGISTRY.gauge("service.queue_depth") == 0


# --- bugfix: queue-depth gauge consistency -----------------------------------


def test_queue_depth_gauge_tracks_submit_cancel_and_drain(library):
    """Regression: submit() never updated the gauge and the
    cancelled-while-queued path in _work() skipped the refresh."""
    service = JobService(workspace=Workspace(library=library))  # no start
    try:
        first = service.submit({"kind": "analyze", "circuit": "c17",
                                "config": CONFIG})
        second = service.submit({"kind": "analyze", "circuit": "s27",
                                 "config": CONFIG})
        assert REGISTRY.gauge("service.queue_depth") == 2
        service.cancel(second.job_id)
        assert REGISTRY.gauge("service.queue_depth") == 1
        service.start()
        _drain(service, [first.job_id])
        assert service.queue_depth() == 0
        assert REGISTRY.gauge("service.queue_depth") == 0
    finally:
        service.close()


# --- bugfix: client ----------------------------------------------------------


def test_wait_names_eviction_instead_of_bare_404(library):
    """Regression: a job evicted (or unknown) mid-poll surfaced as a
    bare 'unknown job' 404 with no hint about the retention cap."""
    service = JobService(workspace=Workspace(library=library))
    with live_server(service) as server:
        client = ServiceClient(server.address)
        with pytest.raises(ServiceError) as excinfo:
            client.wait("job-424242", timeout=2)
        assert excinfo.value.status == 404
        assert "evicted or is unknown" in str(excinfo.value)
        assert "retention" in str(excinfo.value)


def test_submit_sends_explicit_empty_config():
    """Regression: submit(config={}) silently dropped the empty dict
    (`if config:`), so 'the default FlowConfig' never reached the
    service."""
    captured = {}
    client = ServiceClient("http://unused.invalid")

    def fake_call(method, path, body=None):
        captured["body"] = body
        return {"job_id": "job-1"}

    client._call = fake_call
    client.submit("analyze", "c17", config={})
    assert captured["body"]["config"] == {}
    client.submit("analyze", "c17")
    assert "config" not in captured["body"]
    client.submit("analyze", "c17", config={"timing_margin": 0.2})
    assert captured["body"]["config"] == {"timing_margin": 0.2}


# --- request coalescing ------------------------------------------------------


def test_identical_concurrent_submissions_execute_exactly_once(library):
    """N racing submissions of the same (kind, circuit, request,
    config) collapse onto one computation with N-1 subscribers."""
    service = JobService(workspace=Workspace(library=library))  # no start
    service.workspace.fingerprint("c17")
    coalesced0 = REGISTRY.counter("service.coalesced")
    executed0 = REGISTRY.counter("service.jobs.analyze")
    ids = []
    ids_lock = threading.Lock()
    start = threading.Barrier(6)

    def submit_one():
        start.wait()
        status = service.submit({"kind": "analyze", "circuit": "c17",
                                 "config": CONFIG})
        with ids_lock:
            ids.append(status.job_id)

    threads = [threading.Thread(target=submit_one) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    try:
        assert len(ids) == 6
        # Exactly one queue slot: the other five ride it for free.
        assert service.queue_depth() == 1
        assert REGISTRY.counter("service.coalesced") - coalesced0 == 5
        service.start()
        _drain(service, ids)
        payloads = [service.result(job_id) for job_id in ids]
        for payload in payloads[1:]:
            assert payload == payloads[0]
        # The computation ran exactly once.
        assert REGISTRY.counter("service.jobs.analyze") - executed0 == 1
    finally:
        service.close()


def test_failure_propagates_to_coalesced_subscribers(library):
    service = JobService(workspace=Workspace(library=library))  # no start
    request = schemas.to_dict(
        MonteCarloRequest(samples=2, corner="bogus_corner"))
    body = {"kind": "montecarlo", "circuit": "c17",
            "request": request, "config": CONFIG}
    primary = service.submit(dict(body))
    subscriber = service.submit(dict(body))
    try:
        assert service.queue_depth() == 1  # the duplicate coalesced
        service.start()
        _drain(service, [primary.job_id, subscriber.job_id])
        for job_id in (primary.job_id, subscriber.job_id):
            status = service.status(job_id)
            assert status.status == "failed"
            assert "bogus_corner" in status.error
    finally:
        service.close()


def test_cancelling_the_primary_promotes_a_subscriber(library):
    """Cancelling the job that owns the computation must not cancel
    its riders: the oldest live subscriber takes over the slot."""
    service = JobService(workspace=Workspace(library=library))  # no start
    body = {"kind": "analyze", "circuit": "c17", "config": CONFIG}
    primary = service.submit(dict(body))
    subscriber = service.submit(dict(body))
    try:
        service.cancel(primary.job_id)
        assert service.status(primary.job_id).status == "cancelled"
        assert service.status(subscriber.job_id).status == "queued"
        assert service.queue_depth() == 1  # the promoted subscriber
        service.start()
        _drain(service, [subscriber.job_id])
        assert service.status(subscriber.job_id).status == "done"
        assert service.result(subscriber.job_id)[schemas.SCHEMA_KEY] == \
            "analyze_result"
    finally:
        service.close()


def test_cancelling_a_subscriber_leaves_the_primary_running(library):
    service = JobService(workspace=Workspace(library=library))  # no start
    body = {"kind": "analyze", "circuit": "c17", "config": CONFIG}
    primary = service.submit(dict(body))
    subscriber = service.submit(dict(body))
    try:
        service.cancel(subscriber.job_id)
        assert service.status(subscriber.job_id).status == "cancelled"
        assert service.status(primary.job_id).status == "queued"
        service.start()
        _drain(service, [primary.job_id])
        assert service.status(primary.job_id).status == "done"
    finally:
        service.close()


# --- back-pressure: 429 + Retry-After + client backoff -----------------------


def test_queue_limit_rejects_with_429_and_retry_after(library):
    service = JobService(workspace=Workspace(library=library),
                         queue_limit=1)  # no start: the queue stays full
    try:
        service.submit({"kind": "analyze", "circuit": "c17",
                        "config": CONFIG})
        with pytest.raises(ServiceError) as excinfo:
            service.submit({"kind": "analyze", "circuit": "s27",
                            "config": CONFIG})
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == JobService.RETRY_AFTER_S
        assert "queue is full" in str(excinfo.value)
        assert REGISTRY.counter("service.rejected") >= 1
    finally:
        service.close()


def test_http_429_carries_json_body_and_retry_after_header(library):
    service = JobService(workspace=Workspace(library=library),
                         queue_limit=1)
    with live_server(service) as server:
        service.submit({"kind": "analyze", "circuit": "c17",
                        "config": CONFIG})
        request = urllib.request.Request(
            f"{server.address}/v1/jobs",
            data=json.dumps({"kind": "analyze", "circuit": "s27",
                             "config": CONFIG}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 429
        assert excinfo.value.headers.get("Retry-After") == \
            str(JobService.RETRY_AFTER_S)
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["status"] == 429
        assert payload["error"]["retry_after"] == \
            JobService.RETRY_AFTER_S


def test_client_retries_429_with_backoff_until_capacity_frees(library):
    """The client's bounded exponential backoff rides out a full
    queue: once a worker drains it, the retried submit succeeds."""
    service = JobService(workspace=Workspace(library=library),
                         queue_limit=1)  # no start yet
    with live_server(service) as server:
        blocker = service.submit({"kind": "analyze", "circuit": "c17",
                                  "config": CONFIG})
        client = ServiceClient(server.address, retries=20,
                               backoff_s=0.02, max_backoff_s=0.1)
        submit_calls = []
        original = client._call_once

        def counting(method, path, body=None):
            if path == "/v1/jobs" and method == "POST":
                submit_calls.append(path)
            return original(method, path, body)

        client._call_once = counting
        # Free capacity shortly after the client starts retrying.
        threading.Timer(0.15, service.start).start()
        job_id = client.submit("analyze", "s27", config=CONFIG)
        assert len(submit_calls) > 1  # at least one 429 was retried
        assert client.wait(job_id)["status"] == "done"
        assert client.wait(blocker.job_id)["status"] == "done"


def test_client_with_retries_exhausted_raises_the_429(library):
    service = JobService(workspace=Workspace(library=library),
                         queue_limit=1)
    with live_server(service) as server:
        service.submit({"kind": "analyze", "circuit": "c17",
                        "config": CONFIG})
        client = ServiceClient(server.address, retries=1,
                               backoff_s=0.01, max_backoff_s=0.02)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("analyze", "s27", config=CONFIG)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == JobService.RETRY_AFTER_S
    # live_server closed the (never-started) service for us.


# --- sharded execution tier --------------------------------------------------


def test_shard_routing_is_deterministic():
    fingerprint = "deadbeef" * 8
    assert shard_index(fingerprint, 4) == shard_index(fingerprint, 4)
    assert shard_index(fingerprint, 1) == 0
    # Routing reads the *leading* 64 bits, so vary those.
    spread = {shard_index(f"{value:016x}" + "0" * 48, 4)
              for value in range(32)}
    assert len(spread) > 1  # routing actually distributes designs


def test_sharded_results_match_the_in_process_tier(library):
    service = JobService(workspace=Workspace(library=library),
                         shards=2).start()
    try:
        job = service.submit({"kind": "optimize", "circuit": "c17",
                              "config": CONFIG})
        _drain(service, [job.job_id])
        status = service.status(job.job_id)
        assert status.status == "done", status.error
        payload = service.result(job.job_id)
    finally:
        service.close()
    local = Workspace(library=library, config=FlowConfig(**CONFIG)) \
        .design("c17").optimize()
    assert payload == schemas.check_round_trip(local)


def test_killed_shard_worker_fails_the_job_and_the_shard_recovers(
        library):
    """A shard process dying mid-job must land the job 'failed' with a
    useful error — not leave it 'running' forever — and the rebuilt
    shard must serve the next job."""
    service = JobService(workspace=Workspace(library=library),
                         shards=1).start()
    try:
        # Warm the shard so its worker process exists.
        warm = service.submit({"kind": "analyze", "circuit": "c17",
                               "config": CONFIG})
        _drain(service, [warm.job_id])
        assert service.status(warm.job_id).status == "done"
        pids = service._pool.worker_pids()
        assert pids and pids[0], "shard worker did not spawn"
        victim_pid = pids[0][0]
        # Seconds of Monte Carlo on either backend, to kill mid-flight
        # (c17's finishes within the sleep below on numpy).
        doomed = service.submit({
            "kind": "montecarlo", "circuit": "c432",
            "request": schemas.to_dict(MonteCarloRequest(samples=8000)),
            "config": CONFIG})
        deadline = time.monotonic() + 60
        while service.status(doomed.job_id).status == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        time.sleep(0.2)  # let the work reach the shard process
        os.kill(victim_pid, signal.SIGKILL)
        _drain(service, [doomed.job_id])
        status = service.status(doomed.job_id)
        assert status.status == "failed"
        assert "shard 0" in status.error
        assert "died" in status.error
        # The shard was rebuilt: the next job on it succeeds.
        retry = service.submit({"kind": "analyze", "circuit": "s27",
                                "config": CONFIG})
        _drain(service, [retry.job_id])
        assert service.status(retry.job_id).status == "done"
        fresh = service._pool.worker_pids()
        assert fresh and fresh[0] and fresh[0][0] != victim_pid
    finally:
        service.close()


# --- persistent result store -------------------------------------------------


def test_restarted_service_serves_prior_results_from_the_store(
        library, tmp_path):
    store_dir = tmp_path / "results"
    body = {"kind": "optimize", "circuit": "c17", "config": CONFIG}
    first = JobService(workspace=Workspace(library=library),
                       result_store=store_dir).start()
    try:
        job = first.submit(dict(body))
        _drain(first, [job.job_id])
        assert first.status(job.job_id).status == "done"
        payload = first.result(job.job_id)
    finally:
        first.close()
    assert list(store_dir.glob("result-*.json"))

    hits0 = REGISTRY.counter("service.result_store_hits")
    second = JobService(workspace=Workspace(library=library),
                        result_store=store_dir).start()
    try:
        job = second.submit(dict(body))
        _drain(second, [job.job_id])
        assert second.status(job.job_id).status == "done"
        assert second.result(job.job_id) == payload
        assert REGISTRY.counter("service.result_store_hits") == hits0 + 1
        assert second.cache_stats()["result_store"]["hits"] == 1
    finally:
        second.close()


def test_different_config_misses_the_store(library, tmp_path):
    store_dir = tmp_path / "results"
    service = JobService(workspace=Workspace(library=library),
                         result_store=store_dir).start()
    try:
        first = service.submit({"kind": "analyze", "circuit": "c17",
                                "config": CONFIG})
        other = service.submit({"kind": "analyze", "circuit": "c17",
                                "config": {"timing_margin": 0.25}})
        _drain(service, [first.job_id, other.job_id])
        stats = service.cache_stats()["result_store"]
        assert stats["stores"] == 2  # distinct keys: both computed
        assert stats["hits"] == 0
    finally:
        service.close()
