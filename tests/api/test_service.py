"""Job-service mode: live-server end-to-end, cancel, malformed requests."""

import dataclasses
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ServiceClient, Workspace, schemas
from repro.api import service as service_module
from repro.api.results import AnalyzeResult, OptimizeResult, SignoffResult
from repro.api.requests import SignoffRequest
from repro.api.service import JobService, ServiceServer, parse_submission
from repro.config import FlowConfig, Technique
from repro.errors import ServiceError

CONFIG = {"timing_margin": 0.2}


@pytest.fixture(scope="module")
def server(library):
    """A live service on an ephemeral port (workers running)."""
    service = JobService(
        workspace=Workspace(library=library)).start()
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    service.close()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.address)


# --- end to end -------------------------------------------------------------


def test_health(client):
    payload = client.health()
    assert payload["status"] == "ok"
    assert "cache_stats" in payload
    assert payload["queue_depth"] == 0
    assert isinstance(payload["jobs_by_kind"], dict)


def test_metrics_endpoint_is_schema_stamped(client):
    payload = client.metrics()
    assert payload[schemas.SCHEMA_KEY] == "metrics_snapshot"
    for section in ("counters", "gauges", "histograms", "caches"):
        assert section in payload
    # The unified cache tree includes the live workspace and the
    # process-wide sources.
    assert "workspace" in payload["caches"]
    assert "corner_memo" in payload["caches"]


def test_metrics_count_jobs_and_latency(client):
    from repro.obs import MetricsSnapshot

    before = client.metrics_snapshot().counters.get(
        "service.jobs.analyze", 0)
    client.run("analyze", "c17", config=CONFIG)
    snap = client.metrics_snapshot()
    assert isinstance(snap, MetricsSnapshot)
    assert snap.counters.get("service.jobs.analyze", 0) == before + 1
    latency = snap.histograms.get("service.job_latency_s", {})
    assert latency.get("count", 0) >= 1
    assert latency["max"] >= latency["min"] >= 0.0
    assert snap.gauges.get("service.queue_depth") == 0
    health = client.health()
    assert health["jobs_by_kind"].get("analyze", 0) >= 1


def test_schemas_endpoint(client):
    names = client.schema_names()
    assert "analyze_result" in names
    assert "corner_signoff_report" in names


def test_submit_poll_result_analyze(client, library):
    job_id = client.submit("analyze", "c17", config=CONFIG)
    status = client.wait(job_id)
    assert status["status"] == "done"
    result = client.result(job_id)
    assert isinstance(result, AnalyzeResult)
    # The service result is bit-identical to the in-process facade.
    local = Workspace(library=library,
                      config=FlowConfig(**CONFIG)).design("c17").analyze()
    assert result == local


def test_optimize_then_signoff_hits_flow_cache(client):
    opt = client.run("optimize", "c17", config=CONFIG)
    assert isinstance(opt, OptimizeResult)
    flow_stats = client.health()["cache_stats"].get("flow", {})
    request = SignoffRequest(technique=Technique.IMPROVED_SMT,
                             corners=("tt_nom",))
    signoff = client.run("signoff", "c17", request=request, config=CONFIG)
    assert isinstance(signoff, SignoffResult)
    # tt_nom signoff reproduces the nominal flow numbers.
    assert signoff.row("tt_nom").leakage_nw == opt.leakage_nw
    after = client.health()["cache_stats"]["flow"]
    assert after["hits"] > flow_stats.get("hits", 0)


def test_typed_request_payload_round_trips_over_http(client):
    request = SignoffRequest(technique=Technique.DUAL_VTH,
                             corners=("tt_nom", "ff_1.32v_125c"))
    result = client.run("signoff", "c17", request=request, config=CONFIG)
    assert result.technique == Technique.DUAL_VTH
    assert result.corners == ("tt_nom", "ff_1.32v_125c")
    payload = client.result_payload(
        client.jobs()[-1]["job_id"])
    assert payload[schemas.SCHEMA_KEY] == "signoff_result"
    assert schemas.from_dict(payload) == result


# --- cancel -----------------------------------------------------------------


def test_cancel_queued_job_deterministically(library):
    """Cancel before any worker starts: fully deterministic."""
    service = JobService(workspace=Workspace(library=library))  # no start
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(server.address)
        kept = client.submit("analyze", "c17", config=CONFIG)
        doomed = client.submit("analyze", "s27", config=CONFIG)
        cancelled = client.cancel(doomed)
        assert cancelled["status"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.result(doomed)
        assert excinfo.value.status == 409
        # Cancelling twice is a conflict, not a success.
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(doomed)
        assert excinfo.value.status == 409
        service.start()
        assert client.wait(kept)["status"] == "done"
        assert client.status(doomed)["status"] == "cancelled"
    finally:
        server.shutdown()
        service.close()


def test_concurrent_workers_share_one_workspace(library):
    """--workers N: jobs race-free on the shared workspace (per-design
    locks), identical results for every duplicate job."""
    import time

    service = JobService(workspace=Workspace(library=library),
                         workers=3).start()
    try:
        ids = [service.submit({"kind": "analyze",
                               "circuit": circuit,
                               "config": CONFIG})
               .job_id
               for circuit in ("c17", "s27", "c17", "s27", "c17", "c17")]
        deadline = time.monotonic() + 120
        while any(service.status(i).status in ("queued", "running")
                  for i in ids):
            assert time.monotonic() < deadline, "jobs did not finish"
            time.sleep(0.02)
        for job_id in ids:
            assert service.status(job_id).status == "done", \
                service.status(job_id).error
        payloads = [service.result(i) for i in ids]
        assert payloads[0] == payloads[2] == payloads[4] == payloads[5]
        assert payloads[1] == payloads[3]
    finally:
        service.close()


def test_keep_alive_connection_survives_body_bearing_cancel(library):
    """Routes that ignore the request body must still drain it, or the
    leftover bytes corrupt the next request on a keep-alive
    connection (regression: health after cancel returned 501)."""
    import http.client

    service = JobService(workspace=Workspace(library=library))  # queued
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port)
        conn.request("POST", "/v1/jobs",
                     body=json.dumps({"kind": "analyze",
                                      "circuit": "c17"}),
                     headers={"Content-Type": "application/json"})
        job = json.loads(conn.getresponse().read())
        conn.request("POST", f"/v1/jobs/{job['job_id']}/cancel",
                     body="{}",
                     headers={"Content-Type": "application/json"})
        assert json.loads(conn.getresponse().read())["status"] == \
            "cancelled"
        conn.request("GET", "/v1/health")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        conn.close()
    finally:
        server.shutdown()
        service.close()


def test_cancel_finished_job_is_conflict(client):
    job_id = client.submit("analyze", "c17", config=CONFIG)
    client.wait(job_id)
    with pytest.raises(ServiceError) as excinfo:
        client.cancel(job_id)
    assert excinfo.value.status == 409


# --- malformed requests (4xx-equivalent payloads) ---------------------------


def _post_raw(server, path, body: bytes):
    request = urllib.request.Request(
        f"{server.address}{path}", data=body, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_malformed_json_body_is_400(server):
    status, payload = _post_raw(server, "/v1/jobs", b"{not json")
    assert status == 400
    assert "not valid JSON" in payload["error"]["message"]


@pytest.mark.parametrize("length, body, status, message", [
    ("abc", b"", 400, "malformed Content-Length header 'abc'"),
    ("-5", b"", 400, "malformed Content-Length header '-5'"),
    # Refused before any of it is read (this used to allocate the
    # declared length and answer a 500 MemoryError).
    ("1000000000000", b"", 413,
     "Content-Length header '1000000000000' exceeds"),
    # A body that stops short of its declared length.
    ("64", b'{"kind": "an', 408, "request body stalled: 64 bytes"),
], ids=["non-numeric", "negative", "huge", "stalled"])
def test_malformed_content_length_is_400_and_closes(server, client,
                                                    monkeypatch, length,
                                                    body, status,
                                                    message):
    """A body the server cannot drain gets a JSON error and a closed
    connection (regression: the handler thread raised and the client
    got no response at all)."""
    monkeypatch.setattr(service_module, "IDLE_TIMEOUT_S", 0.5)
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode() + body)
        response = b""
        while chunk := sock.recv(65536):  # until the server closes
            response += chunk
    head, _, reply = response.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert b"\r\nconnection: close" in head.lower()
    error = json.loads(reply)["error"]
    assert error["status"] == status
    assert message in error["message"]
    assert client.health()["status"] == "ok"


def test_unknown_kind_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit("frobnicate", "c17")
    assert excinfo.value.status == 400
    assert "unknown job kind" in str(excinfo.value)


def test_unknown_circuit_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit("analyze", "not_a_circuit")
    assert excinfo.value.status == 400


def test_mismatched_request_schema_is_400(client):
    from repro.api.requests import OptimizeRequest

    with pytest.raises(ServiceError) as excinfo:
        client.submit("signoff", "c17",
                      request=OptimizeRequest())
    assert excinfo.value.status == 400
    assert "signoff_request" in str(excinfo.value)


@pytest.mark.parametrize("override", [
    {"timing_margin": -1},
    # Each of these used to be accepted and fail the job mid-flow.
    {"aspect_ratio": -1},
    {"aspect_ratio": 0},
    {"aspect_ratio": "wide"},
    {"utilization": 0.05},
    {"assignment_guardband": 1.5},
], ids=lambda override: "-".join(f"{k}={v}" for k, v in override.items()))
def test_bad_config_override_is_400(client, override):
    with pytest.raises(ServiceError) as excinfo:
        client.submit("analyze", "c17", config=override)
    assert excinfo.value.status == 400
    (field,) = override
    assert field in str(excinfo.value)


@pytest.mark.parametrize("kind, field, value", [
    # Each of these used to be accepted, or to fail the job mid-run
    # with a raw TypeError.
    ("montecarlo", "samples", 2.5),
    ("montecarlo", "samples", True),
    ("montecarlo", "seed", "x"),
    ("montecarlo", "sigma_global_v", float("nan")),
    ("montecarlo", "timing", "no"),
    ("montecarlo", "leakage_budget_nw", "x"),
    ("montecarlo", "leakage_budget_nw", -5),
    ("montecarlo", "corner", ["tt_nom"]),
    ("standby", "rush_budget_ma", "x"),
    ("standby", "settle_fraction", "x"),
    ("policy", "candidates", 2.5),
    ("policy", "max_domains", 1.5),
    ("policy", "rush_budget_ma", [1]),
    ("policy", "settle_fraction", None),
], ids=repr)
def test_bad_request_payload_is_400(client, kind, field, value):
    with pytest.raises(ServiceError) as excinfo:
        client.submit(kind, "c17", config=CONFIG,
                      request={"schema": f"{kind}_request",
                               "schema_version": 1, field: value})
    assert excinfo.value.status == 400
    assert f"invalid {field}: must be " in str(excinfo.value)


@pytest.mark.parametrize("body", [
    # Only an absent or null config means the default FlowConfig.
    {"config": 0}, {"config": False}, {"config": ""}, {"config": []},
    {"config": [1]}, {"config": "x"},
    # Unhashable names used to escape as a TypeError (HTTP 500).
    {"kind": ["optimize"]},
    {"request": {"schema": ["optimize_request"], "schema_version": 1}},
], ids=repr)
def test_malformed_submission_body_is_400(client, body):
    with pytest.raises(ServiceError) as excinfo:
        client._call("POST", "/v1/jobs",
                     {"kind": "optimize", "circuit": "c17", **body})
    assert excinfo.value.status == 400


def test_bad_enum_in_request_payload_is_400(client):
    """A schema-valid envelope with a bad field value is a 400, not a
    dropped connection (regression: ValueError escaped the handler)."""
    with pytest.raises(ServiceError) as excinfo:
        client.submit("optimize", "c17",
                      request={"schema": "optimize_request",
                               "schema_version": 1,
                               "technique": "bogus"})
    assert excinfo.value.status == 400
    assert "failed to decode" in str(excinfo.value)
    # The connection/server is still healthy afterwards.
    assert client.health()["status"] == "ok"


def test_finished_jobs_are_evicted_past_the_retention_cap(library):
    service = JobService(workspace=Workspace(library=library),
                         retain=2).start()
    try:
        import time

        ids = [service.submit({"kind": "analyze", "circuit": "c17",
                               "config": CONFIG}).job_id
               for _ in range(3)]
        deadline = time.monotonic() + 60
        while any(service.status(i).status in ("queued", "running")
                  for i in ids
                  if i in {s.job_id for s in service.jobs()}):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # A fourth submission pushes the oldest finished job out.
        service.submit({"kind": "analyze", "circuit": "s27",
                        "config": CONFIG})
        retained = {status.job_id for status in service.jobs()}
        assert ids[0] not in retained
        with pytest.raises(ServiceError) as excinfo:
            service.status(ids[0])
        assert excinfo.value.status == 404
    finally:
        service.close()


def test_unknown_config_field_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit("analyze", "c17", config={"bogus_knob": 1})
    assert excinfo.value.status == 400


def test_one_job_kind_table_names_the_design_methods():
    from repro.api import Design
    from repro.api.requests import JOB_KINDS
    from repro.api.service import JOB_KINDS as SERVICE_KINDS
    from repro.api.shards import execute_kind

    assert SERVICE_KINDS is JOB_KINDS
    for kind in JOB_KINDS:
        assert callable(getattr(Design, kind))
    # A Design method that is no job kind is as unknown as a typo.
    for kind in ("flow_result", "analyse"):
        with pytest.raises(ServiceError, match="unhandled job kind"):
            execute_kind(object(), kind, None)


@pytest.mark.parametrize("value", [[1], "abc", {}], ids=repr)
@pytest.mark.parametrize(
    "field", [field.name for field in dataclasses.fields(FlowConfig)])
def test_every_config_field_rejects_a_wrong_type(field, value):
    """No FlowConfig field takes a list, an arbitrary string or an
    object: each is a 400 naming the field, never a job that fails
    mid-flow with a raw TypeError."""
    with pytest.raises(ServiceError) as excinfo:
        parse_submission({"kind": "analyze", "circuit": "c17",
                          "config": {field: value}})
    assert excinfo.value.status == 400
    assert field in str(excinfo.value)


@pytest.mark.parametrize("override", [
    {"assignment_rounds": 4}, {"mte_fanout_limit": 16},
    {"mte_buffer_cell": "BUF_X8_HVT"}, {"cts_fanout_limit": 8},
    {"cts_buffer_cell": "BUF_X4_HVT"},
    {"hold_fix_buffer_cell": "BUF_X1_HVT"}, {"max_hold_fix_passes": 3},
], ids=lambda override: next(iter(override)))
def test_removed_config_field_is_400(override):
    """The component knobs FlowConfig no longer carries are unknown
    overrides, like any other unknown name."""
    with pytest.raises(ServiceError, match="bad config override") \
            as excinfo:
        parse_submission({"kind": "analyze", "circuit": "c17",
                          "config": override})
    assert excinfo.value.status == 400


def test_unknown_job_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.status("job-99999")
    assert excinfo.value.status == 404


def test_unknown_path_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client._call("GET", "/v2/nope")
    assert excinfo.value.status == 404


def test_execution_failure_lands_on_the_job(client):
    from repro.api.requests import MonteCarloRequest

    job_id = client.submit(
        "montecarlo", "c17",
        request=MonteCarloRequest(samples=2, corner="bogus_corner"),
        config=CONFIG)
    status = client.wait(job_id)
    assert status["status"] == "failed"
    assert "bogus_corner" in status["error"]
    with pytest.raises(ServiceError) as excinfo:
        client.result(job_id)
    assert excinfo.value.status == 409


def test_result_of_unfinished_job_is_409(library):
    service = JobService(workspace=Workspace(library=library))  # no start
    try:
        status = service.submit({"kind": "analyze", "circuit": "c17"})
        with pytest.raises(ServiceError) as excinfo:
            service.result(status.job_id)
        assert excinfo.value.status == 409
        assert "queued" in str(excinfo.value)
    finally:
        service.close()
