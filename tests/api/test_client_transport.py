"""``ServiceClient`` transport: one keep-alive connection per calling
thread, ``TCP_NODELAY`` on both ends, and the rules for dropping and
reopening a connection."""

import contextlib
import select
import socket
import threading

import pytest

from repro.api import ServiceClient, Workspace
from repro.api import service as service_module
from repro.api.service import JobService, ServiceServer
from repro.errors import ServiceError
from repro.obs import REGISTRY

CONFIG = {"timing_margin": 0.2}


@contextlib.contextmanager
def live_server(service, handler=None):
    server = ServiceServer(service, port=0)
    if handler is not None:
        server.RequestHandlerClass = handler
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def connections() -> int:
    return REGISTRY.counter("service.connections")


def test_submit_wait_result_from_one_thread_is_one_connection(library):
    service = JobService(workspace=Workspace(library=library)).start()
    with live_server(service) as server:
        client = ServiceClient(server.address)
        before = connections()
        job_id = client.submit("analyze", "c17", config=CONFIG)
        assert client.wait(job_id)["status"] == "done"
        payload = client.result_payload(job_id)
        assert payload["circuit"] == "c17"
        assert connections() - before == 1
        client.close()
        assert client.health()["status"] == "ok"
        assert connections() - before == 2
        client.close()


def test_threads_sharing_a_client_get_their_own_connections(library):
    service = JobService(workspace=Workspace(library=library)).start()
    with live_server(service) as server:
        client = ServiceClient(server.address)
        before = connections()
        both_connected = threading.Barrier(2, timeout=30)
        seen = {}

        def one(circuit):
            client.health()
            both_connected.wait()
            job_id = client.submit("analyze", circuit, config=CONFIG)
            client.wait(job_id)
            seen[circuit] = (client._local.conn,
                             client.result_payload(job_id),
                             service.result(job_id))
            client.close()

        threads = [threading.Thread(target=one, args=(circuit,))
                   for circuit in ("c17", "s27")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert sorted(seen) == ["c17", "s27"]
        assert seen["c17"][0] is not seen["s27"][0]
        for circuit, (_, answer, served) in seen.items():
            assert answer["circuit"] == circuit
            assert answer == served
        assert connections() - before == 2


def test_connection_the_server_closed_while_idle_is_reopened(
        library, monkeypatch):
    """The server closes an idle connection; the next call, a submit,
    fails on it before any answer, is sent once more on a fresh
    connection and makes exactly one job."""
    monkeypatch.setattr(service_module, "IDLE_TIMEOUT_S", 0.2)
    service = JobService(workspace=Workspace(library=library))  # queued
    with live_server(service) as server:
        client = ServiceClient(server.address)
        before = connections()
        client.health()
        # The server's end-of-stream makes the idle socket readable.
        idle = client._local.conn.sock
        assert select.select([idle], [], [], 10)[0], \
            "the server kept the idle connection open"
        job_id = client.submit("analyze", "c17", config=CONFIG)
        assert [status.job_id for status in service.jobs()] == [job_id]
        assert connections() - before == 2
        client.close()


def test_connection_close_answer_drops_the_connection(library):
    class ClosingHealth(service_module._Handler):
        def _send(self, status, payload, headers=None):
            if self.path == "/v1/health":
                headers = {**(headers or {}), "Connection": "close"}
            super()._send(status, payload, headers)

    service = JobService(workspace=Workspace(library=library))
    with live_server(service, ClosingHealth) as server:
        client = ServiceClient(server.address)
        before = connections()
        assert client.health()["status"] == "ok"
        assert client._local.conn is None
        assert "job_status" in client.schema_names()
        assert "job_status" in client.schema_names()
        assert connections() - before == 2
        client.close()


def test_error_answers_raise_and_keep_the_connection(library):
    service = JobService(workspace=Workspace(library=library),
                         queue_limit=1)  # no start: the queue stays full
    with live_server(service) as server:
        client = ServiceClient(server.address, retries=0)
        before = connections()
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-424242")
        assert excinfo.value.status == 404
        assert str(excinfo.value) == "unknown job 'job-424242'"
        assert excinfo.value.retry_after is None
        job_id = client.submit("analyze", "c17", config=CONFIG)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409
        assert str(excinfo.value) == f"job {job_id} is still queued"
        with pytest.raises(ServiceError) as excinfo:
            client.submit("analyze", "s27", config=CONFIG)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == JobService.RETRY_AFTER_S
        assert "queue is full" in str(excinfo.value)
        assert client.health()["queue_depth"] == 1
        assert connections() - before == 1
        client.close()


def test_body_over_the_limit_raises_the_services_413(library):
    """The service refuses a body over its limit unread with a 413 and
    closes, which breaks the sending of the rest of the body; the
    client reads that answer, on a used connection too, instead of
    sending the body again on a fresh one."""
    service = JobService(workspace=Workspace(library=library))
    with live_server(service) as server:
        client = ServiceClient(server.address, retries=0)
        before = connections()
        client.health()
        padding = "x" * (service_module.MAX_BODY_BYTES + 1024 * 1024)
        for _ in range(3):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("analyze", "c17", request={"pad": padding},
                              config=CONFIG)
            assert excinfo.value.status == 413
            assert "body limit" in str(excinfo.value)
        assert client.health()["status"] == "ok"
        assert service.jobs() == []
        # The first 413 comes on the health call's connection; a 413
        # closes its connection, so each later call opens one: no body
        # went out twice.
        assert connections() - before == 4
        client.close()


def test_both_ends_set_tcp_nodelay(library):
    server_nodelay = []

    class Recording(service_module._Handler):
        def setup(self):
            super().setup()
            server_nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

    service = JobService(workspace=Workspace(library=library))
    with live_server(service, Recording) as server:
        client = ServiceClient(server.address)
        client.health()
        assert client._local.conn.sock.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert len(server_nodelay) == 1 and server_nodelay[0]
        client.close()


def test_base_url_path_prefix_reaches_the_server(library):
    service = JobService(workspace=Workspace(library=library))
    with live_server(service) as server:
        client = ServiceClient(f"{server.address}/prefix/")
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 404
        assert "'/prefix/v1/health'" in str(excinfo.value)
        client.close()


def test_unreachable_server_is_an_oserror():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5)
    with pytest.raises(OSError):
        client.health()
    assert getattr(client._local, "conn", None) is None
