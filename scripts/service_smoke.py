"""CI smoke test for the job-service mode.

Starts a real ``repro-smt serve`` subprocess, drives it over HTTP with
the stdlib :class:`repro.api.ServiceClient`, and asserts the results
match the frozen golden fixtures in ``tests/golden/``:

1. a c432 flow job (``optimize``, improved SMT, the golden Table 1
   config) — area / leakage / structure counts must match the golden
   row to 1e-9 relative;
2. a full three-technique ``sweep`` job on c432 — every golden row;
3. a 3-corner ``signoff`` job — the ``tt_nom`` corner must reproduce
   the nominal (golden) leakage bit-for-bit, and the warm flow cache
   must have been hit (the signoff reuses the optimize job's flow);
4. a 3-corner ``standby`` job — the scheduler must respect its rush
   budget and beat the serial daisy-chain; with the ``policy`` job it
   must reuse the corner libraries the signoff derived (the process
   corner-derivation memo derives each corner once);
5. a **restart**: the first server is torn down and a second
   ``repro-smt serve`` process on the same result store re-runs the
   signoff — it must come off the store (a clean result-store *hit*)
   bit-for-bit — and a signoff the store has not seen must still
   execute and reproduce the nominal corner;
6. a ``--shards 2`` leg whose optimize runs in a shard worker process;
7. malformed requests against the first and the sharded server: a
   non-numeric ``Content-Length`` and a non-JSON body must each get a
   400 JSON error, and ``/v1/health`` must stay ok afterwards;
8. held status requests against both servers: ``?wait=5`` on a
   finished job answers ``done`` at once, ``?wait=nan`` is a 400 and
   ``/v1/health`` stays ok afterwards; ``/v1/metrics`` carries the
   ``service.queue_wait_s`` histogram;
9. a second timing margin against the first and the sharded server:
   ``analyze`` and ``optimize`` on c432 at margin 0.15 as well as 0.12
   must answer what a fresh in-process ``Workspace`` computes, and on
   the first server the 0.15 optimize must hit the placed ``prefix``
   entry the 0.12 one built (``/v1/metrics`` workspace tree);
10. one connection per client thread: on the first server, two
    ``client.run`` calls and the ``/v1/metrics`` reads around them, on
    a client that has already talked to it, add nothing to the
    ``service.connections`` counter.

Every server is stopped with SIGTERM and must exit 0 without leaving a
child process (a shard worker) behind.

Run from the repo root (CI runs it once per compute backend)::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api import ServiceClient, Workspace, schemas  # noqa: E402
from repro.api.requests import (  # noqa: E402
    AnalyzeRequest,
    OptimizeRequest,
    PolicyRequest,
    SignoffRequest,
    StandbyRequest,
    SweepRequest,
)
from repro.config import FlowConfig, Technique  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.obs import configure_logging, get_logger  # noqa: E402

logger = get_logger("scripts.service_smoke")

#: The golden Table 1 knobs (tests/golden + scripts/make_golden.py).
CIRCUIT = "c432"
CONFIG = {"timing_margin": 0.12, "placement_seed": 1}
#: The second timing margin: its flows fork the 0.12 design's placement.
SECOND_CONFIG = dict(CONFIG, timing_margin=0.15)
CORNERS = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")
REL_TOL = 1e-9


def close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-30)


def check(label: str, ok: bool):
    logger.info("  [%s] %s", "ok" if ok else "FAIL", label)
    if not ok:
        raise SystemExit(f"service smoke failed: {label}")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_health(client: ServiceClient, deadline_s: float = 60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            if client.health()["status"] == "ok":
                return
        except (ServiceError, OSError):
            pass
        time.sleep(0.2)
    raise SystemExit("service never became healthy")


def start_server(port: int, store_dir: str,
                 *extra_args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--result-store", store_dir,
         *extra_args],
        cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def child_pids(pid: int) -> list[int]:
    """Processes whose parent is ``pid``."""
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and proc_stat(int(entry))[1] == pid]


def proc_stat(pid: int) -> tuple[str, int]:
    """(state, parent pid) of ``pid``; ("", 0) once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return "", 0
    return fields[0], int(fields[1])


def alive(pid: int) -> bool:
    return proc_stat(pid)[0] not in ("", "Z")


def stop_server(server: subprocess.Popen):
    """SIGTERM the server: it must exit 0 and take its children along."""
    children = child_pids(server.pid)
    server.terminate()
    try:
        code = server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        code = None
    check(f"server exited 0 on SIGTERM (exit code {code})", code == 0)
    deadline = time.monotonic() + 10.0
    while any(map(alive, children)) and time.monotonic() < deadline:
        time.sleep(0.1)
    check(f"no child process outlived the server (it had "
          f"{len(children)})", not any(map(alive, children)))


def check_malformed_requests(client: ServiceClient, port: int):
    """Bad framing and a bad body are 400 JSON errors, not a dead
    connection, and the server stays healthy."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Content-Length: abc\r\n\r\n")
        response = b""
        while chunk := sock.recv(65536):  # the server closes after it
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    check("non-numeric Content-Length gets a 400",
          head.startswith(b"HTTP/1.1 400 "))
    check("... with a JSON error", "error" in json.loads(body))

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("POST", "/v1/jobs", body=b"{not json",
                 headers={"Content-Type": "application/json"})
    reply = conn.getresponse()
    error = json.loads(reply.read())["error"]
    conn.close()
    check("non-JSON body gets a 400 JSON error",
          reply.status == 400 and "not valid JSON" in error["message"])
    check("server healthy after malformed requests",
          client.health()["status"] == "ok")


def check_held_wait(client: ServiceClient):
    """A held status request on the latest (finished) job answers at
    once; a wait that is not a finite number >= 0 is a 400 JSON error,
    and the server stays healthy."""
    job_id = client.jobs()[-1]["job_id"]
    began = time.monotonic()
    status = client._call("GET", f"/v1/jobs/{job_id}?wait=5")
    check("?wait=5 on a finished job answers done at once",
          status["status"] == "done" and time.monotonic() - began < 1.0)
    try:
        client._call("GET", f"/v1/jobs/{job_id}?wait=nan")
        code = 200
    except ServiceError as exc:
        code = exc.status
    check("?wait=nan gets a 400", code == 400)
    check("server healthy after a bad wait",
          client.health()["status"] == "ok")


def fresh_answers() -> dict:
    """``analyze`` at both margins and ``optimize`` at the second, by a
    fresh in-process workspace: what every server must answer."""
    workspace = Workspace()
    answers = {}
    for config in (CONFIG, SECOND_CONFIG):
        design = workspace.design(CIRCUIT, FlowConfig(**config))
        answers["analyze", config["timing_margin"]] = design.analyze()
    answers["optimize", SECOND_CONFIG["timing_margin"]] = \
        workspace.design(CIRCUIT, FlowConfig(**SECOND_CONFIG)).optimize(
            technique=Technique.IMPROVED_SMT)
    return answers


def prefix_counts(client: ServiceClient) -> dict:
    return client.metrics()["caches"]["workspace"].get("prefix", {})


def check_second_margin(client: ServiceClient, answers: dict,
                        in_process: bool):
    """Both margins' ``analyze`` and the second margin's ``optimize``
    equal the fresh workspace's answers; in process, the second
    margin's flow hits the placed prefix the first margin's built."""
    for config in (CONFIG, SECOND_CONFIG):
        margin = config["timing_margin"]
        analyzed = client.run("analyze", CIRCUIT, request=AnalyzeRequest(),
                              config=config, timeout=300.0)
        check(f"analyze at margin {margin} matches a fresh workspace",
              schemas.to_dict(analyzed)
              == schemas.to_dict(answers["analyze", margin]))
    margin = SECOND_CONFIG["timing_margin"]
    before = prefix_counts(client)
    optimized = client.run(
        "optimize", CIRCUIT,
        request=OptimizeRequest(technique=Technique.IMPROVED_SMT),
        config=SECOND_CONFIG, timeout=300.0)
    check(f"optimize at margin {margin} matches a fresh workspace",
          schemas.to_dict(optimized)
          == schemas.to_dict(answers["optimize", margin]))
    if in_process:
        after = prefix_counts(client)
        check(f"optimize at margin {margin} reused the placed prefix",
              after.get("hits", 0) == before.get("hits", 0) + 1
              and after.get("misses", 0) == before.get("misses", 0))


def connections(client: ServiceClient) -> int:
    return client.metrics()["counters"].get("service.connections", 0)


def check_kept_connection(client: ServiceClient):
    """Two ``run`` calls on a client that has already talked to the
    server reuse its connection: the server accepts no new one."""
    before = connections(client)
    check("/v1/metrics counts the connections it accepted", before > 0)
    for config in (CONFIG, SECOND_CONFIG):
        client.run("analyze", CIRCUIT, request=AnalyzeRequest(),
                   config=config, timeout=300.0)
    after = connections(client)
    check(f"two runs on a used client opened no connection "
          f"({after - before} opened)", after == before)


def kill_server(server: subprocess.Popen):
    if server.poll() is None:
        server.kill()
        server.wait()


def main() -> int:
    golden = json.loads(
        (REPO / "tests" / "golden" / "table1_c432_s298.json")
        .read_text(encoding="utf-8"))[CIRCUIT]
    answers = fresh_answers()
    store_dir = tempfile.mkdtemp(prefix="repro-result-store-")
    port = free_port()
    server = start_server(port, store_dir)
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
    try:
        wait_for_health(client)
        logger.info("service healthy on port %s", port)
        check_malformed_requests(client, port)

        logger.info("flow job: optimize improved_smt on c432")
        improved = golden["improved_smt"]
        result = client.run(
            "optimize", CIRCUIT,
            request=OptimizeRequest(technique=Technique.IMPROVED_SMT),
            config=CONFIG)
        check("area matches golden",
              close_enough(result.area_um2, improved["area_um2"]))
        check("leakage matches golden",
              close_enough(result.leakage_nw, improved["leakage_nw"]))
        check("structure counts match golden",
              (result.mt_cells, result.switches, result.holders)
              == (improved["mt_cells"], improved["switches"],
                  improved["holders"]))
        check_held_wait(client)
        logger.info("second margin: analyze + optimize at 0.12 and 0.15")
        check_second_margin(client, answers, in_process=True)
        check_kept_connection(client)

        logger.info("sweep job: all three techniques on c432")
        sweep = client.run("sweep", CIRCUIT, request=SweepRequest(),
                           config=CONFIG)
        for row in sweep.rows:
            expected = golden[row.technique.value]
            for field in ("area_um2", "leakage_nw", "area_pct",
                          "leakage_pct"):
                check(f"sweep {row.technique.value} {field}",
                      close_enough(getattr(row, field), expected[field]))

        logger.info("signoff job: %d corners on c432", len(CORNERS))
        signoff = client.run(
            "signoff", CIRCUIT,
            request=SignoffRequest(technique=Technique.IMPROVED_SMT,
                                   corners=CORNERS),
            config=CONFIG)
        check("all corners signed off",
              tuple(row.corner for row in signoff.rows) == CORNERS)
        check("tt_nom reproduces the golden nominal leakage exactly",
              signoff.row("tt_nom").leakage_nw == result.leakage_nw)
        check("nominal leakage matches golden",
              close_enough(signoff.nominal_leakage_nw,
                           improved["leakage_nw"]))

        logger.info("standby job: wake/rush/break-even at %d "
                    "corners on c432", len(CORNERS))
        standby = client.run(
            "standby", CIRCUIT,
            request=StandbyRequest(scenarios=("mostly_idle",
                                              "always_on"),
                                   corners=CORNERS),
            config=CONFIG)
        check("standby evaluated every corner",
              standby.corners == CORNERS)
        check("scheduler respected the rush budget",
              standby.schedule.peak_aggregate_ma
              <= standby.schedule.budget_ma * (1.0 + 1e-9))
        check("staged wake-up no slower than the serial daisy-chain",
              standby.schedule.total_latency_ns
              <= standby.schedule.serial_latency_ns + 1e-9)
        check("deep idle pays, back-to-back bursts do not",
              standby.outcome("mostly_idle", "tt_nom").worthwhile
              and not standby.outcome("always_on", "tt_nom").worthwhile)

        logger.info("policy job: %d-candidate sleep-policy sweep at "
                    "%d corners on c432", 256, len(CORNERS))
        policy = client.run(
            "policy", CIRCUIT,
            request=PolicyRequest(scenarios=("mostly_idle", "bursty"),
                                  corners=CORNERS, candidates=256),
            config=CONFIG)
        check("policy swept at least the requested candidates",
              policy.candidates >= 256)
        check("policy evaluated every corner",
              policy.corners == CORNERS)
        check("policy front is non-empty and oracle-bounded",
              len(policy.pareto) >= 1
              and all(point.net_savings_pj
                      <= policy.oracle_net_savings_pj + 1e-9
                      for point in policy.pareto))

        stats = client.health()["cache_stats"]
        check("signoff hit the warm flow cache",
              stats.get("flow", {}).get("hits", 0) >= 1)
        memo = stats.get("corner_memo", {})
        check("signoff derived each corner library exactly once",
              memo.get("misses") == len(CORNERS))
        check("standby and policy reused the derived corner libraries",
              memo.get("hits", 0) >= 2 * len(CORNERS))
        check("every finished job was persisted to the result store",
              stats.get("result_store", {}).get("stores", 0) >= 5)
        check("result store writes were clean (no errors)",
              stats.get("result_store", {}).get("errors", 0) == 0)
        logger.info("cache stats: %s", json.dumps(stats, sort_keys=True))

        health = client.health()
        check("health reports queue depth",
              health.get("queue_depth") == 0)
        check("health counts jobs by kind",
              health.get("jobs_by_kind", {}).get("optimize", 0) >= 1)

        metrics = client.metrics()
        check("metrics snapshot is schema-stamped",
              metrics.get("schema") == "metrics_snapshot")
        check("metrics counted every finished job kind",
              all(metrics["counters"].get(f"service.jobs.{kind}", 0) >= 1
                  for kind in ("optimize", "sweep", "signoff",
                               "standby", "policy")))
        check("metrics queue gauge drained back to zero",
              metrics["gauges"].get("service.queue_depth") == 0)
        check("job latency histogram saw every job",
              metrics["histograms"].get("service.job_latency_s",
                                        {}).get("count", 0) >= 5)
        check("queue wait histogram saw every job",
              metrics["histograms"].get("service.queue_wait_s",
                                        {}).get("count", 0) >= 5)
        caches = metrics.get("caches", {})
        check("metrics unify the workspace cache tree",
              caches.get("workspace", {}).get("flow", {})
              .get("hits", 0) >= 1)
        check("metrics include the corner-memo source",
              "corner_memo" in caches)
        logger.info("metrics counters: %s",
                    json.dumps(metrics["counters"], sort_keys=True))

        # Restart: a SECOND serve process against the same result
        # store.  The identical signoff must come straight off the
        # store (no recompute); a signoff the store has NOT seen must
        # still execute.
        logger.info("restart: second serve process, shared result store")
        stop_server(server)
        port = free_port()
        server = start_server(port, store_dir)
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
        wait_for_health(client)
        again = client.run(
            "signoff", CIRCUIT,
            request=SignoffRequest(technique=Technique.IMPROVED_SMT,
                                   corners=CORNERS),
            config=CONFIG)
        check("restarted signoff reproduces tt_nom exactly",
              again.row("tt_nom").leakage_nw
              == signoff.row("tt_nom").leakage_nw)
        check("restarted signoff matches the first process bit-for-bit",
              tuple((row.corner, row.leakage_nw) for row in again.rows)
              == tuple((row.corner, row.leakage_nw)
                       for row in signoff.rows))
        store_stats = client.health()["cache_stats"] \
            .get("result_store", {})
        check("second process served the signoff from the result store",
              store_stats.get("hits", 0) >= 1)
        check("result store load was clean (no errors)",
              store_stats.get("errors", 0) == 0)
        logger.info("restart result-store stats: %s",
                    json.dumps(store_stats, sort_keys=True))

        # A request the store has never seen (same config, fewer
        # corners) must actually execute.
        nominal_only = client.run(
            "signoff", CIRCUIT,
            request=SignoffRequest(technique=Technique.IMPROVED_SMT,
                                   corners=("tt_nom",)),
            config=CONFIG)
        check("store-missed signoff still reproduces tt_nom exactly",
              nominal_only.row("tt_nom").leakage_nw
              == signoff.row("tt_nom").leakage_nw)

        # Shard leg: a THIRD serve process with --shards 2 and a fresh
        # result store, so the optimize actually executes in a shard
        # worker process — cross-process determinism against golden.
        logger.info("shard leg: serve --shards 2, fresh result store")
        stop_server(server)
        port = free_port()
        shard_store = tempfile.mkdtemp(prefix="repro-result-store-")
        server = start_server(port, shard_store,
                              "--shards", "2")
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0)
        wait_for_health(client)
        check_malformed_requests(client, port)
        sharded = client.run(
            "optimize", CIRCUIT,
            request=OptimizeRequest(technique=Technique.IMPROVED_SMT),
            config=CONFIG, timeout=300.0)
        check("sharded optimize matches golden area",
              close_enough(sharded.area_um2, improved["area_um2"]))
        check("sharded optimize matches golden leakage",
              close_enough(sharded.leakage_nw, improved["leakage_nw"]))
        check("sharded optimize matches the in-process result exactly",
              sharded.leakage_nw == result.leakage_nw
              and sharded.area_um2 == result.area_um2)
        check("shard leg executed (fresh store, so no hit)",
              client.health()["cache_stats"]
              .get("result_store", {}).get("hits", 0) == 0)
        check("shard leg ran its job in a worker process",
              bool(child_pids(server.pid)))
        check_held_wait(client)
        check_second_margin(client, answers, in_process=False)
        stop_server(server)
        logger.info("service smoke: all checks passed")
        return 0
    finally:
        kill_server(server)


if __name__ == "__main__":
    # Route through the repro logger; $REPRO_LOG_LEVEL overrides INFO.
    if not configure_logging():
        configure_logging("INFO", stream=sys.stdout)
    raise SystemExit(main())
