"""Job-service tier benchmark: concurrent clients and coalescing.

Two loads against a live HTTP service (stdlib server, warm in-process
workspace, one job worker — this box has one core, so the interesting
numbers are queueing behavior and computation *collapse*, not parallel
speedup):

* **concurrent clients** — 10 and 100 threads, each submitting its own
  ``analyze`` job and polling to completion.  The *cold* pass uses a
  distinct config per client (every job computes); the *warm* pass
  replays the identical grid (the workspace flow cache answers).
  Recorded per scale: p50/p99 client-observed latency and end-to-end
  RPS, cold vs warm.
* **coalescing** — the acceptance bar.  N identical in-flight
  ``optimize`` jobs on a mid-size circuit must collapse onto ONE
  computation: the un-coalesced baseline runs N equivalent jobs
  sequentially, each paying full compute (fresh config per job, so no
  cache masks the cost); the coalesced pass submits N identical jobs
  concurrently.  Coalesced throughput must be **>= 3x** the
  un-coalesced sequential baseline, read as the median ratio of three
  sequential/coalesced pairs timed in alternating arm order (the
  per-repeat lists are recorded).

Everything lands in ``BENCH_service.json`` via the shared recorder.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time

from repro.api import ServiceClient, Workspace
from repro.api.service import JobService, ServiceServer
from repro.obs import REGISTRY

from recorder import json_path, record

ANALYZE_CIRCUIT = "c17"
COALESCE_CIRCUIT = "c432"
COALESCE_JOBS = 8
REQUIRED_COALESCE_SPEEDUP = 3.0
#: Sequential/coalesced pairs; the arm that runs first alternates, and
#: the floor reads the median ratio.
REPEATS = 3


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _serve(library):
    service = JobService(workspace=Workspace(library=library)).start()
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return service, server


def _run_clients(address: str, configs: list[dict],
                 poll_s: float) -> tuple[float, list[float]]:
    """Each config gets its own client thread; returns (wall_s,
    per-client submit->done latencies)."""
    latencies = [0.0] * len(configs)
    errors: list[str] = []

    def one(index: int, config: dict):
        client = ServiceClient(address)
        started = time.perf_counter()
        try:
            client.run("analyze", ANALYZE_CIRCUIT, config=config,
                       poll_s=poll_s)
        except Exception as exc:  # noqa: BLE001 — fail the bench below
            errors.append(f"client {index}: {exc}")
        latencies[index] = time.perf_counter() - started

    threads = [threading.Thread(target=one, args=(index, config))
               for index, config in enumerate(configs)]
    wall0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall0
    assert not errors, errors[:3]
    return wall_s, latencies


def test_concurrent_clients_cold_vs_warm(library):
    service, server = _serve(library)
    try:
        # Warm the workspace itself (netlist + first flow) so "cold"
        # measures per-config computation, not one-time startup.
        ServiceClient(server.address).run("analyze", ANALYZE_CIRCUIT)
        for clients in (10, 100):
            # Distinct configs -> distinct work keys -> every cold job
            # computes; the warm pass replays the identical grid.
            configs = [{"timing_margin": 0.1 + 0.001 * index}
                       for index in range(clients)]
            poll_s = 0.005 if clients <= 10 else 0.02
            cold_wall, cold_lat = _run_clients(server.address, configs,
                                               poll_s)
            warm_wall, warm_lat = _run_clients(server.address, configs,
                                               poll_s)
            metrics = {
                "clients": clients,
                "circuit": ANALYZE_CIRCUIT,
                "cold_p50_s": _percentile(cold_lat, 0.50),
                "cold_p99_s": _percentile(cold_lat, 0.99),
                "cold_rps": clients / cold_wall,
                "warm_p50_s": _percentile(warm_lat, 0.50),
                "warm_p99_s": _percentile(warm_lat, 0.99),
                "warm_rps": clients / warm_wall,
            }
            record(f"service_clients_{clients}", metrics,
                   path=json_path("service"))
            print(f"\n{clients} clients: cold p50 "
                  f"{metrics['cold_p50_s'] * 1e3:.1f}ms "
                  f"p99 {metrics['cold_p99_s'] * 1e3:.1f}ms "
                  f"{metrics['cold_rps']:.0f} rps | warm p50 "
                  f"{metrics['warm_p50_s'] * 1e3:.1f}ms "
                  f"p99 {metrics['warm_p99_s'] * 1e3:.1f}ms "
                  f"{metrics['warm_rps']:.0f} rps")
            assert metrics["cold_rps"] > 0 and metrics["warm_rps"] > 0
    finally:
        server.shutdown()
        service.close()


def test_coalesced_throughput_beats_sequential_baseline(library):
    service, server = _serve(library)
    try:
        client = ServiceClient(server.address)
        # Warm the workspace (netlist, placed prefix) so neither arm of
        # the first pair pays the one-time startup.
        client.run("optimize", COALESCE_CIRCUIT,
                   config={"timing_margin": 0.3}, poll_s=0.002)
        # Every pass gets margins no earlier pass used, so each job
        # computes (no flow-cache or result reuse across passes).
        margins = (0.15 + 0.002 * index for index in itertools.count())
        seconds: dict[str, list[float]] = {"sequential": [],
                                           "coalesced": []}
        collapsed: list[int] = []
        latencies: list[float] = []
        for repeat in range(REPEATS):
            order = ("sequential", "coalesced") if repeat % 2 == 0 \
                else ("coalesced", "sequential")
            for arm in order:
                if arm == "sequential":
                    seconds[arm].append(_run_sequential(
                        client, [next(margins)
                                 for _ in range(COALESCE_JOBS)]))
                    continue
                # Coalesced: N *identical* jobs in flight at once -> one
                # computation, N-1 subscribers.
                shared = {"timing_margin": next(margins)}
                coalesced0 = REGISTRY.counter("service.coalesced")
                with _worker_held_until_submitted(service, COALESCE_JOBS):
                    wall0 = time.perf_counter()
                    _, pass_latencies = _run_coalesced(server.address,
                                                       shared)
                    seconds[arm].append(time.perf_counter() - wall0)
                collapsed.append(REGISTRY.counter("service.coalesced")
                                 - coalesced0)
                latencies += pass_latencies

        speedups = [sequential / coalesced for sequential, coalesced
                    in zip(seconds["sequential"], seconds["coalesced"])]
        speedup = statistics.median(speedups)
        sequential_s = statistics.median(seconds["sequential"])
        coalesced_s = statistics.median(seconds["coalesced"])
        record("service_coalescing", {
            "circuit": COALESCE_CIRCUIT,
            "jobs": COALESCE_JOBS,
            "sequential_s": sequential_s,
            "sequential_rps": COALESCE_JOBS / sequential_s,
            "coalesced_s": coalesced_s,
            "coalesced_rps": COALESCE_JOBS / coalesced_s,
            "coalesced_p99_s": _percentile(latencies, 0.99),
            "jobs_collapsed": collapsed,
            "throughput_speedup_x": speedup,
            "required_speedup_x": REQUIRED_COALESCE_SPEEDUP,
            "sequential_s_repeats": [round(each, 4)
                                     for each in seconds["sequential"]],
            "coalesced_s_repeats": [round(each, 4)
                                    for each in seconds["coalesced"]],
            "speedups": [round(each, 2) for each in speedups],
        }, path=json_path("service"))
        print(f"\ncoalescing: {COALESCE_JOBS} jobs sequential "
              f"{sequential_s:.2f}s vs coalesced {coalesced_s:.2f}s = "
              f"{speedup:.1f}x (pairs {[round(x, 2) for x in speedups]}), "
              f"{collapsed} collapsed")
        for pair, count in enumerate(collapsed):
            assert count >= COALESCE_JOBS - 1, \
                f"identical in-flight jobs did not coalesce (pair {pair})"
        assert speedup >= REQUIRED_COALESCE_SPEEDUP, (
            f"coalesced throughput must be >= "
            f"{REQUIRED_COALESCE_SPEEDUP}x the un-coalesced sequential "
            f"baseline, got {speedup:.2f}x (pairs: {speedups})")
    finally:
        server.shutdown()
        service.close()


def _run_sequential(client, margins: list[float]) -> float:
    """Un-coalesced baseline: one optimize job per margin, one after
    another, each paying the full computation; returns the wall time."""
    wall0 = time.perf_counter()
    for margin in margins:
        client.run("optimize", COALESCE_CIRCUIT,
                   config={"timing_margin": margin}, poll_s=0.002)
    return time.perf_counter() - wall0


@contextlib.contextmanager
def _worker_held_until_submitted(service, count: int):
    """Hold the worker before it computes until ``count`` submissions
    have landed, so each of them finds the primary job in flight: a
    primary that finished before the last submitter's request arrived
    would leave that job uncoalesced.  The hold lasts for the block."""
    landed = itertools.count(1)
    all_in = threading.Event()
    submit, execute = service.submit, service._execute

    def counted_submit(payload):
        status = submit(payload)
        if next(landed) == count:
            all_in.set()
        return status

    def held_execute(job):
        all_in.wait(timeout=60)
        return execute(job)

    service.submit = counted_submit
    service._execute = held_execute
    try:
        yield
    finally:
        del service.submit, service._execute


def _run_coalesced(address: str, config: dict) -> tuple[float,
                                                        list[float]]:
    """Submit COALESCE_JOBS identical optimize jobs concurrently.

    Submissions go through a barrier so all of them are in flight
    together (that is the scenario coalescing collapses)."""
    latencies = [0.0] * COALESCE_JOBS
    errors: list[str] = []
    barrier = threading.Barrier(COALESCE_JOBS)

    def one(index: int):
        client = ServiceClient(address)
        barrier.wait()
        started = time.perf_counter()
        try:
            # Relaxed poll: on a one-core box, 8 clients polling at
            # millisecond cadence would steal the GIL from the worker
            # actually computing the shared job.
            client.run("optimize", COALESCE_CIRCUIT, config=config,
                       poll_s=0.05)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"client {index}: {exc}")
        latencies[index] = time.perf_counter() - started

    threads = [threading.Thread(target=one, args=(index,))
               for index in range(COALESCE_JOBS)]
    wall0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall0
    assert not errors, errors[:3]
    return wall_s, latencies
