"""One cold unit of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per unit, so no workspace, corner
memo, lowering cache, metrics registry or result store carries over
from one unit to the next.  The unit spec arrives as JSON on stdin; the
unit's measurements leave as one JSON object on the last stdout line.

A unit is either one Table 1 grid (``table1``) or one closed-loop round
of the seeded service mix (``service``).  Set-up time is counted from
the top of this script, so it includes importing the program.

Times are reported in *reference seconds*.  The unit process is pinned
to one CPU, where a :class:`SpeedProbe` samples how fast that CPU runs;
every measured interval is converted by the resulting
:class:`ReferenceClock`.  On a shared host the CPU speed drifts by tens
of percent within a minute; the conversion keeps most of that drift out
of the figures and leaves any change of the program's own speed in
them.
"""

import time

_T0 = time.perf_counter()

import bisect  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

TABLE1_CIRCUITS = ("circuitA", "circuitB")
TECHNIQUES = ("dual_vth", "conventional_smt", "improved_smt")

#: Every stage key of the three ``repro.core.stages.PIPELINES``; a fixed
#: list so the per-layer report carries the same names on every run.
STAGE_KEYS = (
    "physical_synthesis", "pre_route_estimation", "derive_constraints",
    "dual_vth_assignment", "conventional_smt_assignment",
    "improved_smt_assignment", "initial_switch_teardown", "eco_placement",
    "switch_structure", "routing_cts_mte", "spef_reoptimization",
    "eco_and_sta", "corner_signoff", "standby_signoff", "policy_signoff",
    "finalize",
)

#: Errors kept verbatim in a unit's output (the rest are only counted).
MAX_ERRORS = 5

#: Seconds between two speed probe samples.
PROBE_PERIOD_S = 0.05

#: Thread CPU seconds of one probe loop on the reference host; a
#: reference second is a second of a CPU running at that speed.
REF_PROBE_S = 0.0007


def _probe_loop() -> int:
    """Under a millisecond of integer arithmetic and small-object
    allocation, the two things the program's Python spends time on."""
    total = 0
    for index in range(5_000):
        total += index * index % 7
    items = [{"index": index, "pair": (index, index + 1)}
             for index in range(800)]
    return total + len(items)


class ReferenceClock:
    """Converts wall-clock intervals to reference seconds.

    Each probe sample gives the CPU's speed relative to the reference
    (a rolling mean over five samples); a wall interval is integrated
    over that speed curve.
    """

    def __init__(self, samples: list[tuple[float, float]]):
        if not samples:
            raise RuntimeError("the speed probe took no samples")
        self._times = [at for at, _ in samples]
        loops = [cpu_s for _, cpu_s in samples]
        self._rates = [REF_PROBE_S / statistics.fmean(loops[max(0, i - 2):
                                                            i + 3])
                       for i in range(len(loops))]
        self._cumulative = [0.0]
        for i in range(1, len(self._times)):
            self._cumulative.append(
                self._cumulative[-1]
                + (self._times[i] - self._times[i - 1]) * self._rates[i])

    def _at(self, t: float) -> float:
        i = bisect.bisect_left(self._times, t)
        if i == 0:
            return (t - self._times[0]) * self._rates[0]
        if i == len(self._times):
            return self._cumulative[-1] \
                + (t - self._times[-1]) * self._rates[-1]
        return self._cumulative[i - 1] \
            + (t - self._times[i - 1]) * self._rates[i]

    def __call__(self, start: float, end: float) -> float:
        """Reference seconds between two ``time.perf_counter`` values."""
        return self._at(end) - self._at(start)

    def speed(self) -> float:
        """Mean CPU speed over the unit, relative to the reference."""
        return statistics.fmean(self._rates)


class SpeedProbe:
    """Samples the speed of the CPU the unit process is pinned to.

    A side thread times a fixed pure-Python loop every
    :data:`PROBE_PERIOD_S` with its own thread CPU time, so waiting for
    the interpreter lock does not count: a sample grows only when the
    CPU runs slower.
    """

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-probe")

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            began = time.thread_time()
            _probe_loop()
            self._samples.append((time.perf_counter(),
                                  time.thread_time() - began))

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def close(self):
        self._stop.set()
        self._thread.join()

    def stop(self) -> ReferenceClock:
        """Stop sampling; the clock of the samples taken so far."""
        self.close()
        return ReferenceClock(self._samples)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host(backend: str) -> dict:
    from repro.compute import default_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "default_backend": default_backend(),
            "backend": backend}


def span_totals(records, clock: ReferenceClock) -> tuple[dict, float]:
    """Per span name: count, inclusive and self reference seconds.

    Self time is a span's duration minus its children's durations.
    Also returns the inclusive time of outermost ``signoff.*`` spans,
    so a batched signoff is not counted twice with its corners.
    """
    def duration(record):
        return clock(record.start_s, record.start_s + record.duration_s)

    totals: dict[str, dict] = {}
    signoff_s = 0.0
    stack = [(record, False) for record in records]
    while stack:
        record, in_signoff = stack.pop()
        entry = totals.setdefault(
            record.name, {"count": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["incl_s"] += duration(record)
        entry["self_s"] += duration(record) - sum(
            duration(child) for child in record.children)
        is_signoff = record.name.startswith("signoff.")
        if is_signoff and not in_signoff:
            signoff_s += duration(record)
        stack.extend((child, in_signoff or is_signoff)
                     for child in record.children)
    return totals, signoff_s


def hit_ratio(workspace_tree: dict) -> float:
    """Hits over lookups across every cache of one workspace."""
    hits = sum(cache["hits"] for cache in workspace_tree.values())
    lookups = hits + sum(cache["misses"] for cache in workspace_tree.values())
    return hits / lookups if lookups else 0.0


def layer_metrics(records, clock: ReferenceClock, *, hit_ratio_value: float,
                  latency_sum_s: float = 0.0,
                  counters: dict | None = None) -> dict:
    """The per-layer metrics of one traced unit, by their report names."""
    totals, signoff_s = span_totals(records, clock)
    zero = {"count": 0, "incl_s": 0.0, "self_s": 0.0}

    def get(name):
        return totals.get(name, zero)

    counters = counters or {}
    full, incremental = get("sta.full_run"), get("sta.incremental")
    sta_runs = full["count"] + incremental["count"]
    flows = get("api.flow")["count"]
    lower = get("compute.lower")
    job = get("service.job")
    metrics = {f"stage.{key}.s": get(f"stage.{key}")["incl_s"]
               for key in STAGE_KEYS}
    metrics.update({
        "sta.full_run.count": full["count"],
        "sta.full_run.self_s": full["self_s"],
        "sta.incremental.count": incremental["count"],
        "sta.incremental.self_s": incremental["self_s"],
        "sta.full_share": full["count"] / sta_runs if sta_runs else 0.0,
        "compute.lower.count": lower["count"],
        "compute.lower.self_s": lower["self_s"],
        "compute.lower.per_flow": lower["count"] / flows if flows else 0.0,
        "api.flow.count": flows,
        "workspace.hit_ratio": hit_ratio_value,
        "service.job.count": job["count"],
        "service.job.s": job["incl_s"],
        "service.submit_s": get("service.submit")["incl_s"],
        "service.wait_s": (latency_sum_s - job["incl_s"]
                           if latency_sum_s else 0.0),
        "service.coalesced": counters.get("service.coalesced", 0),
        "service.result_store_hits":
            counters.get("service.result_store_hits", 0),
        "resultstore.load.count": get("resultstore.load")["count"],
        "resultstore.load.s": get("resultstore.load")["incl_s"],
        "resultstore.store.count": get("resultstore.store")["count"],
        "resultstore.store.s": get("resultstore.store")["incl_s"],
        "signoff.s": signoff_s,
        "standby.run.count": get("standby.run")["count"],
        "standby.run.self_s": get("standby.run")["self_s"],
        "policy.optimize.count": get("policy.optimize")["count"],
        "policy.optimize.self_s": get("policy.optimize")["self_s"],
    })
    return metrics


def _timings(clock: ReferenceClock, setup_end: float,
             window: tuple[float, float], ops: list[tuple]) -> dict:
    """A unit's set-up, window and per-operation times, converted."""
    return {"setup_s": clock(_T0, setup_end),
            "wall_s": clock(*window),
            "raw_wall_s": window[1] - window[0],
            "speed": clock.speed(),
            "miss_latencies": [clock(a, b) for a, b, fresh in ops if fresh],
            "all_latencies": [clock(a, b) for a, b, _ in ops]}


# --- table1 -----------------------------------------------------------------


def fidelity(rows: list[dict]) -> dict:
    """Ours vs ``PAPER_TABLE1`` per SMT cell, and the mean gaps in
    percentage points of the Dual-Vth baseline."""
    from repro.experiments import PAPER_TABLE1

    ours = {(row["circuit"][-1], row["technique"]): row for row in rows}
    cells = []
    for (short, technique), paper in PAPER_TABLE1.items():
        if technique.value == "dual_vth":
            continue
        row = ours[(short, technique.value)]
        cells.append({"circuit": short, "technique": technique.value,
                      "paper_area_pct": paper["area"],
                      "area_pct": row["area_pct"],
                      "paper_leakage_pct": paper["leakage"],
                      "leakage_pct": row["leakage_pct"]})
    return {
        "cells": cells,
        "area_gap_pp": sum(abs(c["area_pct"] - c["paper_area_pct"])
                           for c in cells) / len(cells),
        "leak_gap_pp": sum(abs(c["leakage_pct"] - c["paper_leakage_pct"])
                           for c in cells) / len(cells),
    }


def table1_unit(spec: dict, probe: SpeedProbe) -> dict:
    """The six-flow Table 1 grid on a fresh workspace, one backend.

    Its latency samples are the two Table 1 rows: a circuit's three
    flows each, one after the other."""
    from repro import obs
    from repro.api import Workspace
    from repro.experiments import table1_config

    backend = spec["backend"]
    workspace = Workspace()
    workspace.library
    for circuit in TABLE1_CIRCUITS:
        workspace.netlist(circuit)
    setup_end = time.perf_counter()
    if spec["trace"]:
        obs.enable()
    rows, ops, errors = [], [], []
    start = time.perf_counter()
    for circuit in TABLE1_CIRCUITS:
        config = dataclasses.replace(table1_config(circuit),
                                     compute_backend=backend)
        design = workspace.design(circuit, config)
        began = time.perf_counter()
        for technique in TECHNIQUES:
            try:
                result = design.optimize(technique=technique)
            except Exception as exc:  # noqa: BLE001 — a failed flow is
                #                       counted, and the grid goes on
                errors.append(f"{circuit}/{technique}: "
                              f"{type(exc).__name__}: {exc}")
                continue
            rows.append({"circuit": circuit, "technique": technique,
                         "area_um2": result.area_um2,
                         "leakage_nw": result.leakage_nw,
                         "mt_cells": result.mt_cells,
                         "switches": result.switches,
                         "holders": result.holders})
        ops.append((began, time.perf_counter(), True))
    window = (start, time.perf_counter())
    rss_mb = _rss_mb()
    clock = probe.stop()
    obs.disable()
    layers = None
    if spec["trace"]:
        layers = layer_metrics(
            obs.take_records(), clock,
            hit_ratio_value=hit_ratio(workspace.stats_tree()["workspace"]))
    out = {**_timings(clock, setup_end, window, ops), "rss_mb": rss_mb,
           "attempted": len(TABLE1_CIRCUITS) * len(TECHNIQUES),
           "completed": len(rows), "failed": len(errors),
           "errors": errors[:MAX_ERRORS],
           "layers": layers, "host": _host(backend), "rows": rows}
    if not errors:
        for row in rows:
            base = next(r for r in rows if r["circuit"] == row["circuit"]
                        and r["technique"] == "dual_vth")
            row["area_pct"] = 100.0 * row["area_um2"] / base["area_um2"]
            row["leakage_pct"] = \
                100.0 * row["leakage_nw"] / base["leakage_nw"]
        out["fidelity"] = fidelity(rows)
    return out


# --- service ----------------------------------------------------------------


def _timed_result_store(directory):
    """A ``ResultStore`` whose load/store calls record benchmark spans."""
    from repro.api import ResultStore
    from repro.obs import span

    class TimedResultStore(ResultStore):
        def load(self, key):
            with span("resultstore.load"):
                return super().load(key)

        def store(self, key, payload):
            with span("resultstore.store"):
                return super().store(key, payload)

    return TimedResultStore(directory)


def _client_loop(client, requests: list[dict], poll_s: float,
                 outcomes: list):
    """One closed-loop client: submit, poll to a terminal state, fetch."""
    from repro.obs import span

    for request in requests:
        outcome = {"request": request, "payload": None, "error": None,
                   "began": time.perf_counter()}
        try:
            with span("service.submit"):
                job_id = client.submit(
                    request["kind"], request["circuit"],
                    config={"timing_margin": request["margin"]})
            status = client.wait(job_id, timeout=120.0, poll_s=poll_s)
            if status["status"] == "done":
                outcome["payload"] = client.result_payload(job_id)
            else:
                outcome["error"] = (f"job ended {status['status']}: "
                                    f"{status.get('error')}")
        except Exception as exc:  # noqa: BLE001 — an HTTP error left
            #                       after the client's retries fails only
            #                       this request; the loop goes on
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["ended"] = time.perf_counter()
        outcomes.append(outcome)


def _request_label(request: dict) -> str:
    return f"{request['kind']} {request['circuit']} @{request['margin']}"


def check_service_outcomes(outcomes_by_client: list[list]) -> list[str]:
    """Every payload round-trips, and every repeat returns its first
    answer; returns one error per failed request."""
    from repro.api import schemas

    errors = []
    for outcomes in outcomes_by_client:
        first: dict[tuple, dict] = {}
        for outcome in outcomes:
            request, payload = outcome["request"], outcome["payload"]
            if outcome["error"] is not None:
                errors.append(f"{_request_label(request)}: "
                              f"{outcome['error']}")
                continue
            try:
                faithful = schemas.check_round_trip(
                    schemas.from_dict(payload)) == payload
            except Exception as exc:  # noqa: BLE001 — any decode failure
                #                       is a wrong answer
                faithful = False
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            if not faithful:
                errors.append(f"{_request_label(request)}: payload does "
                              f"not round-trip {outcome['error'] or ''}")
                continue
            key = (request["kind"], request["circuit"], request["margin"])
            if request["fresh"]:
                first[key] = payload
            elif payload != first.get(key):
                errors.append(f"{_request_label(request)}: repeat differs "
                              f"from its first answer")
    return errors


def check_sample(outcomes_by_client: list[list]) -> list[str]:
    """The first fresh request of each client, recomputed through
    ``execute_kind`` on a fresh workspace, must equal what was served."""
    from repro.api import Workspace, schemas
    from repro.api.shards import execute_kind
    from repro.config import FlowConfig

    workspace = Workspace()
    errors = []
    for outcomes in outcomes_by_client:
        outcome = next(o for o in outcomes if o["request"]["fresh"])
        request = outcome["request"]
        design = workspace.design(
            request["circuit"], FlowConfig(timing_margin=request["margin"]))
        expected = schemas.check_round_trip(
            execute_kind(design, request["kind"], None))
        if outcome["payload"] != expected:
            errors.append(f"{_request_label(request)}: served payload "
                          f"differs from a fresh execute_kind")
    return errors


def service_unit(spec: dict, probe: SpeedProbe) -> dict:
    """One closed-loop round against an in-process job service."""
    from repro import obs
    from repro.api import JobService, ServiceClient, ServiceServer, Workspace
    from repro.compute import default_backend

    store_dir = tempfile.mkdtemp(prefix="store-", dir=spec["workdir"])
    workspace = Workspace()
    workspace.library
    service = JobService(workspace=workspace, workers=1,
                         result_store=_timed_result_store(store_dir)).start()
    server = ServiceServer(service)
    server_thread = threading.Thread(target=server.serve_forever,
                                     name="perfbench-server")
    server_thread.start()
    try:
        ServiceClient(server.address).health()
        setup_end = time.perf_counter()
        if spec["trace"]:
            obs.enable()
        outcomes_by_client = [[] for _ in spec["clients"]]
        clients = [
            threading.Thread(
                target=_client_loop,
                args=(ServiceClient(server.address), requests,
                      spec["poll_s"], outcomes),
                name=f"perfbench-client-{index}")
            for index, (requests, outcomes)
            in enumerate(zip(spec["clients"], outcomes_by_client))]
        start = time.perf_counter()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        window = (start, time.perf_counter())
        rss_mb = _rss_mb()
        clock = probe.stop()
        obs.disable()
        snapshot = ServiceClient(server.address).metrics()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        server_thread.join()
        shutil.rmtree(store_dir, ignore_errors=True)
    outcomes = [o for client in outcomes_by_client for o in client]
    ops = [(o["began"], o["ended"], o["request"]["fresh"]) for o in outcomes]
    errors = check_service_outcomes(outcomes_by_client)
    if spec["sample"] and not errors:
        errors += check_sample(outcomes_by_client)
    timings = _timings(clock, setup_end, window, ops)
    layers = None
    if spec["trace"]:
        layers = layer_metrics(
            obs.take_records(), clock,
            hit_ratio_value=hit_ratio(snapshot["caches"]["workspace"]),
            latency_sum_s=sum(timings["all_latencies"]),
            counters=snapshot["counters"])
    return {**timings, "rss_mb": rss_mb,
            "attempted": len(outcomes),
            "completed": sum(o["error"] is None for o in outcomes),
            "failed": len(errors), "errors": errors[:MAX_ERRORS],
            "layers": layers, "host": _host(default_backend())}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    unit = {"table1": table1_unit, "service": service_unit}[spec["kind"]]
    # Threads inherit the pin, so the probe shares the work's CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe().start()
    try:
        result = unit(spec, probe)
    finally:
        probe.close()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
