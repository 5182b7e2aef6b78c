"""The repository benchmark: the paper's Table 1 flow and a service mix.

Run from the repository root::

    python3 perfbench/run.py --workload table1-python --seed 1 \\
        --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``table1-python`` / ``table1-numpy`` -- the full Table 1 grid:
  circuitA and circuitB x dual_vth / conventional_smt / improved_smt,
  six serial ``Design.optimize`` calls with each circuit's
  ``table1_config`` on a fresh ``Workspace``, on one compute backend.
  The grid is the paper's fixed input; the seed does not change it.
* ``service-mix`` -- a closed loop of two client threads against an
  in-process ``JobService`` (one worker, no shards, default backend,
  result store in a fresh directory) behind ``ServiceServer``.  For
  each round, the seed and the round index deal the 60 fresh requests
  (5 kinds x 4 circuits x 3 timing margins) between the clients, order
  them, and place one repeat of an earlier request of the same client
  after about every fresh one.  Every round sends the same fresh work,
  so rounds and seeds differ only in order and interleaving.

Each *unit* (one grid, or one 120-request round) runs in a fresh
interpreter (``unit.py``) pinned to one CPU, so nothing is warm between
units.  A run repeats units within ``--seconds`` and reports medians
over them.  Times are in reference seconds: ``unit.py`` samples the
speed of its CPU while the unit runs and converts every interval to a
CPU of fixed speed, so host speed drift mostly cancels (the host block
prints each unit's ``cpu_speed`` and raw wall time).

End-to-end metrics (``--trace 0``), all from untraced units; the
percentiles are taken per unit (nearest rank), then the median over
the run's units is reported:

* ``setup_s`` -- import + library build + netlist load (table1-*), or
  import + library + service start until ``/v1/health`` answers;
* ``ops_per_s`` -- completed operations per second of unit wall time:
  flows per second of the grid, or service requests per second;
* ``miss_p50_s`` -- median latency of operations that compute: the
  grid's two Table 1 rows (a circuit's three flows; nearest rank over
  two, so circuitB's row), or fresh requests from submit to result;
* ``req_p90_s`` -- p90 latency over all operations: circuitA's row, or
  all 120 requests of a round (12 samples lie beyond it);
* ``peak_rss_mb`` -- peak resident memory of the unit process.

Per-layer metrics (``--trace 1``) come from units run with ``repro.obs``
tracing on, alternating with untraced units; ``obs.overhead_ratio`` is
the traced unit wall time over the untraced one.  Failed or wrong
operations are the ``failed`` count of the result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNIT = HERE / "unit.py"
REFERENCE = HERE / "reference.json"

WORKLOADS = {
    "table1-python": {"kind": "table1", "backend": "python"},
    "table1-numpy": {"kind": "table1", "backend": "numpy"},
    "service-mix": {"kind": "service"},
}

SERVICE_KINDS = ("analyze", "optimize", "signoff", "standby", "policy")
SERVICE_CIRCUITS = ("c432", "c880", "s344", "s526")
SERVICE_MARGINS = (0.10, 0.15, 0.20)
SERVICE_CLIENTS = 2
#: Client status-poll interval; it floors the latency of a cache hit.
POLL_S = 0.02

#: A run stops starting units past this, so it ends within 180 s.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "miss_p50_s": "s", "req_p90_s": "s",
                    "peak_rss_mb": "MB"}

#: Relative tolerance of the Table 1 reference check (the cross-backend
#: equivalence contract of ``repro.compute``).
REL_TOL = 1e-9

#: Environment the program must not inherit: timed units run cold, with
#: tracing off and the backend left to ``default_backend()``.
CLEARED_ENV = ("REPRO_LOWER_CACHE", "REPRO_LOWER_CACHE_MAX",
               "REPRO_COMPUTE_BACKEND", "REPRO_RESULT_STORE",
               "REPRO_RESULT_STORE_MAX")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def service_requests(seed: int, round_index: int) -> list[list[dict]]:
    """Each client's request sequence for one round, generated from the
    seed and the round index alone."""
    rng = random.Random(f"{seed}/{round_index}")
    combos = [{"kind": kind, "circuit": circuit, "margin": margin}
              for circuit in SERVICE_CIRCUITS for margin in SERVICE_MARGINS
              for kind in SERVICE_KINDS]
    rng.shuffle(combos)
    clients = []
    for index in range(SERVICE_CLIENTS):
        dealt = combos[index::SERVICE_CLIENTS]
        fresh = iter(dealt)
        marks = [True] * (len(dealt) - 1) + [False] * len(dealt)
        rng.shuffle(marks)
        sent, sequence = [], []
        for is_fresh in [True] + marks:
            if is_fresh:
                sent.append(next(fresh))
                sequence.append({**sent[-1], "fresh": True})
            else:
                sequence.append({**rng.choice(sent), "fresh": False})
        clients.append(sequence)
    return clients


def child_env(root: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in CLEARED_ENV}
    env["REPRO_TRACE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return env


def run_unit(spec: dict, root: Path, deadline: float) -> dict:
    """Run one unit in a fresh interpreter and return its measurements."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a unit")
    try:
        proc = subprocess.run(
            [sys.executable, str(UNIT)], input=json.dumps(spec),
            capture_output=True, text=True, cwd=root,
            env=child_env(root), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"unit timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"unit exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_units(unit_spec, root: Path, seconds: float, trace: bool,
              deadline: float) -> list[dict]:
    """Repeat units for at most ``seconds``; with ``trace`` every second
    unit is traced.  A unit starts only if the longest unit so far still
    fits; a run has at least one unit, and one of each kind traced."""
    units: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        traced = trace and len(units) % 2 == 1
        unit = run_unit({**unit_spec(len(units)), "trace": traced,
                         "sample": not units}, root, deadline)
        unit["traced"] = traced
        units.append(unit)
        longest = max(longest, time.monotonic() - began)
        now = time.monotonic()
        if trace and len(units) < 2:
            continue
        if now - start + longest > seconds or now + longest >= deadline:
            return units


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(units: list[dict]) -> dict:
    plain = [unit for unit in units if not unit["traced"]]
    return {
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "ops_per_s": statistics.median(u["completed"] / u["wall_s"]
                                       for u in plain),
        "miss_p50_s": statistics.median(
            nearest_rank(u["miss_latencies"], 0.5) for u in plain),
        "req_p90_s": statistics.median(
            nearest_rank(u["all_latencies"], 0.9) for u in plain),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in plain),
    }


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".count", ".coalesced", "_hits")):
        return "count"
    return "ratio"


def per_layer(units: list[dict]) -> dict:
    traced = [unit for unit in units if unit["traced"]]
    plain = [unit for unit in units if not unit["traced"]]
    metrics = {name: statistics.median(u["layers"][name] for u in traced)
               for name in traced[0]["layers"]}
    metrics["obs.overhead_ratio"] = (
        statistics.median(u["wall_s"] for u in traced)
        / statistics.median(u["wall_s"] for u in plain))
    return metrics


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_table1(unit: dict, reference: dict) -> list[str]:
    """Rows must equal the recorded reference: counts exactly, floats
    within the cross-backend tolerance.  One error per wrong flow."""
    errors = []
    ours = {(row["circuit"], row["technique"]): row for row in unit["rows"]}
    for expected in reference["rows"]:
        key = (expected["circuit"], expected["technique"])
        row = ours.get(key)
        if row is None:
            continue  # the flow raised; the unit already counted it
        wrong = [field for field, value in expected.items()
                 if field not in ("circuit", "technique")
                 and not (row.get(field) == value
                          if isinstance(value, int)
                          else _close(row.get(field, math.nan), value))]
        if wrong:
            errors.append(f"{key[0]}/{key[1]}: {', '.join(wrong)} differ "
                          f"from reference")
    return errors


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_fidelity(fidelity: dict):
    print("fidelity: ours vs PAPER_TABLE1, % of the Dual-Vth baseline")
    print(f"  {'circuit':<8}{'technique':<18}{'area':>8}{'paper':>8}"
          f"{'leak':>8}{'paper':>8}")
    for cell in fidelity["cells"]:
        print(f"  {cell['circuit']:<8}{cell['technique']:<18}"
              f"{cell['area_pct']:8.2f}{cell['paper_area_pct']:8.2f}"
              f"{cell['leakage_pct']:8.2f}{cell['paper_leakage_pct']:8.2f}")
    print(f"  area_gap_pp {fidelity['area_gap_pp']:.4f} pp, "
          f"leak_gap_pp {fidelity['leak_gap_pp']:.4f} pp")


def record_reference(root: Path) -> int:
    """Record the Table 1 reference rows from the current code."""
    unit = run_unit({"kind": "table1", "backend": "python", "trace": False,
                     "sample": False}, root, time.monotonic() + RUN_LIMIT_S)
    if unit["failed"]:
        raise BenchError(f"grid failed: {unit['errors']}")
    fidelity = unit["fidelity"]
    REFERENCE.write_text(json.dumps({
        "commit": git_commit(root), "rows": unit["rows"],
        "area_gap_pp": fidelity["area_gap_pp"],
        "leak_gap_pp": fidelity["leak_gap_pp"]}, indent=1) + "\n")
    print_fidelity(fidelity)
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code")
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {root / 'src'}; run "
                         f"from the repository root")
    if args.record_reference:
        return record_reference(root)
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    workdir = root / ".perfbench"

    def unit_spec(index: int) -> dict:
        if workload["kind"] != "service":
            return dict(workload)
        return {**workload, "poll_s": POLL_S, "workdir": str(workdir),
                "clients": service_requests(args.seed, index)}

    if workload["kind"] == "service":
        workdir.mkdir(exist_ok=True)
    try:
        units = run_units(unit_spec, root, args.seconds, bool(args.trace),
                          started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(unit["attempted"] for unit in units)
    errors = [error for unit in units for error in unit["errors"]]
    failed = sum(unit["failed"] for unit in units)
    fidelity = None
    if workload["kind"] == "table1":
        reference = json.loads(REFERENCE.read_text())
        for unit in units:
            wrong = check_table1(unit, reference)
            errors += wrong
            failed += len(wrong)
        fidelity = units[0].get("fidelity")
    failed = min(failed, attempted)

    host = {**units[0]["host"], "commit": git_commit(root),
            "workload": args.workload, "seed": args.seed,
            "poll_s": POLL_S if workload["kind"] == "service" else None,
            "units": len(units),
            "traced_units": sum(unit["traced"] for unit in units),
            "cpu_speed": [round(unit["speed"], 3) for unit in units],
            "raw_wall_s": [round(unit["raw_wall_s"], 3) for unit in units]}
    print("host " + json.dumps(host, sort_keys=True))
    if fidelity is not None:
        print_fidelity(fidelity)
    for error in errors[:10]:
        print(f"FAILED {error}")
    values = per_layer(units) if args.trace else end_to_end(units)
    metrics = {}
    for name, value in values.items():
        unit = layer_unit(name) if args.trace else END_TO_END_UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:14.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
