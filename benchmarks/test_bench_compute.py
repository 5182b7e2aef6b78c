"""Compute-backend benchmarks: scalar vs numpy kernel throughput.

Records ``BENCH_compute.json`` (see ``recorder.json_path``):

* ``sta_<n>`` — one full STA propagation on generated layered circuits
  of 1k / 10k / 50k instances, three ways: scalar, numpy cold (first
  run, includes lowering the netlist into the array view) and numpy
  warm (view built — the steady state of any STA-in-the-loop use),
  plus ``numpy_lower_s``, one lowering pass alone; at 10k and 50k
  each time is the median of 3 repeats with alternating arm order,
  and ``repeats`` keeps the per-repeat lists;
* ``mc_10k`` — Monte-Carlo samples/sec on the 10k-instance circuit
  with per-sample timing, scalar vs one batched array pass.

Asserted floors: the numpy backend sustains **>= 5x** the scalar
Monte-Carlo throughput on the 10k circuit; at 10k and 50k instances
numpy keeps pace with scalar both warm and cold (lowering included).
"""

from __future__ import annotations

import statistics
import time

import pytest

np = pytest.importorskip("numpy")

from recorder import json_path, record

from repro.benchcircuits.generator import GeneratorConfig, generate_circuit
from repro.liberty.library import VARIANT_LVT
from repro.netlist.techmap import technology_map
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.variation.montecarlo import McConfig, MonteCarloEngine

SIZES = (1_000, 10_000, 50_000)
CLOCK_PERIOD_NS = 6.0
#: Repeats behind the wall-clock floors at n >= 10k (median, the arm
#: that runs first alternating).
LARGE_REPEATS = 3


def _generated(n_gates: int, library):
    config = GeneratorConfig(
        n_gates=n_gates, n_inputs=64, n_outputs=32, n_ffs=32,
        depth=max(12, n_gates // 400), seed=3)
    netlist = generate_circuit(f"bench{n_gates}", config)
    technology_map(netlist, library, VARIANT_LVT)
    return netlist


def _full_sta_seconds(session: TimingSession) -> float:
    """One full propagation, forced by dirtying every derate."""
    session.set_derates({name: 1.0 + 1e-9 for name in
                         session.netlist.instances})
    started = time.perf_counter()
    session.report()
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def circuits(library):
    return {n: _generated(n, library) for n in SIZES}


def _scalar_arm(netlist, library, constraints):
    session = TimingSession(netlist, library, constraints,
                            compute_backend="python")
    started = time.perf_counter()
    report = session.report()
    cold_s = time.perf_counter() - started
    return report, {"scalar_cold_s": cold_s,
                    "scalar_full_s": _full_sta_seconds(session)}


def _numpy_arm(netlist, library, constraints):
    vector = TimingSession(netlist.clone(), library, constraints,
                           compute_backend="numpy")
    started = time.perf_counter()
    report = vector.report()
    cold_s = time.perf_counter() - started
    warm_s = _full_sta_seconds(vector)
    # Lowering alone: one more pass over the session's built view.
    started = time.perf_counter()
    vector._view._rebuild_arrays()
    lower_s = time.perf_counter() - started
    return report, {"numpy_cold_s": cold_s,
                    "numpy_lower_s": lower_s,
                    "numpy_full_s": warm_s}


@pytest.mark.parametrize("n_gates", SIZES)
def test_bench_full_sta(circuits, library, n_gates):
    netlist = circuits[n_gates]
    constraints = Constraints(clock_period=CLOCK_PERIOD_NS)
    # At scale the floors below compare wall-clocks, so they read the
    # median of LARGE_REPEATS repeats with alternating arm order.
    repeats = LARGE_REPEATS if n_gates >= 10_000 else 1
    runs: dict[str, list[float]] = {}
    for repeat in range(repeats):
        arms = [
            ("scalar", lambda: _scalar_arm(netlist, library, constraints)),
            ("numpy", lambda: _numpy_arm(netlist, library, constraints)),
        ]
        if repeat % 2:
            arms.reverse()
        reports = {}
        for name, arm in arms:
            reports[name], seconds = arm()
            for key, value in seconds.items():
                runs.setdefault(key, []).append(value)
        assert reports["numpy"].wns \
            == pytest.approx(reports["scalar"].wns, rel=1e-9)
    median = {key: statistics.median(values)
              for key, values in runs.items()}

    instances = len(netlist.instances)
    record(f"sta_{n_gates}", {
        "instances": instances,
        **{key: round(value, 4) for key, value in median.items()},
        "scalar_inst_per_s": round(instances / median["scalar_full_s"]),
        "numpy_inst_per_s": round(instances / median["numpy_full_s"]),
        "warm_speedup": round(
            median["scalar_full_s"] / median["numpy_full_s"], 2),
        "repeats": {key: [round(value, 4) for value in values]
                    for key, values in runs.items()},
    }, path=json_path("compute"))
    # At scale, warm numpy full runs must at least keep pace with
    # scalar ones (the real bar is the batched Monte-Carlo case
    # below), and so must the numpy COLD start, lowering included.
    if n_gates >= 10_000:
        assert median["numpy_full_s"] < median["scalar_full_s"], runs
        assert median["numpy_cold_s"] <= median["scalar_cold_s"], \
            f"numpy cold {median['numpy_cold_s']:.2f}s > " \
            f"scalar cold {median['scalar_cold_s']:.2f}s ({runs})"


def test_bench_montecarlo_10k(circuits, library):
    netlist = circuits[10_000]
    constraints = Constraints(clock_period=CLOCK_PERIOD_NS)
    samples = 8
    mc = McConfig(samples=samples, seed=1, timing=True)

    scalar = MonteCarloEngine(netlist, library, mc,
                              constraints=constraints,
                              compute_backend="python")
    started = time.perf_counter()
    scalar_samples = scalar.run()
    scalar_s = time.perf_counter() - started

    vector = MonteCarloEngine(netlist.clone(), library, mc,
                              constraints=constraints,
                              compute_backend="numpy")
    vector.run(start=0, count=1)   # build the view once (steady state)
    started = time.perf_counter()
    vector_samples = vector.run()
    vector_s = time.perf_counter() - started

    for a, b in zip(scalar_samples, vector_samples):
        assert b.leakage_nw == pytest.approx(a.leakage_nw, rel=1e-9)
        assert b.wns == pytest.approx(a.wns, rel=1e-9)

    speedup = scalar_s / vector_s
    record("mc_10k", {
        "instances": len(netlist.instances),
        "samples": samples,
        "scalar_s": round(scalar_s, 3),
        "numpy_s": round(vector_s, 3),
        "scalar_samples_per_s": round(samples / scalar_s, 2),
        "numpy_samples_per_s": round(samples / vector_s, 2),
        "speedup": round(speedup, 2),
    }, path=json_path("compute"))
    # Acceptance bar: one batched (samples x instances) pass beats k
    # sequential scalar re-propagations by at least 5x.
    assert speedup >= 5.0, f"numpy MC speedup {speedup:.1f}x < 5x"
