"""Compute benchmarks: scalar full STA and numpy Monte-Carlo throughput.

Records ``BENCH_compute.json`` (see ``recorder.json_path``):

* ``sta_<n>`` — one scalar STA session on generated layered circuits
  of 1k / 10k / 50k instances: its cold report (structure build
  included) and one forced full propagation;
* ``mc_10k`` — Monte-Carlo samples/sec on the 10k-instance circuit
  with per-sample timing, scalar vs one batched array pass.

Asserted floor: the numpy backend sustains **>= 5x** the scalar
Monte-Carlo throughput on the 10k circuit, in the median of
:data:`MC_REPEATS` pairs run in alternating arm order; the section
records every repeat.  Design STA has no numpy arm: it runs on the
scalar session on every backend.
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
#: Scalar/numpy Monte-Carlo pairs; the arm that runs first alternates,
#: and the floor reads the median ratio.
MC_REPEATS = 3


def _generated(n_gates: int, library):
    config = GeneratorConfig(
        n_gates=n_gates, n_inputs=64, n_outputs=32, n_ffs=32,
        depth=max(12, n_gates // 400), seed=3)
    netlist = generate_circuit(f"bench{n_gates}", config)
    technology_map(netlist, library, VARIANT_LVT)
    return netlist


@pytest.fixture(scope="module")
def circuits(library):
    return {n: _generated(n, library) for n in SIZES}


@pytest.mark.parametrize("n_gates", SIZES)
def test_bench_full_sta(circuits, library, n_gates):
    netlist = circuits[n_gates]
    session = TimingSession(netlist, library,
                            Constraints(clock_period=CLOCK_PERIOD_NS))
    started = time.perf_counter()
    session.report()
    cold_s = time.perf_counter() - started
    # One full propagation, forced by dirtying every derate.
    session.set_derates({name: 1.0 + 1e-9 for name in netlist.instances})
    started = time.perf_counter()
    session.report()
    full_s = time.perf_counter() - started
    assert session.stats.full_runs == 2

    instances = len(netlist.instances)
    record(f"sta_{n_gates}", {
        "instances": instances,
        "scalar_cold_s": round(cold_s, 4),
        "scalar_full_s": round(full_s, 4),
        "scalar_inst_per_s": round(instances / full_s),
    }, path=json_path("compute"))


def test_bench_montecarlo_10k(circuits, library):
    netlist = circuits[10_000]
    constraints = Constraints(clock_period=CLOCK_PERIOD_NS)
    samples = 8
    mc = McConfig(samples=samples, seed=1, timing=True)

    engines = {
        "python": MonteCarloEngine(netlist, library, mc,
                                   constraints=constraints,
                                   compute_backend="python"),
        "numpy": MonteCarloEngine(netlist.clone(), library, mc,
                                  constraints=constraints,
                                  compute_backend="numpy"),
    }
    engines["numpy"].run(start=0, count=1)   # warm-up chunk (steady state)
    seconds: dict[str, list[float]] = {backend: [] for backend in engines}
    for repeat in range(MC_REPEATS):
        order = ("python", "numpy") if repeat % 2 == 0 \
            else ("numpy", "python")
        runs = {}
        for backend in order:
            started = time.perf_counter()
            runs[backend] = engines[backend].run()
            seconds[backend].append(time.perf_counter() - started)
        for a, b in zip(runs["python"], runs["numpy"]):
            assert b.leakage_nw == pytest.approx(a.leakage_nw, rel=1e-9)
            assert b.wns == pytest.approx(a.wns, rel=1e-9)

    speedups = [scalar / vector for scalar, vector
                in zip(seconds["python"], seconds["numpy"])]
    speedup = statistics.median(speedups)
    scalar_s = statistics.median(seconds["python"])
    vector_s = statistics.median(seconds["numpy"])
    record("mc_10k", {
        "instances": len(netlist.instances),
        "samples": samples,
        "scalar_s": round(scalar_s, 3),
        "numpy_s": round(vector_s, 3),
        "scalar_s_repeats": [round(each, 3) for each in seconds["python"]],
        "numpy_s_repeats": [round(each, 3) for each in seconds["numpy"]],
        "scalar_samples_per_s": round(samples / scalar_s, 2),
        "numpy_samples_per_s": round(samples / vector_s, 2),
        "speedup": round(speedup, 2),
        "speedups": [round(each, 2) for each in speedups],
    }, path=json_path("compute"))
    # Acceptance bar: one batched (samples x instances) pass beats k
    # sequential scalar re-propagations by at least 5x.  One pair read
    # 4.5x on a loaded host (7.7-12.9x on quiet ones), so the floor
    # reads the median of MC_REPEATS pairs with alternating arm order.
    assert speedup >= 5.0, \
        f"numpy MC speedup {speedup:.1f}x < 5x (pairs: {speedups})"
