"""Sleep-policy optimizer benchmarks: candidate-sweep throughput.

Records ``BENCH_policy.json`` (see ``recorder.json_path``):

* ``candidate_sweep`` — >= 1000 candidate (domain plan, threshold)
  policies against the all-MTV c432 network at three PVT corners,
  evaluated as one batched pass, scalar vs numpy, plus the asserted
  speedup (``policies_per_s`` per backend).

Asserted floor: the numpy backend sustains **>= 2x** the scalar sweep
throughput.  The sweep is the ISSUE acceptance configuration — at
least 1000 candidates x three corners on c432 in one batched array
pass — and the scalar and numpy results are asserted bit-identical
here as well as in the unit suite.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

np = pytest.importorskip("numpy")

from recorder import json_path, record

from repro.benchcircuits.suite import load_circuit
from repro.liberty.library import VARIANT_MTV
from repro.netlist.techmap import technology_map
from repro.netlist.transform import swap_variant
from repro.placement.legalize import legalize
from repro.placement.placer import GlobalPlacer
from repro.policy.optimize import PolicyOptimizer
from repro.standby.scenario import resolve_scenario
from repro.vgnd.cluster import ClusterConfig, MtClusterer
from repro.vgnd.sizing import SwitchSizer

CANDIDATES = 1_000
CORNERS = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")
SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def policy_network(library):
    netlist = load_circuit("c432")
    technology_map(netlist, library)
    placement = GlobalPlacer(netlist, library).run()
    legalize(placement, netlist, library)
    mt_names = []
    for inst in list(netlist.instances.values()):
        cell = library.cell(inst.cell_name)
        if library.has_variant(cell, VARIANT_MTV):
            swap_variant(netlist, inst, library, VARIANT_MTV)
            mt_names.append(inst.name)
    # Small clusters => a many-cluster network, so the batched kernel
    # (not the scalar per-corner prologue) dominates the wall-clock.
    config = ClusterConfig(max_cells_per_switch=4,
                           max_rail_length_um=120.0)
    network = MtClusterer(netlist, library, placement,
                          config).build(mt_names)
    SwitchSizer(library, config.bounce_limit_v).size_network(network)
    return netlist, network


def _run(netlist, network, library, candidates, backend):
    scenarios = [resolve_scenario("mostly_idle"),
                 resolve_scenario("bursty"),
                 resolve_scenario("interactive")]
    optimizer = PolicyOptimizer(
        netlist, library, network, scenarios, corners=CORNERS,
        candidates=candidates, compute_backend=backend)
    started = time.perf_counter()
    result = optimizer.run()
    return result, time.perf_counter() - started


def test_bench_candidate_sweep(policy_network, library):
    netlist, network = policy_network

    # Warm both paths once (imports, corner memo, allocator), then
    # time the best of two — these are sub-second sweeps.
    _run(netlist, network, library, 16, "python")
    _run(netlist, network, library, 16, "numpy")
    scalar_result, scalar_s = min(
        (_run(netlist, network, library, CANDIDATES, "python")
         for _ in range(2)), key=lambda pair: pair[1])
    numpy_result, numpy_s = min(
        (_run(netlist, network, library, CANDIDATES, "numpy")
         for _ in range(2)), key=lambda pair: pair[1])

    assert scalar_result.candidates >= CANDIDATES
    assert scalar_result.corners == CORNERS
    assert dataclasses.replace(numpy_result,
                               compute_backend="python") == scalar_result
    swept = scalar_result.candidates
    speedup = scalar_s / numpy_s
    metrics = {
        "candidates": swept,
        "corners": len(CORNERS),
        "clusters": len(network.clusters),
        "pareto_points": len(scalar_result.pareto),
        "python_s": round(scalar_s, 4),
        "numpy_s": round(numpy_s, 4),
        "python_policies_per_s": round(swept / scalar_s, 1),
        "numpy_policies_per_s": round(swept / numpy_s, 1),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "bit_identical": True,
    }
    record("candidate_sweep", metrics, json_path("policy"))
    print(f"\ncandidate sweep x{swept}: scalar {scalar_s:.3f}s, "
          f"numpy {numpy_s:.3f}s ({speedup:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR
