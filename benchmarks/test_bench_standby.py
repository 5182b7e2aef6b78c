"""Standby-engine benchmarks: scenario-batch throughput per backend.

Records ``BENCH_standby.json`` (see ``recorder.json_path``):

* ``scenario_batch`` — a large synthetic power-mode scenario grid
  (fixed + exponential idle distributions) evaluated against the
  all-MTV c432 VGND network, scalar vs numpy, plus the asserted
  speedup;
* ``signoff`` — the end-to-end three-corner standby signoff (the CI
  smoke configuration) wall-clock.

Asserted floor: the numpy backend sustains **>= 2x** the scalar
scenario-batch throughput on the 2k-scenario grid (measured ~5x; the
floor is conservative because the per-corner transient/scheduler
prologue is scalar on both paths).  Results are bit-identical — that
is asserted here too, not only in the unit suite.
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
from repro.standby.engine import StandbyEngine
from repro.standby.scenario import PowerModeScenario
from repro.vgnd.cluster import ClusterConfig, MtClusterer
from repro.vgnd.sizing import SwitchSizer

SCENARIO_COUNT = 2_000
SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def standby_network(library):
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


def scenario_grid(count: int) -> list[PowerModeScenario]:
    """A deterministic spread of duty cycles and idle regimes."""
    grid = []
    for i in range(count):
        idle = 100.0 * (1.0 + i)          # 100 ns .. 200 us
        distribution = "exponential" if i % 2 else "fixed"
        grid.append(PowerModeScenario(
            name=f"grid{i}", active_ns=1_000.0 + 10.0 * (i % 50),
            idle_ns=idle, distribution=distribution,
            quantile_points=32))
    return grid


def _run(netlist, network, library, scenarios, backend):
    engine = StandbyEngine(netlist, library, network, scenarios,
                           compute_backend=backend)
    started = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - started


def test_bench_scenario_batch(standby_network, library):
    netlist, network = standby_network
    scenarios = scenario_grid(SCENARIO_COUNT)

    # Warm both paths once (imports, allocator), then time the best
    # of two — these are sub-second kernels.
    _run(netlist, network, library, scenarios[:10], "python")
    _run(netlist, network, library, scenarios[:10], "numpy")
    scalar_result, scalar_s = min(
        (_run(netlist, network, library, scenarios, "python")
         for _ in range(2)), key=lambda pair: pair[1])
    numpy_result, numpy_s = min(
        (_run(netlist, network, library, scenarios, "numpy")
         for _ in range(2)), key=lambda pair: pair[1])

    assert dataclasses.replace(numpy_result,
                               compute_backend="python") == scalar_result
    speedup = scalar_s / numpy_s
    metrics = {
        "scenarios": SCENARIO_COUNT,
        "clusters": len(network.clusters),
        "python_s": round(scalar_s, 4),
        "numpy_s": round(numpy_s, 4),
        "python_scenarios_per_s": round(SCENARIO_COUNT / scalar_s, 1),
        "numpy_scenarios_per_s": round(SCENARIO_COUNT / numpy_s, 1),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "bit_identical": True,
    }
    record("scenario_batch", metrics, json_path("standby"))
    print(f"\nscenario batch x{SCENARIO_COUNT}: scalar {scalar_s:.3f}s, "
          f"numpy {numpy_s:.3f}s ({speedup:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR


def test_bench_three_corner_signoff(standby_network, library):
    """The CI smoke shape: built-ins x 3 corners, end to end."""
    from repro.standby.scenario import standard_scenarios

    netlist, network = standby_network
    scenarios = list(standard_scenarios().values())
    corners = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")
    started = time.perf_counter()
    result = StandbyEngine(netlist, library, network, scenarios,
                           corners=corners,
                           compute_backend="numpy").run()
    elapsed = time.perf_counter() - started
    record("signoff", {
        "scenarios": len(scenarios),
        "corners": len(corners),
        "clusters": result.clusters,
        "elapsed_s": round(elapsed, 4),
    }, json_path("standby"))
    print(f"\n3-corner signoff: {elapsed:.3f}s "
          f"({result.clusters} clusters)")
    assert len(result.outcomes) == len(scenarios) * len(corners)
