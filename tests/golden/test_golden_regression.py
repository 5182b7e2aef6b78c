"""Golden regression fixtures: both backends reproduce frozen numbers.

``scripts/make_golden.py`` froze one Table 1 comparison (c432, s298),
one Monte-Carlo percentile set (c432) and the standby + sleep-policy
payloads of circuitB as produced by the python reference backend.
These tests assert that *both* compute backends keep reproducing them,
so a kernel change that silently drifts the paper's numbers fails CI
instead of shipping.

Tolerance: 1e-9 relative on continuous Table 1 / Monte-Carlo
quantities (the cross-backend equivalence contract); integer structure
counts (MT-cells, switches, holders) must match exactly — a drifted
slack that flips an assignment decision changes those first.  The
standby/policy payloads must match exactly (only the
``compute_backend`` stamp differs): their kernel is bit-identical
across backends.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.api import Workspace, schemas
from repro.api.studies import technique_comparison
from repro.benchcircuits.suite import load_circuit
from repro.compute import numpy_available
from repro.config import FlowConfig
from repro.experiments import table1_config
from repro.liberty.library import VARIANT_LVT
from repro.netlist.techmap import technology_map
from repro.timing.constraints import Constraints
from repro.variation.montecarlo import McConfig, MonteCarloEngine, summarize

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: Must mirror scripts/make_golden.py.
TABLE1_CONFIG = dict(timing_margin=0.12, placement_seed=1)
MC_CLOCK_PERIOD_NS = 1.8
MC_CONFIG = dict(samples=48, seed=7, sigma_global_v=0.03,
                 sigma_local_v=0.015, timing=True)
STANDBY_CIRCUIT = "circuitB"
POLICY_CANDIDATES = 120


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("circuit", ["c432", "s298"])
def test_table1_golden(circuit, backend, library):
    golden = load_golden("table1_c432_s298.json")[circuit]
    comparison = technique_comparison(
        load_circuit(circuit), library,
        FlowConfig(compute_backend=backend, **TABLE1_CONFIG),
        circuit_name=circuit)
    for row in comparison.rows:
        expected = golden[row.technique.value]
        for field in ("area_um2", "leakage_nw", "area_pct", "leakage_pct"):
            assert getattr(row, field) == pytest.approx(
                expected[field], rel=1e-9), \
                f"{circuit}/{row.technique.value}/{field} drifted " \
                f"on {backend}"
        for field in ("mt_cells", "switches", "holders"):
            assert getattr(row, field) == expected[field], \
                f"{circuit}/{row.technique.value}/{field} drifted " \
                f"on {backend}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_mc_percentiles_golden(backend, library):
    golden = load_golden("mc_percentiles_c432.json")
    netlist = load_circuit(golden["circuit"])
    technology_map(netlist, library, VARIANT_LVT)
    engine = MonteCarloEngine(
        netlist, library, McConfig(**MC_CONFIG),
        constraints=Constraints(clock_period=MC_CLOCK_PERIOD_NS),
        compute_backend=backend)
    assert engine.nominal_leakage_nw == pytest.approx(
        golden["nominal_leakage_nw"], rel=1e-9)
    assert engine.nominal_wns == pytest.approx(
        golden["nominal_wns"], rel=1e-9)
    stats = summarize(engine.run(),
                      leakage_budget_nw=2.0 * engine.nominal_leakage_nw)
    for key, expected in golden["statistics"].items():
        got = schemas.to_dict(stats)[key]
        if key == "samples":
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-9), \
                f"MC statistic {key} drifted on {backend}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_standby_policy_golden(backend, library):
    golden = load_golden("standby_policy_circuitB.json")
    config = dataclasses.replace(table1_config(STANDBY_CIRCUIT),
                                 compute_backend=backend)
    design = Workspace(library=library).design(STANDBY_CIRCUIT, config)
    # The JSON round trip turns tuples into lists, as in the fixture.
    got = json.loads(json.dumps({
        "standby": schemas.to_dict(design.standby()),
        "policy": schemas.to_dict(
            design.policy(candidates=POLICY_CANDIDATES)),
    }))
    for payload in (got, golden):
        for section in payload.values():
            section.pop("compute_backend")
    assert got == golden
