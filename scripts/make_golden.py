"""Regenerate the golden regression fixtures in tests/golden/.

Run from the repo root::

    PYTHONPATH=src python scripts/make_golden.py

The fixtures freeze the paper-facing numbers (a Table 1 comparison for
c432 and s298, a Monte-Carlo percentile set for c432, and the standby
and sleep-policy payloads of circuitB) as produced by the **python**
reference backend.  The regression test asserts both
compute backends keep reproducing them, so kernel changes cannot
silently drift the reproduction.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.api import Workspace, schemas
from repro.api.studies import technique_comparison
from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig
from repro.experiments import table1_config
from repro.liberty.library import VARIANT_LVT
from repro.liberty.synth import build_default_library
from repro.netlist.techmap import technology_map
from repro.timing.constraints import Constraints
from repro.variation.montecarlo import McConfig, MonteCarloEngine, summarize

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "tests" / "golden"

#: Pinned knobs — mirrored by tests/golden/test_golden_regression.py.
TABLE1_CIRCUITS = ("c432", "s298")
TABLE1_CONFIG = dict(timing_margin=0.12, placement_seed=1)
MC_CIRCUIT = "c432"
MC_CLOCK_PERIOD_NS = 1.8
MC_CONFIG = dict(samples=48, seed=7, sigma_global_v=0.03,
                 sigma_local_v=0.015, timing=True)
STANDBY_CIRCUIT = "circuitB"
POLICY_CANDIDATES = 120


def table1_payload(library) -> dict:
    payload = {}
    workspace = Workspace(library=library)
    for circuit in TABLE1_CIRCUITS:
        comparison = technique_comparison(
            workspace.netlist(circuit), library,
            FlowConfig(compute_backend="python", **TABLE1_CONFIG),
            circuit_name=circuit, workspace=workspace)
        payload[circuit] = {
            row.technique.value: {
                "area_um2": row.area_um2,
                "leakage_nw": row.leakage_nw,
                "area_pct": row.area_pct,
                "leakage_pct": row.leakage_pct,
                "mt_cells": row.mt_cells,
                "switches": row.switches,
                "holders": row.holders,
            }
            for row in comparison.rows
        }
    return payload


def mc_payload(library) -> dict:
    netlist = load_circuit(MC_CIRCUIT)
    technology_map(netlist, library, VARIANT_LVT)
    engine = MonteCarloEngine(
        netlist, library, McConfig(**MC_CONFIG),
        constraints=Constraints(clock_period=MC_CLOCK_PERIOD_NS),
        compute_backend="python")
    stats = summarize(engine.run(),
                      leakage_budget_nw=2.0 * engine.nominal_leakage_nw)
    return {
        "circuit": MC_CIRCUIT,
        "clock_period_ns": MC_CLOCK_PERIOD_NS,
        "mc_config": MC_CONFIG,
        "nominal_leakage_nw": engine.nominal_leakage_nw,
        "nominal_wns": engine.nominal_wns,
        "statistics": schemas.to_dict(stats),
    }


def standby_policy_payload(library) -> dict:
    config = dataclasses.replace(table1_config(STANDBY_CIRCUIT),
                                 compute_backend="python")
    design = Workspace(library=library).design(STANDBY_CIRCUIT, config)
    return {
        "standby": schemas.to_dict(design.standby()),
        "policy": schemas.to_dict(
            design.policy(candidates=POLICY_CANDIDATES)),
    }


def main() -> int:
    library = build_default_library()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    table1 = GOLDEN_DIR / "table1_c432_s298.json"
    table1.write_text(json.dumps(table1_payload(library), indent=2,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {table1}")
    montecarlo = GOLDEN_DIR / "mc_percentiles_c432.json"
    montecarlo.write_text(json.dumps(mc_payload(library), indent=2,
                                     sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {montecarlo}")
    standby = GOLDEN_DIR / "standby_policy_circuitB.json"
    standby.write_text(json.dumps(standby_policy_payload(library), indent=2,
                                  sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {standby}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
