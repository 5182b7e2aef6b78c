"""Facade benchmark: warm Workspace-cached calls vs a cold study.

The acceptance bar for the ``repro.api`` redesign: a **warm**
``Design.analyze()`` through the facade must beat a cold-workspace
``table1_study`` single-circuit time by at least 3x.  (In practice the
gap is orders of magnitude — a warm analyze is a cache lookup, the
cold path is three full flows — but the floor pins the contract so a
regression that silently re-compiles state per call fails loudly.)

Also recorded: warm vs cold facade signoff on the same design, showing
the flow-result cache and the corner-derivation memo at work.  Everything lands
in ``BENCH_api.json`` via the shared recorder.
"""

from __future__ import annotations

import time

from repro.api import Workspace
from repro.api.studies import table1_study
from repro.experiments import table1_config

from recorder import json_path, record

CIRCUIT_SHORT = "A"
WARM_CALLS = 100


def _time(fn, repeat: int = 1) -> float:
    started = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - started) / repeat


def test_warm_facade_analyze_beats_cold_table1(library):
    cold_s = _time(lambda: table1_study(Workspace(library=library),
                                        circuits=(CIRCUIT_SHORT,)))

    workspace = Workspace(library=library,
                          config=table1_config(CIRCUIT_SHORT))
    design = workspace.design(f"circuit{CIRCUIT_SHORT}")
    first_analyze_s = _time(design.analyze)
    warm_s = _time(design.analyze, repeat=WARM_CALLS)

    speedup = cold_s / warm_s
    record("api_facade", {
        "circuit": f"circuit{CIRCUIT_SHORT}",
        "cold_table1_study_s": cold_s,
        "first_analyze_s": first_analyze_s,
        "warm_analyze_s": warm_s,
        "warm_analyze_speedup_x": speedup,
        "required_speedup_x": 3.0,
    }, path=json_path("api"))
    print(f"\ncold table1_study({CIRCUIT_SHORT}): {cold_s:.3f}s, "
          f"warm analyze: {warm_s * 1e6:.1f}us "
          f"({speedup:.0f}x)")
    assert speedup >= 3.0, (
        f"warm facade analyze must be >= 3x faster than a cold "
        f"table1_study, got {speedup:.2f}x")


def test_warm_signoff_reuses_flow_and_corner_caches(library):
    corners = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")
    workspace = Workspace(library=library,
                          config=table1_config(CIRCUIT_SHORT))
    design = workspace.design(f"circuit{CIRCUIT_SHORT}")
    cold_s = _time(lambda: design.signoff(corners=corners))
    warm_s = _time(lambda: design.signoff(corners=corners), repeat=10)
    # A second corner set re-evaluates but reuses the cached flow
    # result and the already-derived corner libraries.
    partial_s = _time(lambda: design.signoff(corners=corners[:2]))
    record("api_signoff", {
        "circuit": f"circuit{CIRCUIT_SHORT}",
        "cold_signoff_s": cold_s,
        "warm_signoff_s": warm_s,
        "warm_flow_new_corners_s": partial_s,
    }, path=json_path("api"))
    assert warm_s < cold_s
    # The flow dominates the cold signoff; with it cached, evaluating
    # a fresh corner subset must be much cheaper than the cold call.
    assert partial_s < cold_s / 2
