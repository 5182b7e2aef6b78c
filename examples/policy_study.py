"""Trace-driven sleep-policy study through the Workspace facade.

Reads the three example idle traces (``examples/traces/``), reduces
each to an empirical scenario, and sweeps domain-plan x threshold
candidates on c432 at three PVT corners in one batched pass.  Prints
the Pareto front of net standby savings vs worst-case wake latency vs
peak wake rush, plus a seeded bootstrap band showing how stable the
bursty trace's quantile grid is.

Run with ``PYTHONPATH=src python examples/policy_study.py``.
"""

import pathlib

from repro.api import PolicyRequest, Workspace
from repro.config import FlowConfig
from repro.policy.traces import confidence_band, load_trace, trace_scenario

TRACES = pathlib.Path(__file__).resolve().parent / "traces"
CORNERS = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")


def main() -> int:
    # Small clusters give c432 a multi-cluster network worth grouping
    # into power domains (the default clustering yields one cluster).
    workspace = Workspace(config=FlowConfig(max_cells_per_switch=4,
                                            max_rail_length_um=120.0))

    payloads = []
    for path in sorted(TRACES.iterdir()):
        trace = load_trace(path)
        scenario = trace_scenario(trace, active_ns=trace.active_ns
                                  or 400.0)
        payloads.append(scenario)
        print(f"{trace.name:11s}: {len(trace.intervals_ns)} idle "
              f"intervals -> {len(scenario.points)}-point grid, "
              f"mean idle {scenario.idle_ns:,.0f} ns")

    band = confidence_band(load_trace(TRACES / "bursty.trace"))
    worst = max(h - l for l, h in zip(band.low_ns, band.high_ns))
    print(f"bursty bootstrap ({band.resamples} resamples, seed "
          f"{band.seed}): widest {band.confidence:.0%} quantile band "
          f"{worst:,.0f} ns\n")

    request = PolicyRequest(scenario_payloads=tuple(payloads),
                            corners=CORNERS, candidates=512)
    result = workspace.design("c432").policy(request)
    print(result.render())

    best = result.best
    print(f"\nRecommended policy #{best.policy_id} ({best.plan}): "
          f"{best.sleeping_domains}/{len(best.domains)} domains sleep, "
          f"net {best.net_savings_pj:,.1f} pJ over the horizon at "
          f"{best.worst_wake_latency_ns:,.2f} ns worst wake / "
          f"{best.peak_rush_ma:,.2f} mA peak rush")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
