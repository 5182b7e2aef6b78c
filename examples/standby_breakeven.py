"""When does sleeping pay?  Break-even analysis of the improved SMT.

Runs the improved Selective-MT flow on c432 through the Workspace
facade, then asks the standby-transition engine the question Table 1
cannot answer: given the wake-up transients, the rush-current-bounded
wake-up schedule and the energy each sleep/wake cycle costs, how long
must an idle interval be before cutting the virtual grounds saves net
energy — nominally and at the hot corners where leakage explodes?

Run from the repo root::

    PYTHONPATH=src python examples/standby_breakeven.py
"""

from repro.api import StandbyRequest, Workspace
from repro.config import FlowConfig
from repro.standby.scenario import resolve_scenario
from repro.vgnd.report import render_standby_table


def main() -> int:
    workspace = Workspace(config=FlowConfig(timing_margin=0.12))
    result = workspace.design("c432").standby(StandbyRequest(
        corners=("tt_nom", "ss_1.08v_125c", "ff_1.32v_125c")))
    print(render_standby_table(result))

    print()
    nominal = result.corner_rows[0]
    print(f"Nominal break-even idle interval: "
          f"{nominal.break_even_ns / 1e3:.1f} us "
          f"(wake {nominal.wake_latency_ns:.3f} ns, "
          f"cycle energy {nominal.cycle_energy_pj:.3f} pJ).")
    for row in result.corner_rows[1:]:
        print(f"  at {row.corner}: break-even "
              f"{row.break_even_ns / 1e3:.1f} us — leakier silicon "
              f"pays for sleeping sooner.")

    # Walk one period of the frame-renderer scenario through the
    # controller state machine.
    scenario = resolve_scenario("periodic_frame")
    sleep_lat = max(tr.sleep_latency_ns for tr in result.transients)
    wake_lat = result.schedule.total_latency_ns
    print(f"\n{scenario.name}: duty {100 * scenario.duty_cycle:.1f}%, "
          f"one period = {scenario.active_ns / 1e6:.1f} ms active + "
          f"{scenario.idle_ns / 1e6:.1f} ms idle")
    period = scenario.active_ns + scenario.idle_ns
    for fraction in (0.05, 0.2, 0.5, 0.9999):
        t = fraction * period
        mode = scenario.mode_at(t, sleep_lat, wake_lat)
        print(f"  t = {t / 1e6:7.2f} ms -> {mode.value}")
    outcome = result.outcome(scenario.name, "tt_nom")
    print(f"  net savings over {scenario.horizon_ns / 1e9:.1f} s: "
          f"{outcome.net_savings_pj / 1e6:.3f} uJ "
          f"({100 * outcome.savings_fraction:.1f}% of the always-on "
          f"leakage energy)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
