"""Virtual-ground network reports.

Rendering only: every dict-shaped payload these tables are built from
comes from the :mod:`repro.api.schemas` registry, never from ad-hoc
serialization — the "one serialization registry" invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.liberty.library import Library
from repro.vgnd.network import VgndNetwork

if TYPE_CHECKING:
    from repro.standby.engine import StandbyResult


def render_network_table(network: VgndNetwork, library: Library) -> str:
    """Per-cluster table plus roll-up (the CoolPower-style log)."""
    lines = [
        "VGND switch structure",
        f"{'cluster':>7} {'cells':>6} {'rail(um)':>9} {'I(mA)':>7} "
        f"{'switch':<12} {'Ron(kOhm)':>10} {'bounce(mV)':>11}",
    ]
    from repro.device.mosfet import MosfetModel

    tech = library.tech
    model = MosfetModel(tech, tech.vth_high, "nmos")
    for cluster in network.clusters:
        ron = 0.0
        if cluster.switch_cell:
            width = library.cell(cluster.switch_cell).switch_width_um
            ron = model.on_resistance(width)
        lines.append(
            f"{cluster.index:>7} {cluster.size:>6} "
            f"{cluster.rail_length_um:9.1f} {cluster.current_ma:7.3f} "
            f"{cluster.switch_cell or '-':<12} {ron:10.4f} "
            f"{cluster.bounce_v * 1e3:11.2f}")
    summary = network.summary()
    lines.append(
        f"total: {summary['clusters']:.0f} clusters, "
        f"{summary['mt_cells']:.0f} MT-cells, "
        f"switch width {network.total_switch_width(library):.1f} um, "
        f"switch leakage {network.total_switch_leakage_nw(library):.3f} nW, "
        f"worst bounce {summary['worst_bounce_v'] * 1e3:.2f} mV "
        f"(limit {summary['bounce_limit_v'] * 1e3:.2f} mV)")
    return "\n".join(lines)


def _fmt_ns(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:.1f}"


def render_standby_table(result: "StandbyResult") -> str:
    """The standby-transition signoff report, three tables deep:
    per-cluster transients, the staged wake-up schedule, and the
    (scenario x corner) savings grid."""
    lines = [
        f"Standby-transition signoff — {result.circuit} "
        f"({result.technique.value}, {result.clusters} clusters, "
        f"backend {result.compute_backend})",
        "",
        f"{'cluster':>7} {'cells':>6} {'C(pF)':>8} {'Vss(V)':>7} "
        f"{'tau_w(ns)':>10} {'rush(mA)':>9} {'wake(ns)':>9} "
        f"{'sleep(ns)':>10} {'E/cyc(pJ)':>10}",
    ]
    for tr in result.transients:
        lines.append(
            f"{tr.cluster_index:>7} {tr.members:>6} "
            f"{tr.capacitance_pf:8.4f} {tr.v_standby_v:7.3f} "
            f"{tr.tau_wake_ns:10.4f} {tr.peak_rush_ma:9.3f} "
            f"{tr.wake_latency_ns:9.4f} {tr.sleep_latency_ns:10.2f} "
            f"{tr.energy_per_cycle_pj:10.4f}")
    schedule = result.schedule
    lines.append(
        f"wake-up schedule: {schedule.bins} bin(s), budget "
        f"{schedule.budget_ma:.3f} mA, peak {schedule.peak_aggregate_ma:.3f}"
        f" mA, latency {schedule.total_latency_ns:.4f} ns "
        f"(serial {schedule.serial_latency_ns:.4f} ns)")
    for event in schedule.events:
        lines.append(
            f"  bin {event.bin_index}: cluster {event.cluster_index} "
            f"enables at {event.enable_ns:.4f} ns, settles at "
            f"{event.settle_ns:.4f} ns")
    lines.append("")
    lines.append(
        f"{'corner':<16} {'wake(ns)':>9} {'rush(mA)':>9} "
        f"{'E/cyc(pJ)':>10} {'dP(nW)':>9} {'break-even(ns)':>15}")
    for row in result.corner_rows:
        saved = row.active_leakage_nw - row.sleep_leakage_nw
        lines.append(
            f"{row.corner:<16} {row.wake_latency_ns:9.4f} "
            f"{row.peak_rush_ma:9.3f} {row.cycle_energy_pj:10.4f} "
            f"{saved:9.3f} {_fmt_ns(row.break_even_ns):>15}")
    lines.append("")
    lines.append(
        f"{'scenario':<16} {'corner':<16} {'events':>10} "
        f"{'net(pJ)':>12} {'of active':>10} {'sleep?':>7}")
    for outcome in result.outcomes:
        lines.append(
            f"{outcome.scenario:<16} {outcome.corner:<16} "
            f"{outcome.sleep_events:10.1f} "
            f"{outcome.net_savings_pj:12.2f} "
            f"{100.0 * outcome.savings_fraction:9.2f}% "
            f"{'yes' if outcome.worthwhile else 'no':>7}")
    return "\n".join(lines)
