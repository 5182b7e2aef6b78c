"""Analytic RC transients of one VGND cluster's MTE transitions.

When a cluster's sleep switch turns **off** (sleep entry) the virtual
ground is pulled up toward Vdd by the residual subthreshold leakage of
the still-powered member logic, fought only by the switch's own off
leakage: the rail settles at the leakage-divider voltage

    V_standby = Vdd * I_up / (I_up + I_off)

with a charging time constant ``tau_sleep = C * (R_up || R_off)``.

When the switch turns back **on** (wake-up) the stored rail charge is
dumped through the switch on-resistance plus the rail resistance to
the farthest member::

    V(t)  = V_standby * exp(-t / tau_wake)
    I(t)  = V(t) / (Ron + R_rail)         # the rush current
    tau_wake = (Ron + R_rail) * C

The VGND node capacitance ``C`` is the rail wire capacitance (from
post-route :class:`~repro.routing.extract.NetParasitics` when
available, the per-um estimate otherwise) plus the drain junctions of
every member and of the switch itself.  All constants come from the
same :class:`~repro.device.mosfet.MosfetModel` /
:class:`~repro.device.process.Technology` the sizing and bounce
analyses use, so a corner-derived library yields corner-consistent
transients.

Internal units as everywhere: ns, pF, kOhm, mA, nW, um — conveniently,
kOhm x pF = ns and pF x V^2 = pJ.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping

from repro.device.mosfet import MosfetModel
from repro.errors import StandbyError
from repro.liberty.library import Library, VARIANT_LVT
from repro.netlist.core import Netlist
from repro.vgnd.bounce import rail_resistance_far
from repro.vgnd.network import VgndCluster, VgndNetwork


@dataclasses.dataclass(frozen=True)
class ClusterTransient:
    """The standby-transition characterization of one cluster."""

    cluster_index: int
    members: int
    switch_cell: str
    capacitance_pf: float       # VGND node cap (rail + drains)
    ron_kohm: float             # switch on-resistance
    rail_res_kohm: float        # rail resistance to the far member
    v_standby_v: float          # steady-state VGND voltage in sleep
    tau_wake_ns: float          # discharge time constant
    tau_sleep_ns: float         # charge time constant (0: no member
    #                             leakage, the rail never floats up)
    peak_rush_ma: float         # I(0+) on wake-up
    wake_latency_ns: float      # to VGND below the settle threshold
    sleep_latency_ns: float     # to within the threshold of V_standby
    energy_per_cycle_pj: float  # rail charge dump + MTE gate energy
    sleep_leakage_nw: float     # residual members + off switch
    active_leakage_nw: float    # members leaking like their LVT kin

    @property
    def leakage_savings_nw(self) -> float:
        """Leakage saved while this cluster sleeps."""
        return self.active_leakage_nw - self.sleep_leakage_nw


@dataclasses.dataclass(frozen=True)
class Waveform:
    """A sampled VGND voltage waveform (one MTE transition)."""

    times_ns: tuple[float, ...]
    volts: tuple[float, ...]

    def at(self, index: int) -> tuple[float, float]:
        return self.times_ns[index], self.volts[index]


def wake_waveform(transient: ClusterTransient, points: int = 64,
                  horizon_ns: float | None = None) -> Waveform:
    """The VGND discharge waveform after the MTE enable."""
    if points < 2:
        raise StandbyError("a waveform needs at least two points")
    if horizon_ns is None:
        horizon_ns = 6.0 * transient.tau_wake_ns
    times = [horizon_ns * i / (points - 1) for i in range(points)]
    tau = transient.tau_wake_ns
    volts = [transient.v_standby_v * math.exp(-t / tau) if tau > 0.0
             else 0.0 for t in times]
    return Waveform(times_ns=tuple(times), volts=tuple(volts))


def sleep_waveform(transient: ClusterTransient, points: int = 64,
                   horizon_ns: float | None = None) -> Waveform:
    """The VGND charge-up waveform after the MTE disable."""
    if points < 2:
        raise StandbyError("a waveform needs at least two points")
    tau = transient.tau_sleep_ns
    if horizon_ns is None:
        horizon_ns = 6.0 * tau if math.isfinite(tau) else 1.0
    times = [horizon_ns * i / (points - 1) for i in range(points)]
    if not math.isfinite(tau) or tau <= 0.0:
        volts = [0.0 for _ in times]
    else:
        volts = [transient.v_standby_v * (1.0 - math.exp(-t / tau))
                 for t in times]
    return Waveform(times_ns=tuple(times), volts=tuple(volts))


#: Default settle threshold, as a fraction of Vdd (see
#: :class:`TransientSolver`).
DEFAULT_SETTLE_FRACTION = 0.05


class TransientSolver:
    """Solves the sleep/wake transients of a sized VGND network.

    ``settle_fraction`` sets the settle threshold as a fraction of Vdd:
    wake-up is "settled" once VGND drops below ``fraction * Vdd`` (the
    point at which MT-cell delays are back within the characterized
    droop), and sleep entry once VGND is within ``fraction`` of its
    standby steady state.  ``parasitics`` may supply post-route VGND
    rail capacitance by net name (the SPEF-accurate refinement).
    """

    def __init__(self, network: VgndNetwork, netlist: Netlist,
                 library: Library,
                 settle_fraction: float = DEFAULT_SETTLE_FRACTION,
                 parasitics: Mapping[str, Any] | None = None):
        if not 0.0 < settle_fraction < 1.0:
            raise StandbyError(
                f"settle fraction must be in (0, 1), got "
                f"{settle_fraction!r}")
        self.network = network
        self.netlist = netlist
        self.library = library
        self.settle_fraction = settle_fraction
        self.parasitics = parasitics or {}
        self.tech = library.tech
        if self.tech is None:
            raise StandbyError("library carries no technology")
        self._switch_model = MosfetModel(self.tech, self.tech.vth_high,
                                         "nmos")

    # --- public -------------------------------------------------------------

    def solve(self) -> list[ClusterTransient]:
        """Every cluster's transient, in cluster-index order."""
        clusters = sorted(self.network.clusters, key=lambda c: c.index)
        return [self.solve_cluster(cluster) for cluster in clusters]

    def solve_cluster(self, cluster: VgndCluster) -> ClusterTransient:
        if not cluster.switch_cell:
            raise StandbyError(
                f"cluster {cluster.index} has no sized switch; run the "
                f"switch sizing before the standby analysis")
        tech = self.tech
        switch = self.library.cell(cluster.switch_cell)
        width = switch.switch_width_um
        ron = self._switch_model.on_resistance(width)
        rail_res = rail_resistance_far(cluster.rail_length_um, tech)
        cap = self._node_capacitance(cluster, width)

        # Leakage divider: members pull VGND up, the off switch down.
        i_up_ma = self._member_leak_ma(cluster)
        i_off_ma = self._switch_model.subthreshold_current(width)
        if i_up_ma > 0.0:
            v_standby = tech.vdd * i_up_ma / (i_up_ma + i_off_ma)
            r_up = tech.vdd / i_up_ma
            r_off = tech.vdd / i_off_ma if i_off_ma > 0.0 else math.inf
            if math.isfinite(r_off):
                r_parallel = r_up * r_off / (r_up + r_off)
            else:
                r_parallel = r_up
            tau_sleep = cap * r_parallel
            sleep_latency = tau_sleep * math.log(1.0 /
                                                 self.settle_fraction)
        else:
            v_standby = 0.0
            tau_sleep = 0.0
            sleep_latency = 0.0

        r_wake = ron + rail_res
        tau_wake = r_wake * cap
        peak_rush = v_standby / r_wake if r_wake > 0.0 else 0.0
        settle_v = self.settle_fraction * tech.vdd
        if v_standby > settle_v and tau_wake > 0.0:
            wake_latency = tau_wake * math.log(v_standby / settle_v)
        else:
            wake_latency = 0.0

        # One sleep/wake cycle dissipates the rail charge twice over
        # (charge up through the leakage divider, dump through the
        # switch) plus the MTE driver's switch-gate energy.
        energy = cap * v_standby * v_standby \
            + self._switch_model.gate_capacitance(width) \
            * tech.vdd * tech.vdd

        sleep_leak, active_leak = self._cluster_leakage(cluster, switch)
        return ClusterTransient(
            cluster_index=cluster.index,
            members=cluster.size,
            switch_cell=cluster.switch_cell,
            capacitance_pf=cap,
            ron_kohm=ron,
            rail_res_kohm=rail_res,
            v_standby_v=v_standby,
            tau_wake_ns=tau_wake,
            tau_sleep_ns=tau_sleep,
            peak_rush_ma=peak_rush,
            wake_latency_ns=wake_latency,
            sleep_latency_ns=sleep_latency,
            energy_per_cycle_pj=energy,
            sleep_leakage_nw=sleep_leak,
            active_leakage_nw=active_leak)

    # --- internals -----------------------------------------------------------

    def _node_capacitance(self, cluster: VgndCluster,
                          switch_width_um: float) -> float:
        """Rail wire cap plus member and switch drain junctions (pF)."""
        extracted = self.parasitics.get(cluster.net_name)
        if extracted is not None and \
                getattr(extracted, "total_cap_pf", None) is not None:
            rail_cap = extracted.total_cap_pf
        else:
            rail_cap = cluster.rail_length_um * self.tech.vgnd_cap_per_um
        cap = rail_cap + self._switch_model.drain_capacitance(
            switch_width_um)
        for name in cluster.members:
            inst = self.netlist.instances.get(name)
            if inst is None or inst.cell_name not in self.library:
                continue
            cell = self.library.cell(inst.cell_name)
            total_width = cell.area / self.tech.area_per_um_width
            if total_width > 0.0:
                cap += self._switch_model.drain_capacitance(total_width)
        return cap

    def _member_leak_ma(self, cluster: VgndCluster) -> float:
        """Powered-equivalent member leakage current into VGND (mA)."""
        total_nw = 0.0
        for name in cluster.members:
            inst = self.netlist.instances.get(name)
            if inst is None or inst.cell_name not in self.library:
                continue
            cell = self.library.cell(inst.cell_name)
            if cell.is_mt:
                cell = self.library.variant_of(cell, VARIANT_LVT)
            total_nw += cell.default_leakage_nw
        # nW -> mA at Vdd: 1 nW = 1e-6 mW.
        return total_nw * 1e-6 / self.tech.vdd

    def _cluster_leakage(self, cluster: VgndCluster,
                         switch) -> tuple[float, float]:
        """(sleeping, awake) leakage of the cluster in nW.

        Mirrors :class:`~repro.power.leakage.LeakageAnalyzer`: asleep,
        members contribute their MT residual and the switch its own
        subthreshold leakage; awake, members leak like their LVT
        siblings and the conducting switch contributes nothing.
        """
        sleep = switch.default_leakage_nw
        active = 0.0
        for name in cluster.members:
            inst = self.netlist.instances.get(name)
            if inst is None or inst.cell_name not in self.library:
                continue
            cell = self.library.cell(inst.cell_name)
            sleep += cell.default_leakage_nw
            lvt = self.library.variant_of(cell, VARIANT_LVT) \
                if cell.is_mt else cell
            active += lvt.default_leakage_nw
        return sleep, active
