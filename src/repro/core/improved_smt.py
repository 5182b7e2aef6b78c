"""Improved Selective-MT construction (Fig. 3, this paper).

The stages mirror Fig. 4's middle boxes:

1. Vth assignment with MT-cells (without VGND ports) as the fast class
   — literally the conventional technique's step
   (:func:`~repro.core.selective_mt.assign_mt`; in the flow, the
   ``mt_assignment`` step both Selective-MT techniques share);
2. every remaining MT-cell is swapped to its VGND-port variant
   ("replacing MT-cells(without VGND ports) by the ones(with VGND
   ports)");
3. one switch transistor is inserted and every VGND port connects to
   its drain ("one switch transistor is added, and all VGND ports at
   the MT-cells are connected to the drain of the switch transistor for
   generating an initial switch transistor structure");
4. output holders are inserted only where an MT output feeds powered
   logic;
5. the back-end optimizer (our CoolPower substitute,
   :mod:`repro.vgnd`) replaces the single initial switch with sized
   per-cluster switches honouring bounce / wire length / EM limits.

Stages 2-5 edit the netlist directly: they run after the assignment's
last timing probe.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.config import FlowConfig
from repro.core.dual_vth import AssignmentResult
from repro.core.output_holder import insert_output_holders
from repro.core.selective_mt import assign_mt
from repro.errors import FlowError
from repro.liberty.library import Library, VARIANT_MTV
from repro.netlist.core import Netlist, PinDirection
from repro.netlist.transform import swap_variant
from repro.placement.placer import Placement, place_incremental
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.vgnd.cluster import ClusterConfig, MtClusterer
from repro.vgnd.network import VgndNetwork
from repro.vgnd.sizing import SwitchSizer


@dataclasses.dataclass
class ImprovedSmtResult:
    """Outcome of the improved Selective-MT construction."""

    assignment: AssignmentResult
    mt_cell_names: list[str]
    holder_names: list[str]
    network: VgndNetwork

    @property
    def mt_count(self) -> int:
        return len(self.mt_cell_names)

    @property
    def holder_count(self) -> int:
        return len(self.holder_names)


class ImprovedSmtBuilder:
    """Builds an improved Selective-MT circuit in place on ``netlist``.

    Its stages are the structural ones (VGND ports, switches, holders)
    on an MT assignment; a standalone :meth:`run` runs that assignment
    first.  The switch structure honours ``config``'s §3 limits:
    bounce, rail length, cells per switch and the simultaneity model.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 placement: Placement, config: FlowConfig | None = None):
        self.netlist = netlist
        self.library = library
        self.placement = placement
        config = config or FlowConfig()
        self.cluster_config = ClusterConfig(
            bounce_limit_v=config.bounce_limit_v(self.library.tech.vdd),
            max_rail_length_um=config.max_rail_length_um,
            max_cells_per_switch=config.max_cells_per_switch,
            simultaneity_exponent=config.simultaneity_exponent,
            simultaneity_floor=config.simultaneity_floor)

    # --- stages ---------------------------------------------------------------

    def convert(self, assignment: AssignmentResult
                ) -> tuple[list[str], str | None, list[str]]:
        """Stages 2-4 on the MT assignment; returns the MT-cell names,
        the initial switch (``None`` without MT-cells) and the
        holders."""
        mt_names = self.add_vgnd_ports(assignment)
        initial_switch = self.insert_initial_switch(mt_names)
        return mt_names, initial_switch, self.insert_holders()

    def add_vgnd_ports(self, assignment: AssignmentResult) -> list[str]:
        """Stage 2: swap MT -> MTV (adds the VGND pin)."""
        mt_names = []
        for name in assignment.fast_instances:
            inst = self.netlist.instances[name]
            cell = self.library.cell(inst.cell_name)
            if not self.library.has_variant(cell, VARIANT_MTV):
                continue  # sequential cells stay on true ground
            swap_variant(self.netlist, inst, self.library, VARIANT_MTV)
            mt_names.append(name)
        return mt_names

    def insert_initial_switch(self, mt_names: list[str]) -> str | None:
        """Stage 3: one switch, all VGND ports on its drain."""
        if not mt_names:
            return None
        if "MTE" not in self.netlist.ports:
            self.netlist.add_input("MTE")
        mte_net = self.netlist.net("MTE")
        switches = self.library.switch_cells()
        if not switches:
            raise FlowError("library has no switch cells")
        switch_cell = switches[-1]  # the initial structure is one big switch
        name = self.netlist.unique_name("vgnd_switch_init")
        vgnd_net = self.netlist.get_or_create_net("vgnd_all")
        inst = self.netlist.add_instance(name, switch_cell.name)
        self.netlist.connect(inst, "VGND", vgnd_net, PinDirection.INOUT,
                             keeper=True)
        self.netlist.connect(inst, "MTE", mte_net, PinDirection.INPUT)
        for mt_name in mt_names:
            mt_inst = self.netlist.instances[mt_name]
            vgnd_pin = mt_inst.pins.get("VGND")
            if vgnd_pin is not None and vgnd_pin.net is None:
                self.netlist.connect(mt_inst, "VGND", vgnd_net,
                                     PinDirection.INOUT, keeper=True)
        xs = [self.placement.location(n)[0] for n in mt_names]
        ys = [self.placement.location(n)[1] for n in mt_names]
        place_incremental(self.placement, self.netlist, self.library, name,
                          (statistics.fmean(xs), statistics.fmean(ys)))
        return name

    def insert_holders(self) -> list[str]:
        """Stage 4: output holders on MT-region boundaries only."""
        holders = insert_output_holders(self.netlist, self.library)
        for holder_name in holders:
            inst = self.netlist.instances[holder_name]
            z_net = inst.pin("Z").net
            near = (0.0, 0.0)
            if z_net is not None and z_net.driver is not None:
                near = self.placement.location(z_net.driver.instance.name)
            place_incremental(self.placement, self.netlist, self.library,
                              holder_name, near)
        return holders

    def teardown_initial_switch(self, mt_names: list[str],
                                initial_switch: str | None):
        """Remove the transient single-switch structure (pre-cluster)."""
        if initial_switch is None:
            return
        for mt_name in mt_names:
            inst = self.netlist.instances[mt_name]
            pin = inst.pins.get("VGND")
            if pin is not None and pin.net is not None:
                self.netlist.disconnect(pin)
        old_net = self.netlist.nets.get("vgnd_all")
        if initial_switch in self.netlist.instances:
            self.netlist.remove_instance(initial_switch)
        self.placement.locations.pop(initial_switch, None)
        if old_net is not None:
            self.netlist.remove_net_if_dangling(old_net)

    def build_switch_structure(self, mt_names: list[str],
                               initial_switch: str | None = None
                               ) -> VgndNetwork:
        """Stage 5: cluster, insert per-cluster switches, size them."""
        self.teardown_initial_switch(mt_names, initial_switch)

        clusterer = MtClusterer(self.netlist, self.library, self.placement,
                                self.cluster_config)
        network = clusterer.build(mt_names)
        sizer = SwitchSizer(self.library,
                            self.cluster_config.bounce_limit_v)
        sizer.size_network(network)

        mte_net = self.netlist.net("MTE")
        for cluster in network.clusters:
            vgnd_net = self.netlist.get_or_create_net(cluster.net_name)
            switch_name = self.netlist.unique_name(
                f"vgnd_switch_{cluster.index}")
            inst = self.netlist.add_instance(switch_name,
                                             cluster.switch_cell)
            self.netlist.connect(inst, "VGND", vgnd_net, PinDirection.INOUT,
                                 keeper=True)
            self.netlist.connect(inst, "MTE", mte_net, PinDirection.INPUT)
            cluster.switch_instance = switch_name
            place_incremental(self.placement, self.netlist, self.library,
                              switch_name, cluster.centroid)
            for member in cluster.members:
                mt_inst = self.netlist.instances[member]
                pin = mt_inst.pins.get("VGND")
                if pin is not None:
                    if pin.net is not None:
                        self.netlist.disconnect(pin)
                    self.netlist.connect(mt_inst, "VGND", vgnd_net,
                                         PinDirection.INOUT, keeper=True)
        return network

    # --- orchestration -----------------------------------------------------------

    def run(self, constraints: Constraints) -> ImprovedSmtResult:
        """Stage 1 under ``constraints``, then stages 2-5."""
        assignment = assign_mt(
            TimingSession(self.netlist, self.library, constraints))
        mt_names, initial_switch, holders = self.convert(assignment)
        network = self.build_switch_structure(mt_names,
                                              initial_switch=initial_switch)
        return ImprovedSmtResult(
            assignment=assignment,
            mt_cell_names=mt_names,
            holder_names=holders,
            network=network)
