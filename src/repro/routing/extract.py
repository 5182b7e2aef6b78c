"""Parasitic extraction: pre-route estimates and post-route trees.

Both extractors produce ``{net name: NetParasitics}``; STA consumes
them through :class:`~repro.timing.delay.NetModel`.

**Pre-route** (:class:`PreRouteEstimator`): net length is the placement
bounding-box half-perimeter times a routing detour factor times a
*deterministic pseudo-random error factor* derived from the net name.
This models the estimation error the paper calls out ("there is an
error when compared with the precise RC information which is generated
after routing") — and makes the post-SPEF switch re-optimization step
do real work.

**Post-route** (:class:`PostRouteExtractor`): a rectilinear spanning
tree over the net's pins is "routed"; wire R/C distribute along tree
edges and per-sink delays come from Elmore analysis.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.device.process import Technology
from repro.liberty.library import Library
from repro.netlist.core import Net, Netlist
from repro.placement.metrics import net_bbox
from repro.placement.placer import Placement
from repro.routing.elmore import RcTree
from repro.routing.steiner import SteinerTree, build_mst


@dataclasses.dataclass
class NetParasitics:
    """Extracted parasitics of one net."""

    net_name: str
    total_cap_pf: float
    total_res_kohm: float
    length_um: float
    sink_delays: dict[str, float] = dataclasses.field(default_factory=dict)

    def sink_delay(self, sink_name: str) -> float:
        """Wire delay (ns) to a sink pin (``inst/pin`` or ``__port__/p``)."""
        return self.sink_delays.get(sink_name, 0.0)


def _name_error_factor(net_name: str, spread: float = 0.2) -> float:
    """Deterministic per-net estimation error in [1-spread, 1+spread]."""
    digest = hashlib.sha256(net_name.encode("utf-8")).digest()
    fraction = digest[0] / 255.0
    return 1.0 - spread + 2.0 * spread * fraction


def _pin_cap(library: Library, pin) -> float:
    cell = library.cells.get(pin.instance.cell_name)
    if cell is None:
        return 0.0
    lib_pin = cell.pins.get(pin.name)
    return lib_pin.capacitance if lib_pin is not None else 0.0


class PreRouteEstimator:
    """Bounding-box wire estimates with controlled error."""

    #: Router detour over the HPWL lower bound.
    DETOUR = 1.15

    def __init__(self, netlist: Netlist, placement: Placement,
                 library: Library, tech: Technology | None = None,
                 error_spread: float = 0.1):
        self.netlist = netlist
        self.placement = placement
        self.library = library
        self.tech = tech or library.tech
        self.error_spread = error_spread

    def extract(self) -> dict[str, NetParasitics]:
        result: dict[str, NetParasitics] = {}
        for net in self.netlist.nets.values():
            parasitic = self._extract_net(net)
            if parasitic is not None:
                result[net.name] = parasitic
        return result

    @staticmethod
    def _fanout_factor(pin_count: int) -> float:
        """Steiner-length over HPWL correction for multi-pin nets.

        A k-pin net's tree length grows roughly with sqrt(k) relative
        to its bounding box half-perimeter; 2-3 pin nets equal HPWL.
        """
        if pin_count <= 3:
            return 1.0
        return max(1.0, 0.53 * pin_count ** 0.5)

    def _extract_net(self, net: Net) -> NetParasitics | None:
        bbox = net_bbox(net, self.placement)
        if bbox is None:
            return None
        x0, y0, x1, y1 = bbox
        hpwl = (x1 - x0) + (y1 - y0)
        pin_count = net.fanout() + 1
        length = hpwl * self.DETOUR * self._fanout_factor(pin_count) \
            * _name_error_factor(net.name, self.error_spread)
        res = length * self.tech.wire_res_per_um
        cap = length * self.tech.wire_cap_per_um
        # Star approximation: every sink sees half the wire RC plus its
        # own pin load through the full resistance.
        sink_delays: dict[str, float] = {}
        for pin in net.sinks:
            pin_cap = _pin_cap(self.library, pin)
            sink_delays[pin.full_name] = 0.69 * res * (0.5 * cap + pin_cap)
        for port in net.sink_ports:
            sink_delays[f"__port__/{port.name}"] = 0.69 * res * 0.5 * cap
        return NetParasitics(net.name, cap, res, length, sink_delays)


class PostRouteExtractor:
    """Tree-accurate extraction after 'routing' (MST topology)."""

    def __init__(self, netlist: Netlist, placement: Placement,
                 library: Library, tech: Technology | None = None):
        self.netlist = netlist
        self.placement = placement
        self.library = library
        self.tech = tech or library.tech

    def extract(self) -> dict[str, NetParasitics]:
        result: dict[str, NetParasitics] = {}
        for net in self.netlist.nets.values():
            parasitic = self._extract_net(net)
            if parasitic is not None:
                result[net.name] = parasitic
        return result

    def route_net(self, net: Net) -> SteinerTree | None:
        """The spanning-tree 'route' of one net (driver-rooted)."""
        names: list[str] = []
        points: list[tuple[float, float]] = []
        if net.driver is not None:
            names.append(net.driver.full_name)
            points.append(self.placement.location(net.driver.instance.name))
        elif net.driver_port is not None:
            names.append(f"__port__/{net.driver_port.name}")
            points.append(self.placement.port_locations[net.driver_port.name])
        else:
            return None
        for pin in net.sinks:
            names.append(pin.full_name)
            points.append(self.placement.location(pin.instance.name))
        for pin in net.keepers:
            names.append(pin.full_name)
            points.append(self.placement.location(pin.instance.name))
        for port in net.sink_ports:
            names.append(f"__port__/{port.name}")
            points.append(self.placement.port_locations[port.name])
        if len(names) < 2:
            return None
        return build_mst(names, points, root_index=0)

    def _extract_net(self, net: Net) -> NetParasitics | None:
        tree = self.route_net(net)
        if tree is None:
            return None
        rc = self.rc_tree_for(net, tree)
        delays = rc.elmore_delays()
        sink_names = {pin.full_name for pin in net.sinks}
        sink_names.update(f"__port__/{p.name}" for p in net.sink_ports)
        sink_delays = {name: delays[name] for name in sink_names
                       if name in delays}
        total_res = sum(length * self.tech.wire_res_per_um
                        for length in tree.edge_lengths())
        wire_cap = tree.total_length * self.tech.wire_cap_per_um
        return NetParasitics(net.name, wire_cap, total_res,
                             tree.total_length, sink_delays)

    def rc_tree_for(self, net: Net, tree: SteinerTree) -> RcTree:
        """Build the RC tree for a routed net (wire RC + sink pin caps)."""
        rc = RcTree(tree.names[0])
        res_per_um = self.tech.wire_res_per_um
        cap_per_um = self.tech.wire_cap_per_um
        # Edges in MST construction order are always parent-before-child.
        half_caps: dict[str, float] = {tree.names[0]: 0.0}
        for (a, b) in tree.edges:
            length = (abs(tree.points[a][0] - tree.points[b][0])
                      + abs(tree.points[a][1] - tree.points[b][1]))
            res = max(length * res_per_um, 1e-9)
            cap = length * cap_per_um
            rc.add_node(tree.names[b], cap / 2.0, tree.names[a], res)
            half_caps[tree.names[b]] = 0.0
            # The other half of the edge cap loads the parent node.
            rc.add_cap(tree.names[a], cap / 2.0)
        # Pin loads on sinks.
        for pin in net.sinks:
            if pin.full_name in rc.caps:
                rc.add_cap(pin.full_name, _pin_cap(self.library, pin))
        for pin in net.keepers:
            if pin.full_name in rc.caps:
                rc.add_cap(pin.full_name, _pin_cap(self.library, pin))
        return rc
