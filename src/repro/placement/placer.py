"""Seeded force-directed global placement with row slotting.

The algorithm (deliberately simple but producing the locality the VGND
clusterer needs):

1. ports are pinned evenly around the die boundary;
2. movable cells start at seeded random positions;
3. several Gauss-Seidel sweeps move each cell to the connectivity-
   weighted centroid of its nets (classic force-directed step);
4. because step 3 collapses cells toward the centre, cells are then
   *spread*: sorted by y into row bands of equal capacity, and within
   each band sorted by x and packed with their real widths;
5. legalization snaps to sites and removes residual overlap.

The result is deterministic for a given seed.
"""

from __future__ import annotations

import dataclasses
import random

from repro.errors import PlacementError
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.placement.floorplan import Floorplan


@dataclasses.dataclass
class Placement:
    """Cell coordinates (cell origin, um) plus port positions."""

    locations: dict[str, tuple[float, float]]
    port_locations: dict[str, tuple[float, float]]
    floorplan: Floorplan

    def location(self, inst_name: str) -> tuple[float, float]:
        try:
            return self.locations[inst_name]
        except KeyError:
            raise PlacementError(
                f"instance {inst_name!r} has no placement") from None

    def set_location(self, inst_name: str, x: float, y: float):
        self.locations[inst_name] = self.floorplan.snap(x, y)

    def ensure_port_location(self, port_name: str) -> tuple[float, float]:
        """Location of a port, pinning late-added ports (MTE) to a corner.

        Ports created after global placement (the flow adds MTE during
        Vth assignment) get deterministic positions along the left die
        edge.
        """
        if port_name not in self.port_locations:
            offset = (len(self.port_locations) % 16) / 16.0
            self.port_locations[port_name] = (
                0.0, self.floorplan.height * offset)
        return self.port_locations[port_name]


class GlobalPlacer:
    """Places one netlist onto a fresh floorplan."""

    def __init__(self, netlist: Netlist, library: Library,
                 utilization: float = 0.7, aspect_ratio: float = 1.0,
                 iterations: int = 24, seed: int = 1):
        self.netlist = netlist
        self.library = library
        self.utilization = utilization
        self.aspect_ratio = aspect_ratio
        self.iterations = iterations
        self.seed = seed

    def _cell_width(self, inst) -> float:
        tech = self.library.tech
        if inst.cell_name in self.library:
            cell = self.library.cell(inst.cell_name)
            if tech is not None and cell.area > 0:
                return max(cell.area / tech.row_height, tech.site_width)
        return tech.site_width if tech is not None else 0.4

    def run(self) -> Placement:
        instances = list(self.netlist.instances.values())
        if not instances:
            raise PlacementError("cannot place an empty netlist")
        total_area = 0.0
        for inst in instances:
            if inst.cell_name in self.library:
                total_area += self.library.cell(inst.cell_name).area
            else:
                total_area += 2.0
        floorplan = Floorplan(total_area, self.library.tech,
                              utilization=self.utilization,
                              aspect_ratio=self.aspect_ratio)

        rng = random.Random(self.seed)
        positions: dict[str, list[float]] = {
            inst.name: [rng.uniform(0, floorplan.width),
                        rng.uniform(0, floorplan.height)]
            for inst in instances
        }

        # Pin ports around the boundary in declaration order.
        port_names = list(self.netlist.ports)
        boundary = floorplan.boundary_positions(len(port_names))
        port_locations = dict(zip(port_names, boundary))

        # Force-directed sweeps.  Each instance's centroid terms are
        # built once; instance points in them are the live position
        # lists, so a sweep still reads the moves made earlier in the
        # same sweep (Gauss-Seidel).
        sweep = []
        for inst in instances:
            terms = self._centroid_terms(inst, positions, port_locations)
            weight = 0.0
            for w, _point in terms:
                weight += w
            if weight > 0.0:
                sweep.append((positions[inst.name], terms, weight))
        for _ in range(self.iterations):
            for position, terms, weight in sweep:
                sum_x = 0.0
                sum_y = 0.0
                for w, point in terms:
                    sum_x += w * point[0]
                    sum_y += w * point[1]
                position[0] = sum_x / weight
                position[1] = sum_y / weight

        # Spread into row bands.
        locations = self._spread(instances, positions, floorplan)
        placement = Placement(locations, port_locations, floorplan)
        self._annotate(placement)
        return placement

    @staticmethod
    def _centroid_terms(inst, positions, port_locations):
        """``(net weight, point)`` for every other pin and port on the
        nets of ``inst``, in the order the centroid sums them."""
        terms = []
        for pin in inst.pins.values():
            net = pin.net
            if net is None:
                continue
            # Weight high-fanout nets down so the clock net does not
            # glue everything together.
            fanout = net.fanout()
            if fanout > 16:
                continue
            w = 1.0 / max(fanout, 1)
            connected = []
            if net.driver is not None:
                connected.append(net.driver.instance.name)
            connected.extend(sink.instance.name for sink in net.sinks)
            for name in connected:
                if name != inst.name and name in positions:
                    terms.append((w, positions[name]))
            if net.driver_port is not None:
                terms.append((w, port_locations[net.driver_port.name]))
            for port in net.sink_ports:
                terms.append((w, port_locations[port.name]))
        return terms

    def _spread(self, instances, positions, floorplan):
        """Assign cells to rows by y-order, pack by x-order."""
        row_count = len(floorplan.rows)
        ordered = sorted(instances, key=lambda i: (positions[i.name][1],
                                                   positions[i.name][0]))
        # Distribute by area capacity per row.
        widths = {inst.name: self._cell_width(inst) for inst in instances}
        total_width = sum(widths.values())
        capacity = total_width / row_count
        locations: dict[str, tuple[float, float]] = {}
        index = 0
        for row in floorplan.rows:
            band: list = []
            used = 0.0
            while index < len(ordered) and (used < capacity
                                            or row.index == row_count - 1):
                inst = ordered[index]
                band.append(inst)
                used += widths[inst.name]
                index += 1
            band.sort(key=lambda i: positions[i.name][0])
            # Pack with proportional gaps.
            free = max(row.width - used, 0.0)
            gap = free / (len(band) + 1) if band else 0.0
            x = gap
            for inst in band:
                locations[inst.name] = floorplan.snap(x, row.y)
                x += widths[inst.name] + gap
        if index < len(ordered):
            raise PlacementError(
                f"row capacity exhausted with {len(ordered) - index} cells "
                f"left; lower utilization")
        return locations

    def _annotate(self, placement: Placement):
        """Record coordinates on instance attributes for downstream use."""
        for name, (x, y) in placement.locations.items():
            inst = self.netlist.instances.get(name)
            if inst is not None:
                inst.attributes["x"] = x
                inst.attributes["y"] = y


def place_incremental(placement: Placement, netlist: Netlist,
                      library: Library, inst_name: str,
                      near: tuple[float, float]) -> tuple[float, float]:
    """Place one new instance (switch/holder/buffer) near a point.

    Used by flow stages that add cells after global placement; the cell
    is snapped to the closest legal site to ``near``.
    """
    x, y = placement.floorplan.snap(*near)
    placement.locations[inst_name] = (x, y)
    inst = netlist.instances.get(inst_name)
    if inst is not None:
        inst.attributes["x"] = x
        inst.attributes["y"] = y
    return x, y
