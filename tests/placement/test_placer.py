"""Floorplan, global placement and legalization."""

import hashlib

import pytest

from repro.benchcircuits.suite import load_circuit
from repro.errors import PlacementError
from repro.device.process import Technology
from repro.liberty.library import VARIANT_LVT
from repro.netlist.core import Netlist
from repro.netlist.techmap import technology_map
from repro.placement.floorplan import Floorplan
from repro.placement.legalize import legalize
from repro.placement.metrics import average_net_span, total_hpwl
from repro.placement.placer import GlobalPlacer, Placement

#: SHA-256 over ``repr`` of the placed + legalized locations of the
#: LVT-mapped circuitA, circuitB and c432, in that order.  Any change
#: to the placer or the legalizer that moves one cell changes it.
PLACEMENT_DIGEST = (
    "08cb605bfcc66b62e8418be4eb6c0c619b7e1eb0f6b5c2484f2b8bb814ddff3e")


class TestFloorplan:
    def test_geometry(self, tech):
        plan = Floorplan(1000.0, tech, utilization=0.7)
        assert plan.die_area >= 1000.0 / 0.7 * 0.95
        assert len(plan.rows) >= 1
        assert plan.rows[0].height == tech.row_height

    def test_aspect_ratio(self, tech):
        wide = Floorplan(4000.0, tech, aspect_ratio=4.0)
        assert wide.width > wide.height

    def test_validation(self, tech):
        with pytest.raises(PlacementError):
            Floorplan(0.0, tech)
        with pytest.raises(PlacementError):
            Floorplan(100.0, tech, utilization=0.01)

    def test_snap(self, tech):
        plan = Floorplan(1000.0, tech)
        x, y = plan.snap(3.33, 5.1)
        assert x % tech.site_width == pytest.approx(0.0, abs=1e-9)
        assert y % tech.row_height == pytest.approx(0.0, abs=1e-9)

    def test_clamp(self, tech):
        plan = Floorplan(1000.0, tech)
        x, y = plan.clamp(-5.0, plan.height + 10.0)
        assert x == 0.0
        assert y == plan.height

    def test_boundary_positions(self, tech):
        plan = Floorplan(1000.0, tech)
        points = plan.boundary_positions(8)
        assert len(points) == 8
        for x, y in points:
            on_edge = (x in (0.0, plan.width)) or (y in (0.0, plan.height))
            assert on_edge


class TestGlobalPlacer:
    def test_places_every_instance(self, library, s27):
        placement = GlobalPlacer(s27, library).run()
        assert set(placement.locations) == set(s27.instances)

    def test_deterministic_for_seed(self, library, s27):
        p1 = GlobalPlacer(s27, library, seed=3).run()
        p2 = GlobalPlacer(s27, library, seed=3).run()
        assert p1.locations == p2.locations

    def test_different_seeds_differ(self, library):
        from repro.benchcircuits.suite import load_circuit
        from repro.netlist.techmap import technology_map

        nl = load_circuit("c432")
        technology_map(nl, library)
        p1 = GlobalPlacer(nl, library, seed=1).run()
        p2 = GlobalPlacer(nl, library, seed=2).run()
        assert p1.locations != p2.locations

    def test_locations_inside_die(self, library, s27):
        placement = GlobalPlacer(s27, library).run()
        plan = placement.floorplan
        for x, y in placement.locations.values():
            assert 0.0 <= x <= plan.width
            assert 0.0 <= y <= plan.height

    def test_ports_on_boundary(self, library, s27):
        placement = GlobalPlacer(s27, library).run()
        assert set(placement.port_locations) == set(s27.ports)

    def test_annotates_instances(self, library, s27):
        GlobalPlacer(s27, library).run()
        for inst in s27.instances.values():
            assert "x" in inst.attributes and "y" in inst.attributes

    def test_better_than_random(self, library):
        """Force-directed placement beats the random start on HPWL."""
        from repro.benchcircuits.suite import load_circuit
        from repro.netlist.techmap import technology_map

        nl = load_circuit("c432")
        technology_map(nl, library)
        placed = GlobalPlacer(nl, library, iterations=24, seed=1).run()
        unoptimized = GlobalPlacer(nl, library, iterations=0, seed=1).run()
        assert total_hpwl(nl, placed) < total_hpwl(nl, unoptimized)

    def test_empty_netlist_rejected(self, library):
        from repro.netlist.core import Netlist

        with pytest.raises(PlacementError):
            GlobalPlacer(Netlist("empty"), library).run()

    def test_placements_are_bit_identical(self, library):
        """The placer and legalizer are pinned bit for bit on the two
        Table 1 circuits and c432 (the flow's physical synthesis)."""
        digest = hashlib.sha256()
        for name in ("circuitA", "circuitB", "c432"):
            netlist = load_circuit(name)
            technology_map(netlist, library, VARIANT_LVT)
            placement = GlobalPlacer(netlist, library).run()
            legalize(placement, netlist, library)
            digest.update(repr(placement.locations).encode())
        assert digest.hexdigest() == PLACEMENT_DIGEST

    def test_ensure_port_location_for_late_ports(self, library, s27):
        placement = GlobalPlacer(s27, library).run()
        x, y = placement.ensure_port_location("MTE_LATE")
        assert placement.port_locations["MTE_LATE"] == (x, y)


class TestLegalize:
    def test_no_overlaps_after_legalize(self, library, s27):
        placement = GlobalPlacer(s27, library).run()
        legalize(placement, s27, library)
        tech = library.tech
        by_row: dict[float, list] = {}
        for name, (x, y) in placement.locations.items():
            by_row.setdefault(y, []).append((x, name))
        for y, cells in by_row.items():
            cells.sort()
            for (x1, n1), (x2, n2) in zip(cells, cells[1:]):
                cell = library.cell(s27.instances[n1].cell_name)
                width = max(cell.area / tech.row_height, tech.site_width)
                assert x2 >= x1 + width - 1e-6, \
                    f"{n1} overlaps {n2} in row {y}"

    def test_cells_on_sites(self, library, s27):
        placement = GlobalPlacer(s27, library).run()
        legalize(placement, s27, library)
        site = library.tech.site_width
        for x, _y in placement.locations.values():
            assert x / site == pytest.approx(round(x / site), abs=1e-6)

    def test_full_home_row_spills_to_the_lower_neighbour(self, library):
        """A cell whose home row is full goes to the nearest row with
        room; of two equally near rows, the lower index wins."""
        tech = library.tech
        plan = Floorplan((3.5 * tech.row_height) ** 2, tech,
                         utilization=1.0)
        assert len(plan.rows) >= 3
        home = plan.rows[1]
        sites = round(home.width / tech.site_width)
        # Unknown instances are one site wide: fill the home row, then
        # ask for one more cell in it.
        locations = {f"fill{i}": (i * tech.site_width, home.y)
                     for i in range(sites)}
        locations["extra"] = (0.0, home.y)
        placement = Placement(locations, {}, plan)
        legalize(placement, Netlist("rows"), library)
        assert placement.locations["extra"][1] == plan.rows[0].y
        assert all(placement.locations[f"fill{i}"][1] == home.y
                   for i in range(sites))

    def test_metrics(self, library, s27):
        placement = GlobalPlacer(s27, library).run()
        assert total_hpwl(s27, placement) > 0
        assert average_net_span(s27, placement) > 0
