"""Placement legalization.

Two phases:

1. **Row assignment with capacity** — each cell requests the row its
   global-placement y lands in; rows over capacity spill their
   worst-fitting cells to the nearest row with space.
2. **Per-row packing** — cells in each row are sorted by x and packed
   left-to-right at site granularity, clamped so the remaining cells
   always fit; this guarantees zero overlap.
"""

from __future__ import annotations

from repro.errors import PlacementError
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.placement.placer import Placement


def _site_width_of(placement: Placement, netlist: Netlist,
                   library: Library, name: str) -> float:
    """Cell width rounded up to whole placement sites."""
    tech = placement.floorplan.tech
    site = tech.site_width
    inst = netlist.instances.get(name)
    if inst is None or inst.cell_name not in library:
        return site
    cell = library.cell(inst.cell_name)
    width = max(cell.area / tech.row_height, site)
    sites = max(1, int(width / site + 0.999))
    return sites * site


def _rows_outward(home: int, count: int):
    """Row indices by distance from ``home``, the lower one first on a
    tie: the home row, then home - 1, home + 1, home - 2, ..."""
    yield home
    for distance in range(1, max(home, count - 1 - home) + 1):
        if home - distance >= 0:
            yield home - distance
        if home + distance < count:
            yield home + distance


def legalize(placement: Placement, netlist: Netlist,
             library: Library) -> int:
    """Legalize in place; returns the number of cells moved."""
    floorplan = placement.floorplan
    widths = {name: _site_width_of(placement, netlist, library, name)
              for name in placement.locations}

    # --- phase 1: capacity-aware row assignment --------------------------
    rows: dict[int, list[str]] = {row.index: [] for row in floorplan.rows}
    used: dict[int, float] = {row.index: 0.0 for row in floorplan.rows}
    # Wide cells first so they claim space before small ones fragment it.
    order = sorted(placement.locations,
                   key=lambda n: -widths[n])
    capacity = {row.index: row.width for row in floorplan.rows}
    for name in order:
        x, y = placement.locations[name]
        home = floorplan.row_at(y).index
        width = widths[name]
        for row_index in _rows_outward(home, len(floorplan.rows)):
            if used[row_index] + width <= capacity[row_index] + 1e-9:
                rows[row_index].append(name)
                used[row_index] += width
                break
        else:
            raise PlacementError(
                f"cannot legalize cell {name}: width {width:.2f}um "
                f"exceeds every row's remaining space")

    # --- phase 2: pack each row left-to-right ------------------------------
    moved = 0
    site = floorplan.tech.site_width
    for row in floorplan.rows:
        names = sorted(rows[row.index],
                       key=lambda n: placement.locations[n][0])
        remaining = sum(widths[n] for n in names)
        cursor = 0.0
        for name in names:
            width = widths[name]
            desired = placement.locations[name][0]
            x = max(cursor, desired)
            # Clamp so everything after this cell still fits, snapping
            # down to a site boundary (cursor is always site-aligned,
            # so max() cannot push the tail past the clamp).
            x = min(x, row.width - remaining)
            x = max(int(x / site) * site, cursor)
            if (x, row.y) != placement.locations[name]:
                moved += 1
            placement.locations[name] = (x, row.y)
            cursor = x + width
            remaining -= width

    # Refresh instance annotations.
    for name, (x, y) in placement.locations.items():
        inst = netlist.instances.get(name)
        if inst is not None:
            inst.attributes["x"] = x
            inst.attributes["y"] = y
    return moved
