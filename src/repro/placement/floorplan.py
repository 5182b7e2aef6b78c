"""Die and row geometry.

A :class:`Floorplan` is derived from the design's total cell area, a
target utilization and an aspect ratio; it exposes the standard-cell
rows that placement and legalization snap to.
"""

from __future__ import annotations

import dataclasses
import math

from repro.device.process import Technology
from repro.errors import PlacementError

#: Lowest cell-area utilization a floorplan accepts (the highest is 1).
MIN_UTILIZATION = 0.1


@dataclasses.dataclass(frozen=True)
class Row:
    """One standard-cell row."""

    index: int
    y: float          # bottom edge (um)
    height: float
    x_min: float
    x_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min


class Floorplan:
    """Rectangular die with uniform standard-cell rows."""

    def __init__(self, total_cell_area: float, tech: Technology,
                 utilization: float = 0.7, aspect_ratio: float = 1.0):
        if total_cell_area <= 0:
            raise PlacementError("total cell area must be positive")
        if not MIN_UTILIZATION <= utilization <= 1.0:
            raise PlacementError(
                f"utilization {utilization} outside "
                f"[{MIN_UTILIZATION}, 1.0]")
        self.tech = tech
        self.utilization = utilization
        die_area = total_cell_area / utilization
        width = math.sqrt(die_area * aspect_ratio)
        height = die_area / width
        # Round height up to a whole number of rows.
        row_count = max(1, math.ceil(height / tech.row_height))
        self.height = row_count * tech.row_height
        self.width = max(die_area / self.height, tech.site_width * 4)
        # Round width up to whole sites.
        sites = math.ceil(self.width / tech.site_width)
        self.width = sites * tech.site_width
        self.rows = [
            Row(index=i, y=i * tech.row_height, height=tech.row_height,
                x_min=0.0, x_max=self.width)
            for i in range(row_count)
        ]

    @property
    def die_area(self) -> float:
        return self.width * self.height

    def row_at(self, y: float) -> Row:
        """The row whose band contains the y coordinate (clamped)."""
        index = int(y / self.tech.row_height)
        index = max(0, min(index, len(self.rows) - 1))
        return self.rows[index]

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        """Clamp a point into the die."""
        return (min(max(x, 0.0), self.width),
                min(max(y, 0.0), self.height))

    def snap(self, x: float, y: float) -> tuple[float, float]:
        """Snap a point to the nearest site/row origin."""
        x, y = self.clamp(x, y)
        site = self.tech.site_width
        row = self.row_at(y)
        snapped_x = round(x / site) * site
        snapped_x = min(max(snapped_x, 0.0), self.width - site)
        return snapped_x, row.y

    def boundary_positions(self, count: int) -> list[tuple[float, float]]:
        """``count`` evenly spaced positions around the die perimeter.

        Used to pin primary ports.
        """
        if count <= 0:
            return []
        perimeter = 2.0 * (self.width + self.height)
        positions = []
        for i in range(count):
            distance = perimeter * i / count
            if distance < self.width:
                positions.append((distance, 0.0))
            elif distance < self.width + self.height:
                positions.append((self.width, distance - self.width))
            elif distance < 2 * self.width + self.height:
                positions.append(
                    (2 * self.width + self.height - distance, self.height))
            else:
                positions.append(
                    (0.0, 2 * (self.width + self.height) - distance))
        return positions

    def __repr__(self):
        return (f"Floorplan({self.width:.1f}x{self.height:.1f}um, "
                f"{len(self.rows)} rows, util={self.utilization})")
