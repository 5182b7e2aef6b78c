"""Virtual-ground network model.

A :class:`VgndNetwork` is the set of :class:`VgndCluster` objects built
by the clusterer: each cluster owns a VGND net, the MT-cells riding on
it, and (after sizing) a switch instance of a discrete size.
"""

from __future__ import annotations

import dataclasses

from repro.liberty.library import Library
from repro.netlist.core import Netlist

#: Characterized VGND bounce, as a fraction of Vdd, for a library that
#: does not record its own ``mt_assumed_bounce_v``.
DEFAULT_ASSUMED_BOUNCE_FRACTION = 0.04
#: Average droop during a transition as a fraction of the sized
#: worst-case cluster bounce.
DROOP_FACTOR = 0.5


@dataclasses.dataclass
class VgndCluster:
    """One shared-switch cluster."""

    index: int
    members: list[str]                    # MT instance names
    net_name: str                         # VGND net
    centroid: tuple[float, float] = (0.0, 0.0)
    rail_length_um: float = 0.0           # estimated or extracted
    switch_instance: str | None = None
    switch_cell: str | None = None
    current_ma: float = 0.0
    bounce_v: float = 0.0

    @property
    def size(self) -> int:
        return len(self.members)


@dataclasses.dataclass
class VgndNetwork:
    """All clusters of one design plus roll-up statistics."""

    clusters: list[VgndCluster] = dataclasses.field(default_factory=list)
    bounce_limit_v: float = 0.0

    @property
    def mt_cell_count(self) -> int:
        return sum(c.size for c in self.clusters)

    @property
    def switch_count(self) -> int:
        return sum(1 for c in self.clusters if c.switch_instance)

    def total_switch_width(self, library: Library) -> float:
        total = 0.0
        for cluster in self.clusters:
            if cluster.switch_cell:
                total += library.cell(cluster.switch_cell).switch_width_um
        return total

    def total_switch_leakage_nw(self, library: Library) -> float:
        total = 0.0
        for cluster in self.clusters:
            if cluster.switch_cell:
                total += library.cell(cluster.switch_cell).default_leakage_nw
        return total

    def worst_bounce_v(self) -> float:
        return max((c.bounce_v for c in self.clusters), default=0.0)

    def bounce_ok(self) -> bool:
        return self.worst_bounce_v() <= self.bounce_limit_v + 1e-12

    def summary(self) -> dict[str, float]:
        sizes = [c.size for c in self.clusters]
        return {
            "clusters": len(self.clusters),
            "mt_cells": self.mt_cell_count,
            "avg_cluster_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_cluster_size": max(sizes, default=0),
            "worst_bounce_v": self.worst_bounce_v(),
            "bounce_limit_v": self.bounce_limit_v,
        }

    def derates(self, netlist: Netlist,
                library: Library) -> dict[str, float]:
        """Per-instance STA derates: actual vs characterized bounce.

        The MT library tables were characterized assuming an average
        droop of ``library.mt_assumed_bounce_v`` (a library that does
        not record it is taken at
        ``DEFAULT_ASSUMED_BOUNCE_FRACTION`` x Vdd); a cluster whose
        sized worst-case bounce implies a different average droop
        (``DROOP_FACTOR`` x worst case) gets a delay derate so STA sees
        the true virtual-ground behaviour.
        """
        tech = library.tech
        assumed = library.mt_assumed_bounce_v
        if assumed is None:
            assumed = DEFAULT_ASSUMED_BOUNCE_FRACTION * tech.vdd
        derate_map: dict[str, float] = {}
        od = tech.overdrive(tech.vth_low)
        assumed_factor = (od / max(od - assumed, 1e-3)) ** tech.alpha
        for cluster in self.clusters:
            droop = DROOP_FACTOR * cluster.bounce_v
            actual_factor = (od / max(od - droop, 1e-3)) ** tech.alpha
            ratio = actual_factor / assumed_factor
            for member in cluster.members:
                derate_map[member] = ratio
        return derate_map
