"""MT-cell clustering for shared switch transistors.

Placement-driven greedy clustering with the three §3 constraints:

* **VGND wire length cap** — "the switch transistor structure is
  constructed so that the wire length of each VGND line may not exceed
  an upper limit, as a long VGND line tends to suffer from the
  crosstalk";
* **cells-per-switch cap** — "the number of MT-cells which share the
  same switch transistor is also cared, to prevent the
  electro-migration";
* **bounce feasibility** — a cluster must be sizeable: even the largest
  discrete switch must hold the bounce under the limit.

Cells are swept row band by row band (two placement rows each) in x
order and packed greedily; a merge pass then joins neighbouring
under-full clusters while all constraints still hold, minimizing
switch count.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.device.mosfet import MosfetModel
from repro.errors import ConfigError, VgndError
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.placement.placer import Placement
from repro.vgnd.bounce import (
    SIMULTANEITY_EXPONENT,
    SIMULTANEITY_FLOOR,
    cluster_bounce,
    cluster_current,
    rail_resistance_far,
)
from repro.vgnd.network import VgndCluster, VgndNetwork


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """User-visible knobs of the switch-structure optimizer."""

    bounce_limit_v: float = 0.06          # 5% of a 1.2 V supply
    max_rail_length_um: float = 400.0     # crosstalk cap
    max_cells_per_switch: int = 64        # EM cap
    # Simultaneity model of the cluster current: the fraction of the
    # summed member peak current flowing at once is
    # max(n^-exponent, floor).
    simultaneity_exponent: float = SIMULTANEITY_EXPONENT
    simultaneity_floor: float = SIMULTANEITY_FLOOR

    def __post_init__(self):
        if self.bounce_limit_v <= 0:
            raise VgndError("bounce limit must be positive")
        if self.max_rail_length_um <= 0:
            raise VgndError("rail length cap must be positive")
        if self.max_cells_per_switch < 1:
            raise VgndError("cells-per-switch cap must be at least 1")
        if not 0.0 <= self.simultaneity_exponent <= 1.0:
            raise ConfigError(
                "simultaneity_exponent",
                f"must be in [0, 1], got {self.simultaneity_exponent!r}")
        if not 0.0 < self.simultaneity_floor <= 1.0:
            raise ConfigError(
                "simultaneity_floor",
                f"must be in (0, 1], got {self.simultaneity_floor!r}")


class MtClusterer:
    """Builds the cluster set for a placed netlist's MT-cells."""

    def __init__(self, netlist: Netlist, library: Library,
                 placement: Placement,
                 config: ClusterConfig | None = None):
        self.netlist = netlist
        self.library = library
        self.placement = placement
        self.config = config or ClusterConfig()
        tech = library.tech
        self._band_height = 2.0 * tech.row_height
        # Ron of the largest available switch (feasibility floor).
        switches = library.switch_cells()
        if not switches:
            raise VgndError("library has no switch cells")
        model = MosfetModel(tech, tech.vth_high, "nmos")
        self._largest_ron = model.on_resistance(
            switches[-1].switch_width_um)

    # --- public -------------------------------------------------------------

    def build(self, mt_instance_names: list[str]) -> VgndNetwork:
        """Cluster the given MT instances into a VGND network."""
        network = VgndNetwork(bounce_limit_v=self.config.bounce_limit_v)
        if not mt_instance_names:
            return network
        bands = self._band_assignment(mt_instance_names)
        clusters: list[list[str]] = []
        for band_index in sorted(bands):
            ordered = sorted(
                bands[band_index],
                key=lambda n: self.placement.location(n)[0])
            clusters.extend(self._pack_band(ordered))
        clusters = self._merge_pass(clusters)
        for index, members in enumerate(clusters):
            network.clusters.append(self._make_cluster(index, members))
        return network

    # --- internals -----------------------------------------------------------

    def _band_assignment(self, names: list[str]) -> dict[int, list[str]]:
        bands: dict[int, list[str]] = {}
        for name in names:
            _x, y = self.placement.location(name)
            band = int(y / self._band_height)
            bands.setdefault(band, []).append(name)
        return bands

    def _pack_band(self, ordered: list[str]) -> list[list[str]]:
        """Greedy left-to-right packing of one row band."""
        clusters: list[list[str]] = []
        current: list[str] = []
        for name in ordered:
            candidate = current + [name]
            if current and not self._feasible(candidate):
                clusters.append(current)
                current = [name]
            else:
                current = candidate
        if current:
            clusters.append(current)
        return clusters

    def _merge_pass(self, clusters: list[list[str]]) -> list[list[str]]:
        """Merge neighbouring clusters while constraints hold."""
        merged = True
        while merged:
            merged = False
            clusters.sort(key=lambda c: self._centroid(c))
            result: list[list[str]] = []
            i = 0
            while i < len(clusters):
                if i + 1 < len(clusters):
                    candidate = clusters[i] + clusters[i + 1]
                    if self._feasible(candidate):
                        result.append(candidate)
                        i += 2
                        merged = True
                        continue
                result.append(clusters[i])
                i += 1
            clusters = result
        return clusters

    def _centroid(self, members: list[str]) -> tuple[float, float]:
        xs = []
        ys = []
        for name in members:
            x, y = self.placement.location(name)
            xs.append(x)
            ys.append(y)
        return statistics.fmean(ys), statistics.fmean(xs)

    def _rail_length(self, members: list[str]) -> float:
        """Estimated VGND rail length for a member set.

        Bounding-box half-perimeter scaled by the multi-pin tree factor
        (a k-point rectilinear tree is ~0.53*sqrt(k) times its bbox
        half-perimeter), matching what post-route extraction measures.
        """
        xs = []
        ys = []
        for name in members:
            x, y = self.placement.location(name)
            xs.append(x)
            ys.append(y)
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        factor = max(1.0, 0.53 * (len(members) + 1) ** 0.5)
        return hpwl * factor

    def _feasible(self, members: list[str]) -> bool:
        config = self.config
        if len(members) > config.max_cells_per_switch:
            return False
        rail = self._rail_length(members)
        if rail > config.max_rail_length_um:
            return False
        # Even the largest switch must keep the bounce legal.
        current = self._cluster_current(members)
        rail_res = rail_resistance_far(rail, self.library.tech)
        bounce = cluster_bounce(current, self._largest_ron, rail_res)
        return bounce <= config.bounce_limit_v

    def _cluster_current(self, members: list[str]) -> float:
        return cluster_current(
            members, self.netlist, self.library,
            exponent=self.config.simultaneity_exponent,
            floor=self.config.simultaneity_floor)

    def _make_cluster(self, index: int, members: list[str]) -> VgndCluster:
        xs = []
        ys = []
        for name in members:
            x, y = self.placement.location(name)
            xs.append(x)
            ys.append(y)
        return VgndCluster(
            index=index,
            members=list(members),
            net_name=f"vgnd_{index}",
            centroid=(statistics.fmean(xs), statistics.fmean(ys)),
            rail_length_um=self._rail_length(members),
            current_ma=self._cluster_current(members),
        )
