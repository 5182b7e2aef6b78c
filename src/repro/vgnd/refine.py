"""Structural refinement of the VGND network.

The post-route re-optimization is not only a sizing adjustment: when
extracted rail lengths show a cluster that no discrete switch can hold
under the bounce limit, the structure itself must change.
:func:`split_cluster` divides such a cluster along its longer placement
axis into two clusters, rewires the member VGND pins onto fresh rails,
inserts and places the new switches, and sizes them.
"""

from __future__ import annotations

import statistics

from repro.errors import VgndError
from repro.liberty.library import Library
from repro.netlist.core import Netlist, PinDirection
from repro.placement.placer import Placement, place_incremental
from repro.vgnd.bounce import (
    SIMULTANEITY_EXPONENT,
    SIMULTANEITY_FLOOR,
    cluster_current,
)
from repro.vgnd.network import VgndCluster, VgndNetwork
from repro.vgnd.sizing import SwitchSizer


def split_cluster(netlist: Netlist, library: Library, placement: Placement,
                  network: VgndNetwork, cluster: VgndCluster,
                  simultaneity_exponent: float = SIMULTANEITY_EXPONENT,
                  simultaneity_floor: float = SIMULTANEITY_FLOOR
                  ) -> tuple[VgndCluster, VgndCluster]:
    """Split one cluster in two along its longer placement axis.

    The original cluster keeps its index and one half of the members;
    the second half becomes a new cluster appended to the network.
    Both halves get fresh switch instances (unsized — callers run the
    sizer afterwards).  The simultaneity overrides must match the ones
    the clusterer used, or the halves would be rebuilt under a
    different current model than the designer configured.
    """
    if cluster.size < 2:
        raise VgndError(
            f"cluster {cluster.index} has {cluster.size} member(s); "
            f"cannot split")
    points = {name: placement.location(name) for name in cluster.members}
    xs = [p[0] for p in points.values()]
    ys = [p[1] for p in points.values()]
    axis = 0 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 1
    ordered = sorted(cluster.members, key=lambda n: points[n][axis])
    half = len(ordered) // 2
    first_members = ordered[:half]
    second_members = ordered[half:]

    _teardown_cluster(netlist, placement, cluster)

    new_index = max(c.index for c in network.clusters) + 1
    first = _build_cluster(netlist, library, placement, cluster.index,
                           first_members, simultaneity_exponent,
                           simultaneity_floor)
    second = _build_cluster(netlist, library, placement, new_index,
                            second_members, simultaneity_exponent,
                            simultaneity_floor)
    network.clusters[network.clusters.index(cluster)] = first
    network.clusters.append(second)
    return first, second


def _teardown_cluster(netlist: Netlist, placement: Placement,
                      cluster: VgndCluster):
    """Disconnect members and remove the cluster's switch and rail."""
    for member in cluster.members:
        inst = netlist.instances.get(member)
        if inst is None:
            continue
        pin = inst.pins.get("VGND")
        if pin is not None and pin.net is not None:
            netlist.disconnect(pin)
    if cluster.switch_instance \
            and cluster.switch_instance in netlist.instances:
        netlist.remove_instance(cluster.switch_instance)
        placement.locations.pop(cluster.switch_instance, None)
    old_net = netlist.nets.get(cluster.net_name)
    if old_net is not None:
        netlist.remove_net_if_dangling(old_net)


def _rail_length(placement: Placement, members: list[str]) -> float:
    xs = []
    ys = []
    for name in members:
        x, y = placement.location(name)
        xs.append(x)
        ys.append(y)
    hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
    return hpwl * max(1.0, 0.53 * (len(members) + 1) ** 0.5)


def _build_cluster(netlist: Netlist, library: Library, placement: Placement,
                   index: int, members: list[str],
                   simultaneity_exponent: float = SIMULTANEITY_EXPONENT,
                   simultaneity_floor: float = SIMULTANEITY_FLOOR
                   ) -> VgndCluster:
    """Create rail net, switch instance and cluster record (unsized)."""
    xs = []
    ys = []
    for name in members:
        x, y = placement.location(name)
        xs.append(x)
        ys.append(y)
    cluster = VgndCluster(
        index=index,
        members=list(members),
        net_name=f"vgnd_{index}",
        centroid=(statistics.fmean(xs), statistics.fmean(ys)),
        rail_length_um=_rail_length(placement, members),
        current_ma=cluster_current(members, netlist, library,
                                   exponent=simultaneity_exponent,
                                   floor=simultaneity_floor),
    )
    vgnd_net = netlist.get_or_create_net(cluster.net_name)
    mte_net = netlist.get_or_create_net("MTE")
    switches = library.switch_cells()
    switch_name = netlist.unique_name(f"vgnd_switch_{index}")
    inst = netlist.add_instance(switch_name, switches[0].name)
    netlist.connect(inst, "VGND", vgnd_net, PinDirection.INOUT, keeper=True)
    netlist.connect(inst, "MTE", mte_net, PinDirection.INPUT)
    cluster.switch_instance = switch_name
    place_incremental(placement, netlist, library, switch_name,
                      cluster.centroid)
    for member in members:
        mt_inst = netlist.instances[member]
        pin = mt_inst.pins.get("VGND")
        if pin is not None:
            if pin.net is not None:
                netlist.disconnect(pin)
            netlist.connect(mt_inst, "VGND", vgnd_net,
                            PinDirection.INOUT, keeper=True)
    return cluster


def repair_unsizeable(netlist: Netlist, library: Library,
                      placement: Placement, network: VgndNetwork,
                      sizer: SwitchSizer, unsizeable: list[int],
                      max_passes: int = 6,
                      simultaneity_exponent: float = SIMULTANEITY_EXPONENT,
                      simultaneity_floor: float = SIMULTANEITY_FLOOR
                      ) -> int:
    """Split clusters until every one can be sized; returns split count.

    Raises :class:`~repro.errors.VgndError` if a single-member cluster
    still cannot be sized (the bounce limit is physically unreachable).
    """
    splits = 0
    pending = list(unsizeable)
    for _ in range(max_passes):
        if not pending:
            break
        next_pending: list[int] = []
        for index in pending:
            cluster = next((c for c in network.clusters
                            if c.index == index), None)
            if cluster is None:
                continue
            if cluster.size < 2:
                raise VgndError(
                    f"cluster {index} is a single cell and still cannot "
                    f"meet the bounce limit")
            first, second = split_cluster(
                netlist, library, placement, network, cluster,
                simultaneity_exponent, simultaneity_floor)
            splits += 1
            for half in (first, second):
                try:
                    sizer.size_cluster(half)
                except Exception:
                    next_pending.append(half.index)
        pending = next_pending
    if pending:
        raise VgndError(f"clusters {pending} remain unsizeable after "
                        f"{max_passes} split passes")
    return splits
