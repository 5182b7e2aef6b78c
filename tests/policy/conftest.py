"""Shared fixtures for the sleep-policy suite."""

from __future__ import annotations

import pytest

from repro.liberty.library import VARIANT_MTV
from repro.netlist.techmap import technology_map
from repro.netlist.transform import swap_variant
from repro.placement.legalize import legalize
from repro.placement.placer import GlobalPlacer
from repro.standby.transient import TransientSolver
from repro.vgnd.cluster import ClusterConfig, MtClusterer
from repro.vgnd.sizing import SwitchSizer


def _clustered_c432(library, config):
    """A placed c432 with every cell MTV, clustered and sized."""
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c432")
    technology_map(netlist, library)
    placement = GlobalPlacer(netlist, library).run()
    legalize(placement, netlist, library)
    mt_names = []
    for inst in list(netlist.instances.values()):
        cell = library.cell(inst.cell_name)
        if library.has_variant(cell, VARIANT_MTV):
            swap_variant(netlist, inst, library, VARIANT_MTV)
            mt_names.append(inst.name)
    network = MtClusterer(netlist, library, placement,
                          config).build(mt_names)
    SwitchSizer(library, config.bounce_limit_v).size_network(network)
    return netlist, network


@pytest.fixture(scope="session")
def policy_design(library):
    """A placed c432 with every cell MTV, clustered and sized.

    Same construction as the standby suite's fixture (session-scoped,
    never mutated); the small cluster caps give the many-cluster
    network that makes multi-domain plans non-trivial.
    """
    netlist, network = _clustered_c432(
        library, ClusterConfig(max_cells_per_switch=16,
                               max_rail_length_um=220.0))
    assert len(network.clusters) >= 4  # multi-domain plans need a grid
    return netlist, network


@pytest.fixture(scope="session")
def many_cluster_design(library):
    """The policy benchmark's network: c432 under 4-cell, 120 um
    clusters, several dozen of them."""
    return _clustered_c432(
        library, ClusterConfig(max_cells_per_switch=4,
                               max_rail_length_um=120.0))


@pytest.fixture(scope="session")
def transients(policy_design, library):
    """Nominal-corner cluster transients of the fixture network."""
    netlist, network = policy_design
    return TransientSolver(network, netlist, library).solve()
