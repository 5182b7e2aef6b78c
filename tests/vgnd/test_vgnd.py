"""Virtual-ground network: bounce, clustering, sizing, EM."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SizingError, VgndError
from repro.liberty.library import VARIANT_MTV
from repro.netlist.techmap import technology_map
from repro.netlist.transform import swap_variant
from repro.placement.legalize import legalize
from repro.placement.placer import GlobalPlacer
from repro.vgnd.bounce import (
    cluster_bounce,
    cluster_current,
    rail_resistance_far,
    simultaneity_factor,
    switch_on_resistance,
)
from repro.vgnd.cluster import ClusterConfig, MtClusterer
from repro.vgnd.em import check_em
from repro.vgnd.sizing import SwitchSizer


@pytest.fixture()
def placed_mt_design(library):
    """A placed c432 stand-in with every logic cell as an MTV cell."""
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c432")
    technology_map(netlist, library)
    placement = GlobalPlacer(netlist, library).run()
    legalize(placement, netlist, library)
    for inst in list(netlist.instances.values()):
        cell = library.cell(inst.cell_name)
        if library.has_variant(cell, VARIANT_MTV):
            swap_variant(netlist, inst, library, VARIANT_MTV)
    mt_names = [i.name for i in netlist.instances.values()
                if library.cell(i.cell_name).is_improved_mt]
    return netlist, placement, mt_names


class TestBounce:
    def test_simultaneity_bounds(self):
        assert simultaneity_factor(1) == 1.0
        assert simultaneity_factor(4) == pytest.approx(0.5)
        assert simultaneity_factor(10000) == pytest.approx(0.25)
        assert simultaneity_factor(0) == 0.0

    def test_cluster_current_scales_sublinearly(self, placed_mt_design,
                                                library):
        netlist, _placement, mt_names = placed_mt_design
        few = cluster_current(mt_names[:4], netlist, library)
        many = cluster_current(mt_names[:16], netlist, library)
        assert many > few
        assert many < 4.0 * few  # simultaneity discount kicks in

    def test_bounce_formula(self):
        assert cluster_bounce(1.0, 0.05, 0.01) == pytest.approx(0.06)

    def test_rail_resistance(self, library):
        tech = library.tech
        assert rail_resistance_far(100.0, tech) == pytest.approx(
            50.0 * tech.vgnd_res_per_um)

    def test_switch_on_resistance_matches_width(self, library):
        r4 = switch_on_resistance(library, "SWITCH_X4")
        r8 = switch_on_resistance(library, "SWITCH_X8")
        assert r4 == pytest.approx(2.0 * r8)


class TestClusterer:
    def test_constraints_respected(self, placed_mt_design, library):
        netlist, placement, mt_names = placed_mt_design
        config = ClusterConfig(bounce_limit_v=0.048,
                               max_rail_length_um=300.0,
                               max_cells_per_switch=24)
        clusterer = MtClusterer(netlist, library, placement, config)
        network = clusterer.build(mt_names)
        assert network.mt_cell_count == len(mt_names)
        for cluster in network.clusters:
            assert cluster.size <= 24
            assert cluster.rail_length_um <= 300.0 + 1e-6

    def test_every_cell_in_exactly_one_cluster(self, placed_mt_design,
                                               library):
        netlist, placement, mt_names = placed_mt_design
        network = MtClusterer(netlist, library, placement,
                              ClusterConfig()).build(mt_names)
        assigned = [m for c in network.clusters for m in c.members]
        assert sorted(assigned) == sorted(mt_names)

    def test_tighter_caps_make_more_clusters(self, placed_mt_design,
                                             library):
        netlist, placement, mt_names = placed_mt_design
        loose = MtClusterer(netlist, library, placement,
                            ClusterConfig(max_cells_per_switch=64)
                            ).build(mt_names)
        tight = MtClusterer(netlist, library, placement,
                            ClusterConfig(max_cells_per_switch=8)
                            ).build(mt_names)
        assert len(tight.clusters) > len(loose.clusters)

    def test_empty_input(self, placed_mt_design, library):
        netlist, placement, _names = placed_mt_design
        network = MtClusterer(netlist, library, placement,
                              ClusterConfig()).build([])
        assert not network.clusters

    def test_config_validation(self):
        with pytest.raises(VgndError):
            ClusterConfig(bounce_limit_v=0.0)
        with pytest.raises(VgndError):
            ClusterConfig(max_rail_length_um=-1.0)
        with pytest.raises(VgndError):
            ClusterConfig(max_cells_per_switch=0)


class TestSizer:
    def test_sized_network_meets_bounce(self, placed_mt_design, library):
        netlist, placement, mt_names = placed_mt_design
        config = ClusterConfig(bounce_limit_v=0.048)
        network = MtClusterer(netlist, library, placement,
                              config).build(mt_names)
        sizer = SwitchSizer(library, config.bounce_limit_v)
        outcome = sizer.size_network(network)
        assert network.bounce_ok()
        assert outcome.worst_bounce_v <= config.bounce_limit_v + 1e-9
        for cluster in network.clusters:
            assert cluster.switch_cell is not None

    def test_smaller_limit_means_wider_switches(self, placed_mt_design,
                                                library):
        netlist, placement, mt_names = placed_mt_design
        def total_width(limit):
            config = ClusterConfig(bounce_limit_v=limit)
            network = MtClusterer(netlist, library, placement,
                                  config).build(mt_names)
            SwitchSizer(library, limit).size_network(network)
            return network.total_switch_width(library)

        assert total_width(0.024) >= total_width(0.06)

    def test_unsizeable_reported_not_raised(self, placed_mt_design,
                                            library):
        netlist, placement, mt_names = placed_mt_design
        config = ClusterConfig(bounce_limit_v=0.048)
        network = MtClusterer(netlist, library, placement,
                              config).build(mt_names)
        sizer = SwitchSizer(library, 1e-6)  # impossible limit
        outcome = sizer.size_network(network, strict=False)
        assert outcome.unsizeable_clusters
        with pytest.raises(SizingError):
            sizer.size_network(network, strict=True)

    def test_reoptimize_with_measured_rails(self, placed_mt_design,
                                            library):
        netlist, placement, mt_names = placed_mt_design
        config = ClusterConfig(bounce_limit_v=0.048)
        network = MtClusterer(netlist, library, placement,
                              config).build(mt_names)
        sizer = SwitchSizer(library, config.bounce_limit_v)
        sizer.size_network(network)
        # Pretend routing halved every rail: switches may shrink.
        measured = {c.index: c.rail_length_um * 0.5
                    for c in network.clusters}
        outcome = sizer.reoptimize(network, measured)
        assert network.bounce_ok()
        assert not outcome.unsizeable_clusters


class TestEm:
    def test_clean_network(self, placed_mt_design, library):
        netlist, placement, mt_names = placed_mt_design
        config = ClusterConfig(bounce_limit_v=0.048)
        network = MtClusterer(netlist, library, placement,
                              config).build(mt_names)
        SwitchSizer(library, config.bounce_limit_v).size_network(network)
        assert check_em(network, library,
                        config.max_cells_per_switch) == []

    def test_cell_count_violation(self, placed_mt_design, library):
        netlist, placement, mt_names = placed_mt_design
        network = MtClusterer(netlist, library, placement,
                              ClusterConfig()).build(mt_names)
        SwitchSizer(library, 0.048).size_network(network)
        violations = check_em(network, library, max_cells_per_switch=1)
        assert violations
        assert any(v.rule == "cell_count" for v in violations)

    def test_current_violation_detected(self, placed_mt_design, library):
        netlist, placement, mt_names = placed_mt_design
        network = MtClusterer(netlist, library, placement,
                              ClusterConfig()).build(mt_names)
        SwitchSizer(library, 0.048).size_network(network)
        # Force undersized switches.
        for cluster in network.clusters:
            cluster.switch_cell = "SWITCH_X1"
            cluster.current_ma = 100.0
        violations = check_em(network, library, 64)
        assert any(v.rule == "current" for v in violations)
        assert "exceeds" in violations[0].render()


class TestDerates:
    def test_derates_cover_members(self, placed_mt_design, library):
        netlist, placement, mt_names = placed_mt_design
        config = ClusterConfig(bounce_limit_v=0.048)
        network = MtClusterer(netlist, library, placement,
                              config).build(mt_names)
        SwitchSizer(library, config.bounce_limit_v).size_network(network)
        derates = network.derates(netlist, library)
        assert set(derates) == set(mt_names)
        for value in derates.values():
            assert 0.9 < value < 1.1


class TestSimultaneityConfig:
    """ClusterConfig/FlowConfig overrides of the simultaneity model."""

    def test_cluster_config_validates_ranges(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as excinfo:
            ClusterConfig(simultaneity_exponent=1.5)
        assert excinfo.value.field == "simultaneity_exponent"
        with pytest.raises(ConfigError) as excinfo:
            ClusterConfig(simultaneity_floor=0.0)
        assert excinfo.value.field == "simultaneity_floor"
        with pytest.raises(ConfigError):
            ClusterConfig(simultaneity_floor=1.5)

    def test_flow_config_validates_ranges(self):
        from repro.config import FlowConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as excinfo:
            FlowConfig(simultaneity_exponent=-0.1)
        assert excinfo.value.field == "simultaneity_exponent"
        with pytest.raises(ConfigError):
            FlowConfig(simultaneity_floor=2.0)

    def test_defaults_match_module_constants(self):
        from repro.config import FlowConfig
        from repro.vgnd.bounce import (
            SIMULTANEITY_EXPONENT,
            SIMULTANEITY_FLOOR,
        )

        cluster = ClusterConfig()
        flow = FlowConfig()
        assert cluster.simultaneity_exponent == SIMULTANEITY_EXPONENT
        assert cluster.simultaneity_floor == SIMULTANEITY_FLOOR
        assert flow.simultaneity_exponent == SIMULTANEITY_EXPONENT
        assert flow.simultaneity_floor == SIMULTANEITY_FLOOR

    def test_floor_one_disables_the_discount(self, placed_mt_design,
                                             library):
        """floor=1.0 makes every cluster current the plain sum."""
        netlist, placement, mt_names = placed_mt_design
        config = ClusterConfig(simultaneity_floor=1.0)
        network = MtClusterer(netlist, library, placement,
                              config).build(mt_names)
        defaults = MtClusterer(netlist, library, placement,
                               ClusterConfig()).build(mt_names)
        for cluster in network.clusters:
            expected = cluster_current(cluster.members, netlist, library,
                                       exponent=0.5, floor=1.0)
            assert cluster.current_ma == pytest.approx(expected)
        worst = max(c.current_ma / max(c.size, 1)
                    for c in network.clusters)
        worst_default = max(c.current_ma / max(c.size, 1)
                            for c in defaults.clusters)
        assert worst >= worst_default

    def test_flow_threads_overrides_into_clustering(self, library):
        """A pessimistic floor reaches the built switch structure."""
        from repro.benchcircuits.suite import load_circuit
        from repro.config import FlowConfig, Technique
        from repro.core.flow import SelectiveMtFlow

        netlist = load_circuit("c17")
        # A roomier die: the pessimistic floor grows the switch, and
        # c17's default floorplan has no slack for it.
        tuned = SelectiveMtFlow(
            netlist, library, Technique.IMPROVED_SMT,
            FlowConfig(timing_margin=0.2, utilization=0.4,
                       simultaneity_floor=0.8)).run()
        default = SelectiveMtFlow(
            netlist, library, Technique.IMPROVED_SMT,
            FlowConfig(timing_margin=0.2, utilization=0.4)).run()
        assert tuned.network is not None
        tuned_current = sum(c.current_ma
                            for c in tuned.network.clusters)
        default_current = sum(c.current_ma
                              for c in default.network.clusters)
        assert tuned_current >= default_current
