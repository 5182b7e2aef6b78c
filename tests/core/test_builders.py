"""Conventional and improved Selective-MT builders (Figs. 2 and 3)."""

import pytest

from repro.config import FlowConfig
from repro.core.improved_smt import ImprovedSmtBuilder
from repro.core.selective_mt import ConventionalSmtBuilder
from repro.liberty.library import CellKind
from repro.netlist.techmap import technology_map
from repro.netlist.validate import check_netlist
from repro.placement.legalize import legalize
from repro.placement.placer import GlobalPlacer
from repro.sim.equivalence import check_equivalence
from repro.timing.constraints import Constraints
from repro.timing.sta import TimingAnalyzer


def _prepared(library, name="c880", margin=1.12):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit(name)
    technology_map(netlist, library)
    placement = GlobalPlacer(netlist, library).run()
    legalize(placement, netlist, library)
    probe = Constraints(clock_period=1000.0)
    report = TimingAnalyzer(netlist, library, probe).run()
    cons = Constraints(clock_period=(1000.0 - report.wns) * margin)
    return netlist, placement, cons


@pytest.fixture(scope="module")
def conventional(library):
    netlist, _placement, cons = _prepared(library)
    golden = netlist.clone("golden")
    builder = ConventionalSmtBuilder(netlist, library)
    result = builder.run(cons)
    return golden, netlist, result


@pytest.fixture(scope="module")
def improved(library):
    netlist, placement, cons = _prepared(library)
    golden = netlist.clone("golden")
    builder = ImprovedSmtBuilder(netlist, library, placement)
    result = builder.run(cons)
    return golden, netlist, result


class TestConventional:
    def test_mt_cells_are_cmt(self, library, conventional):
        _golden, netlist, result = conventional
        assert result.mt_count > 0
        for name in result.mt_cell_names:
            cell = library.cell(netlist.instances[name].cell_name)
            assert cell.is_conventional_mt

    def test_every_cmt_on_mte_net(self, library, conventional):
        _golden, netlist, result = conventional
        mte_net = netlist.net("MTE")
        for name in result.mt_cell_names:
            inst = netlist.instances[name]
            assert inst.pin("MTE").net is mte_net

    def test_netlist_valid(self, library, conventional):
        _golden, netlist, _result = conventional
        assert check_netlist(netlist, library) == []

    def test_function_preserved(self, library, conventional):
        golden, netlist, _result = conventional
        assert check_equivalence(golden, netlist, library).equivalent


class TestImproved:
    def test_mt_cells_have_vgnd_connected(self, library, improved):
        _golden, netlist, result = improved
        assert result.mt_count > 0
        for name in result.mt_cell_names:
            inst = netlist.instances[name]
            assert inst.pin("VGND").net is not None

    def test_clusters_cover_all_mt_cells(self, library, improved):
        _golden, netlist, result = improved
        clustered = [m for c in result.network.clusters for m in c.members]
        assert sorted(clustered) == sorted(result.mt_cell_names)

    def test_switches_inserted_and_sized(self, library, improved):
        _golden, netlist, result = improved
        assert result.network.switch_count == len(result.network.clusters)
        for cluster in result.network.clusters:
            inst = netlist.instances[cluster.switch_instance]
            cell = library.cell(inst.cell_name)
            assert cell.kind == CellKind.SWITCH
            assert inst.cell_name == cluster.switch_cell

    def test_bounce_within_limit(self, library, improved):
        _golden, _netlist, result = improved
        assert result.network.bounce_ok()

    def test_default_config_is_the_flows_bounce_limit(self, library,
                                                      improved):
        """Without a config the builder clusters under FlowConfig's
        limit (4 % of Vdd), as the flow does."""
        _golden, _netlist, result = improved
        assert result.network.bounce_limit_v == \
            FlowConfig().bounce_limit_v(library.tech.vdd)

    def test_holders_only_on_boundaries(self, library, improved):
        from repro.core.output_holder import nets_needing_holders

        _golden, netlist, result = improved
        # After insertion, no net still *needs* a holder without one.
        for net in nets_needing_holders(netlist, library):
            assert net.keepers, f"net {net.name} missing its holder"

    def test_fewer_holders_than_mt_cells(self, library, improved):
        """The improved technique's saving: holders only at edges."""
        _golden, _netlist, result = improved
        assert result.holder_count < result.mt_count

    def test_netlist_valid(self, library, improved):
        _golden, netlist, _result = improved
        assert check_netlist(netlist, library) == []

    def test_function_preserved(self, library, improved):
        golden, netlist, _result = improved
        assert check_equivalence(golden, netlist, library).equivalent

    def test_equivalent_to_conventional(self, library, conventional,
                                        improved):
        """Paper: 'The circuits in Fig.2 and Fig.3 are equivalent.'"""
        _g1, conventional_netlist, _r1 = conventional
        _g2, improved_netlist, _r2 = improved
        report = check_equivalence(conventional_netlist, improved_netlist,
                                   library)
        assert report.equivalent, report.mismatches[:3]
