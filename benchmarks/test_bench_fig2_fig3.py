"""Figures 2 and 3: conventional vs improved Selective-MT circuits.

Fig. 2 shows the conventional circuit (each critical-path cell is an
MT-cell with its own embedded switch); Fig. 3 the improved one (shared
switch transistors, output holders only on MT-region boundaries).  The
paper states the two circuits are *equivalent*.

This bench constructs both on the same placed netlist and verifies:

* functional equivalence (the paper's explicit claim);
* the conventional circuit carries one embedded switch per MT-cell,
  the improved one far fewer shared switches;
* improved holders appear only where an MT-cell drives powered logic;
* total switch width shrinks with sharing (the area/leakage mechanism).
"""

import pytest

from repro.core.improved_smt import ImprovedSmtBuilder
from repro.core.selective_mt import ConventionalSmtBuilder
from repro.netlist.techmap import technology_map
from repro.placement.legalize import legalize
from repro.placement.placer import GlobalPlacer
from repro.sim.equivalence import check_equivalence
from repro.timing.constraints import Constraints
from repro.timing.sta import TimingAnalyzer
from conftest import run_once

CIRCUIT = "c1908"
MARGIN = 1.10


def _prepare(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit(CIRCUIT)
    technology_map(netlist, library)
    placement = GlobalPlacer(netlist, library).run()
    legalize(placement, netlist, library)
    probe = Constraints(clock_period=1000.0)
    report = TimingAnalyzer(netlist, library, probe).run()
    cons = Constraints(clock_period=(1000.0 - report.wns) * MARGIN)
    return netlist, placement, cons


@pytest.fixture(scope="module")
def both(library):
    conventional_nl, _p, cons = _prepare(library)
    conventional = ConventionalSmtBuilder(conventional_nl,
                                          library).run(cons)
    improved_nl, placement, cons2 = _prepare(library)
    improved = ImprovedSmtBuilder(improved_nl, library,
                                  placement).run(cons2)
    return (conventional_nl, conventional), (improved_nl, improved)


def test_bench_fig2_conventional_construction(benchmark, library):
    def build():
        netlist, _placement, cons = _prepare(library)
        return ConventionalSmtBuilder(netlist, library).run(cons)

    result = run_once(benchmark, build)
    print(f"\nFig.2 conventional: {result.mt_count} MT-cells, each with "
          f"an embedded switch + holder")
    assert result.mt_count > 0


def test_bench_fig3_improved_construction(benchmark, library):
    def build():
        netlist, placement, cons = _prepare(library)
        return ImprovedSmtBuilder(netlist, library, placement).run(cons)

    result = run_once(benchmark, build)
    print(f"\nFig.3 improved: {result.mt_count} MT-cells, "
          f"{len(result.network.clusters)} shared switches, "
          f"{result.holder_count} output holders")
    assert result.network.switch_count >= 1


class TestFig2Fig3:
    def test_equivalence_claim(self, library, both):
        """Paper: 'The circuits in Fig.2 and Fig.3 are equivalent.'"""
        (conventional_nl, _c), (improved_nl, _i) = both
        report = check_equivalence(conventional_nl, improved_nl, library)
        assert report.equivalent, report.mismatches[:3]

    def test_conventional_one_switch_per_cell(self, library, both):
        (netlist, result), _ = both
        for name in result.mt_cell_names:
            cell = library.cell(netlist.instances[name].cell_name)
            assert cell.switch_width_um > 0  # embedded in every cell

    def test_improved_shares_switches(self, library, both):
        _, (netlist, result) = both
        assert result.network.switch_count < result.mt_count / 4

    def test_improved_total_switch_width_smaller(self, library, both):
        """The sharing mechanism: less total switch width."""
        (conv_nl, conv), (imp_nl, imp) = both
        conventional_width = sum(
            library.cell(conv_nl.instances[n].cell_name).switch_width_um
            for n in conv.mt_cell_names)
        improved_width = imp.network.total_switch_width(library)
        assert improved_width < conventional_width

    def test_improved_holder_rule(self, library, both):
        from repro.core.output_holder import nets_needing_holders

        _, (netlist, result) = both
        for net in nets_needing_holders(netlist, library):
            assert net.keepers, f"{net.name} lacks its holder"
        assert result.holder_count < result.mt_count
