"""End-to-end flow tests (Fig. 4) on small circuits."""

import pytest

from repro.config import FlowConfig, Technique
from repro.core.flow import SelectiveMtFlow
from repro.netlist.validate import check_netlist
from repro.sim.equivalence import check_equivalence


@pytest.fixture(scope="module")
def flow_results(library):
    """All three techniques on the c432 stand-in (module-scoped)."""
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c432")
    config = FlowConfig(timing_margin=0.10)
    results = {}
    for technique in Technique:
        flow = SelectiveMtFlow(netlist, library, technique, config)
        results[technique] = flow.run()
    return netlist, results


def test_all_stages_recorded(flow_results):
    _netlist, results = flow_results
    improved = results[Technique.IMPROVED_SMT]
    names = [s.name for s in improved.stages]
    assert names == ["physical_synthesis", "vth_assignment",
                     "eco_placement", "switch_structure",
                     "routing_cts_mte", "spef_reoptimization",
                     "eco_and_sta"]
    dual = results[Technique.DUAL_VTH]
    assert "switch_structure" not in [s.name for s in dual.stages]


def test_final_netlists_valid(library, flow_results):
    _netlist, results = flow_results
    for result in results.values():
        assert check_netlist(result.netlist, library) == []


def test_function_preserved_by_all_flows(library, flow_results):
    from repro.netlist.techmap import technology_map

    netlist, results = flow_results
    golden = technology_map(netlist.clone("golden"), library)
    for technique, result in results.items():
        report = check_equivalence(golden, result.netlist, library)
        assert report.equivalent, (technique, report.mismatches[:3])


def test_timing_met_within_tolerance(flow_results):
    _netlist, results = flow_results
    for technique, result in results.items():
        # Within 1% of the period: the setup ECO stops after
        # SETUP_MAX_PASSES passes and may leave a small residual.
        floor = -0.01 * result.constraints.clock_period
        assert result.timing.wns >= floor, technique
        assert result.timing.hold_met, technique


def test_leakage_ordering(flow_results):
    """Dual-Vth leaks most; improved leaks least (Table 1 ordering)."""
    _netlist, results = flow_results
    dual = results[Technique.DUAL_VTH].leakage_nw
    conventional = results[Technique.CONVENTIONAL_SMT].leakage_nw
    improved = results[Technique.IMPROVED_SMT].leakage_nw
    assert dual > conventional
    assert improved <= conventional


def test_area_ordering(flow_results):
    """Dual-Vth smallest; conventional biggest (Table 1 ordering)."""
    _netlist, results = flow_results
    dual = results[Technique.DUAL_VTH].total_area
    conventional = results[Technique.CONVENTIONAL_SMT].total_area
    improved = results[Technique.IMPROVED_SMT].total_area
    assert dual < improved < conventional


def test_improved_has_network(flow_results):
    _netlist, results = flow_results
    improved = results[Technique.IMPROVED_SMT]
    assert improved.network is not None
    assert improved.network.bounce_ok()
    assert results[Technique.DUAL_VTH].network is None


def test_stage_report_rendering(flow_results):
    _netlist, results = flow_results
    text = results[Technique.IMPROVED_SMT].render_stages()
    assert "physical_synthesis" in text
    assert "spef_reoptimization" in text
    with pytest.raises(KeyError):
        results[Technique.DUAL_VTH].stage("no_such_stage")


def test_fixed_period_override(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c17")
    config = FlowConfig(clock_period_ns=5.0)
    result = SelectiveMtFlow(netlist, library,
                             Technique.DUAL_VTH, config).run()
    assert result.constraints.clock_period == pytest.approx(5.0)


def test_sequential_flow_runs_cts(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("s344")
    config = FlowConfig(timing_margin=0.15)
    result = SelectiveMtFlow(netlist, library,
                             Technique.IMPROVED_SMT, config).run()
    assert result.cts is not None
    assert result.cts.buffer_count > 0
    assert result.timing.hold_met
