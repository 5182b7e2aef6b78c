"""Cross-module integration tests.

These exercise the whole stack the way the paper's evaluation does:
full flows on real/synthetic ISCAS circuits, with functional
equivalence and standby behaviour verified on the final layouts.
"""

import pytest

from repro.config import FlowConfig, Technique
from repro.core.flow import SelectiveMtFlow
from repro.experiments import PAPER_TABLE1, table1_config
from repro.power.leakage import LeakageAnalyzer
from repro.sim.equivalence import check_equivalence
from repro.sim.logic import FLOATING, Simulator


@pytest.fixture(scope="module")
def s344_improved(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("s344")
    config = FlowConfig(timing_margin=0.15)
    flow = SelectiveMtFlow(netlist, library, Technique.IMPROVED_SMT, config)
    return netlist, flow.run()


def test_sequential_improved_flow_complete(library, s344_improved):
    _source, result = s344_improved
    assert result.network is not None
    assert result.cts is not None
    assert result.timing.hold_met
    assert result.timing.wns >= -0.01 * result.constraints.clock_period


def test_standby_mode_no_floating_powered_inputs(library, s344_improved):
    """The holder rule guarantees no powered gate sees Z in standby."""
    _source, result = s344_improved
    sim = Simulator(result.netlist, library)
    state = {ff.name: 1 for ff in sim.flip_flops()}
    vector = {p.name: 0 for p in result.netlist.input_ports()}
    outcome = sim.evaluate(vector, state, standby=True)
    assert outcome.floating_input_pins == []


def test_standby_then_wake_preserves_function(library, s344_improved):
    from repro.netlist.techmap import technology_map

    raw_source, result = s344_improved
    source = technology_map(raw_source.clone("golden"), library)
    sim = Simulator(result.netlist, library)
    golden_sim = Simulator(source, library)
    state = {ff.name: 0 for ff in sim.flip_flops()}
    golden_state = {ff.name: 0 for ff in golden_sim.flip_flops()}
    vector = {p.name: 1 for p in source.input_ports()}
    # Sleep (state retained), then wake and compare next states.
    _r, state = sim.step(vector, state, standby=True)
    woke, state = sim.step(vector, state)
    golden, golden_state = golden_sim.step(vector, golden_state)
    for name, value in golden.next_state.items():
        assert woke.next_state[name] == value


def test_improved_leakage_breakdown_shape(library, s344_improved):
    """In standby, MT logic residual is tiny; switches+holders small
    relative to what the same cells would leak as LVT."""
    _source, result = s344_improved
    breakdown = result.leakage
    assert breakdown.lvt_logic_nw == 0.0          # no LVT cells remain
    assert breakdown.mt_residual_nw < breakdown.total_nw * 0.05
    gating_overhead = breakdown.switch_nw + breakdown.holder_nw
    assert gating_overhead < breakdown.total_nw


def test_mini_table1_single_circuit(library):
    """Table 1 orderings hold on a small circuit in one run."""
    from repro.api.studies import technique_comparison
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c880")
    comparison = technique_comparison(netlist, library,
                                      FlowConfig(timing_margin=0.10))
    dual = comparison.row(Technique.DUAL_VTH)
    conventional = comparison.row(Technique.CONVENTIONAL_SMT)
    improved = comparison.row(Technique.IMPROVED_SMT)
    # Leakage: both SMT variants far below Dual-Vth; improved lowest.
    assert conventional.leakage_pct < 60.0
    assert improved.leakage_pct <= conventional.leakage_pct
    # Area: conventional pays the most; improved in between.
    assert dual.area_pct < improved.area_pct < conventional.area_pct
    text = comparison.render()
    assert "dual_vth" in text


def test_paper_reference_numbers_loaded():
    assert PAPER_TABLE1[("A", Technique.CONVENTIONAL_SMT)]["area"] \
        == pytest.approx(164.84)
    assert PAPER_TABLE1[("B", Technique.IMPROVED_SMT)]["leakage"] \
        == pytest.approx(12.21)
    assert table1_config("A").timing_margin < table1_config("B").timing_margin
