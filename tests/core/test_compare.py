"""Three-technique comparison harness."""

import pytest

from repro.api.studies import technique_comparison
from repro.config import FlowConfig, Technique


@pytest.fixture(scope="module")
def comparison(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c432")
    return technique_comparison(netlist, library,
                                FlowConfig(timing_margin=0.10),
                                circuit_name="c432-test")


def test_baseline_is_100_percent(comparison):
    dual = comparison.row(Technique.DUAL_VTH)
    assert dual.area_pct == pytest.approx(100.0)
    assert dual.leakage_pct == pytest.approx(100.0)


def test_rows_cover_all_techniques(comparison):
    assert {row.technique for row in comparison.rows} == set(Technique)
    with pytest.raises(KeyError):
        comparison.row("nope")


def test_row_counters(comparison):
    improved = comparison.row(Technique.IMPROVED_SMT)
    assert improved.mt_cells > 0
    assert improved.switches >= 1
    conventional = comparison.row(Technique.CONVENTIONAL_SMT)
    assert conventional.switches == 0   # switches are embedded
    assert conventional.holders == 0    # holders are embedded


def test_results_exposed(comparison):
    for technique in Technique:
        assert comparison.results[technique].netlist is not None


def test_render_contains_all_rows(comparison):
    text = comparison.render()
    for technique in Technique:
        assert technique.value in text
    assert "c432-test" in text


def test_subset_of_techniques(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c17")
    comparison = technique_comparison(
        netlist, library, FlowConfig(timing_margin=0.2),
        techniques=(Technique.DUAL_VTH, Technique.IMPROVED_SMT))
    assert len(comparison.rows) == 2
