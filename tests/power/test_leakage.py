"""Standby leakage analysis."""

import pytest

from repro.api import schemas
from repro.liberty.library import (
    VARIANT_CMT,
    VARIANT_HVT,
    VARIANT_MTV,
)
from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import PinDirection
from repro.netlist.transform import swap_variant
from repro.power.leakage import LeakageAnalyzer
from repro.power.report import render_leakage_table


def test_all_lvt_dominated_by_lvt_category(library, c17):
    breakdown = LeakageAnalyzer(c17, library).standby_leakage()
    assert breakdown.lvt_logic_nw == pytest.approx(breakdown.total_nw)
    assert breakdown.instance_count == 6


def test_hvt_swap_reduces_leakage(library, c17):
    before = LeakageAnalyzer(c17, library).standby_leakage().total_nw
    for inst in c17.instances.values():
        swap_variant(c17, inst, library, VARIANT_HVT)
    after = LeakageAnalyzer(c17, library).standby_leakage().total_nw
    assert after < before / 10.0


def test_mtv_cells_nearly_leakless(library, c17):
    for inst in c17.instances.values():
        swap_variant(c17, inst, library, VARIANT_MTV)
    breakdown = LeakageAnalyzer(c17, library).standby_leakage()
    assert breakdown.mt_residual_nw == pytest.approx(breakdown.total_nw)
    # Residual is tiny compared to even an all-HVT netlist.
    assert breakdown.total_nw < 0.1


def test_cmt_leaks_through_embedded_switch(library, c17):
    for inst in c17.instances.values():
        swap_variant(c17, inst, library, VARIANT_CMT)
    breakdown = LeakageAnalyzer(c17, library).standby_leakage()
    assert breakdown.conventional_mt_nw == pytest.approx(breakdown.total_nw)


def test_switches_and_holders_categorized(library):
    builder = NetlistBuilder("mixed")
    builder.inputs("a", "MTE")
    builder.outputs("y")
    builder.gate("INV_X1_MTV", "g1", A="a", Z="y")
    nl = builder.build()
    switch = nl.add_instance("sw1", "SWITCH_X4")
    nl.connect(switch, "MTE", "MTE", PinDirection.INPUT)
    nl.connect(switch, "VGND", "vgnd_0", PinDirection.INOUT, keeper=True)
    holder = nl.add_instance("h1", "HOLDER_X1")
    nl.connect(holder, "Z", "y", PinDirection.INOUT, keeper=True)
    nl.connect(holder, "MTE", "MTE", PinDirection.INPUT)
    breakdown = LeakageAnalyzer(nl, library).standby_leakage()
    assert breakdown.switch_nw > 0
    assert breakdown.holder_nw > 0
    assert breakdown.total_nw == pytest.approx(
        breakdown.switch_nw + breakdown.holder_nw
        + breakdown.mt_residual_nw)


def test_state_dependent_analysis(library, c17):
    analyzer = LeakageAnalyzer(c17, library)
    averaged = analyzer.standby_leakage().total_nw
    vectors = [
        {"N1": 0, "N2": 0, "N3": 0, "N6": 0, "N7": 0},
        {"N1": 1, "N2": 1, "N3": 1, "N6": 1, "N7": 1},
        {"N1": 1, "N2": 0, "N3": 1, "N6": 0, "N7": 1},
    ]
    values = [analyzer.standby_leakage(v).total_nw for v in vectors]
    assert all(v > 0 for v in values)
    assert len({round(v, 6) for v in values}) > 1  # states differ
    # Every state-specific total stays within the physical envelope.
    assert min(values) < 3.0 * averaged
    assert max(values) > averaged / 3.0


def test_total_area(library, c17):
    area = LeakageAnalyzer(c17, library).total_area()
    expected = 6 * library.cell("NAND2_X1_LVT").area
    assert area == pytest.approx(expected)


def test_render_table(library, c17):
    breakdown = LeakageAnalyzer(c17, library).standby_leakage()
    text = render_leakage_table(breakdown)
    assert "Low-Vth logic" in text
    assert "Total" in text


def test_sequential_category(library, s27):
    breakdown = LeakageAnalyzer(s27, library).standby_leakage()
    assert breakdown.sequential_nw > 0


def test_as_dict_is_self_describing(library, c17):
    breakdown = LeakageAnalyzer(c17, library).standby_leakage()
    payload = schemas.to_dict(breakdown)
    assert payload["instance_count"] == 6
    assert payload["total_nw"] == pytest.approx(breakdown.total_nw)
    shares = payload["shares_pct"]
    assert set(shares) == set(breakdown.CATEGORIES)
    assert sum(shares.values()) == pytest.approx(100.0)
    assert shares["lvt_logic_nw"] == pytest.approx(100.0)


def test_as_dict_zero_total_has_zero_shares():
    from repro.power.leakage import LeakageBreakdown

    payload = schemas.to_dict(LeakageBreakdown())
    assert payload["instance_count"] == 0
    assert all(v == 0.0 for v in payload["shares_pct"].values())


def _floating_input_fixture(library):
    """An MTV inverter feeding a powered LVT NAND with no holder:
    in standby the MTV output floats into the powered gate."""
    builder = NetlistBuilder("float_into_powered")
    builder.inputs("a", "b")
    builder.outputs("y")
    builder.gate("INV_X1_MTV", "g_mt", A="a", Z="n1")
    builder.gate("NAND2_X1_LVT", "g_pow", A="n1", B="b", Z="y")
    return builder.build()


def test_floating_input_uses_worst_leakage(library):
    netlist = _floating_input_fixture(library)
    analyzer = LeakageAnalyzer(netlist, library)
    breakdown = analyzer.standby_leakage(input_vector={"a": 0, "b": 1})
    nand = library.cell("NAND2_X1_LVT")
    # The powered gate saw a floating input: worst-case leakage, which
    # is strictly above the state-averaged default.
    assert breakdown.per_instance["g_pow"] == nand.worst_leakage_nw()
    assert nand.worst_leakage_nw() > nand.default_leakage_nw


def test_floating_hazard_removed_by_holder(library):
    netlist = _floating_input_fixture(library)
    holder = netlist.add_instance("h1", "HOLDER_X1")
    netlist.connect(holder, "Z", "n1", PinDirection.INOUT, keeper=True)
    netlist.connect(holder, "MTE", "MTE", PinDirection.INPUT)
    breakdown = LeakageAnalyzer(netlist, library).standby_leakage()
    vector = LeakageAnalyzer(netlist, library).standby_leakage(
        input_vector={"a": 0, "b": 0})
    nand = library.cell("NAND2_X1_LVT")
    # Held net: the powered gate sees a solid 1 on A (and 0 on B), a
    # characterized state instead of the floating worst case.
    assert vector.per_instance["g_pow"] != nand.worst_leakage_nw()
    assert vector.per_instance["g_pow"] \
        == nand.leakage_nw({"A": 1, "B": 0})
    assert breakdown.holder_nw > 0


def test_missing_net_falls_back_to_default(library):
    """An input pin with no net cannot be state-evaluated: the
    instance contributes its state-averaged default."""
    from repro.netlist.core import Pin

    builder = NetlistBuilder("dangling")
    builder.inputs("a")
    builder.outputs("y")
    builder.gate("INV_X1_LVT", "g0", A="a", Z="n0")
    netlist = builder.build()
    nand = netlist.add_instance("g1", "NAND2_X1_LVT")
    netlist.connect(nand, "A", "n0", PinDirection.INPUT)
    netlist.connect(nand, "Z", "y", PinDirection.OUTPUT)
    # Pin B exists but its net was never attached (post-transform
    # dangling pin).
    nand.pins["B"] = Pin(nand, "B", PinDirection.INPUT)
    breakdown = LeakageAnalyzer(netlist, library).standby_leakage(
        input_vector={"a": 1})
    cell = library.cell("NAND2_X1_LVT")
    assert breakdown.per_instance["g1"] == cell.default_leakage_nw


def test_vector_vs_vectorless_consistency(library, c17):
    """Vectorless totals equal the state-averaged defaults; any full
    input vector lands on characterized states, and cells without
    leakage states contribute their default either way."""
    analyzer = LeakageAnalyzer(c17, library)
    vectorless = analyzer.standby_leakage()
    for name, value in vectorless.per_instance.items():
        cell = library.cell(c17.instances[name].cell_name)
        assert value == cell.default_leakage_nw
    vector = analyzer.standby_leakage(
        input_vector={"N1": 1, "N2": 0, "N3": 1, "N6": 0, "N7": 1})
    for name, value in vector.per_instance.items():
        cell = library.cell(c17.instances[name].cell_name)
        characterized = {s.value_nw for s in cell.leakage_states}
        characterized.add(cell.default_leakage_nw)
        assert value in characterized
    assert vector.instance_count == vectorless.instance_count
