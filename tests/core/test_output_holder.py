"""Output holder insertion rule (Fig. 3)."""

import pytest

from repro.core.output_holder import (
    insert_output_holders,
    nets_needing_holders,
)
from repro.liberty.library import VARIANT_MTV
from repro.netlist.builder import NetlistBuilder
from repro.netlist.validate import check_netlist


def _three_stage(library, variants):
    """in -> g1 -> g2 -> g3 -> out with the given variants."""
    builder = NetlistBuilder("stages")
    builder.inputs("a", "b")
    builder.outputs("y")
    builder.gate(f"NAND2_X1_{variants[0]}", "g1", A="a", B="b", Z="n1")
    builder.gate(f"INV_X1_{variants[1]}", "g2", A="n1", Z="n2")
    builder.gate(f"INV_X1_{variants[2]}", "g3", A="n2", Z="y")
    return builder.build()


def test_mt_feeding_mt_needs_no_holder(library):
    nl = _three_stage(library, ("MTV", "MTV", "MTV"))
    needing = nets_needing_holders(nl, library)
    # Only the primary output boundary needs a holder.
    assert [n.name for n in needing] == ["y"]


def test_mt_feeding_hvt_needs_holder(library):
    nl = _three_stage(library, ("MTV", "HVT", "MTV"))
    needing = {n.name for n in nets_needing_holders(nl, library)}
    assert "n1" in needing   # MT g1 drives powered g2
    assert "y" in needing    # MT g3 drives the output port
    assert "n2" not in needing  # powered g2 drives MT g3: fine


def test_all_powered_needs_nothing(library):
    nl = _three_stage(library, ("HVT", "LVT", "HVT"))
    assert nets_needing_holders(nl, library) == []


def test_insertion_connects_mte_and_keeper(library):
    nl = _three_stage(library, ("MTV", "HVT", "MTV"))
    nl.add_input("MTE")
    holders = insert_output_holders(nl, library)
    assert len(holders) == 2
    for name in holders:
        inst = nl.instance(name)
        assert inst.pin("MTE").net.name == "MTE"
        held_net = inst.pin("Z").net
        assert inst.pin("Z") in held_net.keepers
    assert check_netlist(nl, library) == []


def test_insertion_idempotent(library):
    nl = _three_stage(library, ("MTV", "HVT", "MTV"))
    nl.add_input("MTE")
    first = insert_output_holders(nl, library)
    second = insert_output_holders(nl, library)
    assert first and not second


def test_ff_sink_counts_as_powered(library):
    builder = NetlistBuilder("to_ff")
    builder.inputs("a", "b")
    builder.outputs("q")
    builder.gate("NAND2_X1_MTV", "g1", A="a", B="b", Z="n1")
    builder.dff("ff1", d="n1", q="q", cell_name="DFF_X1_HVT")
    nl = builder.build()
    needing = {n.name for n in nets_needing_holders(nl, library)}
    assert "n1" in needing


def test_paper_rule_quote(library):
    """'When all fanouts of the MT-cell are connected to MT-cells, an
    output holder is unnecessary.'"""
    builder = NetlistBuilder("fanout2")
    builder.inputs("a", "b")
    builder.outputs("y1", "y2")
    builder.gate("NAND2_X1_MTV", "src", A="a", B="b", Z="n1")
    builder.gate("INV_X1_MTV", "d1", A="n1", Z="m1")
    builder.gate("INV_X1_MTV", "d2", A="n1", Z="m2")
    builder.gate("INV_X1_MTV", "o1", A="m1", Z="y1")
    builder.gate("INV_X1_MTV", "o2", A="m2", Z="y2")
    nl = builder.build()
    needing = {n.name for n in nets_needing_holders(nl, library)}
    # n1, m1, m2 feed only MT cells: no holders there.
    assert "n1" not in needing
    assert needing == {"y1", "y2"}
