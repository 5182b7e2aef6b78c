"""Netlist transforms: variant swaps, buffering."""

import pytest

from repro.errors import NetlistError
from repro.liberty.library import (
    VARIANT_CMT,
    VARIANT_HVT,
    VARIANT_LVT,
    VARIANT_MTV,
)
from repro.netlist.core import PinDirection
from repro.netlist.transform import insert_buffer, swap_variant
from repro.netlist.validate import check_netlist
from repro.sim.equivalence import check_equivalence


class TestSwapVariant:
    def test_lvt_to_hvt_keeps_pins(self, library, c17):
        inst = next(iter(c17.instances.values()))
        pins_before = set(inst.pins)
        swap_variant(c17, inst, library, VARIANT_HVT)
        assert inst.cell_name == "NAND2_X1_HVT"
        assert set(inst.pins) == pins_before
        assert check_netlist(c17, library) == []

    def test_to_mtv_adds_vgnd(self, library, c17):
        inst = next(iter(c17.instances.values()))
        swap_variant(c17, inst, library, VARIANT_MTV)
        assert "VGND" in inst.pins
        assert inst.pins["VGND"].net is None

    def test_to_cmt_adds_mte(self, library, c17):
        inst = next(iter(c17.instances.values()))
        swap_variant(c17, inst, library, VARIANT_CMT)
        assert "MTE" in inst.pins

    def test_mtv_back_to_lvt_drops_vgnd(self, library, c17):
        inst = next(iter(c17.instances.values()))
        swap_variant(c17, inst, library, VARIANT_MTV)
        c17.connect(inst, "VGND", "vgnd_0", PinDirection.INOUT, keeper=True)
        swap_variant(c17, inst, library, VARIANT_LVT)
        assert "VGND" not in inst.pins
        assert not c17.net("vgnd_0").keepers

    def test_swap_is_noop_for_same_variant(self, library, c17):
        inst = next(iter(c17.instances.values()))
        name = inst.cell_name
        swap_variant(c17, inst, library, VARIANT_LVT)
        assert inst.cell_name == name

    def test_swap_preserves_function(self, library, c17):
        golden = c17.clone("golden")
        for inst in c17.instances.values():
            swap_variant(c17, inst, library, VARIANT_HVT)
        report = check_equivalence(golden, c17, library)
        assert report.equivalent


class TestInsertBuffer:
    def test_buffer_all_sinks(self, library, c17):
        net = c17.net("N16")  # feeds two NAND gates in c17
        fanout_before = len(net.sinks)
        buf = insert_buffer(c17, net, "BUF_X2_LVT")
        assert len(net.sinks) == 1  # only the buffer remains
        assert len(buf.pin("Z").net.sinks) == fanout_before
        assert check_netlist(c17, library) == []

    def test_buffer_subset(self, library, c17):
        net = c17.net("N16")
        first_sink = net.sinks[0]
        buf = insert_buffer(c17, net, "BUF_X1_LVT", sinks=[first_sink])
        assert first_sink.net is buf.pin("Z").net
        assert check_netlist(c17, library) == []

    def test_buffer_preserves_function(self, library, c17):
        golden = c17.clone("golden")
        insert_buffer(c17, c17.net("N11"), "BUF_X1_LVT")
        report = check_equivalence(golden, c17, library)
        assert report.equivalent

    def test_foreign_sink_rejected(self, library, c17):
        net_a = c17.net("N10")
        net_b = c17.net("N16")
        with pytest.raises(NetlistError):
            insert_buffer(c17, net_a, "BUF_X1_LVT", sinks=[net_b.sinks[0]])
