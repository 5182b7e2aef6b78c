"""MTE buffer tree and ECO fixes."""

import pytest

from repro.core.eco import HoldFixer, SetupFixer
from repro.core.mte import MteBufferTree
from repro.liberty.library import VARIANT_LVT
from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import PinDirection
from repro.netlist.transform import swap_variant
from repro.netlist.validate import check_netlist
from repro.placement.placer import GlobalPlacer
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.timing.sta import TimingAnalyzer


def _mte_design(library, sink_count):
    """A design whose MTE net drives `sink_count` holders."""
    builder = NetlistBuilder("mte_heavy")
    builder.inputs("a", "MTE")
    builder.outputs("y")
    builder.gate("INV_X1_MTV", "g0", A="a", Z="y")
    nl = builder.build()
    for i in range(sink_count):
        holder = nl.add_instance(f"h{i}", "HOLDER_X1")
        nl.connect(holder, "Z", "y", PinDirection.INOUT, keeper=True)
        nl.connect(holder, "MTE", "MTE", PinDirection.INPUT)
    return nl


class TestMteTree:
    def test_small_fanout_needs_no_buffers(self, library):
        nl = _mte_design(library, 4)
        placement = GlobalPlacer(nl, library).run()
        result = MteBufferTree(nl, library, placement,
                               fanout_limit=16).run()
        assert result.buffer_count == 0
        assert result.sink_count == 4  # the four holders' MTE pins

    def test_large_fanout_buffered(self, library):
        nl = _mte_design(library, 40)
        placement = GlobalPlacer(nl, library).run()
        result = MteBufferTree(nl, library, placement,
                               fanout_limit=8).run()
        assert result.buffer_count > 0
        # Root and every buffer respect the fanout limit.
        mte_net = nl.net("MTE")
        assert mte_net.fanout() <= 8
        for name in result.buffer_instances:
            out_net = nl.instance(name).pin("Z").net
            assert out_net.fanout() <= 8
        assert check_netlist(nl, library) == []

    def test_wakeup_delay_reported(self, library):
        nl = _mte_design(library, 40)
        placement = GlobalPlacer(nl, library).run()
        result = MteBufferTree(nl, library, placement,
                               fanout_limit=8).run()
        assert result.wakeup_delay_ns > 0

    def test_buffers_high_vth(self, library):
        nl = _mte_design(library, 40)
        placement = GlobalPlacer(nl, library).run()
        result = MteBufferTree(nl, library, placement,
                               fanout_limit=8).run()
        for name in result.buffer_instances:
            cell = library.cell(nl.instance(name).cell_name)
            assert cell.vth_class.value == "high"


class TestHoldFixer:
    def test_hold_violation_fixed(self, library):
        """A zero-logic FF->FF path with late capture clock violates
        hold; the fixer pads it with delay buffers."""
        builder = NetlistBuilder("holdy")
        builder.inputs("d")
        builder.outputs("q2")
        builder.dff("ff1", d="d", q="n1", cell_name="DFF_X1_LVT")
        builder.dff("ff2", d="n1", q="q2", cell_name="DFF_X1_LVT")
        nl = builder.build()
        cons = Constraints(clock_period=2.0)
        clock_arrivals = {"ff1": 0.0, "ff2": 0.3}  # capture clock late
        before = TimingAnalyzer(nl, library, cons,
                                clock_arrivals=clock_arrivals).run()
        assert not before.hold_met
        fixer = HoldFixer(TimingSession(nl, library, cons,
                                        clock_arrivals=clock_arrivals),
                          max_passes=5)
        result = fixer.run()
        assert result.buffer_count > 0
        assert result.final_report.hold_met
        assert check_netlist(nl, library) == []

    def test_clean_design_untouched(self, library, s27):
        fixer = HoldFixer(TimingSession(s27, library,
                                        Constraints(clock_period=5.0)))
        result = fixer.run()
        assert result.buffer_count == 0


class TestSetupFixer:
    def test_setup_violation_fixed_by_swaps(self, library, nand_chain):
        from repro.liberty.library import VARIANT_HVT, VthClass

        for inst in nand_chain.instances.values():
            swap_variant(nand_chain, inst, library, VARIANT_HVT)
        probe = Constraints(clock_period=1000.0)
        hvt_delay = 1000.0 - TimingAnalyzer(nand_chain, library,
                                            probe).run().wns
        # Period between the LVT and HVT critical delays.
        cons = Constraints(clock_period=hvt_delay * 0.92)
        assert not TimingAnalyzer(nand_chain, library, cons).run().setup_met

        session = TimingSession(nand_chain, library, cons)

        def fast_swap(inst):
            session.swap_variant(inst, VARIANT_LVT)
            return True

        result = SetupFixer(session, fast_swap).run()
        assert result.swap_count > 0
        assert result.final_report.setup_met

    def test_gives_up_when_swaps_exhausted(self, library, nand_chain):
        cons = Constraints(clock_period=0.01)  # impossible
        session = TimingSession(nand_chain, library, cons)
        result = SetupFixer(session, fast_swap=lambda inst: False).run()
        assert not result.final_report.setup_met
        assert result.swap_count == 0
