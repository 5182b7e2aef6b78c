"""Corner signoff: the Design.signoff path and nominal bit-identity."""

import pytest

from repro.api import Workspace, schemas
from repro.config import FlowConfig, Technique
from repro.errors import FlowError
from repro.timing.constraints import Constraints
from repro.timing.sta import TimingAnalyzer
from repro.variation.signoff import evaluate_corners

SIGNOFF = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")


@pytest.fixture(scope="module")
def design(library):
    return Workspace(library=library,
                     config=FlowConfig(timing_margin=0.10)).design("c432")


@pytest.fixture(scope="module")
def signed_off(design):
    """Improved-SMT corner signoff of c432's finished flow."""
    return design.signoff(technique=Technique.IMPROVED_SMT,
                          corners=SIGNOFF)


class TestFlowIntegration:
    def test_result_carries_all_corners(self, signed_off):
        assert signed_off.corners == SIGNOFF
        assert tuple(row.corner for row in signed_off.rows) == SIGNOFF

    def test_nominal_corner_bit_identical(self, design, signed_off):
        """tt_nom signoff == the single-point flow result, exactly."""
        flow = design.flow_result(Technique.IMPROVED_SMT)
        nominal = signed_off.row("tt_nom")
        assert nominal.leakage_nw == flow.leakage_nw
        assert nominal.wns == flow.timing.wns
        assert nominal.hold_wns == flow.timing.hold_wns

    def test_corner_orderings(self, signed_off):
        nominal = signed_off.row("tt_nom")
        hot_fast = signed_off.row("ff_1.32v_125c")
        slow_low = signed_off.row("ss_1.08v_125c")
        assert hot_fast.leakage_nw > nominal.leakage_nw
        assert slow_low.wns < nominal.wns

    def test_unknown_corner_fails_fast(self, library):
        design = Workspace(library=library,
                           config=FlowConfig(timing_margin=0.2)) \
            .design("c17")
        with pytest.raises(FlowError, match="unknown corner"):
            design.signoff(technique=Technique.DUAL_VTH,
                           corners=("no_such_corner",))


class TestEvaluateCorners:
    def test_standalone_on_mapped_netlist(self, library, c17):
        probe = TimingAnalyzer(c17, library,
                               Constraints(clock_period=1000.0)).run()
        constraints = Constraints(
            clock_period=(1000.0 - probe.wns) * 1.2)
        results = evaluate_corners(c17, library, SIGNOFF, constraints)
        assert tuple(results) == SIGNOFF
        nominal = results["tt_nom"]
        fresh = TimingAnalyzer(c17, library, constraints).run()
        assert nominal.wns == fresh.wns
        # Scale metadata rides along for reporting.
        assert nominal.delay_scale_low == 1.0
        assert results["ss_1.08v_125c"].delay_scale_low > 1.0
        payload = schemas.to_dict(results["ff_1.32v_125c"])
        assert payload["corner"] == "ff_1.32v_125c"
        assert payload["temperature_c"] == pytest.approx(125.0)
        assert set(payload) >= {"leakage_nw", "wns", "hold_wns",
                                "delay_scale_low", "leakage_scale_high"}
