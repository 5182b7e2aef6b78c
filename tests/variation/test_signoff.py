"""Corner signoff: flow integration and nominal bit-identity."""

import pytest

from repro.api import schemas
from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.flow import SelectiveMtFlow
from repro.errors import FlowError
from repro.timing.constraints import Constraints
from repro.timing.sta import TimingAnalyzer
from repro.variation.signoff import evaluate_corners

SIGNOFF = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")


@pytest.fixture(scope="module")
def signed_off(library):
    """One improved-SMT flow on c432 with corner signoff enabled."""
    config = FlowConfig(timing_margin=0.10, signoff_corners=SIGNOFF)
    return SelectiveMtFlow(load_circuit("c432"), library,
                           Technique.IMPROVED_SMT, config).run()


class TestFlowIntegration:
    def test_result_carries_all_corners(self, signed_off):
        assert tuple(signed_off.corners) == SIGNOFF

    def test_stage_report_emitted(self, signed_off):
        report = signed_off.stage("corner_signoff")
        assert report.details["corners"] == len(SIGNOFF)
        assert report.details["worst_leakage_corner"] == "ff_1.32v_125c"

    def test_nominal_corner_bit_identical(self, signed_off):
        """tt_nom signoff == the single-point flow result, exactly."""
        nominal = signed_off.corners["tt_nom"]
        assert nominal.leakage_nw == signed_off.leakage_nw
        assert nominal.wns == signed_off.timing.wns
        assert nominal.hold_wns == signed_off.timing.hold_wns

    def test_corner_orderings(self, signed_off):
        nominal = signed_off.corners["tt_nom"]
        hot_fast = signed_off.corners["ff_1.32v_125c"]
        slow_low = signed_off.corners["ss_1.08v_125c"]
        assert hot_fast.leakage_nw > nominal.leakage_nw
        assert slow_low.wns < nominal.wns

    def test_empty_config_is_single_point(self, library):
        result = SelectiveMtFlow(
            load_circuit("c17"), library, Technique.DUAL_VTH,
            FlowConfig(timing_margin=0.2)).run()
        assert result.corners == {}
        assert all(s.name != "corner_signoff" for s in result.stages)

    def test_unknown_corner_fails_fast(self, library):
        config = FlowConfig(timing_margin=0.2,
                            signoff_corners=("no_such_corner",))
        with pytest.raises(FlowError, match="unknown corner"):
            SelectiveMtFlow(load_circuit("c17"), library,
                            Technique.DUAL_VTH, config).run()


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
