"""Stage registry, pipelines and custom pipeline assembly."""

import pytest

from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.flow import FlowResult, SelectiveMtFlow
from repro.core.stages import (
    FlowContext,
    PIPELINES,
    STAGES,
    Stage,
    StageRunner,
    build_pipeline,
    resolve_stage,
)
from repro.errors import FlowError


class TestRegistry:
    def test_all_techniques_are_stage_lists(self):
        assert set(PIPELINES) == set(Technique)
        for technique, keys in PIPELINES.items():
            for key in keys:
                assert key in STAGES, (technique, key)

    def test_build_pipeline_resolves_in_order(self):
        for technique in Technique:
            stages = build_pipeline(technique)
            assert [s.key for s in stages] == list(PIPELINES[technique])

    def test_assignment_stages_share_the_fig4_label(self):
        for key in ("dual_vth_assignment", "conventional_smt_assignment",
                    "improved_smt_assignment"):
            assert STAGES[key].label == "vth_assignment"

    def test_unknown_stage_is_rejected(self):
        with pytest.raises(FlowError, match="unknown stage"):
            resolve_stage("no_such_stage")

    def test_duplicate_registration_is_rejected(self):
        stage = STAGES["physical_synthesis"]
        from repro.core.stages import register_stage

        with pytest.raises(FlowError, match="duplicate"):
            register_stage(Stage(key=stage.key, fn=stage.fn,
                                 label=stage.label))


class TestCustomPipelines:
    def test_partial_pipeline_via_run_context(self, library):
        netlist = load_circuit("c17")
        flow = SelectiveMtFlow(
            netlist, library, Technique.DUAL_VTH,
            FlowConfig(timing_margin=0.2),
            stages=["physical_synthesis", "pre_route_estimation",
                    "derive_constraints"])
        ctx = flow.run_context()
        assert ctx.netlist is not None
        assert ctx.placement is not None
        assert ctx.constraints is not None
        assert ctx.timing is None
        assert [s.name for s in ctx.stages] == ["physical_synthesis"]

    def test_partial_pipeline_cannot_build_flow_result(self, library):
        netlist = load_circuit("c17")
        flow = SelectiveMtFlow(netlist, library, Technique.DUAL_VTH,
                               FlowConfig(timing_margin=0.2),
                               stages=["physical_synthesis"])
        with pytest.raises(FlowError, match="run_context"):
            flow.run()

    def test_out_of_order_stage_fails_fast(self, library):
        netlist = load_circuit("c17")
        flow = SelectiveMtFlow(netlist, library, Technique.DUAL_VTH,
                               FlowConfig(timing_margin=0.2),
                               stages=["eco_and_sta"])
        with pytest.raises(FlowError, match="prerequisite"):
            flow.run_context()

    def test_custom_stage_object_in_pipeline(self, library):
        seen = {}

        def probe(ctx):
            seen["instances"] = len(ctx.netlist.instances)
            return {"probed": True}

        netlist = load_circuit("c17")
        flow = SelectiveMtFlow(
            netlist, library, Technique.DUAL_VTH,
            FlowConfig(timing_margin=0.2),
            stages=["physical_synthesis",
                    Stage(key="probe", fn=probe, label="probe")])
        ctx = flow.run_context()
        assert seen["instances"] == len(ctx.netlist.instances)
        assert ctx.stages[-1].name == "probe"
        assert ctx.stages[-1].details == {"probed": True}

    def test_explicit_default_pipeline_matches_run(self, library):
        """Spelling out the registered stage list reproduces run()."""
        netlist = load_circuit("c17")
        config = FlowConfig(timing_margin=0.2)
        implicit = SelectiveMtFlow(netlist, library, Technique.DUAL_VTH,
                                   config).run()
        explicit = SelectiveMtFlow(
            netlist, library, Technique.DUAL_VTH, config,
            stages=list(PIPELINES[Technique.DUAL_VTH])).run()
        assert implicit.total_area == explicit.total_area
        assert implicit.leakage_nw == explicit.leakage_nw
        assert implicit.timing.wns == explicit.timing.wns

    def test_runner_over_raw_context(self, library):
        netlist = load_circuit("c17")
        ctx = FlowContext.create(netlist, library, Technique.DUAL_VTH,
                                 FlowConfig(timing_margin=0.2))
        StageRunner(build_pipeline(Technique.DUAL_VTH)).run(ctx)
        result = FlowResult.from_context(ctx)
        assert result.timing is not None
        assert result.total_area > 0


class TestContextTyping:
    def test_improved_context_fields_replace_tuple(self, library):
        """The improved intermediates ride on typed context fields."""
        netlist = load_circuit("c432")
        flow = SelectiveMtFlow(netlist, library, Technique.IMPROVED_SMT,
                               FlowConfig(timing_margin=0.15))
        ctx = flow.run_context()
        assert ctx.improved_builder is not None
        assert ctx.mt_names
        assert ctx.initial_switch is None      # torn down before ECO place
        assert ctx.smt_result is not None
        assert ctx.smt_result.network is ctx.network

    def test_session_stats_recorded(self, library):
        netlist = load_circuit("c17")
        result = SelectiveMtFlow(netlist, library, Technique.DUAL_VTH,
                                 FlowConfig(timing_margin=0.2)).run()
        assert "vth_assignment" in result.sta_stats
        assert "eco_and_sta" in result.sta_stats
        assignment = result.stage("vth_assignment")
        assert "sta_full" in assignment.details

