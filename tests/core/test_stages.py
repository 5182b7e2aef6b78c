"""The technique stage tables and the one stage loop."""

from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.compare import count_cell_kinds
from repro.core.flow import FlowResult, SelectiveMtFlow
from repro.core.stages import (
    FlowContext,
    PIPELINES,
    SHARED_STAGES,
    run_stages,
    shared_steps,
    stage_key,
    stage_mt_assignment,
)

#: The span of every step is ``stage.<key>``; perfbench and the CI
#: trace smokes read these names.
STAGE_KEYS = {
    Technique.DUAL_VTH: [
        "physical_synthesis", "pre_route_estimation", "derive_constraints",
        "dual_vth_assignment", "eco_placement", "routing_cts_mte",
        "eco_and_sta", "finalize"],
    Technique.CONVENTIONAL_SMT: [
        "physical_synthesis", "pre_route_estimation", "derive_constraints",
        "mt_assignment", "cmt_conversion", "eco_placement",
        "routing_cts_mte", "eco_and_sta", "finalize"],
    Technique.IMPROVED_SMT: [
        "physical_synthesis", "pre_route_estimation", "derive_constraints",
        "mt_assignment", "vgnd_conversion", "initial_switch_teardown",
        "eco_placement", "switch_structure", "routing_cts_mte",
        "spef_reoptimization", "eco_and_sta", "finalize"],
}


class TestRegistry:
    """:data:`PIPELINES`, each technique's stage steps in order."""

    def test_all_techniques_are_stage_lists(self):
        assert set(PIPELINES) == set(Technique)
        for technique, steps in PIPELINES.items():
            assert steps[:len(SHARED_STAGES)] == SHARED_STAGES, technique
            assert all(callable(step) for step in steps), technique

    def test_stage_keys_name_the_spans(self):
        for technique, steps in PIPELINES.items():
            assert [stage_key(step) for step in steps] == \
                STAGE_KEYS[technique], technique

    def test_fork_depth_is_the_longest_shared_step_prefix(self):
        """Dual-Vth shares the three prefix stages; the two Selective-MT
        techniques also share their MT assignment, and nothing after
        it."""
        assert shared_steps(Technique.DUAL_VTH) == SHARED_STAGES
        for technique in (Technique.CONVENTIONAL_SMT,
                          Technique.IMPROVED_SMT):
            assert shared_steps(technique) == \
                SHARED_STAGES + (stage_mt_assignment,), technique
        conventional, improved = (PIPELINES[Technique.CONVENTIONAL_SMT],
                                  PIPELINES[Technique.IMPROVED_SMT])
        depth = len(SHARED_STAGES) + 1
        assert conventional[depth] is not improved[depth]

    def test_assignment_stages_share_the_fig4_label(self, library):
        netlist = load_circuit("c17")
        for technique, steps in PIPELINES.items():
            ctx = FlowContext.create(netlist, library, technique,
                                     FlowConfig(timing_margin=0.2))
            run_stages(ctx, steps[:len(SHARED_STAGES) + 1])
            assert ctx.stages[-1].name == "vth_assignment", technique


class TestCustomPipelines:
    """A technique's steps run linearly through :func:`run_stages`."""

    def test_explicit_default_pipeline_matches_run(self, library):
        """Running a technique's steps linearly on one context
        reproduces a standalone :meth:`SelectiveMtFlow.run`, which
        forks a prefix it builds itself."""
        netlist = load_circuit("c17")
        config = FlowConfig(timing_margin=0.2)
        for technique in Technique:
            forked = SelectiveMtFlow(netlist, library, technique,
                                     config).run()
            ctx = FlowContext.create(netlist, library, technique, config)
            linear = FlowResult.from_context(
                run_stages(ctx, PIPELINES[technique]))
            assert forked.total_area == linear.total_area, technique
            assert forked.leakage_nw == linear.leakage_nw, technique
            assert forked.timing.wns == linear.timing.wns, technique
            assert [(s.name, s.details) for s in forked.stages] == \
                [(s.name, s.details) for s in linear.stages], technique

    def test_runner_over_raw_context(self, library):
        netlist = load_circuit("c17")
        ctx = FlowContext.create(netlist, library, Technique.DUAL_VTH,
                                 FlowConfig(timing_margin=0.2))
        run_stages(ctx, PIPELINES[Technique.DUAL_VTH])
        result = FlowResult.from_context(ctx)
        assert result.timing is not None
        assert result.total_area > 0


class TestContextTyping:
    def test_improved_context_fields_replace_tuple(self, library):
        """The improved intermediates ride on typed context fields."""
        netlist = load_circuit("c432")
        ctx = FlowContext.create(netlist, library, Technique.IMPROVED_SMT,
                                 FlowConfig(timing_margin=0.15))
        run_stages(ctx, PIPELINES[Technique.IMPROVED_SMT])
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


def test_improved_flow_without_mt_cells_builds_an_empty_network(library):
    """A margin loose enough that every cell goes high-Vth still runs
    every improved stage: the switch structure has no cluster."""
    result = SelectiveMtFlow(load_circuit("c17"), library,
                             Technique.IMPROVED_SMT,
                             FlowConfig(timing_margin=1.0)).run()
    assert count_cell_kinds(result.netlist, library) == (0, 0, 0)
    assert result.network is not None
    assert result.network.clusters == []
    assert [stage.name for stage in result.stages] == [
        "physical_synthesis", "vth_assignment", "eco_placement",
        "switch_structure", "routing_cts_mte", "spef_reoptimization",
        "eco_and_sta"]
    assert result.stage("switch_structure").details["clusters"] == 0
