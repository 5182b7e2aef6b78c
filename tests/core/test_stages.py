"""The technique stage tables and the one stage loop."""

import dataclasses

import pytest

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
    stage_eco_placement,
    stage_key,
    stage_mt_assignment,
)
from repro.experiments import table1_config
from repro.liberty.library import VARIANT_HVT, Library
from repro.placement.legalize import legalize
from repro.placement.placer import GlobalPlacer

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


def _through_eco_placement(library, circuit: str, technique: Technique,
                           config: FlowConfig) -> FlowContext:
    """A context of ``technique`` on ``circuit`` after its ECO
    placement."""
    steps = PIPELINES[technique]
    ctx = FlowContext.create(load_circuit(circuit), library, technique,
                             config)
    return run_stages(ctx, steps[:steps.index(stage_eco_placement) + 1])


class TestEcoPlacement:
    """The ECO placement keeps the fork's placement exactly when
    placing again would reproduce it, whatever the technique."""

    @pytest.mark.parametrize("circuit, config", [
        ("c432", FlowConfig(timing_margin=0.12)),
        ("circuitB", table1_config("B")),
    ])
    def test_dual_vth_keeps_what_a_fresh_placer_makes(self, library,
                                                      circuit, config):
        ctx = _through_eco_placement(library, circuit, Technique.DUAL_VTH,
                                     config)
        assert ctx.stages[-1].details["replaced"] is False
        netlist = ctx.netlist.copy()
        for inst in netlist.instances.values():
            del inst.attributes["x"], inst.attributes["y"]
        fresh = GlobalPlacer(netlist, library,
                             utilization=config.utilization,
                             aspect_ratio=config.aspect_ratio,
                             iterations=config.placer_iterations,
                             seed=config.placement_seed).run()
        legalize(fresh, netlist, library)
        kept = ctx.placement
        assert list(kept.locations.items()) == list(fresh.locations.items())
        assert kept.port_locations == fresh.port_locations
        assert vars(kept.floorplan) == vars(fresh.floorplan)
        for name, inst in ctx.netlist.instances.items():
            twin = netlist.instances[name].attributes
            assert (inst.attributes["x"], inst.attributes["y"]) \
                == (twin["x"], twin["y"]), name

    def test_selective_mt_forks_place_again(self, library):
        """MT replacement grows cells (CMT/MTV) and adds the MTE port or
        holders, so both Selective-MT forks run the placer."""
        for technique in (Technique.CONVENTIONAL_SMT,
                          Technique.IMPROVED_SMT):
            ctx = _through_eco_placement(library, "c432", technique,
                                         FlowConfig(timing_margin=0.12))
            assert ctx.stages[-1].details["replaced"] is True, technique

    def test_an_hvt_cell_of_another_area_places_again(self, library):
        """Keyed on what the placer reads, not on the technique: with a
        used HVT cell larger than its LVT sibling, the Dual-Vth fork
        places again."""
        config = FlowConfig(timing_margin=0.12)
        ctx = _through_eco_placement(library, "c432", Technique.DUAL_VTH,
                                     config)
        used = sorted({inst.cell_name
                       for inst in ctx.netlist.instances.values()
                       if library.cell(inst.cell_name).variant
                       == VARIANT_HVT})
        assert used
        wide = Library(f"{library.name}_wide", library.tech)
        wide.mt_assumed_bounce_v = library.mt_assumed_bounce_v
        for cell in library:
            if cell.name == used[0]:
                cell = dataclasses.replace(cell, area=cell.area * 1.5)
            wide.add_cell(cell)
        ctx = _through_eco_placement(wide, "c432", Technique.DUAL_VTH,
                                     config)
        assert any(inst.cell_name == used[0]
                   for inst in ctx.netlist.instances.values())
        assert ctx.stages[-1].details["replaced"] is True
