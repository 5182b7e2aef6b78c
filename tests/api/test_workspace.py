"""Workspace/Design facade: caching, fingerprints, legacy equivalence."""

import pytest

from repro.api import Workspace, netlist_fingerprint, schemas
from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique

CONFIG = FlowConfig(timing_margin=0.2)


@pytest.fixture(scope="module")
def workspace(library):
    return Workspace(library=library, config=CONFIG)


@pytest.fixture(scope="module")
def design(workspace):
    return workspace.design("c17")


# --- fingerprints -----------------------------------------------------------


def test_fingerprint_is_content_keyed():
    original = load_circuit("c17")
    assert netlist_fingerprint(original) == \
        netlist_fingerprint(load_circuit("c17"))
    assert netlist_fingerprint(original) == \
        netlist_fingerprint(original.clone(name="renamed"))
    assert netlist_fingerprint(original) != \
        netlist_fingerprint(load_circuit("c432"))


def test_designs_share_state_by_content(workspace, design):
    assert workspace.design("c17") is design
    adopted = workspace.adopt(load_circuit("c17"), name="alias17")
    assert adopted is design  # same fingerprint + config -> same handle


def test_config_changes_the_design_handle(workspace, design):
    other = workspace.design("c17", FlowConfig(timing_margin=0.3))
    assert other is not design


# --- caching ----------------------------------------------------------------


def test_analyze_is_cached(workspace, design):
    first = design.analyze()
    before = dict(workspace.stats.hits)
    again = design.analyze()
    assert again == first
    assert workspace.stats.hits.get("analyze", 0) == \
        before.get("analyze", 0) + 1
    assert first.circuit == "c17"
    assert first.instances == 6
    assert first.leakage_nw > 0
    assert first.clock_period_ns > 0
    schemas.check_round_trip(first)


def test_analyze_variants_are_distinct(design):
    lvt = design.analyze()
    hvt = design.analyze(variant="hvt")
    assert hvt.variant == "hvt"
    # HVT mapping leaks less and runs slower than LVT.
    assert hvt.leakage_nw < lvt.leakage_nw


def test_flow_result_cached_and_shared_with_optimize(workspace, design):
    flow = design.flow_result(Technique.IMPROVED_SMT)
    assert design.flow_result(Technique.IMPROVED_SMT) is flow
    optimized = design.optimize(technique="improved_smt")
    assert optimized.area_um2 == flow.total_area
    assert optimized.leakage_nw == flow.leakage_nw
    assert optimized.wns == flow.timing.wns
    assert "physical_synthesis" in optimized.stages
    schemas.check_round_trip(optimized)


def test_request_plus_kwargs_is_rejected(design):
    from repro.api.requests import MonteCarloRequest, SignoffRequest
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="not both"):
        design.signoff(SignoffRequest(technique=Technique.DUAL_VTH),
                       corners=("tt_nom",))
    with pytest.raises(ConfigError, match="not both"):
        design.montecarlo(MonteCarloRequest(samples=4), samples=8)


def test_adopting_registry_identical_content_keeps_by_name_loading(
        library):
    ws = Workspace(library=library, config=CONFIG)
    original = ws.netlist("c17")
    ws.adopt(original.clone(), name="c17")
    assert "c17" not in ws._adopted
    # Different content under the same name must ship.
    from repro.benchcircuits.generator import (
        GeneratorConfig,
        generate_circuit,
    )

    ws.adopt(generate_circuit("c17", GeneratorConfig(
        n_gates=10, n_inputs=2, n_outputs=1, n_ffs=0, depth=3, seed=9)),
        name="c17")
    assert "c17" in ws._adopted


def test_corner_library_is_cached(workspace):
    first = workspace.corner_library("ff_1.32v_125c")
    assert workspace.corner_library("ff_1.32v_125c") is first


# --- legacy equivalence -----------------------------------------------------


def test_optimize_matches_direct_flow(library, design):
    from repro.core.flow import SelectiveMtFlow

    direct = SelectiveMtFlow(load_circuit("c17"), library,
                             Technique.IMPROVED_SMT, CONFIG).run()
    optimized = design.optimize(technique=Technique.IMPROVED_SMT)
    assert optimized.area_um2 == direct.total_area
    assert optimized.leakage_nw == direct.leakage_nw
    assert optimized.wns == direct.timing.wns
    assert optimized.hold_wns == direct.timing.hold_wns


def test_signoff_matches_legacy_corner_job(library, design):
    """Post-hoc facade signoff == the flow's corner_signoff stage."""
    from repro.variation.jobs import CornerJob, run_corner_job

    corners = ("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")
    legacy = run_corner_job(
        CornerJob(circuit="c17", technique=Technique.IMPROVED_SMT,
                  config=CONFIG, corners=corners), library)
    assert legacy.ok, legacy.error
    result = design.signoff(technique=Technique.IMPROVED_SMT,
                            corners=corners)
    assert result.corners == corners
    assert result.area_um2 == legacy.area_um2
    assert result.nominal_leakage_nw == legacy.nominal_leakage_nw
    assert result.nominal_wns == legacy.nominal_wns
    for row in legacy.rows:
        ours = result.row(row.corner)
        assert ours.leakage_nw == row.leakage_nw
        assert ours.wns == row.wns
        assert ours.hold_wns == row.hold_wns
    # tt_nom reproduces the nominal single-point numbers exactly.
    assert result.row("tt_nom").leakage_nw == result.nominal_leakage_nw
    schemas.check_round_trip(result)


def test_montecarlo_matches_legacy_study(workspace, design):
    from repro.api.studies import montecarlo_study

    study = montecarlo_study(workspace, circuit="c17",
                             techniques=(Technique.DUAL_VTH,),
                             samples=6, seed=11, timing=True,
                             config=CONFIG, jobs=1)
    legacy = study.result(Technique.DUAL_VTH)
    result = design.montecarlo(technique=Technique.DUAL_VTH, samples=6,
                               seed=11, timing=True)
    assert result.statistics == legacy.statistics
    assert list(result.sample_values) == list(legacy.samples)
    assert result.nominal_leakage_nw == legacy.nominal_leakage_nw
    assert result.nominal_wns == legacy.nominal_wns
    payload = schemas.check_round_trip(result)
    # Per-die samples stay in-process; payloads carry the statistics.
    assert "sample_values" not in payload
    assert "sample_values" not in \
        schemas.to_dict(study)["results"]["dual_vth"]


def test_montecarlo_parallel_matches_serial(workspace, design):
    serial = design.montecarlo(technique=Technique.DUAL_VTH, samples=6,
                               seed=4, timing=False)
    parallel = design.montecarlo(
        jobs=3, request=None, technique=Technique.DUAL_VTH, samples=6,
        seed=4, timing=False)
    # Same request -> cache hit; force a distinct request via seed to
    # prove the parallel path itself agrees.
    assert parallel == serial  # served from cache (same request)
    fresh = Workspace(library=design.library, config=CONFIG, jobs=3) \
        .design("c17") \
        .montecarlo(technique=Technique.DUAL_VTH, samples=6, seed=4,
                    timing=False)
    assert fresh.statistics == serial.statistics
    assert fresh.sample_values == serial.sample_values


def test_sweep_matches_compare_techniques(library, workspace, design):
    from repro.api.studies import technique_comparison

    direct = technique_comparison(load_circuit("c17"), library, CONFIG,
                                  circuit_name="c17")
    swept = design.sweep()
    for row in direct.rows:
        ours = swept.row("c17", row.technique)
        assert ours.area_pct == row.area_pct
        assert ours.leakage_pct == row.leakage_pct
        assert (ours.mt_cells, ours.switches, ours.holders) == \
            (row.mt_cells, row.switches, row.holders)
    schemas.check_round_trip(swept)
    assert "c17" in swept.render()


def test_sweep_parallel_matches_serial_on_registry_circuit(workspace):
    """Parallel sweep loads registry circuits by name in the workers
    (regression: shipping the netlist graph blew the pickle recursion
    limit on non-trivial circuits like c432)."""
    design = workspace.design("c432")
    serial = design.sweep(techniques=(Technique.DUAL_VTH,
                                      Technique.IMPROVED_SMT))
    parallel = design.sweep(techniques=(Technique.DUAL_VTH,
                                        Technique.IMPROVED_SMT), jobs=2)
    assert parallel.rows == serial.rows


def test_sweep_parallel_ships_adopted_netlists(workspace):
    """Adopted ad-hoc netlists are not worker-loadable by name, so the
    grid jobs carry the object itself."""
    from repro.benchcircuits.generator import (
        GeneratorConfig,
        generate_circuit,
    )

    adhoc = generate_circuit("adhoc", GeneratorConfig(
        n_gates=30, n_inputs=4, n_outputs=3, n_ffs=0, depth=6, seed=42))
    design = workspace.adopt(adhoc, name="adhoc")
    serial = design.sweep(techniques=(Technique.DUAL_VTH,
                                      Technique.IMPROVED_SMT))
    parallel = design.sweep(techniques=(Technique.DUAL_VTH,
                                        Technique.IMPROVED_SMT), jobs=2)
    assert parallel.rows == serial.rows


def test_montecarlo_parallel_on_adopted_design(library):
    """MC grid jobs ship adopted netlists to the workers (regression:
    workers tried load_circuit() on a non-registry name)."""
    from repro.benchcircuits.generator import (
        GeneratorConfig,
        generate_circuit,
    )

    spec = GeneratorConfig(n_gates=30, n_inputs=4, n_outputs=3,
                           n_ffs=0, depth=6, seed=42)
    serial = Workspace(library=library, config=CONFIG) \
        .adopt(generate_circuit("adhoc", spec), name="adhoc") \
        .montecarlo(technique=Technique.DUAL_VTH, samples=4, seed=2,
                    timing=False, jobs=1)
    parallel = Workspace(library=library, config=CONFIG) \
        .adopt(generate_circuit("adhoc", spec), name="adhoc") \
        .montecarlo(technique=Technique.DUAL_VTH, samples=4, seed=2,
                    timing=False, jobs=2)
    assert parallel.statistics == serial.statistics
    assert parallel.sample_values == serial.sample_values


def test_workspace_sweep_grid_is_one_pool(library):
    """Workspace.sweep(jobs>1) fans the whole circuits x techniques
    grid through one runner and matches the serial rows exactly."""
    ws = Workspace(library=library, config=CONFIG)
    serial = ws.sweep(["c17", "s27"],
                      techniques=(Technique.DUAL_VTH,
                                  Technique.IMPROVED_SMT), jobs=1)
    parallel = ws.sweep(["c17", "s27"],
                        techniques=(Technique.DUAL_VTH,
                                    Technique.IMPROVED_SMT), jobs=4)
    assert parallel.rows == serial.rows


def test_workspace_sweep_spans_circuits(workspace):
    result = workspace.sweep(["c17", "s27"],
                             techniques=(Technique.DUAL_VTH,))
    assert result.circuits() == ("c17", "s27")
    assert len(result.rows) == 2


def test_cache_stats_shape(workspace):
    stats = workspace.cache_stats()
    assert "flow" in stats
    assert set(stats["flow"]) == {"hits", "misses"}
    assert stats["flow"]["misses"] >= 1


def test_stats_tree_unifies_every_cache_layer(workspace):
    tree = workspace.stats_tree()
    assert set(tree) == {"workspace", "corner_memo", "lowering"}
    flow = tree["workspace"]["flow"]
    assert set(flow) == {"hits", "misses", "hit_rate"}
    assert 0.0 <= flow["hit_rate"] <= 1.0
    total = flow["hits"] + flow["misses"]
    assert flow["hit_rate"] == (flow["hits"] / total if total else 0.0)
    assert "hits" in tree["corner_memo"]


def test_cache_stats_is_a_view_of_the_tree(workspace):
    """The legacy flat dict and the unified tree agree exactly."""
    stats = workspace.cache_stats()
    tree = workspace.stats_tree()
    for cache, counts in tree["workspace"].items():
        assert stats[cache]["hits"] == counts["hits"]
        assert stats[cache]["misses"] == counts["misses"]
    assert stats["corner_memo"] == tree["corner_memo"]
    if tree["lowering"]:
        assert stats["lowering"] == tree["lowering"]
    else:
        assert "lowering" not in stats


def test_empty_cache_stats_tree_has_zero_hit_rates(library):
    tree = Workspace(library=library).stats_tree()
    for counts in tree["workspace"].values():
        assert counts["hit_rate"] == 0.0
