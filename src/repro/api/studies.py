"""Grid studies over a workspace (the paper's evaluation harness).

Serial runs route through the :class:`~repro.api.Workspace` flow
caches; parallel runs fan the same grids out over
:class:`~repro.runner.ExperimentRunner`.  Both perform the same float
operations, so every digit is independent of ``jobs``.  The pinned
Table 1 configurations and the result types live in
:mod:`repro.experiments`.
"""

from __future__ import annotations

from repro.api.workspace import Workspace
from repro.config import FlowConfig, Technique
from repro.core.compare import (
    ComparisonRow,
    TechniqueComparison,
    count_cell_kinds,
)
from repro.errors import FlowError
from repro.liberty.library import Library
from repro.netlist.core import Netlist


def technique_comparison(netlist: Netlist, library: Library,
                         config: FlowConfig | None = None,
                         circuit_name: str | None = None,
                         techniques: tuple[Technique, ...] = (
                             Technique.DUAL_VTH,
                             Technique.CONVENTIONAL_SMT,
                             Technique.IMPROVED_SMT),
                         jobs: int = 1,
                         workspace: Workspace | None = None
                         ) -> TechniqueComparison:
    """Run the requested techniques and normalize to Dual-Vth.

    Serial runs keep the full per-technique ``results`` dict (flow
    results come from — and land in — the workspace cache); parallel
    runs return slim rows only (full flow results do not cross process
    boundaries).
    """
    config = config or FlowConfig()
    circuit_name = circuit_name or netlist.name
    if jobs > 1:
        from repro.runner import (
            ExperimentRunner,
            FlowJob,
            comparison_from_outcomes,
        )

        flow_jobs = [FlowJob(circuit=circuit_name, technique=technique,
                             config=config, netlist=netlist)
                     for technique in techniques]
        outcomes = ExperimentRunner(jobs=jobs, library=library).run(flow_jobs)
        return comparison_from_outcomes(circuit_name, outcomes)
    workspace = workspace or Workspace(library=library)
    design = workspace.adopt(netlist, name=circuit_name, config=config)
    results = {technique: design.flow_result(technique)
               for technique in techniques}

    # Normalize to Dual-Vth when present; otherwise the first
    # requested technique becomes the 100 % reference.
    baseline = results.get(Technique.DUAL_VTH)
    if baseline is None and techniques:
        baseline = results[techniques[0]]
    base_area = baseline.total_area if baseline else 1.0
    base_leak = baseline.leakage_nw if baseline else 1.0

    rows = []
    for technique in techniques:
        result = results[technique]
        mt, switches, holders = count_cell_kinds(result.netlist, library)
        rows.append(ComparisonRow(
            circuit=circuit_name,
            technique=technique,
            area_um2=result.total_area,
            leakage_nw=result.leakage_nw,
            area_pct=100.0 * result.total_area / base_area,
            leakage_pct=100.0 * result.leakage_nw / base_leak,
            mt_cells=mt, switches=switches, holders=holders))
    return TechniqueComparison(circuit=circuit_name, rows=rows,
                               results=results)


def table1_study(workspace: Workspace,
                 circuits: tuple[str, ...] = ("A", "B"),
                 jobs: int = 1):
    """The full Table 1 experiment (three flows per circuit)."""
    from repro.experiments import Table1Result, table1_config

    comparisons: dict[str, TechniqueComparison] = {}
    if jobs > 1:
        from repro.runner import (
            ALL_TECHNIQUES,
            ExperimentRunner,
            FlowJob,
            comparison_from_outcomes,
        )

        flow_jobs = [FlowJob(circuit=f"circuit{short}", technique=technique,
                             config=table1_config(short))
                     for short in circuits for technique in ALL_TECHNIQUES]
        outcomes = ExperimentRunner(
            jobs=jobs, library=workspace.library).run(flow_jobs)
        per_circuit = len(ALL_TECHNIQUES)
        for index, short in enumerate(circuits):
            chunk = outcomes[index * per_circuit:(index + 1) * per_circuit]
            comparisons[short] = comparison_from_outcomes(short, chunk)
        return Table1Result(comparisons=comparisons)
    for short in circuits:
        comparisons[short] = technique_comparison(
            workspace.netlist(f"circuit{short}"), workspace.library,
            table1_config(short), circuit_name=short, workspace=workspace)
    return Table1Result(comparisons=comparisons)


def corner_signoff_study(workspace: Workspace,
                         circuits: tuple[str, ...],
                         techniques=None,
                         corners: tuple[str, ...] | None = None,
                         config: FlowConfig | None = None,
                         jobs: int = 1):
    """Corner signoff across a circuit x technique grid.

    Every (circuit, technique) pair is one flow-plus-signoff job,
    fanned out through the experiment runner; deterministic for any
    ``jobs``.
    """
    from repro.experiments import (
        CornerSignoffResult,
        _circuit_config,
        _resolve_circuit,
    )
    from repro.runner import ALL_TECHNIQUES, ExperimentRunner
    from repro.variation.corners import default_signoff_corners
    from repro.variation.jobs import CornerJob, run_corner_job

    library = workspace.library
    techniques = tuple(techniques or ALL_TECHNIQUES)
    corners = tuple(corners or default_signoff_corners(library.tech))
    labeled_grid = [
        (short, CornerJob(circuit=_resolve_circuit(short),
                          technique=technique,
                          config=_circuit_config(short, config),
                          corners=corners))
        for short in circuits for technique in techniques]
    grid = [job for _, job in labeled_grid]
    outcomes = ExperimentRunner(jobs=jobs, library=library).map(
        run_corner_job, grid)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise FlowError(
            f"{len(failed)} corner job(s) failed "
            f"({first.circuit}/{first.technique.value}):\n{first.error}")
    keyed = {(short, job.technique): outcome
             for (short, job), outcome in zip(labeled_grid, outcomes)}
    return CornerSignoffResult(corners=corners, outcomes=keyed)


def montecarlo_study(workspace: Workspace,
                     circuit: str = "A",
                     techniques=None,
                     samples: int = 64,
                     seed: int = 1,
                     sigma_global_v: float = 0.03,
                     sigma_local_v: float = 0.015,
                     timing: bool = True,
                     corner: str | None = None,
                     leakage_budget_nw: float | None = None,
                     config: FlowConfig | None = None,
                     jobs: int = 1):
    """Monte-Carlo leakage/timing study across techniques.

    Samples are chunked across the experiment runner; sample ``k`` is
    a pure function of ``(seed, k)``, so merged statistics are
    identical for any ``jobs``.
    """
    from repro.experiments import (
        McTechniqueResult,
        MonteCarloStudy,
        _circuit_config,
        _resolve_circuit,
    )
    from repro.runner import ALL_TECHNIQUES, ExperimentRunner
    from repro.variation.jobs import McJob, run_mc_job
    from repro.variation.montecarlo import McConfig, summarize

    library = workspace.library
    techniques = tuple(techniques or ALL_TECHNIQUES)
    mc = McConfig(samples=samples, seed=seed,
                  sigma_global_v=sigma_global_v,
                  sigma_local_v=sigma_local_v, timing=timing,
                  leakage_budget_nw=leakage_budget_nw)
    flow_config = _circuit_config(circuit, config)
    resolved = _resolve_circuit(circuit)
    chunks = min(max(1, jobs), samples)
    bounds = [(index * samples // chunks,
               (index + 1) * samples // chunks) for index in range(chunks)]
    grid = [McJob(circuit=resolved, technique=technique, config=flow_config,
                  mc=mc, corner=corner, start=start, count=stop - start)
            for technique in techniques for (start, stop) in bounds]
    outcomes = ExperimentRunner(jobs=jobs, library=library).map(
        run_mc_job, grid)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise FlowError(
            f"{len(failed)} Monte-Carlo job(s) failed "
            f"({first.circuit}/{first.technique.value}):\n{first.error}")
    results: dict[Technique, McTechniqueResult] = {}
    per_technique = len(bounds)
    for index, technique in enumerate(techniques):
        chunk = outcomes[index * per_technique:(index + 1) * per_technique]
        merged = [sample for outcome in chunk for sample in outcome.samples]
        budget = mc.leakage_budget_nw
        if budget is None:
            budget = mc.budget_factor * chunk[0].nominal_leakage_nw
        results[technique] = McTechniqueResult(
            nominal_leakage_nw=chunk[0].nominal_leakage_nw,
            nominal_wns=chunk[0].nominal_wns,
            area_um2=chunk[0].area_um2,
            statistics=summarize(merged, leakage_budget_nw=budget),
            samples=merged)
    return MonteCarloStudy(circuit=resolved, samples=samples, seed=seed,
                           corner=corner, results=results)
