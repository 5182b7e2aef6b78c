"""Grid studies over a workspace (the paper's evaluation harness).

Every study runs on :class:`~repro.api.Workspace` designs, so its
numbers are the facade's: the technique comparisons are one
:func:`~repro.api.workspace.sweep_grid` each and the Monte-Carlo study
is one :meth:`~repro.api.Design.montecarlo` per technique, both
bit-identical for any ``jobs``.  The pinned Table 1 configurations and
the result types live in :mod:`repro.experiments`.
"""

from __future__ import annotations

import dataclasses

from repro.api.requests import DEFAULT_TECHNIQUES, MonteCarloRequest
from repro.api.workspace import Workspace, sweep_grid
from repro.config import FlowConfig, Technique
from repro.core.compare import TechniqueComparison
from repro.errors import FlowError
from repro.liberty.library import Library
from repro.netlist.core import Netlist


def technique_comparison(netlist: Netlist, library: Library,
                         config: FlowConfig | None = None,
                         circuit_name: str | None = None,
                         techniques: tuple[Technique, ...] =
                         DEFAULT_TECHNIQUES,
                         workspace: Workspace | None = None
                         ) -> TechniqueComparison:
    """Run the requested techniques and normalize to Dual-Vth.

    The rows are the :func:`~repro.api.workspace.sweep_grid` rows; the
    full per-technique ``results`` dict comes from — and lands in —
    the workspace flow cache.
    """
    workspace = workspace or Workspace(library=library)
    design = workspace.adopt(netlist, name=circuit_name,
                             config=config or FlowConfig())
    (comparison,) = sweep_grid([design], tuple(techniques), 1)
    return dataclasses.replace(
        comparison, results={technique: design.flow_result(technique)
                             for technique in techniques})


def table1_study(workspace: Workspace,
                 circuits: tuple[str, ...] = ("A", "B")):
    """The full Table 1 experiment (three flows per circuit)."""
    from repro.experiments import Table1Result, table1_config

    return Table1Result(comparisons={
        short: technique_comparison(
            workspace.netlist(f"circuit{short}"), workspace.library,
            table1_config(short), circuit_name=short, workspace=workspace)
        for short in circuits})


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
    from repro.runner import ExperimentRunner
    from repro.variation.corners import default_signoff_corners
    from repro.variation.jobs import CornerJob, run_corner_job

    library = workspace.library
    techniques = tuple(techniques or DEFAULT_TECHNIQUES)
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

    One :meth:`~repro.api.Design.montecarlo` per technique; sample
    ``k`` is a pure function of ``(seed, k)``, so the statistics are
    identical for any ``jobs``.
    """
    from repro.experiments import (
        McTechniqueResult,
        MonteCarloStudy,
        _circuit_config,
        _resolve_circuit,
    )

    resolved = _resolve_circuit(circuit)
    design = workspace.design(resolved, _circuit_config(circuit, config))
    results: dict[Technique, McTechniqueResult] = {}
    for technique in tuple(techniques or DEFAULT_TECHNIQUES):
        result = design.montecarlo(MonteCarloRequest(
            technique=technique, samples=samples, seed=seed,
            sigma_global_v=sigma_global_v, sigma_local_v=sigma_local_v,
            timing=timing, corner=corner,
            leakage_budget_nw=leakage_budget_nw), jobs=jobs)
        results[technique] = McTechniqueResult(
            nominal_leakage_nw=result.nominal_leakage_nw,
            nominal_wns=result.nominal_wns,
            area_um2=result.area_um2,
            statistics=result.statistics,
            samples=list(result.sample_values))
    return MonteCarloStudy(circuit=resolved, samples=samples, seed=seed,
                           corner=corner, results=results)
