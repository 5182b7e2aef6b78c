"""Grid studies over a workspace (the paper's evaluation harness).

Every study runs on :class:`~repro.api.Workspace` designs, so its
numbers are the facade's: the technique comparisons are one
:func:`~repro.api.workspace.sweep_grid` each, the corner study is one
``signoff`` cell per (circuit, technique) through
:func:`~repro.api.workspace.facade_grid`, and the Monte-Carlo study is
one :meth:`~repro.api.Design.montecarlo` per technique, all
bit-identical for any ``jobs``.  The pinned Table 1 configurations and
the result types live in :mod:`repro.experiments`.
"""

from __future__ import annotations

import dataclasses

from repro.api.requests import DEFAULT_TECHNIQUES, SignoffRequest
from repro.api.workspace import Workspace, facade_grid, sweep_grid
from repro.config import FlowConfig, Technique
from repro.core.compare import TechniqueComparison
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

    Every (circuit, technique) pair is one ``signoff`` cell of
    :func:`~repro.api.workspace.facade_grid` on the circuit's workspace
    design; deterministic for any ``jobs``.
    """
    from repro.experiments import (
        CornerSignoffResult,
        _circuit_config,
        _resolve_circuit,
    )
    from repro.variation.corners import default_signoff_corners

    techniques = tuple(techniques or DEFAULT_TECHNIQUES)
    corners = tuple(corners or
                    default_signoff_corners(workspace.library.tech))
    designs = {short: workspace.design(_resolve_circuit(short),
                                       _circuit_config(short, config))
               for short in circuits}
    keys = [(short, technique)
            for short in circuits for technique in techniques]
    results = facade_grid(
        [(designs[short], "signoff",
          SignoffRequest(technique=technique, corners=corners))
         for short, technique in keys], jobs)
    # A design is named after the first name its content was registered
    # under; each outcome is named after the circuit the caller's name
    # resolves to, as the payload decodes it.
    return CornerSignoffResult(corners=corners, outcomes={
        (short, technique): dataclasses.replace(
            result, circuit=_resolve_circuit(short))
        for (short, technique), result in zip(keys, results)})


def montecarlo_study(workspace: Workspace,
                     circuit: str = "A",
                     techniques=None,
                     config: FlowConfig | None = None,
                     jobs: int = 1,
                     **fields):
    """Monte-Carlo leakage/timing study across techniques.

    One :meth:`~repro.api.Design.montecarlo` per technique, with the
    :class:`~repro.api.MonteCarloRequest` ``fields`` given as keywords
    (``None`` ones take the request defaults); sample ``k`` is a pure
    function of ``(seed, k)``, so the statistics are identical for any
    ``jobs``.
    """
    from repro.experiments import (
        MonteCarloStudy,
        _circuit_config,
        _resolve_circuit,
    )

    design = workspace.design(_resolve_circuit(circuit),
                              _circuit_config(circuit, config))
    results = {technique: design.montecarlo(technique=technique, jobs=jobs,
                                            **fields)
               for technique in tuple(techniques or DEFAULT_TECHNIQUES)}
    # Named as its results are: after the design, whose name is the
    # first one its content was registered under, so the payload (one
    # circuit name for all) decodes to this very study.
    result = next(iter(results.values()))
    return MonteCarloStudy(circuit=result.circuit, samples=result.samples,
                           seed=result.seed, corner=result.corner,
                           results=results)
