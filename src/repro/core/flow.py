"""The complete Fig. 4 design flow.

``RTL -> physical synthesis (low-Vth) -> Vth/MT replacement -> VGND
ports + switch + holders -> switch structure construction -> routing +
CTS + MTE buffering -> post-route (SPEF) switch re-optimization -> ECO
+ final timing analysis``

:class:`SelectiveMtFlow` drives any of the three techniques over a
generic-gate netlist ("the RTL"), recording a :class:`StageReport` per
box so Fig. 4 itself is reproducible as an executable artifact.

Every run goes prefix -> fork -> tail: all three techniques open with
the same :data:`~repro.core.stages.SHARED_STAGES`, and the two
Selective-MT techniques go on to share their MT assignment.
:meth:`SelectiveMtFlow.run` forks the context after the technique's
shared steps (:func:`~repro.core.stages.shared_steps`, run by
:func:`shared_prefix`; a workspace runs the shared stages once per
placed netlist, whatever the timing margin) and runs the rest of the
technique's :data:`~repro.core.stages.PIPELINES` steps on the fork.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.config import FlowConfig, Technique
from repro.core.dual_vth import AssignmentResult
from repro.core.eco import EcoResult
from repro.core.improved_smt import ImprovedSmtResult
from repro.core.mte import MteTreeResult
from repro.core.selective_mt import ConventionalSmtResult
from repro.core.stages import (
    PIPELINES,
    FlowContext,
    StageReport,
    StageStep,
    run_stages,
    shared_steps,
)
from repro.cts.tree import CtsResult
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.obs.spans import span
from repro.placement.placer import Placement
from repro.power.leakage import LeakageBreakdown
from repro.routing.extract import NetParasitics
from repro.timing.constraints import Constraints
from repro.timing.sta import TimingReport
from repro.vgnd.network import VgndNetwork

__all__ = [
    "FlowResult",
    "SelectiveMtFlow",
    "StageReport",
    "shared_prefix",
]


@dataclasses.dataclass
class FlowResult:
    """Everything the flow produced."""

    technique: Technique
    netlist: Netlist
    placement: Placement
    constraints: Constraints
    parasitics: dict[str, NetParasitics]
    assignment: AssignmentResult | None
    smt_result: ConventionalSmtResult | ImprovedSmtResult | None
    network: VgndNetwork | None
    cts: CtsResult | None
    mte: MteTreeResult | None
    eco: EcoResult | None
    timing: TimingReport
    leakage: LeakageBreakdown
    total_area: float
    stages: list[StageReport]
    sta_stats: dict[str, dict[str, int]] = dataclasses.field(
        default_factory=dict)

    @property
    def leakage_nw(self) -> float:
        return self.leakage.total_nw

    def stage(self, name: str) -> StageReport:
        for report in self.stages:
            if report.name == name:
                return report
        raise KeyError(f"no stage named {name!r}")

    def render_stages(self) -> str:
        return "\n".join(stage.render() for stage in self.stages)

    @classmethod
    def from_context(cls, ctx: FlowContext) -> "FlowResult":
        """Package the context of a finished technique."""
        return cls(
            technique=ctx.technique,
            netlist=ctx.netlist,
            placement=ctx.placement,
            constraints=ctx.constraints,
            parasitics=ctx.parasitics,
            assignment=ctx.assignment,
            smt_result=ctx.smt_result,
            network=ctx.network,
            cts=ctx.cts,
            mte=ctx.mte,
            eco=ctx.eco,
            timing=ctx.timing,
            leakage=ctx.leakage,
            total_area=ctx.total_area,
            stages=list(ctx.stages),
            sta_stats=dict(ctx.sta_stats))


class SelectiveMtFlow:
    """Runs one technique end to end on a generic-gate netlist."""

    def __init__(self, netlist: Netlist, library: Library,
                 technique: Technique = Technique.IMPROVED_SMT,
                 config: FlowConfig | None = None):
        self.source_netlist = netlist
        self.library = library
        self.technique = technique
        self.config = config or FlowConfig()

    def run(self, prefix: Callable[[tuple[StageStep, ...]], FlowContext]
            | None = None) -> FlowResult:
        """Fork the technique's shared prefix and run its other stages.

        ``prefix(steps)`` returns the :func:`shared_prefix` context of
        this flow's netlist, library and config after ``steps``, the
        technique's :func:`~repro.core.stages.shared_steps` (by default,
        one built for this run); shared steps it runs sit inside this
        flow's ``flow.run`` span.  The fork leaves the prefix as it
        was, so one prefix serves every technique that shares it.
        """
        steps = shared_steps(self.technique)
        with span("flow.run", circuit=self.source_netlist.name,
                  technique=self.technique.value):
            base = prefix(steps) if prefix is not None else shared_prefix(
                self.source_netlist, self.library, self.config, steps)
            ctx = base.fork(self.technique)
            run_stages(ctx, PIPELINES[self.technique][len(steps):])
        return FlowResult.from_context(ctx)


def shared_prefix(netlist: Netlist, library: Library,
                  config: FlowConfig | None,
                  steps: tuple[StageStep, ...]) -> FlowContext:
    """Run the shared ``steps`` on ``netlist``: a context
    :meth:`SelectiveMtFlow.run` forks."""
    return run_stages(FlowContext.create(netlist, library, config=config),
                      steps)
