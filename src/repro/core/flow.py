"""The complete Fig. 4 design flow.

``RTL -> physical synthesis (low-Vth) -> Vth/MT replacement -> VGND
ports + switch + holders -> switch structure construction -> routing +
CTS + MTE buffering -> post-route (SPEF) switch re-optimization -> ECO
+ final timing analysis``

:class:`SelectiveMtFlow` drives any of the three techniques over a
generic-gate netlist ("the RTL"), recording a :class:`StageReport` per
box so Fig. 4 itself is reproducible as an executable artifact.

The flow is assembled from the composable stage registry in
:mod:`repro.core.stages`: a technique is a list of stage keys, and a
custom pipeline (subset, reorder, extra stages) can be passed via the
``stages`` argument or run directly with
:meth:`SelectiveMtFlow.run_context`.

All three techniques open with the same :data:`SHARED_STAGES`.
:func:`shared_prefix` runs them once per design and :func:`run_fork`
finishes one technique on a fork of that context, with the same
result as a standalone :meth:`SelectiveMtFlow.run`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from repro.config import FlowConfig, Technique
from repro.core.dual_vth import AssignmentResult
from repro.core.eco import EcoResult
from repro.core.improved_smt import ImprovedSmtResult
from repro.core.mte import MteTreeResult
from repro.core.selective_mt import ConventionalSmtResult
from repro.core.stages import (
    PIPELINES,
    SHARED_STAGES,
    FlowContext,
    Stage,
    StageReport,
    StageRunner,
    build_pipeline,
)
from repro.cts.tree import CtsResult
from repro.errors import FlowError
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
    "run_fork",
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
        """Package a completed pipeline context.

        Requires the pipeline to have produced final timing and
        leakage; partial pipelines should keep working with the
        :class:`FlowContext` itself.
        """
        for field in ("netlist", "placement", "constraints", "timing",
                      "leakage"):
            if getattr(ctx, field) is None:
                raise FlowError(
                    f"pipeline finished without producing {field!r}; "
                    f"use run_context() for partial pipelines")
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
                 config: FlowConfig | None = None,
                 stages: Iterable[Stage | str] | None = None):
        self.source_netlist = netlist
        self.library = library
        self.technique = technique
        self.config = config or FlowConfig()
        self.tech = library.tech
        if self.tech is None:
            raise FlowError("library carries no technology")
        #: Optional custom pipeline (stage keys or Stage objects);
        #: defaults to the technique's registered stage list.
        self.stages = list(stages) if stages is not None else None

    def pipeline(self) -> list[Stage]:
        if self.stages is not None:
            runner = StageRunner(self.stages)
            return runner.stages
        return build_pipeline(self.technique)

    def run_context(self) -> FlowContext:
        """Run the pipeline and return the raw context.

        Unlike :meth:`run` this does not require the pipeline to be
        complete — useful for assembling partial or experimental
        pipelines from the stage registry.
        """
        ctx = FlowContext.create(self.source_netlist, self.library,
                                 self.technique, self.config)
        with _flow_span(self.source_netlist, self.technique):
            StageRunner(self.pipeline()).run(ctx)
        return ctx

    def run(self) -> FlowResult:
        return FlowResult.from_context(self.run_context())


def _flow_span(netlist: Netlist, technique: Technique):
    return span("flow.run", circuit=netlist.name, technique=technique.value)


def shared_prefix(netlist: Netlist, library: Library,
                  config: FlowConfig | None = None) -> FlowContext:
    """Run :data:`SHARED_STAGES` on ``netlist``, for :func:`run_fork`."""
    return StageRunner(SHARED_STAGES).run(
        FlowContext.create(netlist, library, config=config))


def run_fork(netlist: Netlist, technique: Technique,
             prefix: Callable[[], FlowContext]) -> FlowResult:
    """Finish ``technique`` on a fork of a shared-stage prefix.

    ``prefix()`` returns the :func:`shared_prefix` context of
    ``netlist``; a prefix it has to build runs inside this flow's
    ``flow.run`` span.  The fork runs the technique's stages after
    :data:`SHARED_STAGES` and leaves the prefix as it was, so the
    result equals ``SelectiveMtFlow(netlist, library, technique,
    config).run()``.
    """
    with _flow_span(netlist, technique):
        ctx = prefix().fork(technique)
        StageRunner(PIPELINES[technique][len(SHARED_STAGES):]).run(ctx)
    return FlowResult.from_context(ctx)
