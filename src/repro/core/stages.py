"""The stage steps of the Fig. 4 design flow.

Every Fig. 4 box is a stage function over one typed
:class:`FlowContext`; a technique is the tuple of its steps
(:data:`PIPELINES`), and :func:`run_stages` runs steps in order.  All
three techniques open with :data:`SHARED_STAGES`, and the two
Selective-MT techniques also share their MT assignment; no shared step
reads the technique.  :class:`~repro.core.flow.SelectiveMtFlow` forks
the context after a technique's shared steps (:func:`shared_steps`,
:meth:`FlowContext.fork`) and runs the rest of its steps on the fork.

A step's key is its function's name without the ``stage_`` prefix
(:func:`stage_key`); it runs in a ``stage.<key>`` span.  It returns a
details dict (recorded as a :class:`StageReport` with its wall-clock)
or ``None`` for hidden plumbing steps (estimation, conversion,
teardown, finalize) that Fig. 4 does not draw as boxes.  Timing-heavy
stages share one incremental
:class:`~repro.timing.session.TimingSession` per (constraints,
parasitics) regime — see ``ARCHITECTURE.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

from repro.config import FlowConfig, Technique
from repro.core.dual_vth import AssignmentResult, DualVthAssigner
from repro.core.eco import EcoResult, HoldFixer, SetupFixer
from repro.core.improved_smt import ImprovedSmtBuilder, ImprovedSmtResult
from repro.core.mte import MteBufferTree, MteTreeResult
from repro.core.output_holder import insert_output_holders
from repro.core.selective_mt import (
    ConventionalSmtBuilder,
    ConventionalSmtResult,
    assign_mt,
)
from repro.cts.tree import ClockTreeSynthesizer, CtsResult
from repro.errors import FlowError
from repro.liberty.library import Library, VARIANT_HVT, VARIANT_LVT
from repro.netlist.core import Instance, Netlist, PinDirection
from repro.netlist.techmap import technology_map
from repro.netlist.validate import check_netlist
from repro.obs.spans import timed_span
from repro.placement.legalize import legalize
from repro.placement.placer import (
    GlobalPlacer,
    Placement,
    place_incremental,
)
from repro.power.leakage import LeakageAnalyzer, LeakageBreakdown
from repro.routing.extract import (
    NetParasitics,
    PostRouteExtractor,
    PreRouteEstimator,
)
from repro.routing.steiner import build_mst
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.timing.sta import TimingReport
from repro.vgnd.em import check_em
from repro.vgnd.network import VgndNetwork
from repro.vgnd.refine import repair_unsizeable
from repro.vgnd.sizing import SwitchSizer


@dataclasses.dataclass
class StageReport:
    """One executed flow stage (one Fig. 4 box)."""

    name: str
    elapsed_s: float
    details: dict[str, Any] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        detail_text = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.name}] ({self.elapsed_s:.2f}s) {detail_text}"


@dataclasses.dataclass
class FlowContext:
    """Typed working state threaded through a technique's stage steps:
    every intermediate the improved technique carries between its boxes
    is a named field."""

    # Inputs (set at creation).
    technique: Technique
    config: FlowConfig
    library: Library
    source_netlist: Netlist

    # Produced by the pipeline.
    netlist: Netlist | None = None
    placement: Placement | None = None
    constraints: Constraints | None = None
    parasitics: dict[str, NetParasitics] = dataclasses.field(
        default_factory=dict)
    assignment: AssignmentResult | None = None
    smt_result: ConventionalSmtResult | ImprovedSmtResult | None = None
    network: VgndNetwork | None = None
    cts: CtsResult | None = None
    mte: MteTreeResult | None = None
    eco: EcoResult | None = None
    timing: TimingReport | None = None
    leakage: LeakageBreakdown | None = None
    total_area: float = 0.0
    #: The critical delay :meth:`critical_delay` probed (``None`` until
    #: a step needs it); forks carry it.
    critical_delay_ns: float | None = None

    # Improved-SMT intermediates (between the VGND conversion and the
    # switch structure construction).
    improved_builder: ImprovedSmtBuilder | None = None
    mt_names: list[str] = dataclasses.field(default_factory=list)
    initial_switch: str | None = None
    holders: list[str] = dataclasses.field(default_factory=list)

    # Bookkeeping.
    stages: list[StageReport] = dataclasses.field(default_factory=list)
    sta_stats: dict[str, dict[str, int]] = dataclasses.field(
        default_factory=dict)

    @classmethod
    def create(cls, netlist: Netlist, library: Library,
               technique: Technique = Technique.IMPROVED_SMT,
               config: FlowConfig | None = None) -> "FlowContext":
        if library.tech is None:
            raise FlowError("library carries no technology")
        return cls(technique=technique, config=config or FlowConfig(),
                   library=library, source_netlist=netlist)

    def fork(self, technique: Technique) -> "FlowContext":
        """A context for ``technique`` resuming after this one.

        Meant for a context that ran shared steps (:func:`shared_steps`),
        which do not read the technique.  The fork gets its own copy of
        the netlist and of the placement dicts, which the remaining
        stages edit; the pre-route parasitics, the constraints, the
        assignment, the stage reports so far and their STA statistics
        are shared and must stay read-only, so one prefix serves every
        technique that opens with its steps.
        """
        placement = dataclasses.replace(
            self.placement, locations=dict(self.placement.locations),
            port_locations=dict(self.placement.port_locations))
        return dataclasses.replace(
            self, technique=technique, netlist=self.netlist.copy(),
            placement=placement, stages=list(self.stages),
            sta_stats=dict(self.sta_stats))

    def critical_delay(self) -> float:
        """The critical delay of this context's netlist and parasitics
        (:func:`probe_critical_delay`), probed once, on first need."""
        if self.critical_delay_ns is None:
            self.critical_delay_ns = probe_critical_delay(
                self.netlist, self.library, self.parasitics)
        return self.critical_delay_ns

    def _make_session(self, constraints: Constraints,
                      derates=None, clock_arrivals=None) -> TimingSession:
        return TimingSession(
            self.netlist, self.library, constraints,
            parasitics=self.parasitics, derates=derates,
            clock_arrivals=clock_arrivals)

    def _note_session(self, label: str, session: TimingSession,
                      details: dict[str, Any]) -> dict[str, Any]:
        stats = session.stats
        self.sta_stats[label] = stats.as_dict()
        details["sta_full"] = stats.full_runs
        details["sta_incremental"] = stats.incremental_runs
        details["sta_cached"] = stats.cached_reports
        return details


# --- stage implementations (the Fig. 4 boxes) -------------------------------


def stage_physical_synthesis(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 1: synthesis with low-Vth cells + initial placement."""
    netlist = ctx.source_netlist.clone()
    technology_map(netlist, ctx.library, VARIANT_LVT)
    problems = check_netlist(netlist, ctx.library)
    if problems:
        raise FlowError(f"netlist invalid after mapping: {problems[:3]}")
    placer = GlobalPlacer(netlist, ctx.library,
                          utilization=ctx.config.utilization,
                          aspect_ratio=ctx.config.aspect_ratio,
                          iterations=ctx.config.placer_iterations,
                          seed=ctx.config.placement_seed)
    placement = placer.run()
    legalize(placement, netlist, ctx.library)
    ctx.netlist = netlist
    ctx.placement = placement
    return {
        "instances": len(netlist.instances),
        "die": f"{placement.floorplan.width:.0f}x"
               f"{placement.floorplan.height:.0f}um",
    }


def stage_pre_route_estimation(ctx: FlowContext) -> None:
    """Hidden plumbing: pre-route RC estimates for the assignment STA."""
    ctx.parasitics = PreRouteEstimator(ctx.netlist, ctx.placement,
                                       ctx.library).extract()
    return None


#: The critical-delay probe's clock period: long enough for every
#: endpoint to meet it, so the period minus the WNS is the critical
#: delay.
_PROBE_PERIOD_NS = 1000.0


def probe_critical_delay(
        netlist: Netlist, library: Library,
        parasitics: dict[str, NetParasitics] | None = None) -> float:
    """The critical delay of ``netlist``, from one STA probe at a
    1000 ns period (with ``parasitics`` when a placement exists).

    The probe reads arrivals only (:meth:`TimingSession.wns`, which
    equals a full report's WNS bit for bit) and no timing margin, so
    one probe serves every margin.
    """
    probe = Constraints(clock_period=_PROBE_PERIOD_NS)
    session = TimingSession(netlist, library, probe, parasitics=parasitics)
    return _PROBE_PERIOD_NS - session.wns()


def derive_clock_constraints(
        config: FlowConfig,
        critical_delay: Callable[[], float]) -> Constraints:
    """Clock period = critical delay x (1 + ``config.timing_margin``).

    A configured ``clock_period_ns`` overrides the derivation and never
    calls ``critical_delay``.
    """
    if config.clock_period_ns is not None:
        return Constraints(clock_period=config.clock_period_ns)
    min_period = critical_delay()
    if min_period <= 0:
        raise FlowError("could not derive a positive minimum period")
    return Constraints(clock_period=min_period * (1.0 + config.timing_margin))


def stage_derive_constraints(ctx: FlowContext) -> None:
    """Clock period = all-LVT critical delay x (1 + margin)."""
    ctx.constraints = derive_clock_constraints(ctx.config,
                                               ctx.critical_delay)
    return None


def _guardbanded(ctx: FlowContext) -> Constraints:
    """The assignment sees a guardbanded (slightly shorter) period so
    pre-route estimation error cannot break final timing closure."""
    return ctx.constraints.scaled(1.0 - ctx.config.assignment_guardband)


def stage_dual_vth_assignment(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 2 for the Dual-Vth baseline [Wei et al. 2000]."""
    constraints = _guardbanded(ctx)
    session = ctx._make_session(constraints)
    assignment = DualVthAssigner(
        session, fast_variant=VARIANT_LVT, slow_variant=VARIANT_HVT).run()
    ctx.assignment = assignment
    return ctx._note_session("vth_assignment", session, {
        "low_vth": assignment.fast_count,
        "high_vth": assignment.slow_count,
        "sta_runs": assignment.sta_runs,
    })


def stage_mt_assignment(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 2 for both Selective-MT techniques: MT replacement,
    fast class = MT-cells without VGND ports.

    Its session is finished after the assignment's last probe: the
    conversion step that follows edits the netlist directly.
    """
    session = ctx._make_session(_guardbanded(ctx))
    assignment = assign_mt(session)
    ctx.assignment = assignment
    return ctx._note_session("vth_assignment", session, {
        "mt_cells": assignment.fast_count,
        "high_vth": assignment.slow_count,
        "sta_runs": assignment.sta_runs,
    })


def stage_cmt_conversion(ctx: FlowContext) -> None:
    """Hidden plumbing: the MT-cells become conventional MT-cells, each
    with its embedded switch and its MTE pin on the sleep net
    (Fig. 2)."""
    ctx.smt_result = ConventionalSmtBuilder(
        ctx.netlist, ctx.library).convert(ctx.assignment)
    return None


def stage_vgnd_conversion(ctx: FlowContext) -> None:
    """Hidden plumbing: the MT-cells get VGND ports on one initial
    switch, and output holders go where they feed powered logic
    (Fig. 3)."""
    builder = ImprovedSmtBuilder(ctx.netlist, ctx.library, ctx.placement,
                                 ctx.config)
    # The switch structure is built after ECO placement (the replaced
    # cells changed footprint); keep the intermediates on the context.
    ctx.mt_names, ctx.initial_switch, ctx.holders = \
        builder.convert(ctx.assignment)
    ctx.improved_builder = builder
    return None


def stage_initial_switch_teardown(ctx: FlowContext) -> None:
    """Hidden plumbing: drop the transient single-switch structure.

    It is about to be replaced by the clustered structure, and the
    replaced cells changed footprint, so it must not survive into the
    ECO placement.
    """
    ctx.improved_builder.teardown_initial_switch(ctx.mt_names,
                                                 ctx.initial_switch)
    ctx.initial_switch = None
    return None


def stage_eco_placement(ctx: FlowContext) -> dict[str, Any]:
    """Re-place after replacement: MTV/CMT cells changed footprint.

    LVT/HVT/MT swaps are footprint-compatible, but the VGND-port and
    embedded-switch variants are larger, so the initial rows no longer
    fit; an ECO placement restores a legal, congestion-aware layout
    before the switch structure and routing are built.

    When the netlist gives the placer the key the fork's placement was
    made with (:meth:`GlobalPlacer.key`: same instances, areas, ports
    and connectivity, as after a Dual-Vth assignment's swaps), placing
    again would reproduce that placement exactly, so it is kept:
    ``replaced`` says whether the placer ran.
    """
    placer = GlobalPlacer(ctx.netlist, ctx.library,
                          utilization=ctx.config.utilization,
                          aspect_ratio=ctx.config.aspect_ratio,
                          iterations=ctx.config.placer_iterations,
                          seed=ctx.config.placement_seed)
    replaced = placer.key() != ctx.placement.key
    if replaced:
        ctx.placement = placer.run()
        legalize(ctx.placement, ctx.netlist, ctx.library)
    floorplan = ctx.placement.floorplan
    return {
        "die": f"{floorplan.width:.0f}x{floorplan.height:.0f}um",
        "replaced": replaced,
    }


def stage_switch_structure(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 4: construct the shared switch structure."""
    builder = ctx.improved_builder
    builder.placement = ctx.placement
    network = builder.build_switch_structure(ctx.mt_names,
                                             ctx.initial_switch)
    ctx.network = network
    ctx.smt_result = ImprovedSmtResult(
        assignment=ctx.assignment, mt_cell_names=ctx.mt_names,
        holder_names=ctx.holders, network=network)
    return {
        "clusters": len(network.clusters),
        "holders": len(ctx.holders),
        "worst_bounce_mv": round(network.worst_bounce_v() * 1e3, 2),
    }


def stage_routing_cts_mte(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 5: routing including CTS, MTE buffering."""
    netlist = ctx.netlist
    placement = ctx.placement
    cts_result = None
    if any(inst.cell_name in ctx.library
           and ctx.library.cell(inst.cell_name).is_sequential
           for inst in netlist.instances.values()):
        cts_result = ClockTreeSynthesizer(netlist, ctx.library,
                                          placement).run()
    mte_result = None
    if ctx.technique != Technique.DUAL_VTH:
        mte_result = MteBufferTree(netlist, ctx.library, placement).run()
    legalize(placement, netlist, ctx.library)
    for port_name in netlist.ports:
        placement.ensure_port_location(port_name)
    extractor = PostRouteExtractor(netlist, placement, ctx.library)
    ctx.parasitics = extractor.extract()
    ctx.cts = cts_result
    ctx.mte = mte_result
    return {
        "cts_buffers": cts_result.buffer_count if cts_result else 0,
        "cts_skew_ps": round(cts_result.skew * 1e3, 1) if cts_result else 0,
        "mte_buffers": mte_result.buffer_count if mte_result else 0,
        "extracted_nets": len(ctx.parasitics),
    }


def stage_spef_reoptimization(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 6: switch re-optimization on post-route (SPEF) RC."""
    network = ctx.network
    netlist = ctx.netlist
    placement = ctx.placement
    measured: dict[int, float] = {}
    for cluster in network.clusters:
        names = list(cluster.members)
        if cluster.switch_instance:
            names.append(cluster.switch_instance)
        points = [placement.locations.get(n, (0.0, 0.0)) for n in names]
        tree = build_mst(names, points)
        measured[cluster.index] = tree.total_length
    sizer = SwitchSizer(ctx.library, network.bounce_limit_v)
    outcome = sizer.reoptimize(network, measured, strict=False)
    splits = 0
    if outcome.unsizeable_clusters:
        # Structural half of the re-optimization: split clusters the
        # extracted rails show to be un-sizeable.
        splits = repair_unsizeable(
            netlist, ctx.library, placement, network, sizer,
            outcome.unsizeable_clusters,
            simultaneity_exponent=ctx.config.simultaneity_exponent,
            simultaneity_floor=ctx.config.simultaneity_floor)
        outcome = sizer.size_network(network)
    # Apply changed switch cells to the netlist instances.
    changed = 0
    for cluster in network.clusters:
        if cluster.switch_instance is None or cluster.switch_cell is None:
            continue
        inst = netlist.instances.get(cluster.switch_instance)
        if inst is not None and inst.cell_name != cluster.switch_cell:
            inst.cell_name = cluster.switch_cell
            changed += 1
    violations = check_em(network, ctx.library,
                          ctx.config.max_cells_per_switch)
    if violations:
        raise FlowError("EM violations after re-optimization: "
                        + "; ".join(v.render() for v in violations[:3]))
    return {
        "resized": outcome.resized_clusters,
        "applied": changed,
        "splits": splits,
        "worst_bounce_mv": round(outcome.worst_bounce_v * 1e3, 2),
    }


def make_fast_swap(ctx: FlowContext,
                   session: TimingSession) -> Callable[[Instance], bool]:
    """Technique-specific "re-accelerate this cell" ECO operation.

    Every netlist mutation the swap performs is reported to ``session``
    so the ECO loop stays incremental.
    """
    library = ctx.library
    netlist = ctx.netlist
    network = ctx.network
    placement = ctx.placement

    def swap_dual(inst) -> bool:
        cell = library.cell(inst.cell_name)
        if not library.has_variant(cell, VARIANT_LVT):
            return False
        session.swap_variant(inst, VARIANT_LVT)
        return True

    def swap_conventional(inst) -> bool:
        from repro.liberty.library import VARIANT_CMT
        cell = library.cell(inst.cell_name)
        if not library.has_variant(cell, VARIANT_CMT):
            return False
        session.swap_variant(inst, VARIANT_CMT)
        mte_net = netlist.get_or_create_net("MTE")
        mte_pin = inst.pins.get("MTE")
        if mte_pin is not None and mte_pin.net is None:
            # The MTE pin is no timing arc: only the net's load changed.
            netlist.connect(inst, "MTE", mte_net, PinDirection.INPUT)
            session.touch_net(mte_net)
        return True

    def swap_improved(inst) -> bool:
        from repro.liberty.library import VARIANT_MTV
        cell = library.cell(inst.cell_name)
        if not library.has_variant(cell, VARIANT_MTV) \
                or network is None or not network.clusters:
            return False
        session.swap_variant(inst, VARIANT_MTV)
        # Join the geometrically nearest cluster's rail.
        x = inst.attributes.get("x", 0.0)
        y = inst.attributes.get("y", 0.0)
        cluster = min(network.clusters,
                      key=lambda c: abs(c.centroid[0] - x)
                      + abs(c.centroid[1] - y))
        vgnd_net = netlist.get_or_create_net(cluster.net_name)
        vgnd_pin = inst.pins.get("VGND")
        if vgnd_pin is not None and vgnd_pin.net is None:
            netlist.connect(inst, "VGND", vgnd_net,
                            PinDirection.INOUT, keeper=True)
        cluster.members.append(inst.name)
        new_cell = library.cell(inst.cell_name)
        cluster.current_ma += new_cell.switching_current_ma \
            / max(len(cluster.members) ** 0.5, 1.0)
        sizer = SwitchSizer(library, network.bounce_limit_v)
        sizer.size_cluster(cluster)
        switch_inst = netlist.instances.get(cluster.switch_instance or "")
        if switch_inst is not None \
                and switch_inst.cell_name != cluster.switch_cell:
            switch_inst.cell_name = cluster.switch_cell
        # The re-accelerated cell may now drive powered logic.
        new_holders = insert_output_holders(netlist, library)
        if placement is not None:
            for holder_name in new_holders:
                place_incremental(placement, netlist, library,
                                  holder_name, (x, y))
        # STA skips holders, so the timed graph keeps its shape; each
        # holder's keeper only adds load to the net it holds.
        for holder_name in new_holders:
            z_pin = netlist.instances[holder_name].pins.get("Z")
            if z_pin is not None and z_pin.net is not None:
                session.touch_net(z_pin.net)
        return True

    if ctx.technique == Technique.DUAL_VTH:
        return swap_dual
    if ctx.technique == Technique.CONVENTIONAL_SMT:
        return swap_conventional
    return swap_improved


def stage_eco_and_sta(ctx: FlowContext) -> dict[str, Any]:
    """Fig. 4 box 7: ECO (setup repair + hold fixing), final STA."""
    netlist = ctx.netlist
    library = ctx.library
    network = ctx.network
    derates = None
    if network is not None:
        derates = network.derates(netlist, library)
    clock_arrivals = ctx.cts.clock_arrivals if ctx.cts else None
    session = ctx._make_session(ctx.constraints, derates=derates,
                                clock_arrivals=clock_arrivals)

    setup_result = SetupFixer(session, make_fast_swap(ctx, session)).run()
    if network is not None and setup_result.swapped:
        # Cluster membership may have grown: refresh the derates.
        session.set_derates(network.derates(netlist, library))

    eco_result = HoldFixer(session).run()
    ctx.eco = eco_result
    ctx.timing = eco_result.final_report
    return ctx._note_session("eco_and_sta", session, {
        "setup_swaps": setup_result.swap_count,
        "hold_buffers": eco_result.buffer_count,
        "wns": round(eco_result.final_report.wns, 4),
        "hold_wns": round(eco_result.final_report.hold_wns, 4),
    })


def stage_finalize(ctx: FlowContext) -> None:
    """Hidden plumbing: standby leakage + area accounting."""
    analyzer = LeakageAnalyzer(ctx.netlist, ctx.library,
                               compute_backend=ctx.config.compute_backend)
    ctx.leakage = analyzer.standby_leakage()
    ctx.total_area = analyzer.total_area()
    return None


# --- the techniques ----------------------------------------------------------

#: A stage step: one Fig. 4 box over the context, returning its report
#: details, or ``None`` for hidden plumbing.
StageStep = Callable[[FlowContext], dict[str, Any] | None]

#: The stages every technique opens with: low-Vth physical synthesis
#: and placement, pre-route estimation and the clock period.  None
#: reads the technique, so one run serves all three
#: (:func:`shared_steps`).
SHARED_STAGES: tuple[StageStep, ...] = (
    stage_physical_synthesis,
    stage_pre_route_estimation,
    stage_derive_constraints,
)

#: The three Fig. 4 techniques as their stage steps, in order.
PIPELINES: dict[Technique, tuple[StageStep, ...]] = {
    Technique.DUAL_VTH: SHARED_STAGES + (
        stage_dual_vth_assignment,
        stage_eco_placement,
        stage_routing_cts_mte,
        stage_eco_and_sta,
        stage_finalize,
    ),
    Technique.CONVENTIONAL_SMT: SHARED_STAGES + (
        stage_mt_assignment,
        stage_cmt_conversion,
        stage_eco_placement,
        stage_routing_cts_mte,
        stage_eco_and_sta,
        stage_finalize,
    ),
    Technique.IMPROVED_SMT: SHARED_STAGES + (
        stage_mt_assignment,
        stage_vgnd_conversion,
        stage_initial_switch_teardown,
        stage_eco_placement,
        stage_switch_structure,
        stage_routing_cts_mte,
        stage_spef_reoptimization,
        stage_eco_and_sta,
        stage_finalize,
    ),
}

#: Fig. 4 draws one replacement box: each assignment step reports
#: under its name.
_REPORT_NAMES = dict.fromkeys(
    ("dual_vth_assignment", "mt_assignment"), "vth_assignment")


def shared_steps(technique: Technique) -> tuple[StageStep, ...]:
    """The longest step prefix ``technique`` shares with another
    technique: Dual-Vth shares :data:`SHARED_STAGES`, the two
    Selective-MT techniques also their MT assignment.

    No shared step reads the technique, so one run of them serves every
    technique that opens with them.
    """
    steps = PIPELINES[technique]

    def common(other: tuple[StageStep, ...]) -> int:
        depth = 0
        for step, twin in zip(steps, other):
            if step is not twin:
                break
            depth += 1
        return depth

    return steps[:max(common(other) for key, other in PIPELINES.items()
                      if key != technique)]


def stage_key(step: StageStep) -> str:
    """The key of a stage step: its span is ``stage.<key>``."""
    return step.__name__.removeprefix("stage_")


def run_stages(ctx: FlowContext,
               steps: Iterable[StageStep]) -> FlowContext:
    """Run ``steps`` over ``ctx`` in order, recording stage reports."""
    for step in steps:
        key = stage_key(step)
        label = _REPORT_NAMES.get(key, key)
        # timed_span always measures elapsed_s with one perf_counter
        # pair; with tracing on it also records a span per stage,
        # carrying the stage's report details.
        sp = timed_span(f"stage.{key}", label=label)
        with sp:
            details = step(ctx)
            if details is not None:
                sp.set(**details)
        if details is not None:
            ctx.stages.append(StageReport(
                name=label, elapsed_s=sp.elapsed_s, details=details))
    return ctx
