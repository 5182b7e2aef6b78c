"""The ECO fast swaps tell the timing session only what STA sees.

Re-accelerating a cell connects its MTE pin to the existing MTE port
net (conventional SMT) or keeps its output with a new holder (improved
SMT).  Neither changes the shape of the timed graph: MTE pins carry no
timing arc and STA skips holders.  So a swap must not make the session
rebuild its topological order, and the next report must still equal a
fresh analyzer's.
"""

from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.stages import (
    PIPELINES,
    FlowContext,
    make_fast_swap,
    run_stages,
    stage_eco_and_sta,
    stage_finalize,
)
from repro.liberty.library import (
    VARIANT_CMT,
    VARIANT_HVT,
    VARIANT_MTV,
    CellKind,
)
from repro.timing.sta import TimingAnalyzer


def _eco_session(library, technique):
    """A context run up to its ECO stage, with that stage's session
    already timed once."""
    ctx = FlowContext.create(load_circuit("s344"), library, technique,
                             FlowConfig(timing_margin=0.12))
    assert PIPELINES[technique][-2:] == (stage_eco_and_sta, stage_finalize)
    run_stages(ctx, PIPELINES[technique][:-2])
    derates = ctx.network.derates(ctx.netlist, library) \
        if ctx.network is not None else None
    session = ctx._make_session(
        ctx.constraints, derates=derates,
        clock_arrivals=ctx.cts.clock_arrivals if ctx.cts else None)
    session.report()
    return ctx, session


def _summary(report):
    return (report.wns, report.tns, report.hold_wns, report.hold_tns,
            [(check.endpoint, check.kind, check.slack)
             for check in report.endpoint_checks],
            {net: node.slack for net, node in report.node_timing.items()})


def _assert_matches_fresh_analyzer(session):
    builds = session.stats.structure_builds
    report = session.report()
    assert session.stats.structure_builds == builds
    fresh = TimingAnalyzer(
        session.netlist, session.library, session.constraints,
        parasitics=session.net_model.parasitics, derates=session.derates,
        clock_arrivals=session.clock_arrivals).run()
    assert _summary(report) == _summary(fresh)


def _hvt_cells(ctx, variant):
    library = ctx.library
    for inst in ctx.netlist.instances.values():
        cell = library.cells.get(inst.cell_name)
        if cell is not None and cell.variant == VARIANT_HVT \
                and not cell.is_sequential \
                and library.has_variant(cell, variant):
            yield inst


def _holders(ctx):
    return {name for name, inst in ctx.netlist.instances.items()
            if ctx.library.cells.get(inst.cell_name) is not None
            and ctx.library.cell(inst.cell_name).kind == CellKind.HOLDER}


def test_conventional_swap_connecting_mte_keeps_the_structure(library):
    ctx, session = _eco_session(library, Technique.CONVENTIONAL_SMT)
    inst = next(_hvt_cells(ctx, VARIANT_CMT))
    assert make_fast_swap(ctx, session)(inst)
    assert inst.pin("MTE").net is ctx.netlist.net("MTE")
    _assert_matches_fresh_analyzer(session)


def test_improved_swap_inserting_a_holder_keeps_the_structure(library):
    ctx, session = _eco_session(library, Technique.IMPROVED_SMT)
    swap = make_fast_swap(ctx, session)
    # A cell driving a powered (high-Vth) sink needs a holder once it
    # becomes an MT-cell.
    inst = next(
        inst for inst in _hvt_cells(ctx, VARIANT_MTV)
        if any(library.cell(sink.instance.cell_name).variant
               == VARIANT_HVT
               for pin in inst.output_pins() if pin.net is not None
               for sink in pin.net.sinks))
    before = _holders(ctx)
    assert swap(inst)
    assert _holders(ctx) - before
    _assert_matches_fresh_analyzer(session)
