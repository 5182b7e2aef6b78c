"""Incremental-vs-full STA equivalence.

The TimingSession's contract is *exactness*: after any tracked edit
sequence, its report must be bit-identical (==, not approx) to the
report a fresh TimingAnalyzer produces on the same netlist.  The
property tests drive randomized sequences of variant swaps, derate
changes and buffer insertions over ISCAS-class circuits and compare
every node and every endpoint check, and every arrivals-only
``wns()`` answer, with the two queries randomly interleaved.
"""

import random

import pytest

from repro.benchcircuits.suite import load_circuit
from repro.liberty.library import (
    VARIANT_CMT,
    VARIANT_HVT,
    VARIANT_LVT,
    VARIANT_MT,
    VARIANT_MTV,
)
from repro.netlist.core import PinDirection
from repro.netlist.techmap import technology_map
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.timing.sta import TimingAnalyzer

NODE_FIELDS = ("arr_rise", "arr_fall", "min_rise", "min_fall",
               "slew_rise", "slew_fall", "req_rise", "req_fall",
               "prev_rise", "prev_fall")


def assert_reports_identical(session_report, fresh_report):
    assert session_report.clock_period == fresh_report.clock_period
    assert session_report.wns == fresh_report.wns
    assert session_report.tns == fresh_report.tns
    assert session_report.hold_wns == fresh_report.hold_wns
    assert session_report.hold_tns == fresh_report.hold_tns
    assert session_report.critical_endpoint == fresh_report.critical_endpoint
    got = [(c.endpoint, c.kind, c.slack, c.arrival, c.required)
           for c in session_report.endpoint_checks]
    want = [(c.endpoint, c.kind, c.slack, c.arrival, c.required)
            for c in fresh_report.endpoint_checks]
    assert got == want
    assert set(session_report.node_timing) == set(fresh_report.node_timing)
    for name, fresh_node in fresh_report.node_timing.items():
        session_node = session_report.node_timing[name]
        for field in NODE_FIELDS:
            assert getattr(session_node, field) \
                == getattr(fresh_node, field), (name, field)


def _mapped(name, library):
    netlist = load_circuit(name)
    technology_map(netlist, library, VARIANT_LVT)
    return netlist


def _random_edit(rng, session, netlist, library):
    """Apply one random tracked edit; returns a description string."""
    instances = [inst for inst in netlist.instances.values()
                 if inst.cell_name in library]
    choice = rng.random()
    if choice < 0.55:
        inst = rng.choice(instances)
        cell = library.cell(inst.cell_name)
        variant = rng.choice([VARIANT_LVT, VARIANT_HVT, VARIANT_MT])
        if library.has_variant(cell, variant):
            session.swap_variant(inst, variant)
            return f"swap {inst.name} -> {variant}"
        return "noop"
    if choice < 0.85:
        inst = rng.choice(instances)
        derate = rng.choice([1.0, 1.02, 1.05, 1.1])
        session.set_derate(inst.name, derate)
        return f"derate {inst.name} = {derate}"
    buffered = [net for net in netlist.nets.values() if net.sinks]
    net = rng.choice(buffered)
    sinks = [rng.choice(net.sinks)]
    session.insert_buffer(net, "BUF_X1_HVT", sinks=sinks)
    return f"buffer {net.name}"


@pytest.mark.parametrize("circuit,seed", [
    ("c17", 1),
    ("c432", 2),
    ("c432", 3),
    ("s27", 4),
    ("s298", 5),
    ("s344", 6),
])
def test_random_edit_sequences_match_full_sta(library, circuit, seed):
    netlist = _mapped(circuit, library)
    constraints = Constraints(clock_period=3.0)
    session = TimingSession(netlist, library, constraints)
    assert_reports_identical(
        session.report(),
        TimingAnalyzer(netlist, library, constraints).run())
    rng = random.Random(seed)
    for _ in range(18):
        _random_edit(rng, session, netlist, library)
        fresh = TimingAnalyzer(netlist, library, constraints,
                               derates=session.derates).run()
        assert_reports_identical(session.report(), fresh)


def test_edit_batches_match_full_sta(library):
    """Several edits between probes (the ECO pattern)."""
    netlist = _mapped("c880", library)
    constraints = Constraints(clock_period=4.0)
    session = TimingSession(netlist, library, constraints)
    session.report()
    rng = random.Random(11)
    for _ in range(6):
        for _ in range(rng.randint(2, 6)):
            _random_edit(rng, session, netlist, library)
        fresh = TimingAnalyzer(netlist, library, constraints,
                               derates=session.derates).run()
        assert_reports_identical(session.report(), fresh)


def test_session_with_parasitics_and_clock_arrivals(library):
    """Wire delays and CTS-style skew go through the same machinery."""
    from repro.placement.legalize import legalize
    from repro.placement.placer import GlobalPlacer
    from repro.routing.extract import PreRouteEstimator

    netlist = _mapped("s298", library)
    placement = GlobalPlacer(netlist, library, seed=3).run()
    legalize(placement, netlist, library)
    parasitics = PreRouteEstimator(netlist, placement, library).extract()
    clock_arrivals = {
        inst.name: 0.003 * (index % 5)
        for index, inst in enumerate(netlist.instances.values())
        if library.cell(inst.cell_name).is_sequential}
    constraints = Constraints(clock_period=3.5)
    session = TimingSession(netlist, library, constraints,
                            parasitics=parasitics,
                            clock_arrivals=clock_arrivals)
    rng = random.Random(21)
    session.report()
    for _ in range(12):
        _random_edit(rng, session, netlist, library)
        fresh = TimingAnalyzer(netlist, library, constraints,
                               parasitics=parasitics,
                               derates=session.derates,
                               clock_arrivals=clock_arrivals).run()
        assert_reports_identical(session.report(), fresh)


@pytest.mark.parametrize("full_threshold", [0.5, 0.05])
@pytest.mark.parametrize("circuit,seed", [
    ("c432", 15),
    ("s298", 21),
    ("s344", 10),
])
def test_interleaved_wns_and_report_match_full_sta(library, circuit, seed,
                                                   full_threshold):
    """wns() propagates arrivals only and leaves required times stale;
    whichever query comes next, after any edit batch (possibly empty),
    must still answer exactly like a fresh analyzer.  At 0.05 most
    batches blow the cone budget, so both queries also escalate.  At
    0.5 these seeds also catch a report() whose backward sweep keeps
    the stale required times instead of resetting them."""
    netlist = _mapped(circuit, library)
    constraints = Constraints(clock_period=3.0)
    session = TimingSession(netlist, library, constraints,
                            full_threshold=full_threshold)
    rng = random.Random(seed)
    queries = []
    for _ in range(16):
        for _ in range(rng.randint(0, 4)):
            _random_edit(rng, session, netlist, library)
        fresh = TimingAnalyzer(netlist, library, constraints,
                               derates=session.derates).run()
        if rng.random() < 0.5:
            queries.append("wns")
            assert session.wns() == fresh.wns
        else:
            queries.append("report")
            assert_reports_identical(session.report(), fresh)
    assert set(queries) == {"wns", "report"}
    assert session.stats.required_sweeps > 0
    assert session.stats.sta_calls == len(queries)


def test_zero_threshold_forces_full_runs(library):
    """full_threshold=0 degenerates to cached-structure full STA."""
    netlist = _mapped("c432", library)
    constraints = Constraints(clock_period=3.0)
    session = TimingSession(netlist, library, constraints,
                            full_threshold=0.0)
    session.report()
    inst = next(iter(netlist.instances.values()))
    session.swap_variant(inst, VARIANT_HVT)
    session.report()
    assert session.stats.incremental_runs == 0
    assert session.stats.full_runs == 2
    assert_reports_identical(
        session.report(),
        TimingAnalyzer(netlist, library, constraints).run())


def test_clean_report_is_cached(library):
    netlist = _mapped("c432", library)
    session = TimingSession(netlist, library,
                            Constraints(clock_period=3.0))
    first = session.report()
    second = session.report()
    assert first is second
    assert session.stats.cached_reports == 1
    assert session.stats.propagations == 1


def test_small_edits_propagate_incrementally(library):
    """On a big circuit, a single swap must not trigger a full run."""
    netlist = _mapped("circuitA", library)
    constraints = Constraints(clock_period=5.0)
    session = TimingSession(netlist, library, constraints)
    session.report()
    swapped = 0
    for inst in netlist.instances.values():
        cell = library.cells.get(inst.cell_name)
        if cell is None or cell.is_sequential:
            continue
        if library.has_variant(cell, VARIANT_HVT):
            session.swap_variant(inst, VARIANT_HVT)
            session.report()
            swapped += 1
            if swapped >= 8:
                break
    assert session.stats.incremental_runs >= 2
    assert session.stats.forward_instances_saved > 0
    fresh = TimingAnalyzer(netlist, library, constraints).run()
    assert_reports_identical(session.report(), fresh)


def test_set_derates_diffs_only_changes(library):
    netlist = _mapped("c432", library)
    session = TimingSession(netlist, library,
                            Constraints(clock_period=3.0))
    session.report()
    names = list(netlist.instances)[:4]
    session.set_derates({name: 1.05 for name in names})
    assert session.dirty
    session.report()
    # Re-applying the identical map must not dirty anything.
    session.set_derates({name: 1.05 for name in names})
    assert not session.dirty
    fresh = TimingAnalyzer(netlist, library, Constraints(clock_period=3.0),
                           derates=session.derates).run()
    assert_reports_identical(session.report(), fresh)


def test_undone_swap_reevaluates_only_the_dirty_instances(library):
    """The exact cutoff: a swap undone before the next query leaves each
    recomputed node equal to the stored one, so the pass stops at the
    dirty instances (the gate and the drivers of its two inputs, whose
    loads were touched) instead of re-evaluating their fan-out cone,
    which for this gate spans most of c880."""
    netlist = _mapped("c880", library)
    constraints = Constraints(clock_period=4.0)
    session = TimingSession(netlist, library, constraints)
    session.wns()
    gate = netlist.instances["g15"]
    session.swap_variant(gate, VARIANT_HVT)
    session.swap_variant(gate, VARIANT_LVT)
    evaluated = session.stats.forward_instances
    fresh = TimingAnalyzer(netlist, library, constraints).run()
    assert session.wns() == fresh.wns
    assert session.stats.forward_instances - evaluated == 3
    assert session.stats.full_runs == 1
    assert_reports_identical(session.report(), fresh)


def test_swap_touches_each_connected_net_once(library, monkeypatch):
    """A net connected both before and after a swap has its cached load
    dropped once, not once per side of the swap."""
    netlist = _mapped("c880", library)
    session = TimingSession(netlist, library, Constraints(clock_period=4.0))
    session.report()
    gate = netlist.instances["g15"]
    nets = {pin.net.name for pin in gate.pins.values()
            if pin.net is not None}
    dropped = []
    invalidate = session.net_model.invalidate
    monkeypatch.setattr(session.net_model, "invalidate",
                        lambda net=None: (dropped.append(net.name),
                                          invalidate(net)))
    session.swap_variant(gate, VARIANT_HVT)
    assert sorted(dropped) == sorted(nets)
    assert len(nets) == 3
    assert_reports_identical(
        session.report(),
        TimingAnalyzer(netlist, library,
                       Constraints(clock_period=4.0)).run())


def test_readers_of_a_net_leaving_the_timing_domain_reevaluate(library):
    """A gate whose output pin is disconnected stops driving its net,
    which leaves the node domain; the net's readers lost a source and
    must re-evaluate although no edit named them."""
    netlist = _mapped("c432", library)
    constraints = Constraints(clock_period=3.0)
    session = TimingSession(netlist, library, constraints)
    session.report()
    gate = next(inst for inst in netlist.instances.values()
                if inst.single_output().net.sinks)
    netlist.disconnect(gate.single_output())
    session.touch_structural()
    session.touch_instance(gate)
    assert_reports_identical(
        session.report(),
        TimingAnalyzer(netlist, library, constraints).run())


@pytest.mark.parametrize("edit", [
    "cmt_swap", "mtv_swap", "insert_buffer", "untracked_rewire",
    "pin_swap", "holder"])
def test_evaluation_plans_follow_every_edit(library, edit):
    """Each instance's evaluation plan (its input nets, wire delays and
    arcs per cell, and each arc's last backward lookup) is built once
    and reused, so it must never outlive what it read.  After each edit
    the report equals a fresh analyzer's: a CMT swap (adds and connects
    MTE) and back, an MTV swap (adds and connects VGND) and back, a
    buffer insertion, an untracked rewiring followed by
    ``invalidate()``, two input pins trading nets followed by
    ``touch_instance()``, and an output holder keeping the gate's output
    (more load at unchanged input slews, so a backward memo that
    ignored the load would go stale).  The gate is the most critical
    two-input gate and the moved pin its latest input, so a stale plan
    shows in the arrivals and required times; the parasitics make a
    stale wire delay show too."""
    from repro.placement.legalize import legalize
    from repro.placement.placer import GlobalPlacer
    from repro.routing.extract import PreRouteEstimator

    netlist = _mapped("s298", library)
    placement = GlobalPlacer(netlist, library, seed=3).run()
    legalize(placement, netlist, library)
    parasitics = PreRouteEstimator(netlist, placement, library).extract()
    constraints = Constraints(clock_period=3.5)
    session = TimingSession(netlist, library, constraints,
                            parasitics=parasitics)

    def check():
        fresh = TimingAnalyzer(netlist, library, constraints,
                               parasitics=parasitics).run()
        assert_reports_identical(session.report(), fresh)

    check()
    report = session.report()
    gate = min((inst for inst in netlist.instances.values()
                if not library.cell(inst.cell_name).is_sequential
                and len(inst.input_pins()) == 2),
               key=lambda inst: report.slack_of_net(
                   inst.single_output().net.name))
    late_net = report.node_timing[gate.single_output().net.name].prev_rise[0]
    pin = next(p for p in gate.input_pins() if p.net.name == late_net)
    if edit in ("cmt_swap", "mtv_swap"):
        variant = VARIANT_CMT if edit == "cmt_swap" else VARIANT_MTV
        session.swap_variant(gate, variant)
        if variant == VARIANT_CMT:
            rail = netlist.get_or_create_net("MTE")
            netlist.connect(gate, "MTE", rail, PinDirection.INPUT)
            session.touch_net(rail)
        else:
            netlist.connect(gate, "VGND", netlist.get_or_create_net("VGND_0"),
                            PinDirection.INOUT, keeper=True)
        check()
        session.swap_variant(gate, VARIANT_LVT)
    elif edit == "insert_buffer":
        session.insert_buffer(pin.net, "BUF_X1_HVT", sinks=[pin])
    elif edit == "untracked_rewire":
        early = next(port.net for port in netlist.input_ports()
                     if port.net is not None
                     and all(p.net is not port.net
                             for p in gate.input_pins()))
        netlist.disconnect(pin)
        netlist.connect(gate, pin.name, early, PinDirection.INPUT)
        session.invalidate()
    elif edit == "holder":
        kept = gate.single_output().net
        holder = netlist.add_instance("hold_test", "HOLDER_X1")
        netlist.connect(holder, "Z", kept, PinDirection.INOUT, keeper=True)
        netlist.connect(holder, "MTE", netlist.get_or_create_net("MTE"),
                        PinDirection.INPUT)
        session.touch_net(kept)
    else:
        first, second = gate.input_pins()
        nets = first.net, second.net
        netlist.disconnect(first)
        netlist.disconnect(second)
        netlist.connect(gate, first.name, nets[1], PinDirection.INPUT)
        netlist.connect(gate, second.name, nets[0], PinDirection.INPUT)
        session.touch_instance(gate)
        for net in nets:
            session.touch_net(net)
    check()
