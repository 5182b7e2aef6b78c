"""Array-view invalidation: patches vs rebuilds, load refreshes.

The view must stay consistent with the netlist through the session's
edit taxonomy, and must take the cheap path when it is sound: a
variant swap that keeps the instance's arc signature (tied inputs
included) patches LUT ids in place; a structural edit rebuilds.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.compute.sta import run_full
from repro.compute.view import NetlistArrayView
from repro.liberty.library import VARIANT_CMT, VARIANT_HVT, VARIANT_MTV
from repro.netlist import transform
from repro.netlist.core import PinDirection
from repro.timing.constraints import Constraints
from repro.timing.delay import NetModel
from repro.timing.sta import TimingAnalyzer


def make_view(netlist, library, constraints):
    net_model = NetModel(netlist, library, constraints)
    return NetlistArrayView(netlist, library, constraints, net_model)


def swap_and_touch(view, netlist, library, inst, variant):
    """Swap ``inst`` and report it the way the timing session does."""
    transform.swap_variant(netlist, inst, library, variant)
    view.touch_instance(inst.name)
    for pin in inst.pins.values():
        if pin.net is not None:
            view.net_model.invalidate(pin.net)
            view.touch_net(pin.net.name)


def reference_wns(netlist, library, constraints, view):
    nodes, checks = run_full(view, {})
    fresh = TimingAnalyzer(netlist, library, constraints,
                           compute_backend="python").run()
    got = min(c.slack for c in checks if c.kind in ("output", "setup"))
    assert got == fresh.wns
    return got


def test_swap_patches_in_place(c17, library):
    constraints = Constraints(clock_period=2.0)
    view = make_view(c17, library, constraints)
    view.ensure()
    assert view.rebuilds == 1
    inst = c17.instances[sorted(c17.instances)[0]]
    swap_and_touch(view, c17, library, inst, VARIANT_HVT)
    view.ensure()
    assert view.rebuilds == 1        # no rebuild...
    assert view.patches >= 1         # ...the swap was patched in place
    reference_wns(c17, library, constraints, view)


TIMING_FIELDS = ("arr_rise", "arr_fall", "min_rise", "min_fall",
                 "slew_rise", "slew_fall", "req_rise", "req_fall")


def node_fields(node_timing):
    return {name: tuple(getattr(node, field) for field in TIMING_FIELDS)
            for name, node in node_timing.items()}


@pytest.mark.parametrize("variant", [VARIANT_HVT, VARIANT_MTV, VARIANT_CMT])
def test_tied_input_swap_patches_in_place(c17, library, variant):
    """A gate with both inputs on one net has two arcs sharing one
    (out, src) pair; its swap must still patch, and leave every node's
    arrival, slew and required time equal to a fresh lowering."""
    inst = c17.instances["g_N16"]
    tied = inst.pins["A"].net
    c17.disconnect(inst.pins["B"])
    c17.connect(inst, "B", tied, PinDirection.INPUT)
    constraints = Constraints(clock_period=2.0)
    view = make_view(c17, library, constraints)
    view.ensure()
    swap_and_touch(view, c17, library, inst, variant)
    view.ensure()
    assert view.rebuilds == 1 and view.patches == 1
    patched, _ = run_full(view, {})
    fresh, _ = run_full(make_view(c17, library, constraints), {})
    scalar = TimingAnalyzer(c17, library, constraints,
                            compute_backend="python").run()
    assert node_fields(patched) == node_fields(fresh)
    assert node_fields(patched) == node_fields(scalar.node_timing)


def test_structural_edit_rebuilds(c17, library):
    constraints = Constraints(clock_period=2.0)
    view = make_view(c17, library, constraints)
    view.ensure()
    net = next(net for net in c17.nets.values() if net.sinks)
    transform.insert_buffer(c17, net, "BUF_X4_LVT")
    view.touch_structural()
    view.net_model.invalidate()
    view.ensure()
    assert view.rebuilds == 2
    reference_wns(c17, library, constraints, view)


def test_unknown_dirty_instance_forces_rebuild(c17, library):
    constraints = Constraints(clock_period=2.0)
    view = make_view(c17, library, constraints)
    view.ensure()
    view.touch_instance("no_such_instance")
    view.ensure()
    assert view.rebuilds == 2


def test_load_refresh_without_rebuild(half_adder, library):
    constraints = Constraints(clock_period=1.0)
    view = make_view(half_adder, library, constraints)
    view.ensure()
    loads_before = view.loads.copy()
    # Output load constraint change on a sink port net.
    constraints.output_loads["s"] = 0.02
    net = half_adder.nets["s"]
    view.net_model.invalidate(net)
    view.touch_net("s")
    view.ensure()
    assert view.rebuilds == 1
    idx = view.node_index["s"]
    assert view.loads[idx] != loads_before[idx]
    assert view.loads[idx] == view.net_model.total_load(net)


def test_session_derate_updates_do_not_rebuild(c17, library):
    from repro.timing.session import TimingSession

    constraints = Constraints(clock_period=2.0)
    session = TimingSession(c17, library, constraints,
                            compute_backend="numpy")
    session.report()
    view = session._view
    assert view is not None and view.rebuilds == 1
    for round_index in range(4):
        session.set_derates({name: 1.0 + 0.01 * round_index
                             for name in c17.instances})
        session.report()
    assert view.rebuilds == 1 and view.patches == 0
