"""Every ``compute.lower`` span says why the array view lowered.

``cold`` is the first build, ``structural`` a rebuild after the graph
changed shape, ``patch_failed`` a swap the in-place patch refused.  A
variant swap that patches records no lowering at all.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.compute.sta import run_full
from repro.compute.view import NetlistArrayView
from repro.liberty.library import VARIANT_HVT
from repro.netlist import transform
from repro.obs import enable, take_records
from repro.timing.constraints import Constraints
from repro.timing.delay import NetModel


def lowering_causes():
    return [record.attributes["cause"]
            for root in take_records() for record in root.walk()
            if record.name == "compute.lower"]


def test_lowering_span_records_its_cause(c17, library):
    enable()
    constraints = Constraints(clock_period=2.0)
    view = NetlistArrayView(c17, library, constraints,
                            NetModel(c17, library, constraints))
    run_full(view, {})
    assert lowering_causes() == ["cold"]

    inst = c17.instances["g_N16"]
    transform.swap_variant(c17, inst, library, VARIANT_HVT)
    view.touch_instance(inst.name)
    run_full(view, {})
    assert lowering_causes() == []

    net = c17.nets["N11"]
    transform.insert_buffer(c17, net, "BUF_X4_LVT")
    view.touch_structural()
    view.net_model.invalidate()
    run_full(view, {})
    assert lowering_causes() == ["structural"]

    view.touch_instance("no_such_instance")
    run_full(view, {})
    assert lowering_causes() == ["patch_failed"]
