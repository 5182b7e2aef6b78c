"""Cross-backend property suite: python vs numpy on random circuits.

Design STA runs on the scalar :class:`~repro.timing.session.TimingSession`
on every backend; the numpy kernels serve the batch axes.  Each batch
kernel is pinned here to the scalar reference:

* the forward kernel: every node's arrivals, min arrivals and slews,
  and every setup and hold slack in check order, equal (``==``) a
  scalar :class:`~repro.timing.sta.TimingAnalyzer` report — on
  randomized generated circuits under random derates, and on a gate
  with tied inputs swapped across variants;
* total standby leakage to 1e-9 relative;
* Monte-Carlo: one batched (samples x instances) pass against k scalar
  samples.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.benchcircuits.generator import GeneratorConfig, generate_circuit
from repro.benchcircuits.suite import load_circuit
from repro.compute import kernels
from repro.compute.view import NetlistArrayView
from repro.liberty.library import (
    VARIANT_CMT,
    VARIANT_HVT,
    VARIANT_LVT,
    VARIANT_MTV,
)
from repro.netlist.core import PinDirection
from repro.netlist.techmap import technology_map
from repro.netlist.transform import swap_variant
from repro.power.leakage import LeakageAnalyzer
from repro.timing.constraints import Constraints
from repro.timing.delay import NetModel
from repro.timing.sta import TimingAnalyzer
from repro.variation.montecarlo import McConfig, MonteCarloEngine

REL = 1e-9

#: The node fields the forward kernel computes.
FORWARD_FIELDS = ("arr_rise", "arr_fall", "min_rise", "min_fall",
                  "slew_rise", "slew_fall")


def close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def _mapped_circuit(config: GeneratorConfig, library):
    netlist = generate_circuit(f"prop_{config.style}_{config.seed}", config)
    technology_map(netlist, library, VARIANT_LVT)
    return netlist


CIRCUITS = [
    GeneratorConfig(n_gates=300, n_inputs=12, n_outputs=8, n_ffs=6,
                    depth=10, style="layered", seed=21),
    GeneratorConfig(n_gates=400, n_inputs=16, n_outputs=8, n_ffs=0,
                    depth=14, style="tapered", seed=22),
    GeneratorConfig(n_gates=360, n_inputs=20, n_outputs=6, n_ffs=8,
                    depth=12, style="grid", seed=23),
]


@pytest.mark.parametrize("config, variant", [
    *(pytest.param(config, None, id=config.style) for config in CIRCUITS),
    *(pytest.param(None, variant, id=f"c17-tied-{variant}")
      for variant in (VARIANT_HVT, VARIANT_MTV, VARIANT_CMT)),
])
def test_forward_kernel_matches_scalar_nodes(config, variant, library):
    """One forward-kernel sample equals a scalar report with ``==``:
    every node's arrivals, min arrivals and slews, in the scalar node
    order, and every setup and hold slack, in check order.

    The generated circuits carry about 40 random derates.  On c17,
    ``g_N16`` gets both inputs on one net — two arcs sharing one
    (out, source) pair — and is swapped to ``variant``.
    """
    derates = None
    if config is not None:
        netlist = _mapped_circuit(config, library)
        rng = random.Random(config.seed * 7)
        derates = {name: 1.0 + rng.random() * 0.25
                   for name in rng.sample(sorted(netlist.instances), 40)}
    else:
        netlist = load_circuit("c17")
        technology_map(netlist, library, VARIANT_LVT)
        inst = netlist.instances["g_N16"]
        tied = inst.pins["A"].net
        netlist.disconnect(inst.pins["B"])
        netlist.connect(inst, "B", tied, PinDirection.INPUT)
        swap_variant(netlist, inst, library, variant)
    constraints = Constraints(clock_period=2.0)
    scalar = TimingAnalyzer(netlist, library, constraints,
                            derates=derates).run()
    view = NetlistArrayView(netlist, library, constraints,
                            NetModel(netlist, library, constraints))
    fwd = kernels.forward(view, view.derate_vector(derates)[None, :])

    assert view.node_names == list(scalar.node_timing)
    mismatches = [
        (name, field) for index, name in enumerate(view.node_names)
        for field in FORWARD_FIELDS
        if getattr(fwd, field)[0, index]
        != getattr(scalar.node_timing[name], field)]
    assert mismatches == []
    checks = scalar.endpoint_checks
    assert kernels.setup_slacks(view, fwd)[0].tolist() == [
        check.slack for check in checks if check.kind in ("output", "setup")]
    assert kernels.hold_slacks(view, fwd)[0].tolist() == [
        check.slack for check in checks if check.kind == "hold"]


@pytest.mark.parametrize("config", CIRCUITS,
                         ids=[c.style for c in CIRCUITS])
def test_leakage_totals_agree(config, library):
    """Total + per-category leakage equivalent after random swaps."""
    netlist = _mapped_circuit(config, library)
    rng = random.Random(config.seed)
    for name in rng.sample(sorted(netlist.instances),
                           len(netlist.instances) // 3):
        inst = netlist.instances[name]
        cell = library.cell(inst.cell_name)
        if not cell.is_sequential and library.has_variant(cell, VARIANT_HVT):
            swap_variant(netlist, inst, library, VARIANT_HVT)
    scalar = LeakageAnalyzer(netlist, library,
                             compute_backend="python").standby_leakage()
    vector = LeakageAnalyzer(netlist, library,
                             compute_backend="numpy").standby_leakage()
    assert close(scalar.total_nw, vector.total_nw)
    for category in scalar.CATEGORIES:
        assert close(getattr(scalar, category), getattr(vector, category))
    assert scalar.instance_count == vector.instance_count
    assert list(scalar.per_instance) == list(vector.per_instance)
    assert scalar.per_instance == vector.per_instance


def test_montecarlo_chunks_agree(library):
    """One batched (samples x instances) pass == k scalar samples."""
    config = GeneratorConfig(n_gates=250, n_inputs=10, n_outputs=6,
                             n_ffs=5, depth=9, seed=31)
    netlist = _mapped_circuit(config, library)
    constraints = Constraints(clock_period=2.2)
    mc = McConfig(samples=10, seed=9, timing=True)
    scalar = MonteCarloEngine(netlist, library, mc, constraints=constraints,
                              compute_backend="python")
    vector = MonteCarloEngine(netlist.clone(), library, mc,
                              constraints=constraints,
                              compute_backend="numpy")
    assert close(scalar.nominal_wns, vector.nominal_wns)
    assert close(scalar.nominal_leakage_nw, vector.nominal_leakage_nw)
    scalar_samples = scalar.run()
    vector_samples = vector.run()
    for a, b in zip(scalar_samples, vector_samples):
        assert a.index == b.index
        # Identical seeded draws on both backends — exact equality.
        assert a.global_dvth_v == b.global_dvth_v
        assert close(a.leakage_nw, b.leakage_nw)
        assert close(a.wns, b.wns)
    # Chunking invariance on the vector path (start offsets line up).
    tail = vector.run(start=4, count=3)
    assert [s.index for s in tail] == [4, 5, 6]
    for a, b in zip(vector_samples[4:7], tail):
        assert a.leakage_nw == b.leakage_nw and a.wns == b.wns


def test_single_sample_dispatch(library):
    """engine.sample() routes through the batch kernel on numpy."""
    config = GeneratorConfig(n_gates=120, n_inputs=8, n_outputs=4,
                             depth=8, seed=41)
    netlist = _mapped_circuit(config, library)
    mc = McConfig(samples=4, seed=3, timing=False)
    scalar = MonteCarloEngine(netlist, library, mc,
                              compute_backend="python")
    vector = MonteCarloEngine(netlist, library, mc,
                              compute_backend="numpy")
    a = scalar.sample(2)
    b = vector.sample(2)
    assert a.index == b.index == 2
    assert a.global_dvth_v == b.global_dvth_v
    assert close(a.leakage_nw, b.leakage_nw)
    assert a.wns is None and b.wns is None
