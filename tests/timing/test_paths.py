"""Critical path extraction."""

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.timing.constraints import Constraints
from repro.timing.paths import extract_path
from repro.timing.sta import TimingAnalyzer


def test_chain_path_reconstruction(library, nand_chain):
    report = TimingAnalyzer(nand_chain, library,
                            Constraints(clock_period=100.0)).run()
    path = extract_path(nand_chain, report, "n11")
    assert path is not None
    assert path.instances() == [f"g{i}" for i in range(12)]
    arrivals = [step.arrival for step in path.steps]
    assert arrivals == sorted(arrivals)


def test_path_render(library, nand_chain):
    report = TimingAnalyzer(nand_chain, library,
                            Constraints(clock_period=100.0)).run()
    path = extract_path(nand_chain, report, "n11")
    text = path.render()
    assert "n11" in text and "slack" in text


def test_ff_endpoint_resolution(library, s27):
    report = TimingAnalyzer(s27, library, Constraints(clock_period=5.0)).run()
    setup_checks = [c for c in report.endpoint_checks if c.kind == "setup"]
    path = extract_path(s27, report, setup_checks[0].endpoint)
    assert path is not None
    assert path.steps


def test_unknown_endpoint_returns_none(library, c17):
    report = TimingAnalyzer(c17, library, Constraints(clock_period=2.0)).run()
    assert extract_path(c17, report, "no_such_port") is None


def test_diamond_worst_branch_chosen(library):
    """Two reconvergent branches: the path walks the slower one."""
    builder = NetlistBuilder("diamond")
    builder.inputs("a")
    builder.outputs("y")
    # Short branch: one inverter; long branch: three inverters.
    builder.gate("INV_X1_LVT", "s1", A="a", Z="sh")
    builder.gate("INV_X1_LVT", "l1", A="a", Z="t1")
    builder.gate("INV_X1_LVT", "l2", A="t1", Z="t2")
    builder.gate("INV_X1_LVT", "l3", A="t2", Z="lo")
    builder.gate("NAND2_X1_LVT", "m", A="sh", B="lo", Z="y")
    nl = builder.build()
    report = TimingAnalyzer(nl, library, Constraints(clock_period=10.0)).run()
    path = extract_path(nl, report, "y")
    names = path.instances()
    assert "l1" in names and "l2" in names and "l3" in names
    assert "s1" not in names
