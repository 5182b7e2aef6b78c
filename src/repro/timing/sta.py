"""NLDM lookup-table static timing analysis.

Forward pass propagates (rise, fall) arrival times and slews from
startpoints (primary inputs, flip-flop CK->Q arcs) through the
combinational network in topological order; the backward pass computes
required times from endpoints (primary outputs, flip-flop D setup
checks); slack = required - arrival.  A parallel min-arrival pass
feeds hold checks.

Unateness is honoured: a positive-unate arc maps input rise to output
rise; negative-unate crosses them; non-unate takes the worst of both.

Per-instance *derates* multiply every delay arc of that instance — the
Selective-MT flow uses this to model the actual virtual-ground bounce
of each MT-cell cluster relative to the bounce assumed when the MT
library was characterized.

Clock arrivals are ideal (zero) by default; a per-flip-flop clock
arrival map from CTS introduces real skew into both launch and capture.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping

from repro.liberty.library import CellKind, Library
from repro.netlist.core import Netlist
from repro.timing.constraints import Constraints
from repro.timing.delay import NetModel

INF = math.inf


def timing_roles(library: Library) -> dict[str, bool]:
    """Cell name -> is-sequential, for every cell that takes part in STA.

    Switches and holders are absent (STA skips them), as is every cell
    the library lacks.  The scalar session and the array view classify
    instances through this one map, built once each, instead of
    looking the cell up in the library at every instance visit.
    """
    return {name: cell.is_sequential
            for name, cell in library.cells.items()
            if cell.kind not in (CellKind.SWITCH, CellKind.HOLDER)}


def cell_constraint_value(cell, which: str, input_slew: float) -> float:
    """Worst ``which`` ("setup"/"hold") constraint of a cell's D pin.

    Shared by the scalar session and the array view so both backends
    evaluate flip-flop endpoint constraints with the very same rule.
    """
    d_pin = cell.pins.get("D")
    if d_pin is None:
        return 0.0
    for arc in d_pin.timing_arcs:
        if arc.timing_type.startswith(which):
            return arc.constraint(input_slew)
    return 0.0


@dataclasses.dataclass
class NodeTiming:
    """Timing state at a net (measured at its driver pin)."""

    arr_rise: float = -INF
    arr_fall: float = -INF
    min_rise: float = INF
    min_fall: float = INF
    slew_rise: float = 0.0
    slew_fall: float = 0.0
    req_rise: float = INF
    req_fall: float = INF
    # Backtrace: (source net name, through instance name) for worst arrival.
    prev_rise: tuple[str, str] | None = None
    prev_fall: tuple[str, str] | None = None

    @property
    def arrival(self) -> float:
        return max(self.arr_rise, self.arr_fall)

    @property
    def min_arrival(self) -> float:
        return min(self.min_rise, self.min_fall)

    @property
    def required(self) -> float:
        return min(self.req_rise, self.req_fall)

    @property
    def slack(self) -> float:
        return self.required - self.arrival


@dataclasses.dataclass
class EndpointCheck:
    """One setup or hold check result."""

    endpoint: str          # port name or "inst/D"
    kind: str              # "output", "setup", "hold"
    slack: float
    arrival: float
    required: float


@dataclasses.dataclass
class TimingReport:
    """Design-level timing summary."""

    clock_period: float
    wns: float                       # worst setup slack (negative = violated)
    tns: float                       # total negative setup slack
    hold_wns: float
    hold_tns: float
    endpoint_checks: list[EndpointCheck]
    node_timing: dict[str, NodeTiming]
    critical_endpoint: str | None

    @property
    def setup_met(self) -> bool:
        return self.wns >= 0.0

    @property
    def hold_met(self) -> bool:
        return self.hold_wns >= 0.0

    def slack_of_net(self, net_name: str) -> float:
        node = self.node_timing.get(net_name)
        return node.slack if node is not None else INF

    def summary(self) -> str:
        return (f"period={self.clock_period:.3f}ns WNS={self.wns:+.4f} "
                f"TNS={self.tns:+.3f} holdWNS={self.hold_wns:+.4f}")


class TimingAnalyzer:
    """Performs one full STA over a netlist.

    The propagation engine lives in
    :class:`repro.timing.session.TimingSession`; this wrapper runs a
    single-shot session so a fresh analyzer and a session that has
    absorbed the same edits produce bit-identical reports by
    construction.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 constraints: Constraints,
                 parasitics: Mapping[str, object] | None = None,
                 derates: Mapping[str, float] | None = None,
                 clock_arrivals: Mapping[str, float] | None = None):
        self.netlist = netlist
        self.library = library
        self.constraints = constraints
        self.net_model = NetModel(netlist, library, constraints, parasitics)
        self.derates = dict(derates or {})
        self.clock_arrivals = dict(clock_arrivals or {})

    def run(self) -> TimingReport:
        from repro.timing.session import TimingSession

        session = TimingSession(
            self.netlist, self.library, self.constraints,
            derates=self.derates, clock_arrivals=self.clock_arrivals,
            net_model=self.net_model)
        return session.report()
