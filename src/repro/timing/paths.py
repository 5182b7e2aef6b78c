"""Critical path extraction from an STA result.

The forward pass records, for each net, the (source net, through
instance) pair that produced the worst rise/fall arrival; walking those
references back from the worst endpoint reconstructs the critical path.
"""

from __future__ import annotations

import dataclasses

from repro.netlist.core import Netlist
from repro.timing.sta import TimingReport


@dataclasses.dataclass
class PathStep:
    """One hop on a timing path."""

    net: str
    through_instance: str | None
    arrival: float
    slack: float


@dataclasses.dataclass
class Path:
    """A start-to-end timing path."""

    steps: list[PathStep]
    endpoint: str
    slack: float

    def instances(self) -> list[str]:
        return [s.through_instance for s in self.steps
                if s.through_instance is not None]

    def render(self) -> str:
        lines = [f"Path to {self.endpoint} (slack {self.slack:+.4f} ns)"]
        for step in self.steps:
            via = f" via {step.through_instance}" if step.through_instance \
                else " (startpoint)"
            lines.append(f"  {step.net:<30} arr={step.arrival:8.4f}{via}")
        return "\n".join(lines)


def _endpoint_net(netlist: Netlist, endpoint: str) -> str | None:
    """Resolve an endpoint name (port or inst/D) to its net."""
    if "/" in endpoint:
        inst_name, pin_name = endpoint.split("/", 1)
        inst = netlist.instances.get(inst_name)
        if inst is None:
            return None
        pin = inst.pins.get(pin_name)
        return pin.net.name if pin is not None and pin.net is not None else None
    port = netlist.ports.get(endpoint)
    return port.net.name if port is not None and port.net is not None else None


def extract_path(netlist: Netlist, report: TimingReport,
                 endpoint: str) -> Path | None:
    """Reconstruct the worst path ending at ``endpoint``."""
    net_name = _endpoint_net(netlist, endpoint)
    if net_name is None or net_name not in report.node_timing:
        return None
    steps: list[PathStep] = []
    current = net_name
    seen: set[str] = set()
    while current is not None and current not in seen:
        seen.add(current)
        node = report.node_timing.get(current)
        if node is None:
            break
        if node.arr_rise >= node.arr_fall:
            backref = node.prev_rise
        else:
            backref = node.prev_fall
        through = backref[1] if backref else None
        steps.append(PathStep(net=current, through_instance=through,
                              arrival=node.arrival, slack=node.slack))
        current = backref[0] if backref else None
    steps.reverse()
    endpoint_slack = report.node_timing[net_name].slack
    for check in report.endpoint_checks:
        if check.endpoint == endpoint and check.kind in ("output", "setup"):
            endpoint_slack = check.slack
            break
    return Path(steps=steps, endpoint=endpoint, slack=endpoint_slack)

