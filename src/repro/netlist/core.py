"""Core netlist data structures.

A :class:`Netlist` is a flat gate-level design: top-level :class:`Port`
objects, :class:`Instance` objects referencing library cells by name,
and :class:`Net` objects connecting instance :class:`Pin` objects and
ports.  The structure is library-agnostic — cell names are strings —
so the same netlist can hold generic gates (fresh from a ``.bench``
parse) or bound library cells; binding is performed by
:mod:`repro.netlist.techmap`.

Invariants maintained by the mutation API:

* a pin is connected to at most one net;
* ``net.driver`` is the unique output pin (or input port) driving it;
* ``net.sinks`` lists every input pin and output port on the net;
* weak drivers (output holders) are tracked separately in
  ``net.keepers`` so single-driver validation still holds.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable

from repro.errors import NetlistError, ValidationError


class PortDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


class Pin:
    """A connection point on an instance."""

    __slots__ = ("instance", "name", "direction", "net")

    def __init__(self, instance: "Instance", name: str,
                 direction: PinDirection):
        self.instance = instance
        self.name = name
        self.direction = direction
        self.net: Net | None = None

    @property
    def full_name(self) -> str:
        return f"{self.instance.name}/{self.name}"

    def __repr__(self):
        net_name = self.net.name if self.net else None
        return f"Pin({self.full_name}, {self.direction.value}, net={net_name})"


class Port:
    """A top-level design port."""

    __slots__ = ("name", "direction", "net")

    def __init__(self, name: str, direction: PortDirection):
        self.name = name
        self.direction = direction
        self.net: Net | None = None

    def __repr__(self):
        return f"Port({self.name}, {self.direction.value})"


class Net:
    """A signal net: one driver, many sinks, optional weak keepers."""

    __slots__ = ("name", "driver", "driver_port", "sinks", "sink_ports",
                 "keepers")

    def __init__(self, name: str):
        self.name = name
        self.driver: Pin | None = None
        self.driver_port: Port | None = None
        self.sinks: list[Pin] = []
        self.sink_ports: list[Port] = []
        self.keepers: list[Pin] = []

    @property
    def has_driver(self) -> bool:
        return self.driver is not None or self.driver_port is not None

    def fanout(self) -> int:
        return len(self.sinks) + len(self.sink_ports)

    def __repr__(self):
        return f"Net({self.name}, fanout={self.fanout()})"


class Instance:
    """A placed occurrence of a library cell."""

    __slots__ = ("name", "cell_name", "pins", "attributes")

    def __init__(self, name: str, cell_name: str):
        self.name = name
        self.cell_name = cell_name
        self.pins: dict[str, Pin] = {}
        #: Free-form annotations (placement location, flow tags, ...).
        self.attributes: dict[str, object] = {}

    def pin(self, name: str) -> Pin:
        try:
            return self.pins[name]
        except KeyError:
            raise NetlistError(
                f"instance {self.name} ({self.cell_name}) has no pin "
                f"{name!r}") from None

    def input_pins(self) -> list[Pin]:
        return [p for p in self.pins.values()
                if p.direction == PinDirection.INPUT]

    def output_pins(self) -> list[Pin]:
        return [p for p in self.pins.values()
                if p.direction == PinDirection.OUTPUT]

    def single_output(self) -> Pin:
        outputs = self.output_pins()
        if len(outputs) != 1:
            raise NetlistError(
                f"instance {self.name} has {len(outputs)} output pins")
        return outputs[0]

    def __repr__(self):
        return f"Instance({self.name}, {self.cell_name})"


class Netlist:
    """A flat gate-level netlist."""

    def __init__(self, name: str):
        self.name = name
        self.ports: dict[str, Port] = {}
        self.nets: dict[str, Net] = {}
        self.instances: dict[str, Instance] = {}
        self._name_counter = 0

    # --- queries ------------------------------------------------------------

    def input_ports(self) -> list[Port]:
        return [p for p in self.ports.values()
                if p.direction == PortDirection.INPUT]

    def output_ports(self) -> list[Port]:
        return [p for p in self.ports.values()
                if p.direction == PortDirection.OUTPUT]

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(f"no instance named {name!r}") from None

    def cell_names(self) -> set[str]:
        return {inst.cell_name for inst in self.instances.values()}

    def unique_name(self, prefix: str) -> str:
        """A fresh instance/net name with the given prefix."""
        while True:
            self._name_counter += 1
            candidate = f"{prefix}_{self._name_counter}"
            if candidate not in self.instances and candidate not in self.nets:
                return candidate

    # --- construction ----------------------------------------------------------

    def add_port(self, name: str, direction: PortDirection) -> Port:
        if name in self.ports:
            raise NetlistError(f"duplicate port {name!r}")
        port = Port(name, direction)
        self.ports[name] = port
        net = self.get_or_create_net(name)
        port.net = net
        if direction == PortDirection.INPUT:
            if net.has_driver:
                raise NetlistError(f"net {name!r} already driven; cannot "
                                   f"attach input port")
            net.driver_port = port
        else:
            net.sink_ports.append(port)
        return port

    def add_input(self, name: str) -> Port:
        return self.add_port(name, PortDirection.INPUT)

    def add_output(self, name: str) -> Port:
        return self.add_port(name, PortDirection.OUTPUT)

    def get_or_create_net(self, name: str) -> Net:
        net = self.nets.get(name)
        if net is None:
            net = Net(name)
            self.nets[name] = net
        return net

    def add_instance(self, name: str, cell_name: str) -> Instance:
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name!r}")
        inst = Instance(name, cell_name)
        self.instances[name] = inst
        return inst

    def connect(self, inst: Instance, pin_name: str, net: Net | str,
                direction: PinDirection, keeper: bool = False) -> Pin:
        """Create (or reuse) a pin on ``inst`` and attach it to ``net``.

        ``keeper=True`` registers the pin as a weak driver (output
        holder) rather than a sink or driver.
        """
        if isinstance(net, str):
            net = self.get_or_create_net(net)
        pin = inst.pins.get(pin_name)
        if pin is None:
            pin = Pin(inst, pin_name, direction)
            inst.pins[pin_name] = pin
        elif pin.net is not None:
            raise NetlistError(f"pin {pin.full_name} already connected to "
                               f"{pin.net.name}")
        pin.net = net
        if keeper:
            net.keepers.append(pin)
        elif direction == PinDirection.OUTPUT:
            if net.has_driver:
                raise NetlistError(
                    f"net {net.name} already driven by "
                    f"{net.driver.full_name if net.driver else net.driver_port}")
            net.driver = pin
        else:
            net.sinks.append(pin)
        return pin

    def disconnect(self, pin: Pin):
        """Detach a pin from its net."""
        net = pin.net
        if net is None:
            return
        if net.driver is pin:
            net.driver = None
        elif pin in net.keepers:
            net.keepers.remove(pin)
        else:
            net.sinks.remove(pin)
        pin.net = None

    def remove_instance(self, inst: Instance | str):
        """Remove an instance, disconnecting all of its pins."""
        if isinstance(inst, str):
            inst = self.instance(inst)
        for pin in list(inst.pins.values()):
            self.disconnect(pin)
        del self.instances[inst.name]

    def remove_net_if_dangling(self, net: Net):
        """Delete a net with no remaining connections."""
        if (net.driver is None and net.driver_port is None
                and not net.sinks and not net.sink_ports and not net.keepers):
            self.nets.pop(net.name, None)

    # --- traversal ----------------------------------------------------------------

    def topological_order(
            self,
            is_sequential: Callable[[Instance], bool] | None = None,
    ) -> list[Instance]:
        """Instances in combinational topological order.

        Sequential instances (per ``is_sequential``) are treated as
        sources: their outputs start new combinational cones and their
        inputs end them.  Raises
        :class:`~repro.errors.ValidationError` on a combinational loop.
        """
        if is_sequential is None:
            is_sequential = lambda inst: inst.cell_name.startswith("DFF")

        indegree: dict[str, int] = {}
        for inst in self.instances.values():
            if is_sequential(inst):
                indegree[inst.name] = 0
                continue
            count = 0
            for pin in inst.input_pins():
                net = pin.net
                if net is None or net.driver is None:
                    continue
                if not is_sequential(net.driver.instance):
                    count += 1
            indegree[inst.name] = count

        ready = deque(name for name, deg in indegree.items() if deg == 0)
        order: list[Instance] = []
        while ready:
            name = ready.popleft()
            inst = self.instances[name]
            order.append(inst)
            if is_sequential(inst):
                # Sequential outputs start new cones; their edges were
                # never counted into the indegrees, so decrementing
                # their sinks here would release gates before their
                # combinational fan-ins and break the order.
                continue
            for pin in inst.output_pins():
                net = pin.net
                if net is None:
                    continue
                for sink in net.sinks:
                    target = sink.instance
                    if is_sequential(target):
                        continue
                    indegree[target.name] -= 1
                    if indegree[target.name] == 0:
                        ready.append(target.name)
        if len(order) != len(self.instances):
            stuck = sorted(name for name, deg in indegree.items() if deg > 0)
            raise ValidationError(
                f"combinational loop detected involving "
                f"{len(stuck)} instances (e.g. {stuck[:5]})")
        return order

    def combinational_depth(
            self,
            is_sequential: Callable[[Instance], bool] | None = None,
    ) -> int:
        """Longest combinational chain length in gates."""
        if is_sequential is None:
            is_sequential = lambda inst: inst.cell_name.startswith("DFF")
        depth: dict[str, int] = {}
        for inst in self.topological_order(is_sequential):
            if is_sequential(inst):
                depth[inst.name] = 0
                continue
            best = 0
            for pin in inst.input_pins():
                net = pin.net
                if net is None or net.driver is None:
                    continue
                source = net.driver.instance
                if is_sequential(source):
                    continue
                best = max(best, depth.get(source.name, 0))
            depth[inst.name] = best + 1
        return max(depth.values(), default=0)

    # --- misc ---------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Quick size summary."""
        return {
            "instances": len(self.instances),
            "nets": len(self.nets),
            "inputs": len(self.input_ports()),
            "outputs": len(self.output_ports()),
        }

    def clone(self, name: str | None = None) -> "Netlist":
        """Deep-copy the netlist (attributes are shallow-copied)."""
        copy = Netlist(name or self.name)
        for port in self.ports.values():
            copy.add_port(port.name, port.direction)
        for inst in self.instances.values():
            new_inst = copy.add_instance(inst.name, inst.cell_name)
            new_inst.attributes = dict(inst.attributes)
        for inst in self.instances.values():
            new_inst = copy.instances[inst.name]
            for pin in inst.pins.values():
                if pin.net is None:
                    continue
                copy.connect(new_inst, pin.name, pin.net.name, pin.direction,
                             keeper=pin in pin.net.keepers)
        copy._name_counter = self._name_counter
        return copy

    def copy(self) -> "Netlist":
        """An exact copy: every dict and pin list keeps its order.

        :meth:`clone` rebuilds nets and pin lists in connection order,
        which technology mapping's wide-gate decomposition does not
        follow; a flow resuming from a copied netlist must see the very
        order the original would have shown it.  Attributes are
        shallow-copied, pins without a net are kept.
        """
        copy = Netlist(self.name)
        nets = {name: Net(name) for name in self.nets}
        copy.nets = nets
        for port in self.ports.values():
            twin = Port(port.name, port.direction)
            if port.net is not None:
                twin.net = nets[port.net.name]
            copy.ports[port.name] = twin
        for inst in self.instances.values():
            twin = Instance(inst.name, inst.cell_name)
            twin.attributes = dict(inst.attributes)
            for pin in inst.pins.values():
                twin_pin = Pin(twin, pin.name, pin.direction)
                if pin.net is not None:
                    twin_pin.net = nets[pin.net.name]
                twin.pins[pin.name] = twin_pin
            copy.instances[inst.name] = twin

        def twin_pin_of(pin: Pin) -> Pin:
            return copy.instances[pin.instance.name].pins[pin.name]

        for net in self.nets.values():
            twin = nets[net.name]
            if net.driver is not None:
                twin.driver = twin_pin_of(net.driver)
            if net.driver_port is not None:
                twin.driver_port = copy.ports[net.driver_port.name]
            twin.sinks = [twin_pin_of(pin) for pin in net.sinks]
            twin.sink_ports = [copy.ports[port.name]
                               for port in net.sink_ports]
            twin.keepers = [twin_pin_of(pin) for pin in net.keepers]
        copy._name_counter = self._name_counter
        return copy

    def __reduce__(self):
        """Pickle as flat name tables, rebuilt in :meth:`copy`'s order:
        the default pickle recurses through the pin/net graph, past the
        interpreter's recursion limit from a few hundred gates up."""
        def pin(p: Pin) -> tuple[str, str]:
            return p.instance.name, p.name

        def name(item: Net | Port | None) -> str | None:
            return None if item is None else item.name

        return _unpickle_netlist, (
            self.name, self._name_counter,
            [(p.name, p.direction, name(p.net)) for p in self.ports.values()],
            [(i.name, i.cell_name, i.attributes,
              [(p.name, p.direction, name(p.net)) for p in i.pins.values()])
             for i in self.instances.values()],
            [(n.name, n.driver and pin(n.driver), name(n.driver_port),
              [pin(p) for p in n.sinks], [p.name for p in n.sink_ports],
              [pin(p) for p in n.keepers])
             for n in self.nets.values()])

    def __repr__(self):
        s = self.stats()
        return (f"Netlist({self.name}, {s['instances']} instances, "
                f"{s['nets']} nets)")


def _unpickle_netlist(name: str, name_counter: int, ports: list,
                      instances: list, nets: list) -> Netlist:
    """Rebuild a :meth:`Netlist.__reduce__` pickle (a ``None`` net or
    port name stands for no net or port)."""
    netlist = Netlist(name)
    netlist._name_counter = name_counter
    by_name = netlist.nets = {entry[0]: Net(entry[0]) for entry in nets}
    for port_name, direction, net in ports:
        port = netlist.ports[port_name] = Port(port_name, direction)
        port.net = by_name.get(net)
    for inst_name, cell_name, attributes, pins in instances:
        inst = netlist.instances[inst_name] = Instance(inst_name, cell_name)
        inst.attributes = attributes
        for pin_name, direction, net in pins:
            pin = inst.pins[pin_name] = Pin(inst, pin_name, direction)
            pin.net = by_name.get(net)

    def pin_at(key: tuple[str, str]) -> Pin:
        return netlist.instances[key[0]].pins[key[1]]

    for net_name, driver, driver_port, sinks, sink_ports, keepers in nets:
        net = by_name[net_name]
        net.driver = driver and pin_at(driver)
        net.driver_port = netlist.ports.get(driver_port)
        net.sinks = [pin_at(key) for key in sinks]
        net.sink_ports = [netlist.ports[port] for port in sink_ports]
        net.keepers = [pin_at(key) for key in keepers]
    return netlist
