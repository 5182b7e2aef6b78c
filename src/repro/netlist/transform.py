"""Local netlist rewrites used by the Selective-MT flow.

All transforms preserve netlist invariants (single strong driver,
connected sinks) and operate in place.
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.liberty.library import Library
from repro.liberty.library import PinDirection as LibPinDirection
from repro.netlist.core import Instance, Net, Netlist, Pin, PinDirection


def swap_variant(netlist: Netlist, inst: Instance, library: Library,
                 variant: str) -> Instance:
    """Re-bind ``inst`` to the sibling cell of the given variant.

    Handles pin-set differences between variants: the MTV variant's
    VGND pin and the CMT variant's MTE pin are created (unconnected) or
    removed as needed.  Connected logic pins are preserved.
    """
    old_cell = library.cell(inst.cell_name)
    new_cell = library.variant_of(old_cell, variant)
    if new_cell.name == inst.cell_name:
        return inst
    # Drop pins that the new cell does not have.
    for pin_name in list(inst.pins):
        if pin_name not in new_cell.pins:
            pin = inst.pins[pin_name]
            netlist.disconnect(pin)
            del inst.pins[pin_name]
    inst.cell_name = new_cell.name
    # Create pins that the new cell adds (left unconnected; the flow
    # connects VGND/MTE later).
    for lib_pin in new_cell.pins.values():
        if lib_pin.name not in inst.pins:
            direction = PinDirection(lib_pin.direction.value) \
                if lib_pin.direction != LibPinDirection.INTERNAL \
                else PinDirection.INPUT
            inst.pins[lib_pin.name] = Pin(inst, lib_pin.name, direction)
    return inst


def insert_buffer(netlist: Netlist, net: Net, buffer_cell: str,
                  sinks: list[Pin] | None = None,
                  name_prefix: str = "buf") -> Instance:
    """Insert a buffer driving ``sinks`` (default: all sinks of ``net``).

    The selected sinks are moved onto a new net behind the buffer; the
    buffer's input attaches to the original net.  Returns the new
    buffer instance.
    """
    if sinks is None:
        sinks = list(net.sinks)
    for pin in sinks:
        if pin.net is not net:
            raise NetlistError(f"pin {pin.full_name} is not a sink of "
                               f"{net.name}")
    inst_name = netlist.unique_name(name_prefix)
    new_net = netlist.get_or_create_net(netlist.unique_name(f"{net.name}_b"))
    buffer_inst = netlist.add_instance(inst_name, buffer_cell)
    netlist.connect(buffer_inst, "A", net, PinDirection.INPUT)
    netlist.connect(buffer_inst, "Z", new_net, PinDirection.OUTPUT)
    for pin in sinks:
        netlist.disconnect(pin)
        netlist.connect(pin.instance, pin.name, new_net, pin.direction)
    return buffer_inst
