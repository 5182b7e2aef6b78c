"""Output holder insertion (§2/§3 rule).

During standby an improved MT-cell's output floats (its ground is cut).
If that output feeds a *powered* cell (high-Vth gate, flip-flop, or a
primary output), the floating node would cause unexpected power
dissipation — so an output holder is inserted to pin the net to logic
one.  "The output holder is not necessary for all MT-cells ... when all
fanouts of the MT-cell are connected to MT-cells, an output holder is
unnecessary."

(The conventional MT-cell embeds a holder in every cell — part of its
area overhead; the improved technique pays for holders only on MT
region boundaries.)
"""

from __future__ import annotations

from repro.liberty.library import CellKind, Library
from repro.netlist.core import Net, Netlist, PinDirection

HOLDER_CELL = "HOLDER_X1"


def _is_mt_instance(netlist: Netlist, library: Library, inst_name: str) -> bool:
    inst = netlist.instances.get(inst_name)
    if inst is None or inst.cell_name not in library:
        return False
    return library.cell(inst.cell_name).is_improved_mt


def nets_needing_holders(netlist: Netlist, library: Library) -> list[Net]:
    """Nets driven by an improved MT-cell with at least one powered sink.

    Powered sinks are: non-MT instances (high-Vth cells, flip-flops,
    buffers), and primary output ports.  Switch cells never appear as
    logic sinks; holders already present are skipped by the caller.
    """
    result = []
    for net in netlist.nets.values():
        if net.driver is None:
            continue
        driver_inst = net.driver.instance
        if not _is_mt_instance(netlist, library, driver_inst.name):
            continue
        needs = bool(net.sink_ports)
        if not needs:
            for sink in net.sinks:
                cell = library.cells.get(sink.instance.cell_name)
                if cell is None:
                    continue
                if cell.kind in (CellKind.SWITCH, CellKind.HOLDER):
                    continue
                if not cell.is_improved_mt:
                    needs = True
                    break
        if needs:
            result.append(net)
    return result


def insert_output_holders(netlist: Netlist, library: Library) -> list[str]:
    """Insert holders on every net that needs one; returns their names.

    Idempotent: nets that already carry a holder keeper are skipped.
    """
    mte_net = netlist.get_or_create_net("MTE")
    inserted: list[str] = []
    for net in nets_needing_holders(netlist, library):
        if any(_is_holder(netlist, library, pin.instance.name)
               for pin in net.keepers):
            continue
        name = netlist.unique_name(f"hold_{net.name}")
        holder = netlist.add_instance(name, HOLDER_CELL)
        netlist.connect(holder, "Z", net, PinDirection.INOUT, keeper=True)
        netlist.connect(holder, "MTE", mte_net, PinDirection.INPUT)
        inserted.append(name)
    return inserted


def _is_holder(netlist: Netlist, library: Library, inst_name: str) -> bool:
    inst = netlist.instances.get(inst_name)
    if inst is None or inst.cell_name not in library:
        return False
    return library.cell(inst.cell_name).kind == CellKind.HOLDER
