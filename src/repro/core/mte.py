"""MTE (sleep signal) buffer tree.

"The MT enable signal MTE ... has many fanouts, as MTE is necessary to
be connected to all switch transistors and output holders.  So, buffers
need to be inserted to the MTE net appropriately."

The tree is built like a small CTS: MTE sinks are grouped geometrically
under high-Vth buffers (high-Vth so the tree itself does not leak; MTE
is not timing-critical — it only gates wake-up latency, which we
report).
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.errors import FlowError
from repro.liberty.library import Library
from repro.netlist.core import Netlist, PinDirection
from repro.placement.placer import Placement, place_incremental


@dataclasses.dataclass
class MteTreeResult:
    """Outcome of MTE buffering."""

    buffer_instances: list[str]
    sink_count: int
    levels: int
    wakeup_delay_ns: float

    @property
    def buffer_count(self) -> int:
        return len(self.buffer_instances)


class MteBufferTree:
    """Buffers the high-fanout MTE net of an SMT netlist."""

    def __init__(self, netlist: Netlist, library: Library,
                 placement: Placement, buffer_cell: str = "BUF_X8_HVT",
                 fanout_limit: int = 16):
        if fanout_limit < 2:
            raise FlowError("MTE fanout limit must be at least 2")
        self.netlist = netlist
        self.library = library
        self.placement = placement
        self.buffer_cell = buffer_cell
        self.fanout_limit = fanout_limit

    def run(self) -> MteTreeResult:
        if "MTE" not in self.netlist.nets:
            return MteTreeResult([], 0, 0, 0.0)
        if self.buffer_cell not in self.library:
            raise FlowError(f"MTE buffer cell {self.buffer_cell!r} missing")
        mte_net = self.netlist.net("MTE")
        sinks = list(mte_net.sinks)
        sink_count = len(sinks)
        if sink_count <= self.fanout_limit:
            return MteTreeResult([], sink_count, 0,
                                 self._stage_delay(sink_count))

        buffers: list[str] = []
        level = 0
        # Current "frontier": pins that must be driven.  Each pass packs
        # them geometrically under new buffers until the root fans out
        # within the limit.
        frontier = [(pin.instance.name, pin.name) for pin in sinks]
        while len(frontier) > self.fanout_limit:
            groups = self._group(frontier)
            new_frontier = []
            for members in groups:
                buffer_name = self._insert_buffer(members, level, mte_net)
                buffers.append(buffer_name)
                new_frontier.append((buffer_name, "A"))
            frontier = new_frontier
            level += 1
        wakeup = (level + 1) * self._stage_delay(self.fanout_limit)
        return MteTreeResult(buffers, sink_count, level, wakeup)

    # --- internals -----------------------------------------------------------

    def _position(self, inst_name: str) -> tuple[float, float]:
        if inst_name in self.placement.locations:
            return self.placement.locations[inst_name]
        return (0.0, 0.0)

    def _group(self, frontier: list[tuple[str, str]]) -> list[list[tuple[str, str]]]:
        entries = sorted(
            frontier,
            key=lambda e: (self._position(e[0])[1], self._position(e[0])[0]))
        return [entries[i:i + self.fanout_limit]
                for i in range(0, len(entries), self.fanout_limit)]

    def _insert_buffer(self, members: list[tuple[str, str]], level: int,
                       mte_net) -> str:
        name = self.netlist.unique_name(f"mtebuf_l{level}")
        net_name = self.netlist.unique_name(f"mte_l{level}")
        buffer_inst = self.netlist.add_instance(name, self.buffer_cell)
        out_net = self.netlist.get_or_create_net(net_name)
        self.netlist.connect(buffer_inst, "Z", out_net, PinDirection.OUTPUT)
        self.netlist.connect(buffer_inst, "A", mte_net, PinDirection.INPUT)
        xs = []
        ys = []
        for inst_name, pin_name in members:
            inst = self.netlist.instance(inst_name)
            pin = inst.pin(pin_name)
            self.netlist.disconnect(pin)
            self.netlist.connect(inst, pin_name, out_net, pin.direction)
            x, y = self._position(inst_name)
            xs.append(x)
            ys.append(y)
        place_incremental(self.placement, self.netlist, self.library, name,
                          (statistics.fmean(xs), statistics.fmean(ys)))
        return name

    def _stage_delay(self, fanout: int) -> float:
        """Delay of one buffer stage driving ``fanout`` typical sinks."""
        cell = self.library.cell(self.buffer_cell)
        arc = cell.single_output().arc_from("A")
        if arc is None:
            return 0.0
        load = fanout * 0.002  # typical MTE pin load in pF
        rise, fall = arc.delay(0.05, load)
        return max(rise, fall)
