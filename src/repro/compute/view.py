"""Array view of a netlist: the structure the numpy kernels run on.

:class:`NetlistArrayView` lowers one (netlist, library, constraints,
net model) quadruple into flat numpy arrays when it is built, and is
never edited afterwards: its users (Monte-Carlo samples, corner grids)
evaluate one finished design along a batch axis, while design STA —
where the netlist changes — runs on the scalar
:class:`~repro.timing.session.TimingSession`.

* **stable index maps** — instances in sorted-name order, timing nodes
  (nets in the STA domain) in the exact insertion order a scalar full
  propagation would create them, so array column ``i`` and dict entry
  ``i`` describe the same object;
* **CSR-style adjacency** — every forward contribution of a compiled
  timing arc becomes one row of a flat table, sorted by topological
  level with per-level segment offsets, so one level evaluates as one
  vectorized pass;
* **gathered Liberty coefficients** — every NLDM LUT referenced by an
  arc is registered in a :class:`LutStore` (stacked, padded tables) and
  arcs carry integer LUT ids.  Each (cell, out pin, in pin) arc
  registers its tables once, into a row template every instance of
  the cell copies.  (The Monte-Carlo engine gathers its own
  per-instance leakage/Vth coefficient vectors in the same sorted-name
  index order, so its derate matrices align with this view's columns.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import TimingError
from repro.liberty.library import Lut, VthClass
from repro.netlist.core import PinDirection
from repro.obs.spans import span
from repro.timing.sta import cell_constraint_value, timing_roles


def _delay_scale_class(cell) -> int:
    """Delay-scaling law of a cell's timing tables (0 = low-Vth, 1 = high).

    Mirrors :func:`repro.variation.corners._scaled_cell`: corner
    derivation scales *every* timing LUT of a cell by its own Vth
    class's delay factor.
    """
    return 1 if cell.vth_class == VthClass.HIGH else 0


class LutStore:
    """Stacked, padded NLDM tables addressed by integer id.

    ``lookup`` in :mod:`repro.compute.kernels` reproduces
    :meth:`repro.liberty.library.Lut.lookup` bit for bit: the same
    segment search (linear scan expressed as a comparison count), the
    same interpolation expressions, the same degenerate-axis handling.
    Axes are padded so every table shares one array shape:

    * the *search* axis holds ``+inf`` beyond the scan window (entries
      ``1 .. len-2``), so the vectorized comparison count can never
      step past the window;
    * the *interp* axis repeats its last real value, making the padded
      span zero, which the kernel maps to interpolation fraction 0.0 —
      exactly the scalar code's degenerate-segment answer.
    """

    def __init__(self):
        self._luts: list[Lut] = []
        self._ids: dict[tuple[int, int], int] = {}
        self._classes: list[int] = []
        self._arrays = None
        self._scale_classes = None

    def register(self, lut: Lut | None, scale_class: int = 0) -> int:
        """The id of ``lut`` (registering it if new); -1 for ``None``.

        ``scale_class`` tags the table with the delay-scaling law of
        its owning cell (0 = low-Vth, 1 = high-Vth); the corner-stack
        path uses it to scale each table by the right per-corner
        factor.  A table shared by cells of *different* classes gets
        one id per class, so each copy scales by its own law — exactly
        what deriving K separate corner libraries would produce.
        """
        if lut is None:
            return -1
        key = (id(lut), scale_class)
        found = self._ids.get(key)
        if found is not None:
            return found
        index = len(self._luts)
        self._ids[key] = index
        self._luts.append(lut)
        self._classes.append(int(scale_class))
        self._arrays = None
        self._scale_classes = None
        return index

    def __len__(self) -> int:
        return len(self._luts)

    def arrays(self):
        """(search1, interp1, search2, interp2, values) stacked arrays."""
        if self._arrays is None:
            self._arrays = self._build()
        return self._arrays

    def scale_classes(self) -> np.ndarray:
        """Per-table delay scale-class codes, aligned with ``arrays()``."""
        if self._scale_classes is None:
            count = max(len(self._classes), 1)
            classes = np.zeros(count, dtype=np.int64)
            classes[:len(self._classes)] = self._classes
            self._scale_classes = classes
        return self._scale_classes

    def _build(self):
        count = max(len(self._luts), 1)
        dim1 = max([len(l.index_1) for l in self._luts] + [1])
        dim2 = max([len(l.index_2) for l in self._luts] + [1])
        dim1 = max(dim1, 2)
        dim2 = max(dim2, 2)
        search1 = np.full((count, dim1), np.inf)
        interp1 = np.zeros((count, dim1))
        search2 = np.full((count, dim2), np.inf)
        interp2 = np.zeros((count, dim2))
        values = np.zeros((count, dim1, dim2))
        for index, lut in enumerate(self._luts):
            _fill_axis(search1[index], interp1[index], lut.index_1)
            _fill_axis(search2[index], interp2[index], lut.index_2)
            table = np.asarray(lut.values, dtype=float)
            values[index, :table.shape[0], :table.shape[1]] = table
            # Edge-replicate so padded cells stay finite (they are
            # always multiplied by a zero fraction).
            values[index, table.shape[0]:, :] = values[
                index, table.shape[0] - 1, :]
            values[index, :, table.shape[1]:] = values[
                index, :, table.shape[1] - 1:table.shape[1]]
        return search1, interp1, search2, interp2, values


def _fill_axis(search_row: np.ndarray, interp_row: np.ndarray,
               axis: tuple[float, ...]):
    n = len(axis)
    hi = n - 1
    # Scan window: the scalar loop compares x against axis[1..hi-1].
    if hi >= 2:
        search_row[1:hi] = axis[1:hi]
    interp_row[:n] = axis
    interp_row[n:] = axis[-1]


class _CellArcs:
    """One library cell as lowering sees it: its compiled delay arcs by
    pin (:meth:`~repro.liberty.library.Library.delay_arcs`), its
    delay-scale class and the template id of each (out pin, in pin)
    pair met so far (-1: no delay arc)."""

    __slots__ = ("arcs", "klass", "ids")

    def __init__(self, cell, arcs):
        self.arcs = arcs
        self.klass = _delay_scale_class(cell)
        self.ids: dict[tuple[str, str], int] = {}


class _Arcs:
    """Arc records in walk order: (template id, out node, source node,
    instance) as four flat ints each, plus the arc's wire delay."""

    __slots__ = ("ints", "wires")

    def __init__(self):
        self.ints: list[int] = []
        self.wires: list[float] = []


class _ArcTemplates:
    """Row templates of the delay arcs lowered so far, by integer id.

    A template holds the rows one (cell, out pin, in pin) arc adds to
    each forward stream (rise target, fall target) as ``(source edge,
    delay LUT, slew LUT)``.  :meth:`lower` registers the tables in
    exactly that order, the order a walk over every instance first
    meets them, so each arc registers once and the LUT store numbers
    its tables as such a walk would.
    """

    def __init__(self, library, luts: LutStore):
        self.library = library
        self.luts = luts
        self.cells: dict[str, _CellArcs] = {}
        self.rows: tuple[list[int], ...] = ([], [])   # flat triples
        self.first: tuple[list[int], ...] = ([], [])
        self.count: tuple[list[int], ...] = ([], [])

    def cell(self, name: str) -> _CellArcs:
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = _CellArcs(
                self.library.cell(name), self.library.delay_arcs()[name])
        return cell

    def lower(self, cell: _CellArcs, out_name: str, in_name: str) -> int:
        """The template id of one arc (-1 without a delay arc)."""
        compiled = cell.arcs.get(out_name, {}).get(in_name)
        tid = -1
        if compiled is not None:
            register, klass = self.luts.register, cell.klass
            per_stream: tuple[list, ...] = ([], [])
            for target, edge, delay_lut, slew_lut, _, _ in compiled.forward:
                per_stream[target].extend(
                    (edge, register(delay_lut, klass),
                     register(slew_lut, klass)))
            tid = len(self.first[0])
            for stream, rows in enumerate(per_stream):
                self.first[stream].append(len(self.rows[stream]) // 3)
                self.count[stream].append(len(rows) // 3)
                self.rows[stream].extend(rows)
        cell.ids[(out_name, in_name)] = tid
        return tid

    def record(self, arcs: _Arcs, cell: _CellArcs, out_name: str,
               oidx: int, ins, iidx: int):
        """Record the delay arcs into one out pin, in input-pin order."""
        ids, ints, wires = cell.ids, arcs.ints, arcs.wires
        for in_name, sidx, wire in ins:
            tid = ids.get((out_name, in_name))
            if tid is None:
                tid = self.lower(cell, out_name, in_name)
            if tid >= 0:
                ints.extend((tid, oidx, sidx, iidx))
                wires.append(wire)

    def expand(self, arcs: _Arcs) -> list[tuple]:
        """Per stream (rise, fall), the rows of ``arcs`` in walk order:
        the six int columns (out, src, inst, source edge, delay LUT,
        slew LUT) and the wire delays."""
        table = np.array(arcs.ints, dtype=np.int64).reshape(-1, 4)
        tid = table[:, 0]
        wires = np.array(arcs.wires, dtype=float)
        streams = []
        for stream in range(2):
            count = np.array(self.count[stream], dtype=np.int64)[tid]
            bounds = np.zeros(len(tid) + 1, dtype=np.int64)
            np.cumsum(count, out=bounds[1:])
            arc = np.repeat(np.arange(len(tid)), count)
            rows = np.array(self.rows[stream],
                            dtype=np.int64).reshape(-1, 3)
            first = np.array(self.first[stream], dtype=np.int64)
            at = first[tid][arc] + np.arange(len(arc)) - bounds[arc]
            cols = (table[arc, 1], table[arc, 2], table[arc, 3],
                    rows[at, 0], rows[at, 1], rows[at, 2])
            streams.append((cols, wires[arc]))
        return streams


class _Stream:
    """One forward contribution stream (rise-target or fall-target),
    its rows stored level-sorted for the kernels."""

    __slots__ = ("out", "src", "inst", "src_edge", "dlut", "slut",
                 "wire", "levels")

    def __init__(self, cols, wire, level_of):
        levels = level_of[cols[2]]
        perm = np.argsort(levels, kind="stable")
        (self.out, self.src, self.inst, self.src_edge, self.dlut,
         self.slut) = (col[perm] for col in cols)
        self.wire = wire[perm]
        self.levels = _level_slices(levels[perm], self.out)


def _level_slices(sorted_levels: np.ndarray, keys: np.ndarray):
    """[(level, start, stop, seg_starts, seg_keys)] for a level-sorted
    table: one entry per level run, segmented where ``keys`` (the out
    node the kernel reduces over) changes."""
    slices = []
    n = len(sorted_levels)
    if n == 0:
        return slices
    boundaries = [0] + list(
        np.nonzero(np.diff(sorted_levels))[0] + 1) + [n]
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        seg_keys = keys[lo:hi]
        change = np.nonzero(np.diff(seg_keys))[0] + 1
        seg_starts = np.concatenate(
            ([0], change)).astype(np.int64)
        slices.append((int(sorted_levels[lo]), lo, hi, seg_starts,
                       seg_keys[seg_starts]))
    return slices


class NetlistArrayView:
    """Flat array mirror of one netlist for the numpy kernels."""

    def __init__(self, netlist, library, constraints, net_model,
                 clock_arrivals=None):
        self.constraints = constraints
        self.net_model = net_model
        with span("compute.lower",
                  instances=len(netlist.instances)) as sp:
            self._lower(netlist, library, dict(clock_arrivals or {}))
            sp.set(nodes=len(self.node_names),
                   comb_instances=self.comb_count)

    def _lower(self, netlist, library, clock_arrivals):
        constraints = self.constraints
        roles = timing_roles(library)
        order = netlist.topological_order(
            lambda inst: roles.get(inst.cell_name, False))
        self.luts = luts = LutStore()
        templates = _ArcTemplates(library, luts)

        # Node domain, in the exact insertion order of a scalar full
        # run: input-port nets, flip-flop Q nets, comb out nets (topo),
        # each with its topological level (startpoints are level 0).
        node_names: list[str] = []
        node_index: dict[str, int] = {}
        net_level: list[int] = []
        self.node_names, self.node_index = node_names, node_index

        def add_node(name: str, level: int) -> int:
            idx = node_index.get(name)
            if idx is None:
                idx = len(node_names)
                node_index[name] = idx
                node_names.append(name)
                net_level.append(level)
            else:
                net_level[idx] = level
            return idx

        input_ports = [p for p in netlist.input_ports() if p.net is not None]
        for port in input_ports:
            add_node(port.net.name, 0)
        seq_insts = [inst for inst in netlist.instances.values()
                     if roles.get(inst.cell_name, False)]
        for inst in seq_insts:
            q_pin = inst.pins.get("Q")
            if q_pin is not None and q_pin.net is not None:
                add_node(q_pin.net.name, 0)

        inst_names = sorted(netlist.instances)
        inst_index = {name: i for i, name in enumerate(inst_names)}

        # One topological walk: each comb instance's level is one past
        # its deepest source, its out nets join the node domain, and
        # its arcs are recorded.  Every driver precedes its sinks, so
        # every source node already exists when a sink reads it.
        arcs = _Arcs()
        comb_iidx: list[int] = []
        comb_level: list[int] = []
        for inst in order:
            if roles.get(inst.cell_name) is not False:
                continue
            cell = templates.cell(inst.cell_name)
            ins, outs = self._pins(inst, cell)
            level = 1 + max([net_level[sidx] for _pin, sidx, _wire in ins],
                            default=0)
            iidx = inst_index[inst.name]
            comb_iidx.append(iidx)
            comb_level.append(level)
            for out_pin in outs:
                templates.record(arcs, cell, out_pin.name,
                                 add_node(out_pin.net.name, level),
                                 ins, iidx)

        level_of = np.zeros(len(inst_names), dtype=np.int64)
        level_of[comb_iidx] = comb_level
        (rise, rise_wire), (fall, fall_wire) = templates.expand(arcs)
        self.rise = _Stream(rise, rise_wire, level_of)
        self.fall = _Stream(fall, fall_wire, level_of)

        self.inst_names = inst_names
        self.inst_index = inst_index
        self.comb_count = len(comb_iidx)

        self.loads = np.zeros(len(node_names))
        for name, idx in node_index.items():
            net = netlist.nets.get(name)
            if net is not None:
                self.loads[idx] = self.net_model.total_load(net)

        # Startpoints.
        self.port_nodes = np.array(
            [node_index[p.net.name] for p in input_ports], dtype=np.int64)
        self.port_delay = np.array(
            [constraints.input_delay_for(p.name) for p in input_ports])
        self.port_min = np.array(
            [max(constraints.input_delay_for(p.name),
                 constraints.input_delay_min) for p in input_ports])
        ff_node, ff_inst, ff_launch = [], [], []
        ff_cr, ff_cf, ff_rt, ff_ft = [], [], [], []
        for inst in seq_insts:
            q_pin = inst.pins.get("Q")
            if q_pin is None or q_pin.net is None:
                continue
            cell = library.cell(inst.cell_name)
            compiled = library.delay_arcs()[cell.name].get("Q", {}).get("CK")
            if compiled is None:
                raise TimingError(f"flip-flop {cell.name} lacks CK->Q arc")
            arc = compiled.arc
            klass = _delay_scale_class(cell)
            ff_node.append(node_index[q_pin.net.name])
            ff_inst.append(inst_index[inst.name])
            ff_launch.append(clock_arrivals.get(inst.name, 0.0))
            ff_cr.append(luts.register(arc.cell_rise, klass))
            ff_cf.append(luts.register(arc.cell_fall, klass))
            ff_rt.append(luts.register(arc.rise_transition, klass))
            ff_ft.append(luts.register(arc.fall_transition, klass))
        self.ff_node = np.array(ff_node, dtype=np.int64)
        self.ff_inst = np.array(ff_inst, dtype=np.int64)
        self.ff_launch = np.array(ff_launch)
        self.ff_cr = np.array(ff_cr, dtype=np.int64)
        self.ff_cf = np.array(ff_cf, dtype=np.int64)
        self.ff_rt = np.array(ff_rt, dtype=np.int64)
        self.ff_ft = np.array(ff_ft, dtype=np.int64)

        # Endpoints (python check-list order: output ports, then per-FF
        # setup+hold).
        out_ep_node, out_ep_wire, out_ep_delay = [], [], []
        for port in netlist.output_ports():
            if port.net is None or port.net.name not in node_index:
                continue
            out_ep_node.append(node_index[port.net.name])
            out_ep_wire.append(
                self.net_model.wire_delay_to_port(port.net, port.name))
            out_ep_delay.append(constraints.output_delay_for(port.name))
        self.out_ep_node = np.array(out_ep_node, dtype=np.int64)
        self.out_ep_wire = np.array(out_ep_wire)
        self.out_ep_delay = np.array(out_ep_delay)

        self.ff_ep_names: list[str] = []
        ff_ep_node, ff_ep_wire = [], []
        ff_ep_setup, ff_ep_hold, ff_ep_clk = [], [], []
        input_slew = constraints.input_slew
        for inst in seq_insts:
            d_pin = inst.pins.get("D")
            if d_pin is None or d_pin.net is None \
                    or d_pin.net.name not in node_index:
                continue
            cell = library.cell(inst.cell_name)
            self.ff_ep_names.append(inst.name)
            ff_ep_node.append(node_index[d_pin.net.name])
            ff_ep_wire.append(self.net_model.wire_delay(d_pin.net, d_pin))
            ff_ep_setup.append(
                cell_constraint_value(cell, "setup", input_slew))
            ff_ep_hold.append(cell_constraint_value(cell, "hold", input_slew))
            ff_ep_clk.append(clock_arrivals.get(inst.name, 0.0))
        self.ff_ep_node = np.array(ff_ep_node, dtype=np.int64)
        self.ff_ep_wire = np.array(ff_ep_wire)
        self.ff_ep_setup = np.array(ff_ep_setup)
        self.ff_ep_hold = np.array(ff_ep_hold)
        self.ff_ep_clk = np.array(ff_ep_clk)

    def _pins(self, inst, cell: _CellArcs):
        """``(ins, outs)`` of one instance, in pin order: its timing
        inputs as ``(pin name, source node, wire delay)`` and the
        connected output pins its cell times."""
        node_index = self.node_index
        wire_delay = self.net_model.wire_delay
        ins, outs = [], []
        for pin in inst.pins.values():
            net = pin.net
            if net is None:
                continue
            if pin.direction is PinDirection.INPUT:
                if pin.name != "MTE":
                    sidx = node_index.get(net.name)
                    if sidx is not None:
                        ins.append((pin.name, sidx, wire_delay(net, pin)))
            elif pin.direction is PinDirection.OUTPUT \
                    and pin.name in cell.arcs:
                outs.append(pin)
        return ins, outs

    def derate_vector(self, derates) -> np.ndarray:
        """Per-instance derate vector (sorted-name index order)."""
        vec = np.ones(len(self.inst_names))
        if derates:
            index = self.inst_index
            for name, value in derates.items():
                idx = index.get(name)
                if idx is not None:
                    vec[idx] = value
        return vec

    # --- corner stacking ------------------------------------------------

    def corner_stack(self, delay_factors) -> tuple:
        """LUT arrays with a leading corner (batch) axis.

        ``delay_factors`` is ``(corners, 2)``: column 0 the low-Vth
        delay factor, column 1 the high-Vth one.  Each stacked table is
        the nominal table times its scale class's factor — the same
        elementwise multiply :meth:`repro.liberty.library.Lut.scaled`
        performs — so interpolating the stack reproduces a lowering of
        the corner-derived library bit for bit, without re-lowering.
        """
        search1, interp1, search2, interp2, values = self.luts.arrays()
        factors = np.asarray(delay_factors, dtype=float)
        per_table = factors[:, self.luts.scale_classes()]
        stacked = values[None, ...] * per_table[:, :, None, None]
        return (search1, interp1, search2, interp2, stacked)
