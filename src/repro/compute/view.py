"""Array view of a netlist: the structure the numpy kernels run on.

:class:`NetlistArrayView` lowers one (netlist, library, constraints,
net model) quadruple into flat numpy arrays once, then keeps them
alive across edits:

* **stable index maps** — instances in sorted-name order, timing nodes
  (nets in the STA domain) in the exact insertion order a scalar full
  propagation would create them, so array column ``i`` and dict entry
  ``i`` describe the same object;
* **CSR-style adjacency** — every timing-arc contribution (one
  ``consider()`` call of the scalar engine) becomes one row of a flat
  table, sorted by topological level with per-level segment offsets,
  so one level evaluates as one vectorized pass;
* **gathered Liberty coefficients** — every NLDM LUT referenced by an
  arc is registered in a :class:`LutStore` (stacked, padded tables) and
  arcs carry integer LUT ids.  Each (cell, out pin, in pin) arc
  registers its tables once, into a row template every instance of
  the cell copies.  (The Monte-Carlo engine gathers its own
  per-instance leakage/Vth coefficient vectors in the same sorted-name
  index order, so its derate matrices align with this view's columns.)

Invalidation contract (mirrors the
:class:`~repro.timing.session.TimingSession` dirt taxonomy):

* :meth:`touch_net` — only the net's capacitive load changed; the load
  vector entry is refreshed in place;
* :meth:`touch_instance` — the instance's timing tables changed (a
  variant swap); the instance is re-walked the way the build walked
  it, and when the fresh rows match the stored ones (tied inputs
  included) the new LUT ids are written into them in place, otherwise
  the view rebuilds;
* :meth:`touch_structural` — the graph changed shape (buffer
  insertion, removal); the next :meth:`ensure` rebuilds everything.

``ensure()`` is cheap when nothing is dirty, so callers invoke it
before every kernel pass.
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


#: Stream index of the backward (required-time) rows; streams 0 and 1
#: are the rise and fall targets of the forward rows.
_BACKWARD = 2


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
    each stream (rise, fall, backward) as ``(code, lut_a, lut_b)``: its
    forward rows (code = source edge, LUTs = delay and slew table), then
    its backward row (code = sense, LUTs = rise and fall delay table).
    :meth:`lower` registers the tables in exactly that order, the order
    a walk over every instance first meets them, so each arc registers
    once and the LUT store numbers its tables as such a walk would.
    """

    def __init__(self, library, luts: LutStore):
        self.library = library
        self.luts = luts
        self.cells: dict[str, _CellArcs] = {}
        self.rows: tuple[list[int], ...] = ([], [], [])   # flat triples
        self.first: tuple[list[int], ...] = ([], [], [])
        self.count: tuple[list[int], ...] = ([], [], [])

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
            per_stream: tuple[list, ...] = ([], [], [])
            for target, edge, delay_lut, slew_lut in compiled.forward:
                per_stream[target].extend(
                    (edge, register(delay_lut, klass),
                     register(slew_lut, klass)))
            arc = compiled.arc
            per_stream[_BACKWARD].extend(
                (compiled.sense, register(arc.cell_rise, klass),
                 register(arc.cell_fall, klass)))
            tid = len(self.first[0])
            for stream, rows in enumerate(per_stream):
                self.first[stream].append(len(self.rows[stream]) // 3)
                self.count[stream].append(len(rows) // 3)
                self.rows[stream].extend(rows)
        cell.ids[(out_name, in_name)] = tid
        return tid

    def expand(self, arcs: _Arcs) -> list[tuple]:
        """Per stream (rise, fall, backward), the rows of ``arcs`` in
        walk order: the six int columns (out, src, inst, code, lut_a,
        lut_b), the wire delays, and each arc's first row (plus one
        past the last)."""
        table = np.array(arcs.ints, dtype=np.int64).reshape(-1, 4)
        tid = table[:, 0]
        wires = np.array(arcs.wires, dtype=float)
        streams = []
        for stream in range(3):
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
            streams.append((cols, wires[arc], bounds))
        return streams


class _ArcTable:
    """One stream's rows, stored level-sorted for the kernels.

    ``cols`` holds the int columns (out, src, inst, code, lut_a,
    lut_b), which subclasses alias under the names the kernels read;
    ``perm[k]`` is the build-order id of stored row ``k``.
    """

    __slots__ = ("cols", "wire", "perm", "levels", "_inverse")

    def _store(self, cols, wire, perm):
        self.cols = [col[perm] for col in cols]
        self.wire = wire[perm]
        self.perm = perm
        self._inverse = None

    def stored(self, build_rows) -> np.ndarray:
        """Stored positions of the given build-order row ids."""
        if self._inverse is None:
            inverse = np.empty_like(self.perm)
            inverse[self.perm] = np.arange(len(self.perm))
            self._inverse = inverse
        return self._inverse[build_rows]


class _Stream(_ArcTable):
    """One forward contribution stream (rise-target or fall-target)."""

    __slots__ = ("out", "src", "inst", "src_edge", "dlut", "slut")

    def __init__(self, cols, wire, level_of):
        levels = level_of[cols[2]]
        perm = np.argsort(levels, kind="stable")
        self._store(cols, wire, perm)
        (self.out, self.src, self.inst, self.src_edge, self.dlut,
         self.slut) = self.cols
        self.levels = _level_slices(levels[perm], self.out)


def _level_slices(sorted_levels: np.ndarray, keys: np.ndarray):
    """[(level, start, stop, seg_starts, seg_keys)] for a level-sorted
    table: one entry per level run, segmented where ``keys`` (the out
    or source node the kernel reduces over) changes."""
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


class _BackwardStream(_ArcTable):
    """Backward (required-time) arc table, level-descending."""

    __slots__ = ("out", "src", "inst", "sense", "rlut", "flut")

    def __init__(self, cols, wire, level_of):
        levels = level_of[cols[2]]
        # Descending level; within a level group by source net so
        # the min-reduction segments are contiguous.
        perm = np.lexsort((cols[1], -levels))
        self._store(cols, wire, perm)
        (self.out, self.src, self.inst, self.sense, self.rlut,
         self.flut) = self.cols
        self.levels = _level_slices(levels[perm], self.src)


class NetlistArrayView:
    """Flat array mirror of one netlist for the numpy kernels."""

    def __init__(self, netlist, library, constraints, net_model,
                 clock_arrivals=None):
        self.netlist = netlist
        self.library = library
        self.constraints = constraints
        self.net_model = net_model
        self.clock_arrivals = dict(clock_arrivals or {})
        self._roles = timing_roles(library)
        self._order = None
        self._built = False
        self._structural_dirty = True
        self._dirty_loads: set[str] = set()
        self._dirty_insts: set[str] = set()
        self.rebuilds = 0
        self.patches = 0

    def use_order(self, order):
        """Lower along ``order`` — the owner's current topological order
        of the netlist — instead of sorting the netlist again.  A
        structural touch drops it."""
        self._order = order

    # --- invalidation ---------------------------------------------------

    def touch_net(self, name: str):
        """The net's capacitive load changed."""
        if self._built:
            self._dirty_loads.add(name)

    def touch_instance(self, name: str):
        """The instance's timing tables changed (variant swap)."""
        if self._built:
            self._dirty_insts.add(name)

    def touch_structural(self):
        """The netlist graph changed shape: full rebuild next ensure."""
        self._structural_dirty = True
        self._order = None

    @property
    def dirty(self) -> bool:
        return (self._structural_dirty or not self._built
                or bool(self._dirty_insts) or bool(self._dirty_loads))

    def ensure(self) -> "NetlistArrayView":
        """Apply pending invalidations; afterwards the arrays are current."""
        if not self._built:
            self._rebuild("cold")
            return self
        if self._structural_dirty:
            self._rebuild("structural")
            return self
        if self._dirty_insts:
            if not self._patch_instances():
                self._rebuild("patch_failed")
                return self
            self._dirty_insts.clear()
        if self._dirty_loads:
            self._refresh_loads()
        return self

    # --- build ----------------------------------------------------------

    def _rebuild(self, cause: str):
        """Lower the whole netlist; ``cause`` says why (span attr)."""
        with span("compute.lower", cause=cause,
                  instances=len(self.netlist.instances)) as sp:
            self._rebuild_arrays()
            sp.set(nodes=len(self.node_names),
                   comb_instances=self.comb_count)

    def _rebuild_arrays(self):
        self.rebuilds += 1
        self._built = False   # a lowering that raises leaves no half view
        netlist, library = self.netlist, self.library
        constraints = self.constraints
        roles = self._roles
        order = self._order
        if order is None:
            order = netlist.topological_order(
                lambda inst: roles.get(inst.cell_name, False))
        self.luts = luts = LutStore()
        self._templates = templates = _ArcTemplates(library, luts)

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
        arc_starts: list[int] = []
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
            arc_starts.append(len(arcs.wires))
            for out_pin in outs:
                self._record_arcs(cell, out_pin.name,
                                  add_node(out_pin.net.name, level),
                                  ins, iidx, arcs)
        arc_starts.append(len(arcs.wires))

        level_of = np.zeros(len(inst_names), dtype=np.int64)
        level_of[comb_iidx] = comb_level
        streams = templates.expand(arcs)
        (rise, rise_wire, _), (fall, fall_wire, _), (bwd, bwd_wire, _) = \
            streams
        self.rise = _Stream(rise, rise_wire, level_of)
        self.fall = _Stream(fall, fall_wire, level_of)
        self.bwd = _BackwardStream(bwd, bwd_wire, level_of)
        # Build-order rows of the instance in comb slot k span
        # _row_starts[k] to _row_starts[k + 1], per stream; a patch
        # maps them to stored rows only for the instances it touches.
        self._comb_slot = np.full(len(inst_names), -1, dtype=np.int64)
        self._comb_slot[comb_iidx] = np.arange(len(comb_iidx))
        self._row_starts = np.stack(
            [bounds[arc_starts] for _cols, _wire, bounds in streams], axis=1)

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
            ff_launch.append(self.clock_arrivals.get(inst.name, 0.0))
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
        self.out_ep_names: list[str] = []
        out_ep_node, out_ep_wire, out_ep_delay = [], [], []
        for port in netlist.output_ports():
            if port.net is None or port.net.name not in node_index:
                continue
            self.out_ep_names.append(port.name)
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
        for inst in seq_insts:
            d_pin = inst.pins.get("D")
            if d_pin is None or d_pin.net is None \
                    or d_pin.net.name not in node_index:
                continue
            cell = library.cell(inst.cell_name)
            self.ff_ep_names.append(inst.name)
            ff_ep_node.append(node_index[d_pin.net.name])
            ff_ep_wire.append(self.net_model.wire_delay(d_pin.net, d_pin))
            ff_ep_setup.append(self._constraint_value(cell, "setup"))
            ff_ep_hold.append(self._constraint_value(cell, "hold"))
            ff_ep_clk.append(self.clock_arrivals.get(inst.name, 0.0))
        self.ff_ep_node = np.array(ff_ep_node, dtype=np.int64)
        self.ff_ep_wire = np.array(ff_ep_wire)
        self.ff_ep_setup = np.array(ff_ep_setup)
        self.ff_ep_hold = np.array(ff_ep_hold)
        self.ff_ep_clk = np.array(ff_ep_clk)

        self._built = True
        self._structural_dirty = False
        self._dirty_loads.clear()
        self._dirty_insts.clear()

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

    def _record_arcs(self, cell: _CellArcs, out_name: str, oidx: int,
                     ins, iidx: int, arcs: _Arcs):
        """Record the delay arcs into one out pin, in input-pin order.

        The build and :meth:`_patch_instances` share this walk, so a
        patch re-derives exactly the rows the build stored.
        """
        ids, ints, wires = cell.ids, arcs.ints, arcs.wires
        for in_name, sidx, wire in ins:
            tid = ids.get((out_name, in_name))
            if tid is None:
                tid = self._templates.lower(cell, out_name, in_name)
            if tid >= 0:
                ints.extend((tid, oidx, sidx, iidx))
                wires.append(wire)

    # --- incremental refresh -------------------------------------------

    def _refresh_loads(self):
        for name in self._dirty_loads:
            idx = self.node_index.get(name)
            if idx is None:
                continue
            net = self.netlist.nets.get(name)
            if net is not None:
                self.loads[idx] = self.net_model.total_load(net)
        self._dirty_loads.clear()

    def _patch_instances(self) -> bool:
        """Re-gather every dirty instance and rewrite its LUT ids in place.

        Each instance is re-walked by :meth:`_record_arcs` — the walk
        that built its rows.  Only when the fresh rows reproduce the
        stored ones' out node, source node, instance and code (source
        edge or sense), row for row, are the new LUT ids written into
        them, one fancy-index assignment per array, so the view is
        never left half-patched.  A mismatch, or an unknown, sequential
        or skipped instance, reports False and the caller rebuilds.
        """
        arcs = _Arcs()
        slots: list[int] = []
        for name in sorted(self._dirty_insts):
            inst = self.netlist.instances.get(name)
            iidx = self.inst_index.get(name)
            if inst is None or iidx is None \
                    or self._roles.get(inst.cell_name) is not False:
                return False
            slot = int(self._comb_slot[iidx])
            if slot < 0:
                return False
            cell = self._templates.cell(inst.cell_name)
            ins, outs = self._pins(inst, cell)
            for out_pin in outs:
                oidx = self.node_index.get(out_pin.net.name)
                if oidx is None:
                    return False
                self._record_arcs(cell, out_pin.name, oidx, ins, iidx,
                                  arcs)
            slots.append(slot)
        writes = []
        streams = self._templates.expand(arcs)
        for stream, table in enumerate((self.rise, self.fall, self.bwd)):
            fresh = streams[stream][0]
            build_rows: list[int] = []
            for slot in slots:
                build_rows.extend(range(self._row_starts[slot, stream],
                                        self._row_starts[slot + 1, stream]))
            if len(build_rows) != len(fresh[0]):
                return False
            at = table.stored(np.array(build_rows, dtype=np.int64))
            for col in range(4):   # out, src, inst, code
                if not np.array_equal(table.cols[col][at], fresh[col]):
                    return False
            writes.append((table, at, fresh))
        for table, at, fresh in writes:
            table.cols[4][at] = fresh[4]
            table.cols[5][at] = fresh[5]
        self.patches += len(self._dirty_insts)
        return True

    # --- helpers --------------------------------------------------------

    def _constraint_value(self, cell, which: str) -> float:
        return cell_constraint_value(cell, which, self.constraints.input_slew)

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
        self.ensure()
        search1, interp1, search2, interp2, values = self.luts.arrays()
        factors = np.asarray(delay_factors, dtype=float)
        per_table = factors[:, self.luts.scale_classes()]
        stacked = values[None, ...] * per_table[:, :, None, None]
        return (search1, interp1, search2, interp2, stacked)
