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
  arcs carry integer LUT ids.  (The Monte-Carlo engine gathers its own
  per-instance leakage/Vth coefficient vectors in the same sorted-name
  index order, so its derate matrices align with this view's columns.)

Invalidation contract (mirrors the
:class:`~repro.timing.session.TimingSession` dirt taxonomy):

* :meth:`touch_net` — only the net's capacitive load changed; the load
  vector entry is refreshed in place;
* :meth:`touch_instance` — the instance's timing tables changed (a
  variant swap); the instance is re-gathered through the same walk
  that built its rows, and when the arc signature is unchanged (tied
  inputs included) the new LUT ids are written into the stored rows
  in place, otherwise the view rebuilds;
* :meth:`touch_structural` — the graph changed shape (buffer
  insertion, removal); the next :meth:`ensure` rebuilds everything.

``ensure()`` is cheap when nothing is dirty, so callers invoke it
before every kernel pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TimingError
from repro.liberty.library import CellKind, Lut, VthClass
from repro.obs.spans import span

#: Sense codes used by the backward kernel.
SENSE_POSITIVE = 0
SENSE_NEGATIVE = 1
SENSE_NON_UNATE = 2

_SENSE_CODE = {
    "positive_unate": SENSE_POSITIVE,
    "negative_unate": SENSE_NEGATIVE,
}


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
        self._frozen = False
        self._count = 0

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
        if self._frozen:
            raise TimingError(
                "cannot register new LUTs in a cache-loaded store")
        index = len(self._luts)
        self._ids[key] = index
        self._luts.append(lut)
        self._classes.append(int(scale_class))
        self._arrays = None
        self._scale_classes = None
        return index

    def __len__(self) -> int:
        return self._count if self._frozen else len(self._luts)

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

    @classmethod
    def from_arrays(cls, arrays, scale_classes, count: int) -> "LutStore":
        """A frozen store over pre-built arrays (lowering-cache load).

        Frozen stores serve ``arrays()``/``scale_classes()`` but refuse
        new registrations — a view loaded from the cache rebuilds
        instead of patching in place.
        """
        store = cls()
        store._arrays = tuple(arrays)
        store._scale_classes = np.asarray(scale_classes, dtype=np.int64)
        store._count = int(count)
        store._frozen = True
        return store

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


class _Stream:
    """One forward contribution stream (rise-target or fall-target)."""

    __slots__ = ("out", "src", "inst", "src_edge", "dlut", "slut", "wire",
                 "levels", "size", "perm")

    def __init__(self, rows, level_of):
        # rows: list of [out, src, inst, src_edge, dlut, slut, wire]
        self.size = len(rows)
        if rows:
            out = np.array([r[0] for r in rows], dtype=np.int64)
            src = np.array([r[1] for r in rows], dtype=np.int64)
            inst = np.array([r[2] for r in rows], dtype=np.int64)
            edge = np.array([r[3] for r in rows], dtype=np.int64)
            dlut = np.array([r[4] for r in rows], dtype=np.int64)
            slut = np.array([r[5] for r in rows], dtype=np.int64)
            wire = np.array([r[6] for r in rows], dtype=float)
            levels = level_of[inst]
            perm = np.argsort(levels, kind="stable")
        else:
            out = src = inst = edge = dlut = slut = np.zeros(0, np.int64)
            wire = np.zeros(0)
            levels = np.zeros(0, np.int64)
            perm = np.zeros(0, np.int64)
        # Build-order row id of each stored row (None once rehydrated
        # from the lowering cache).
        self.perm = perm
        self.out = out[perm]
        self.src = src[perm]
        self.inst = inst[perm]
        self.src_edge = edge[perm]
        self.dlut = dlut[perm]
        self.slut = slut[perm]
        self.wire = wire[perm]
        self.levels = _level_slices(levels[perm], self.out)


def _level_slices(sorted_levels: np.ndarray, out: np.ndarray):
    """[(level, start, stop, seg_starts, seg_out)] for a sorted table."""
    slices = []
    n = len(sorted_levels)
    if n == 0:
        return slices
    boundaries = [0] + list(
        np.nonzero(np.diff(sorted_levels))[0] + 1) + [n]
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        seg_out = out[lo:hi]
        change = np.nonzero(np.diff(seg_out))[0] + 1
        seg_starts = np.concatenate(
            ([0], change)).astype(np.int64)
        slices.append((int(sorted_levels[lo]), lo, hi, seg_starts,
                       seg_out[seg_starts]))
    return slices


class _BackwardStream:
    """Backward (required-time) arc table, level-descending."""

    __slots__ = ("out", "src", "inst", "sense", "rlut", "flut", "wire",
                 "levels", "perm")

    def __init__(self, rows, level_of):
        if rows:
            out = np.array([r[0] for r in rows], dtype=np.int64)
            src = np.array([r[1] for r in rows], dtype=np.int64)
            inst = np.array([r[2] for r in rows], dtype=np.int64)
            sense = np.array([r[3] for r in rows], dtype=np.int64)
            rlut = np.array([r[4] for r in rows], dtype=np.int64)
            flut = np.array([r[5] for r in rows], dtype=np.int64)
            wire = np.array([r[6] for r in rows], dtype=float)
            levels = level_of[inst]
            # Descending level; within a level group by source net so
            # the min-reduction segments are contiguous.
            perm = np.lexsort((src, -levels))
        else:
            out = src = inst = sense = rlut = flut = np.zeros(0, np.int64)
            wire = np.zeros(0)
            levels = np.zeros(0, np.int64)
            perm = np.zeros(0, np.int64)
        self.perm = perm
        self.out = out[perm]
        self.src = src[perm]
        self.inst = inst[perm]
        self.sense = sense[perm]
        self.rlut = rlut[perm]
        self.flut = flut[perm]
        self.wire = wire[perm]
        self.levels = _bwd_level_slices(levels[perm], self.src) \
            if len(perm) else []


def _bwd_level_slices(sorted_desc_levels: np.ndarray, src: np.ndarray):
    slices = []
    n = len(sorted_desc_levels)
    boundaries = [0] + list(
        np.nonzero(np.diff(sorted_desc_levels))[0] + 1) + [n]
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        seg_src = src[lo:hi]
        change = np.nonzero(np.diff(seg_src))[0] + 1
        seg_starts = np.concatenate(([0], change)).astype(np.int64)
        slices.append((lo, hi, seg_starts, seg_src[seg_starts]))
    return slices


def _str_array(names) -> np.ndarray:
    return np.array(names, dtype=np.str_) if names \
        else np.zeros(0, dtype="U1")


def _stream_levels(stream: "_Stream") -> np.ndarray:
    """Recover the level-sorted per-row level array from the slices."""
    levels = np.zeros(len(stream.out), dtype=np.int64)
    for level, lo, hi, _starts, _out in stream.levels:
        levels[lo:hi] = level
    return levels


def _bwd_group_codes(bwd: "_BackwardStream") -> np.ndarray:
    """Strictly-descending group codes reproducing the bwd slices.

    The backward slices only use level *boundaries*, never the level
    values, so any strictly-descending code sequence round-trips.
    """
    codes = np.zeros(len(bwd.out), dtype=np.int64)
    groups = len(bwd.levels)
    for g, (lo, hi, _starts, _src) in enumerate(bwd.levels):
        codes[lo:hi] = groups - g
    return codes


def _stream_from_state(state, tag: str) -> "_Stream":
    stream = _Stream.__new__(_Stream)
    stream.out = state[f"{tag}_out"]
    stream.src = state[f"{tag}_src"]
    stream.inst = state[f"{tag}_inst"]
    stream.src_edge = state[f"{tag}_edge"]
    stream.dlut = state[f"{tag}_dlut"]
    stream.slut = state[f"{tag}_slut"]
    stream.wire = state[f"{tag}_wire"]
    stream.perm = None
    stream.size = len(stream.out)
    stream.levels = _level_slices(state[f"{tag}_levels"], stream.out)
    return stream


def _bwd_from_state(state) -> "_BackwardStream":
    bwd = _BackwardStream.__new__(_BackwardStream)
    bwd.out = state["bwd_out"]
    bwd.src = state["bwd_src"]
    bwd.inst = state["bwd_inst"]
    bwd.sense = state["bwd_sense"]
    bwd.rlut = state["bwd_rlut"]
    bwd.flut = state["bwd_flut"]
    bwd.wire = state["bwd_wire"]
    bwd.perm = None
    bwd.levels = _bwd_level_slices(state["bwd_levels"], bwd.src) \
        if len(bwd.out) else []
    return bwd


class NetlistArrayView:
    """Flat array mirror of one netlist for the numpy kernels."""

    def __init__(self, netlist, library, constraints, net_model,
                 clock_arrivals=None):
        self.netlist = netlist
        self.library = library
        self.constraints = constraints
        self.net_model = net_model
        self.clock_arrivals = dict(clock_arrivals or {})
        self._built = False
        self._structural_dirty = True
        self._dirty_loads: set[str] = set()
        self._dirty_insts: set[str] = set()
        self.rebuilds = 0
        self.patches = 0

    # --- classification (mirrors TimingSession) ------------------------

    def _is_seq(self, inst) -> bool:
        return (inst.cell_name in self.library
                and self.library.cell(inst.cell_name).is_sequential)

    def _skip(self, inst) -> bool:
        if inst.cell_name not in self.library:
            return True
        kind = self.library.cell(inst.cell_name).kind
        return kind in (CellKind.SWITCH, CellKind.HOLDER)

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
        netlist, library = self.netlist, self.library
        constraints = self.constraints

        order = netlist.topological_order(self._is_seq)

        # Node domain, in the exact insertion order of a scalar full
        # run: input-port nets, flip-flop Q nets, comb out nets (topo).
        node_names: list[str] = []
        node_index: dict[str, int] = {}

        def add_node(name: str) -> int:
            idx = node_index.get(name)
            if idx is None:
                idx = len(node_names)
                node_index[name] = idx
                node_names.append(name)
            return idx

        input_ports = [p for p in netlist.input_ports() if p.net is not None]
        for port in input_ports:
            add_node(port.net.name)
        seq_insts = [inst for inst in netlist.instances.values()
                     if self._is_seq(inst)]
        for inst in seq_insts:
            q_pin = inst.pins.get("Q")
            if q_pin is not None and q_pin.net is not None:
                add_node(q_pin.net.name)
        comb_order = [inst for inst in order
                      if not self._is_seq(inst) and not self._skip(inst)]
        for inst in comb_order:
            cell = library.cell(inst.cell_name)
            for out_pin in inst.output_pins():
                if out_pin.net is not None and out_pin.name in cell.pins:
                    add_node(out_pin.net.name)

        inst_names = sorted(netlist.instances)
        inst_index = {name: i for i, name in enumerate(inst_names)}

        # Topological levels (per instance; startpoint nets are level 0).
        net_level: dict[int, int] = {}
        for port in input_ports:
            net_level[node_index[port.net.name]] = 0
        for inst in seq_insts:
            q_pin = inst.pins.get("Q")
            if q_pin is not None and q_pin.net is not None:
                net_level[node_index[q_pin.net.name]] = 0
        level_of = np.zeros(len(inst_names), dtype=np.int64)
        for inst in comb_order:
            best = 0
            for in_pin in inst.input_pins():
                if in_pin.net is None or in_pin.name == "MTE":
                    continue
                sidx = node_index.get(in_pin.net.name)
                if sidx is not None:
                    best = max(best, net_level.get(sidx, 0))
            lvl = best + 1
            level_of[inst_index[inst.name]] = lvl
            cell = library.cell(inst.cell_name)
            for out_pin in inst.output_pins():
                if out_pin.net is not None and out_pin.name in cell.pins:
                    net_level[node_index[out_pin.net.name]] = lvl

        luts = LutStore()
        rise_rows: list[list] = []
        fall_rows: list[list] = []
        bwd_rows: list[list] = []
        inst_sig: dict[str, list] = {}

        for inst in comb_order:
            signature = self._gather_instance(
                inst, node_index, inst_index, luts,
                rise_rows, fall_rows, bwd_rows)
            inst_sig[inst.name] = signature

        self.node_names = node_names
        self.node_index = node_index
        self.inst_names = inst_names
        self.inst_index = inst_index
        self.comb_count = len(comb_order)
        self.luts = luts
        self.rise = _Stream(rise_rows, level_of)
        self.fall = _Stream(fall_rows, level_of)
        self.bwd = _BackwardStream(bwd_rows, level_of)
        # _gather_instance recorded build-order row ids; map them
        # through each stream's level sort so patches hit stored rows.
        self._finalize_row_maps(inst_sig)

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
            arc = cell.pin("Q").arc_from("CK")
            if arc is None:
                raise TimingError(f"flip-flop {cell.name} lacks CK->Q arc")
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

        self._inst_sig = inst_sig
        self._built = True
        self._structural_dirty = False
        self._dirty_loads.clear()
        self._dirty_insts.clear()

    def _gather_instance(self, inst, node_index, inst_index, luts,
                         rise_rows, fall_rows, bwd_rows) -> list:
        """Append one instance's contributions; returns its row entry.

        The entry is ``[signature, rise ids, fall ids, backward ids]``.
        The signature is the arc topology — (out, src, sense, has-rise,
        has-fall) per arc, which fixes every stream's row count and
        order — and the ids are the rows appended, in walk order.
        :meth:`_patch_instances` re-runs this walk after a variant swap
        and rewrites LUT ids in place when the signature is unchanged.
        """
        library = self.library
        cell = library.cell(inst.cell_name)
        klass = _delay_scale_class(cell)
        iidx = inst_index[inst.name]
        sig: list = []
        my_rise: list[int] = []
        my_fall: list[int] = []
        my_bwd: list[int] = []
        for out_pin in inst.output_pins():
            out_net = out_pin.net
            if out_net is None:
                continue
            lib_out = cell.pins.get(out_pin.name)
            if lib_out is None:
                continue
            oidx = node_index.get(out_net.name)
            if oidx is None:
                continue
            for in_pin in inst.input_pins():
                if in_pin.net is None or in_pin.name == "MTE":
                    continue
                arc = lib_out.arc_from(in_pin.name)
                if arc is None:
                    continue
                sidx = node_index.get(in_pin.net.name)
                if sidx is None:
                    continue
                wire = self.net_model.wire_delay(in_pin.net, in_pin)
                sense = _SENSE_CODE.get(arc.timing_sense, SENSE_NON_UNATE)
                if sense == SENSE_POSITIVE:
                    pairs = (
                        (rise_rows, my_rise, 0, arc.cell_rise,
                         arc.rise_transition),
                        (fall_rows, my_fall, 1, arc.cell_fall,
                         arc.fall_transition),
                    )
                elif sense == SENSE_NEGATIVE:
                    pairs = (
                        (rise_rows, my_rise, 1, arc.cell_rise,
                         arc.rise_transition),
                        (fall_rows, my_fall, 0, arc.cell_fall,
                         arc.fall_transition),
                    )
                else:
                    pairs = (
                        (rise_rows, my_rise, 0, arc.cell_rise,
                         arc.rise_transition),
                        (fall_rows, my_fall, 0, arc.cell_fall,
                         arc.fall_transition),
                        (rise_rows, my_rise, 1, arc.cell_rise,
                         arc.rise_transition),
                        (fall_rows, my_fall, 1, arc.cell_fall,
                         arc.fall_transition),
                    )
                for rows, mine, edge, delay_lut, slew_lut in pairs:
                    if delay_lut is None:
                        continue
                    mine.append(len(rows))
                    rows.append([oidx, sidx, iidx, edge,
                                 luts.register(delay_lut, klass),
                                 luts.register(slew_lut, klass), wire])
                my_bwd.append(len(bwd_rows))
                bwd_rows.append([oidx, sidx, iidx, sense,
                                 luts.register(arc.cell_rise, klass),
                                 luts.register(arc.cell_fall, klass), wire])
                sig.append((oidx, sidx, sense,
                            arc.cell_rise is not None,
                            arc.cell_fall is not None))
        return [sig, my_rise, my_fall, my_bwd]

    def _finalize_row_maps(self, inst_sig):
        """Map build-order row ids to stored row positions.

        Each stream stores its rows level-sorted (``stream.perm``): the
        forward streams stably by level, the backward stream by
        descending level, then source net.  The inverse permutation
        sends every row id :meth:`_gather_instance` recorded to the
        stored row :meth:`_patch_instances` writes.
        """
        inverses = []
        for stream in (self.rise, self.fall, self.bwd):
            inverse = np.empty_like(stream.perm)
            inverse[stream.perm] = np.arange(len(stream.perm))
            inverses.append(inverse)
        for entry in inst_sig.values():
            for slot, inverse in enumerate(inverses, start=1):
                entry[slot] = inverse[entry[slot]]

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

        Each instance is re-walked by :meth:`_gather_instance` — the
        walk that built its rows — into fresh row lists.  Only when every
        walk reproduces its recorded arc signature are the new LUT ids
        written into the stored rows by position, one fancy-index
        assignment per array, so the view is never left half-patched.
        A signature mismatch, or an unknown, sequential or skipped
        instance, reports False and the caller rebuilds.
        """
        rise_rows: list[list] = []
        fall_rows: list[list] = []
        bwd_rows: list[list] = []
        rise_at, fall_at, bwd_at = [], [], []
        for name in sorted(self._dirty_insts):
            entry = self._inst_sig.get(name)
            inst = self.netlist.instances.get(name)
            if entry is None or inst is None or self._is_seq(inst) \
                    or self._skip(inst):
                return False
            signature = self._gather_instance(
                inst, self.node_index, self.inst_index, self.luts,
                rise_rows, fall_rows, bwd_rows)[0]
            if signature != entry[0]:
                return False
            rise_at.append(entry[1])
            fall_at.append(entry[2])
            bwd_at.append(entry[3])
        for stream, rows, at in ((self.rise, rise_rows, rise_at),
                                 (self.fall, fall_rows, fall_at)):
            at = np.concatenate(at)
            stream.dlut[at] = [row[4] for row in rows]
            stream.slut[at] = [row[5] for row in rows]
        at = np.concatenate(bwd_at)
        self.bwd.rlut[at] = [row[4] for row in bwd_rows]
        self.bwd.flut[at] = [row[5] for row in bwd_rows]
        self.patches += len(self._dirty_insts)
        return True

    # --- helpers --------------------------------------------------------

    def _constraint_value(self, cell, which: str) -> float:
        from repro.timing.sta import cell_constraint_value

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

    # --- (de)serialization for the on-disk lowering cache ---------------

    def export_state(self) -> dict:
        """All built arrays as a flat name->array dict (npz-ready)."""
        self.ensure()
        search1, interp1, search2, interp2, values = self.luts.arrays()
        state = {
            "node_names": _str_array(self.node_names),
            "inst_names": _str_array(self.inst_names),
            "comb_count": np.int64(self.comb_count),
            "loads": self.loads,
            "lut_count": np.int64(len(self.luts)),
            "lut_classes": self.luts.scale_classes(),
            "lut_search1": search1, "lut_interp1": interp1,
            "lut_search2": search2, "lut_interp2": interp2,
            "lut_values": values,
            "port_nodes": self.port_nodes,
            "port_delay": self.port_delay,
            "port_min": self.port_min,
            "ff_node": self.ff_node, "ff_inst": self.ff_inst,
            "ff_launch": self.ff_launch,
            "ff_cr": self.ff_cr, "ff_cf": self.ff_cf,
            "ff_rt": self.ff_rt, "ff_ft": self.ff_ft,
            "out_ep_names": _str_array(self.out_ep_names),
            "out_ep_node": self.out_ep_node,
            "out_ep_wire": self.out_ep_wire,
            "out_ep_delay": self.out_ep_delay,
            "ff_ep_names": _str_array(self.ff_ep_names),
            "ff_ep_node": self.ff_ep_node,
            "ff_ep_wire": self.ff_ep_wire,
            "ff_ep_setup": self.ff_ep_setup,
            "ff_ep_hold": self.ff_ep_hold,
            "ff_ep_clk": self.ff_ep_clk,
        }
        for tag, stream in (("rise", self.rise), ("fall", self.fall)):
            state[f"{tag}_out"] = stream.out
            state[f"{tag}_src"] = stream.src
            state[f"{tag}_inst"] = stream.inst
            state[f"{tag}_edge"] = stream.src_edge
            state[f"{tag}_dlut"] = stream.dlut
            state[f"{tag}_slut"] = stream.slut
            state[f"{tag}_wire"] = stream.wire
            state[f"{tag}_levels"] = _stream_levels(stream)
        state["bwd_out"] = self.bwd.out
        state["bwd_src"] = self.bwd.src
        state["bwd_inst"] = self.bwd.inst
        state["bwd_sense"] = self.bwd.sense
        state["bwd_rlut"] = self.bwd.rlut
        state["bwd_flut"] = self.bwd.flut
        state["bwd_wire"] = self.bwd.wire
        state["bwd_levels"] = _bwd_group_codes(self.bwd)
        return state

    @classmethod
    def from_state(cls, state, netlist, library, constraints, net_model,
                   clock_arrivals=None) -> "NetlistArrayView":
        """Rehydrate a view from :meth:`export_state` arrays.

        The loaded view serves kernels immediately (no lowering pass)
        and honors ``touch_net`` load refreshes; instance patches are
        refused (``_patch_instances`` reports False), so a variant swap
        falls back to a normal rebuild against the live netlist, traced
        with ``cause="patch_failed"``.
        """
        view = cls(netlist, library, constraints, net_model,
                   clock_arrivals)
        view.node_names = [str(s) for s in state["node_names"]]
        view.node_index = {n: i for i, n in enumerate(view.node_names)}
        view.inst_names = [str(s) for s in state["inst_names"]]
        view.inst_index = {n: i for i, n in enumerate(view.inst_names)}
        view.comb_count = int(state["comb_count"])
        view.loads = state["loads"]
        view.luts = LutStore.from_arrays(
            (state["lut_search1"], state["lut_interp1"],
             state["lut_search2"], state["lut_interp2"],
             state["lut_values"]),
            state["lut_classes"], int(state["lut_count"]))
        view.rise = _stream_from_state(state, "rise")
        view.fall = _stream_from_state(state, "fall")
        view.bwd = _bwd_from_state(state)
        view.port_nodes = state["port_nodes"]
        view.port_delay = state["port_delay"]
        view.port_min = state["port_min"]
        view.ff_node = state["ff_node"]
        view.ff_inst = state["ff_inst"]
        view.ff_launch = state["ff_launch"]
        view.ff_cr = state["ff_cr"]
        view.ff_cf = state["ff_cf"]
        view.ff_rt = state["ff_rt"]
        view.ff_ft = state["ff_ft"]
        view.out_ep_names = [str(s) for s in state["out_ep_names"]]
        view.out_ep_node = state["out_ep_node"]
        view.out_ep_wire = state["out_ep_wire"]
        view.out_ep_delay = state["out_ep_delay"]
        view.ff_ep_names = [str(s) for s in state["ff_ep_names"]]
        view.ff_ep_node = state["ff_ep_node"]
        view.ff_ep_wire = state["ff_ep_wire"]
        view.ff_ep_setup = state["ff_ep_setup"]
        view.ff_ep_hold = state["ff_ep_hold"]
        view.ff_ep_clk = state["ff_ep_clk"]
        view._inst_sig = {}
        view._built = True
        view._structural_dirty = False
        return view
