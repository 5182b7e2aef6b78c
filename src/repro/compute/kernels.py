"""NumPy kernels over a :class:`~repro.compute.view.NetlistArrayView`.

Every kernel carries a leading **sample axis**: state arrays are
``(samples, nets)`` and derates are ``(samples, instances)``.  A
single-design propagation is the ``samples == 1`` special case; a
Monte-Carlo chunk passes the whole ``(samples x instances)`` derate
matrix and gets per-sample WNS back from one levelized sweep — the
"one array pass instead of k re-propagations" the compute backend
exists for.

Numerical contract: each kernel reproduces the scalar engine's
*per-element arithmetic exactly* — the same interpolation expressions,
the same operand order (``in_arr + wire + delay``), the same
strict-greater winner selection (first contribution attaining the
segment max, in the scalar engine's visit order).  The only permitted
divergence is reduction tree shape in sums, which the 1e-9 relative
equivalence contract absorbs.
"""

from __future__ import annotations

import numpy as np

from repro.compute.view import NetlistArrayView
from repro.obs.spans import span

NEG_INF = -np.inf


def lut_lookup(lut_arrays, ids, x1, x2):
    """Vectorized :meth:`repro.liberty.library.Lut.lookup`.

    ``ids`` are :class:`~repro.compute.view.LutStore` ids (-1 means "no
    table": the scalar engine's 0.0).  ``x1``/``x2`` broadcast against
    ``ids`` — typically ``ids`` is per-contribution and ``x1`` carries
    a leading batch axis.

    ``values`` may be 4-D ``(batch, tables, d1, d2)`` — the
    corner-stacked path of
    :meth:`~repro.compute.view.NetlistArrayView.corner_stack`.  The
    leading axis then aligns with the kernels' batch (sample) axis:
    batch row ``k`` is interpolated from table stack ``k``.  The
    search/interp axes stay 2-D because corner scaling never moves the
    index grids.
    """
    search1, interp1, search2, interp2, values = lut_arrays
    ids = np.asarray(ids)
    safe = np.where(ids < 0, 0, ids)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)

    i1 = np.sum(x1[..., None] > search1[safe][..., 1:], axis=-1)
    lo1 = interp1[safe, i1]
    span1 = interp1[safe, i1 + 1] - lo1
    f1 = np.where(span1 > 0.0,
                  (x1 - lo1) / np.where(span1 > 0.0, span1, 1.0), 0.0)

    j1 = np.sum(x2[..., None] > search2[safe][..., 1:], axis=-1)
    lo2 = interp2[safe, j1]
    span2 = interp2[safe, j1 + 1] - lo2
    f2 = np.where(span2 > 0.0,
                  (x2 - lo2) / np.where(span2 > 0.0, span2, 1.0), 0.0)

    if values.ndim == 4:
        b = np.arange(values.shape[0])[:, None]
        v00 = values[b, safe, i1, j1]
        v01 = values[b, safe, i1, j1 + 1]
        v10 = values[b, safe, i1 + 1, j1]
        v11 = values[b, safe, i1 + 1, j1 + 1]
    else:
        v00 = values[safe, i1, j1]
        v01 = values[safe, i1, j1 + 1]
        v10 = values[safe, i1 + 1, j1]
        v11 = values[safe, i1 + 1, j1 + 1]
    top = v00 + f2 * (v01 - v00)
    bottom = v10 + f2 * (v11 - v10)
    result = top + f1 * (bottom - top)
    return np.where(ids < 0, 0.0, result)


class ForwardState:
    """Arrival-side node arrays, shape (samples, nets)."""

    __slots__ = ("arr_rise", "arr_fall", "min_rise", "min_fall",
                 "slew_rise", "slew_fall")

    def __init__(self, samples: int, nets: int):
        shape = (samples, nets)
        self.arr_rise = np.full(shape, NEG_INF)
        self.arr_fall = np.full(shape, NEG_INF)
        self.min_rise = np.full(shape, np.inf)
        self.min_fall = np.full(shape, np.inf)
        self.slew_rise = np.zeros(shape)
        self.slew_fall = np.zeros(shape)


def forward(view: NetlistArrayView, derates: np.ndarray,
            lut_arrays=None) -> ForwardState:
    """Levelized arrival/slew/min-arrival propagation.

    ``derates``: (batch, instances).  Startpoints are seeded exactly
    like the scalar engine (input ports, FF CK->Q arcs), then each
    topological level is one vectorized pass per edge stream.  The
    batch axis carries Monte-Carlo samples or PVT corners alike; a
    ``lut_arrays`` override (e.g. a
    :meth:`~repro.compute.view.NetlistArrayView.corner_stack`) swaps
    in per-batch table stacks.
    """
    state = ForwardState(derates.shape[0], len(view.node_names))
    if lut_arrays is None:
        lut_arrays = view.luts.arrays()
    constraints = view.constraints

    if len(view.port_nodes):
        idx = view.port_nodes
        state.arr_rise[:, idx] = view.port_delay
        state.arr_fall[:, idx] = view.port_delay
        state.min_rise[:, idx] = view.port_min
        state.min_fall[:, idx] = view.port_min
        state.slew_rise[:, idx] = constraints.input_slew
        state.slew_fall[:, idx] = constraints.input_slew

    if len(view.ff_node):
        idx = view.ff_node
        clk_slew = np.full(len(idx), constraints.input_slew)
        load = view.loads[idx]
        rise = lut_lookup(lut_arrays, view.ff_cr, clk_slew, load)
        fall = lut_lookup(lut_arrays, view.ff_cf, clk_slew, load)
        der = derates[:, view.ff_inst]
        arr_rise = view.ff_launch + rise * der
        arr_fall = view.ff_launch + fall * der
        state.arr_rise[:, idx] = arr_rise
        state.arr_fall[:, idx] = arr_fall
        state.min_rise[:, idx] = arr_rise
        state.min_fall[:, idx] = arr_fall
        state.slew_rise[:, idx] = lut_lookup(
            lut_arrays, view.ff_rt, clk_slew, load)
        state.slew_fall[:, idx] = lut_lookup(
            lut_arrays, view.ff_ft, clk_slew, load)

    rise_by = {info[0]: info for info in view.rise.levels}
    fall_by = {info[0]: info for info in view.fall.levels}
    passes = (
        (view.rise, rise_by, state.arr_rise, state.min_rise,
         state.slew_rise),
        (view.fall, fall_by, state.arr_fall, state.min_fall,
         state.slew_fall),
    )
    for level in sorted(set(rise_by) | set(fall_by)):
        for stream, by_level, arr_x, min_x, slw_x in passes:
            info = by_level.get(level)
            if info is None:
                continue
            _, start, stop, seg_starts, seg_out = info
            src = stream.src[start:stop]
            edge = stream.src_edge[start:stop]
            rise_sel = edge == 0
            in_arr = np.where(rise_sel, state.arr_rise[:, src],
                              state.arr_fall[:, src])
            in_min = np.where(rise_sel, state.min_rise[:, src],
                              state.min_fall[:, src])
            in_slew = np.where(rise_sel, state.slew_rise[:, src],
                               state.slew_fall[:, src])
            load = view.loads[stream.out[start:stop]]
            delay = lut_lookup(lut_arrays, stream.dlut[start:stop],
                               in_slew, load) \
                * derates[:, stream.inst[start:stop]]
            wire = stream.wire[start:stop]
            arrival = in_arr + wire + delay
            minimum = in_min + wire + delay
            out_slew = lut_lookup(lut_arrays, stream.slut[start:stop],
                                  in_slew, load)

            count = stop - start
            sizes = np.diff(np.append(seg_starts, count))
            seg_max = np.maximum.reduceat(arrival, seg_starts, axis=-1)
            seg_min = np.minimum.reduceat(minimum, seg_starts, axis=-1)
            # First contribution attaining the max = the scalar
            # engine's strict-greater winner.
            local = np.arange(count)
            at_max = arrival == np.repeat(seg_max, sizes, axis=-1)
            first = np.minimum.reduceat(
                np.where(at_max, local, count), seg_starts, axis=-1)
            first = np.minimum(first, count - 1)
            win_slew = np.take_along_axis(out_slew, first, axis=-1)
            updated = seg_max > NEG_INF

            arr_x[:, seg_out] = seg_max
            min_x[:, seg_out] = seg_min
            slw_x[:, seg_out] = np.where(updated, win_slew, 0.0)
    return state


def setup_slacks(view: NetlistArrayView, fwd: ForwardState,
                 setup=None) -> np.ndarray:
    """Per-batch setup-check slacks, in the scalar check order
    (output ports first, then flip-flop D setups).

    ``setup`` optionally overrides the view's nominal ``ff_ep_setup``
    vector — e.g. a ``(corners, ffs)`` matrix of corner-scaled setup
    constraints, broadcast against the batch axis.
    """
    samples = fwd.arr_rise.shape[0]
    period = view.constraints.clock_period
    parts = []
    if len(view.out_ep_node):
        idx = view.out_ep_node
        arrival = np.maximum(fwd.arr_rise[:, idx],
                             fwd.arr_fall[:, idx]) + view.out_ep_wire
        required = period - view.out_ep_delay - view.out_ep_wire
        part = required + view.out_ep_wire - arrival
        parts.append(np.broadcast_to(part, (samples, part.shape[-1])))
    if len(view.ff_ep_node):
        idx = view.ff_ep_node
        arrival = np.maximum(fwd.arr_rise[:, idx],
                             fwd.arr_fall[:, idx]) + view.ff_ep_wire
        capture = period + view.ff_ep_clk
        setup_v = view.ff_ep_setup if setup is None else setup
        part = capture - setup_v - arrival
        parts.append(np.broadcast_to(part, (samples, part.shape[-1])))
    if not parts:
        return np.full((samples, 0), np.inf)
    return np.concatenate(parts, axis=-1)


def hold_slacks(view: NetlistArrayView, fwd: ForwardState,
                hold=None) -> np.ndarray:
    """Per-batch hold-check slacks (flip-flop D holds, scalar order).

    Reproduces the scalar hold check digit for digit:
    ``min_arrival + wire - (clk_arrival + hold)``.  ``hold`` overrides
    the nominal per-FF hold constraints like ``setup`` above.
    """
    samples = fwd.arr_rise.shape[0]
    if not len(view.ff_ep_node):
        return np.full((samples, 0), np.inf)
    idx = view.ff_ep_node
    min_arrival = np.minimum(fwd.min_rise[:, idx],
                             fwd.min_fall[:, idx]) + view.ff_ep_wire
    hold_v = view.ff_ep_hold if hold is None else hold
    hold_required = view.ff_ep_clk + hold_v
    part = min_arrival - hold_required
    return np.broadcast_to(part, (samples, part.shape[-1]))


def setup_wns(view: NetlistArrayView, derates: np.ndarray) -> np.ndarray:
    """Per-sample worst setup slack from one batched forward pass."""
    with span("compute.setup_wns",
              batch=int(derates.shape[0]), nodes=len(view.node_names)):
        fwd = forward(view, derates)
        slacks = setup_slacks(view, fwd)
        if slacks.shape[-1] == 0:
            return np.full(derates.shape[0], np.inf)
        return slacks.min(axis=-1)


def batched_wns(view: NetlistArrayView, derates: np.ndarray,
                lut_arrays=None, setup=None, hold=None):
    """(setup WNS, hold WNS) per batch row from one forward pass.

    Backbone of the corner-batched signoff: ``derates`` carries one
    row per corner, ``lut_arrays`` the corner stack, and
    ``setup``/``hold`` the per-corner endpoint constraints.  The
    reductions mirror :meth:`TimingSession._summarize` (min over the
    scalar check list, +inf when a kind has no checks).
    """
    with span("compute.batched_wns", batch=int(derates.shape[0]),
              corner_luts=lut_arrays is not None,
              nodes=len(view.node_names)):
        fwd = forward(view, derates, lut_arrays=lut_arrays)
        samples = derates.shape[0]
        slacks = setup_slacks(view, fwd, setup=setup)
        wns = slacks.min(axis=-1) if slacks.shape[-1] \
            else np.full(samples, np.inf)
        holds = hold_slacks(view, fwd, hold=hold)
        hold_wns = holds.min(axis=-1) if holds.shape[-1] \
            else np.full(samples, np.inf)
        return wns, hold_wns


# --- leakage kernels --------------------------------------------------------


def category_sums(values, categories, n_categories: int) -> np.ndarray:
    """Per-category totals of index-sorted per-instance leakage values."""
    values = np.asarray(values, dtype=float)
    categories = np.asarray(categories, dtype=np.int64)
    if len(values) == 0:
        return np.zeros(n_categories)
    return np.bincount(categories, weights=values,
                       minlength=n_categories)


def local_leakage_factors(dvth: np.ndarray, swing_v: float) -> np.ndarray:
    """Vectorized :func:`repro.variation.scaling.local_leakage_factor`."""
    return np.exp(-dvth / swing_v)


def local_delay_factors(dvth: np.ndarray, vth_nominal: np.ndarray,
                        vdd: float, alpha: float,
                        floor: float) -> np.ndarray:
    """Vectorized :func:`repro.variation.scaling.local_delay_factor`."""
    od_nom = np.maximum(vdd - vth_nominal, floor)
    od = np.maximum(vdd - (vth_nominal + dvth), floor)
    return (od_nom / od) ** alpha
