"""Multi-corner signoff evaluation of a finished design.

The design is optimized once at the nominal point (the paper's flow);
signoff then re-evaluates the *final* netlist at each requested PVT
corner with a corner-derived library — the industry pattern Hillman
(arXiv:0710.4842) describes for power-management IP.  Per corner this
is one leakage pass plus one STA, so a full 27-corner sweep costs a
small multiple of the final-STA stage, not of the whole flow.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.obs.spans import span
from repro.power.leakage import LeakageAnalyzer, LeakageBreakdown
from repro.timing.constraints import Constraints
from repro.timing.sta import TimingAnalyzer
from repro.variation.corners import (
    PvtCorner,
    corner_scales,
    derive_corner_library,
    derive_corner_library_cached,
    leakage_class_is_high,
    resolve_corner,
)


@dataclasses.dataclass
class CornerResult:
    """Leakage / timing of the final design at one PVT corner."""

    corner: PvtCorner
    leakage_nw: float
    wns: float
    hold_wns: float
    delay_scale_low: float
    delay_scale_high: float
    leakage_scale_low: float
    leakage_scale_high: float
    leakage: LeakageBreakdown | None = None


def evaluate_corner(netlist: Netlist, library: Library, corner: PvtCorner,
                    constraints: Constraints,
                    parasitics: Mapping[str, object] | None = None,
                    network=None,
                    clock_arrivals: Mapping[str, float] | None = None,
                    keep_breakdown: bool = False,
                    compute_backend: str | None = None,
                    corner_library: Library | None = None) -> CornerResult:
    """One corner: derive the library, run leakage + STA on the design.

    Mirrors the flow's final STA setup (VGND-bounce derates, CTS clock
    arrivals), so the ``tt_nom`` corner reproduces the single-point
    result bit-identically.  ``compute_backend`` selects the numeric
    engine for both the STA and the leakage summation.  A pre-derived
    ``corner_library`` (e.g. from the
    :class:`~repro.api.Workspace` corner-library cache) skips the
    per-call derivation; results are identical either way because
    :func:`derive_corner_library` is a pure function.
    """
    with span("signoff.corner", corner=corner.name,
              instances=len(netlist.instances)):
        if corner_library is None:
            corner_library = derive_corner_library(library, corner)
        derates = None
        if network is not None:
            assumed = corner_library.mt_assumed_bounce_v
            if assumed is None:
                assumed = corner_library.tech.vdd * 0.04
            derates = network.derates(netlist, corner_library, assumed)
        report = TimingAnalyzer(netlist, corner_library, constraints,
                                parasitics=parasitics, derates=derates,
                                clock_arrivals=clock_arrivals,
                                compute_backend=compute_backend).run()
        breakdown = LeakageAnalyzer(
            netlist, corner_library,
            compute_backend=compute_backend).standby_leakage()
        scales = corner_scales(library.tech, corner)
    return CornerResult(
        corner=corner,
        leakage_nw=breakdown.total_nw,
        wns=report.wns,
        hold_wns=report.hold_wns,
        delay_scale_low=scales.delay_low,
        delay_scale_high=scales.delay_high,
        leakage_scale_low=scales.leakage_low,
        leakage_scale_high=scales.leakage_high,
        leakage=breakdown if keep_breakdown else None)


def evaluate_corners(netlist: Netlist, library: Library,
                     corner_names, constraints: Constraints,
                     parasitics: Mapping[str, object] | None = None,
                     network=None,
                     clock_arrivals: Mapping[str, float] | None = None,
                     compute_backend: str | None = None,
                     corner_libraries: Mapping[str, Library] | None = None
                     ) -> dict[str, CornerResult]:
    """Evaluate a list of corner names, preserving input order.

    ``corner_libraries`` optionally supplies pre-derived libraries by
    corner name (cache pass-through); missing names derive on the fly.
    """
    results: dict[str, CornerResult] = {}
    for name in corner_names:
        corner = resolve_corner(name, library.tech)
        derived = corner_libraries.get(name) if corner_libraries else None
        results[name] = evaluate_corner(
            netlist, library, corner, constraints, parasitics=parasitics,
            network=network, clock_arrivals=clock_arrivals,
            compute_backend=compute_backend, corner_library=derived)
    return results


def evaluate_corners_batched(netlist: Netlist, library: Library,
                             corner_names, constraints: Constraints,
                             parasitics: Mapping[str, object] | None = None,
                             network=None,
                             clock_arrivals: Mapping[str, float] | None = None,
                             compute_backend: str | None = None,
                             corner_libraries: Mapping[str, Library] | None = None
                             ) -> dict[str, CornerResult]:
    """Span-instrumented front door for :func:`_corners_batched_impl`.

    The sequential fallback's per-corner ``signoff.corner`` spans nest
    under this one, so a trace shows at a glance whether the grid ran
    as one array pass or as a scalar loop.
    """
    from repro.compute import resolve_backend

    names = list(corner_names)
    with span("signoff.corners_batched", corners=len(names),
              backend=resolve_backend(compute_backend)):
        return _corners_batched_impl(
            netlist, library, names, constraints, parasitics=parasitics,
            network=network, clock_arrivals=clock_arrivals,
            compute_backend=compute_backend,
            corner_libraries=corner_libraries)


def _corners_batched_impl(netlist: Netlist, library: Library,
                          corner_names, constraints: Constraints,
                          parasitics: Mapping[str, object] | None = None,
                          network=None,
                          clock_arrivals: Mapping[str, float] | None = None,
                          compute_backend: str | None = None,
                          corner_libraries: Mapping[str, Library] | None = None
                          ) -> dict[str, CornerResult]:
    """The whole corner grid in one array pass (numpy backend).

    Derived corner libraries differ from the nominal one only by
    per-Vth-class scale factors, so instead of lowering K libraries
    this lowers the *nominal* netlist once and evaluates a
    ``(corners x tables)`` LUT stack — per corner bit-identical to
    :func:`evaluate_corners`:

    * LUT values are scaled elementwise before interpolation, exactly
      like :meth:`Lut.scaled`, and the index grids are scale-invariant;
    * per-corner derates and endpoint setup/hold constraints are
      computed with the same scalar code on the derived libraries;
    * leakage totals sum the identical corner-scaled value array in
      the same index-sorted order.

    Off the numpy backend (or for a 0/1-corner grid) this simply
    delegates to the sequential loop.
    """
    from repro.compute import resolve_backend

    names = list(corner_names)
    backend = resolve_backend(compute_backend)
    if backend != "numpy" or len(names) <= 1:
        return evaluate_corners(
            netlist, library, names, constraints, parasitics=parasitics,
            network=network, clock_arrivals=clock_arrivals,
            compute_backend=compute_backend,
            corner_libraries=corner_libraries)
    try:
        import numpy as np

        from repro.compute.kernels import batched_wns
        from repro.compute.lowercache import cached_view
    except ImportError:  # pragma: no cover - backend resolution guards
        return evaluate_corners(
            netlist, library, names, constraints, parasitics=parasitics,
            network=network, clock_arrivals=clock_arrivals,
            compute_backend=compute_backend,
            corner_libraries=corner_libraries)

    from repro.timing.delay import NetModel
    from repro.timing.sta import cell_constraint_value

    corners = [resolve_corner(name, library.tech) for name in names]
    libs: list[Library] = []
    for name, corner in zip(names, corners):
        derived = corner_libraries.get(name) if corner_libraries else None
        if derived is None:
            derived = derive_corner_library_cached(library, corner)
        libs.append(derived)
    scales_list = [corner_scales(library.tech, corner)
                   for corner in corners]

    net_model = NetModel(netlist, library, constraints,
                         parasitics=parasitics)
    view = cached_view(netlist, library, constraints, net_model,
                       clock_arrivals=clock_arrivals)
    view.ensure()

    if network is not None:
        rows = []
        for lib_k in libs:
            assumed = lib_k.mt_assumed_bounce_v
            if assumed is None:
                assumed = lib_k.tech.vdd * 0.04
            rows.append(view.derate_vector(
                network.derates(netlist, lib_k, assumed)))
        derates = np.vstack(rows)
    else:
        derates = np.ones((len(names), len(view.inst_names)))

    lut_arrays = view.corner_stack(
        [[s.delay_low, s.delay_high] for s in scales_list])

    input_slew = constraints.input_slew
    ff_cells = [netlist.instances[name].cell_name
                for name in view.ff_ep_names]
    setup = np.empty((len(names), len(ff_cells)))
    hold = np.empty((len(names), len(ff_cells)))
    for k, lib_k in enumerate(libs):
        for j, cell_name in enumerate(ff_cells):
            cell = lib_k.cell(cell_name)
            setup[k, j] = cell_constraint_value(cell, "setup", input_slew)
            hold[k, j] = cell_constraint_value(cell, "hold", input_slew)

    wns, hold_wns = batched_wns(view, derates, lut_arrays=lut_arrays,
                                setup=setup, hold=hold)

    # Leakage: nominal per-instance defaults (index-sorted) times each
    # corner's per-class leakage factor, summed in the identical order
    # the sequential numpy path sums its corner-scaled values.
    inst_order = sorted(netlist.instances)
    nominal_nw = np.array(
        [library.cell(netlist.instances[name].cell_name).default_leakage_nw
         for name in inst_order], dtype=float)
    is_high = np.array(
        [leakage_class_is_high(
            library.cell(netlist.instances[name].cell_name))
         for name in inst_order], dtype=bool)

    results: dict[str, CornerResult] = {}
    for k, name in enumerate(names):
        scales = scales_list[k]
        leak_f = np.where(is_high, scales.leakage_high,
                          scales.leakage_low)
        leakage_nw = float((nominal_nw * leak_f).sum())
        results[name] = CornerResult(
            corner=corners[k],
            leakage_nw=leakage_nw,
            wns=float(wns[k]),
            hold_wns=float(hold_wns[k]),
            delay_scale_low=scales.delay_low,
            delay_scale_high=scales.delay_high,
            leakage_scale_low=scales.leakage_low,
            leakage_scale_high=scales.leakage_high)
    return results
