"""Standby leakage analysis.

The quantity Table 1 reports is **standby** leakage: the sleep signal
MTE is low, clocks are gated, and the design holds state.  In that mode:

* LVT / HVT cells (including flip-flops) leak through their own logic
  stacks — state-dependent when an input state is known;
* improved MT-cells (``MT``/``MTV``) are cut off by their cluster's
  switch; the cell itself contributes only a small residual, and the
  *switch* contributes its subthreshold leakage once per cluster;
* conventional MT-cells leak through their embedded per-cell switch
  (plus embedded holder), which is the conventional technique's floor;
* output holders and MTE buffers are always powered and leak normally.

:class:`LeakageAnalyzer` also reports *active* leakage (everything
powered, MT logic leaking like LVT) for completeness.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.liberty.library import CellKind, Library, VARIANT_LVT
from repro.netlist.core import Netlist
from repro.sim.logic import FLOATING, Simulator


@dataclasses.dataclass
class LeakageBreakdown:
    """Standby leakage totals, by contribution class (nW)."""

    total_nw: float = 0.0
    lvt_logic_nw: float = 0.0
    hvt_logic_nw: float = 0.0
    sequential_nw: float = 0.0
    mt_residual_nw: float = 0.0
    conventional_mt_nw: float = 0.0
    switch_nw: float = 0.0
    holder_nw: float = 0.0
    instance_count: int = 0
    per_instance: dict[str, float] = dataclasses.field(default_factory=dict)

    def add(self, category: str, instance: str, value: float):
        setattr(self, category, getattr(self, category) + value)
        self.total_nw += value
        self.instance_count += 1
        self.per_instance[instance] = value

    #: The contribution categories, in report order.
    CATEGORIES = ("lvt_logic_nw", "hvt_logic_nw", "sequential_nw",
                  "mt_residual_nw", "conventional_mt_nw", "switch_nw",
                  "holder_nw")

    def category_values(self) -> dict[str, float]:
        return {category: getattr(self, category)
                for category in self.CATEGORIES}

    def shares_pct(self) -> dict[str, float]:
        """Percentage-of-total per category (zeros when total is zero)."""
        total = self.total_nw
        return {category: (100.0 * value / total if total else 0.0)
                for category, value in self.category_values().items()}


class LeakageAnalyzer:
    """Computes standby / active leakage for one netlist.

    Totals are accumulated in **stable index-sorted order** (instances
    sorted by name) on both compute backends, so the floating-point
    accumulation order — and therefore the reported totals, digit for
    digit — is independent of netlist construction order.  The
    ``numpy`` backend replaces the scalar per-category accumulation
    with one array summation pass over the same sorted values.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 compute_backend: str | None = None):
        from repro.compute import resolve_backend

        self.netlist = netlist
        self.library = library
        self.compute_backend = resolve_backend(compute_backend)

    # --- standby ------------------------------------------------------------

    def standby_leakage(
            self,
            input_vector: Mapping[str, int] | None = None,
            state: Mapping[str, int] | None = None) -> LeakageBreakdown:
        """Standby leakage breakdown.

        With an ``input_vector`` the design is simulated in standby mode
        and powered cells use state-dependent leakage; otherwise every
        cell contributes its state-averaged default.
        """
        net_values = None
        if input_vector is not None:
            sim = Simulator(self.netlist, self.library)
            result = sim.evaluate(input_vector, state, standby=True)
            net_values = result.net_values

        entries = [(name, *self._classify(self.netlist.instances[name],
                                          net_values))
                   for name in sorted(self.netlist.instances)]
        if self.compute_backend == "numpy":
            return self._summed_numpy(entries)
        breakdown = LeakageBreakdown()
        for name, category, value in entries:
            breakdown.add(category, name, value)
        return breakdown

    def _classify(self, inst, net_values) -> tuple[str, float]:
        """(category, value) of one instance's standby contribution."""
        cell = self.library.cell(inst.cell_name)
        if cell.kind == CellKind.SWITCH:
            return "switch_nw", cell.default_leakage_nw
        if cell.kind == CellKind.HOLDER:
            return "holder_nw", cell.default_leakage_nw
        if cell.is_conventional_mt:
            return "conventional_mt_nw", cell.default_leakage_nw
        if cell.is_improved_mt:
            return "mt_residual_nw", cell.default_leakage_nw
        if cell.is_sequential:
            return "sequential_nw", self._powered_leakage(
                inst, cell, net_values)
        if cell.vth_class.value == "high":
            return "hvt_logic_nw", self._powered_leakage(
                inst, cell, net_values)
        return "lvt_logic_nw", self._powered_leakage(inst, cell, net_values)

    def _summed_numpy(self, entries) -> LeakageBreakdown:
        """Array-summed breakdown over the index-sorted entries."""
        import numpy as np

        from repro.compute.kernels import category_sums

        categories = LeakageBreakdown.CATEGORIES
        category_index = {name: i for i, name in enumerate(categories)}
        values = np.array([value for _n, _c, value in entries], dtype=float)
        codes = [category_index[category] for _n, category, _v in entries]
        sums = category_sums(values, codes, len(categories))
        breakdown = LeakageBreakdown()
        for category, total in zip(categories, sums.tolist()):
            setattr(breakdown, category, total)
        breakdown.total_nw = float(values.sum())
        breakdown.instance_count = len(entries)
        breakdown.per_instance = {name: value
                                  for name, _c, value in entries}
        return breakdown

    def _powered_leakage(self, inst, cell, net_values) -> float:
        """Leakage of a powered cell, state-dependent if values known."""
        if net_values is None or not cell.leakage_states:
            return cell.default_leakage_nw
        env = {}
        for pin in inst.input_pins():
            if pin.net is None:
                return cell.default_leakage_nw
            value = net_values.get(pin.net.name)
            if value in (0, 1):
                env[pin.name] = value
            elif value == FLOATING:
                # Floating input on a powered gate: worst-case leakage
                # (this is the hazard output holders prevent).
                return cell.worst_leakage_nw()
            else:
                return cell.default_leakage_nw
        return cell.leakage_nw(env)

    # --- active --------------------------------------------------------------

    def active_leakage(self) -> float:
        """Total leakage with the design awake (MTE high), in nW.

        MT variants leak like their LVT siblings because the switch
        connects their virtual ground; switches themselves are on
        (negligible subthreshold); holders are inert but still powered.
        Accumulated in the same stable index-sorted order as the
        standby breakdown.
        """
        total = 0.0
        for name in sorted(self.netlist.instances):
            inst = self.netlist.instances[name]
            cell = self.library.cell(inst.cell_name)
            if cell.kind == CellKind.SWITCH:
                continue  # conducting, no subthreshold contribution
            if cell.is_mt:
                lvt = self.library.variant_of(cell, VARIANT_LVT)
                total += lvt.default_leakage_nw
            else:
                total += cell.default_leakage_nw
        return total

    # --- convenience -----------------------------------------------------------

    def total_area(self) -> float:
        """Total placed cell area in um^2."""
        return sum(self.library.cell(inst.cell_name).area
                   for inst in self.netlist.instances.values())
