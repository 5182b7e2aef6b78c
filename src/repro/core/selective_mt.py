"""Conventional Selective-MT construction (Fig. 2).

Every cell the timing optimizer keeps "fast" becomes a conventional
MT-cell (Fig. 1(a)): low-Vth logic with an *embedded* high-Vth switch
transistor and built-in output holder.  Each such cell carries its own
switch — the area and leakage overhead the improved technique halves —
and its MTE pin connects to the sleep signal.

Both Selective-MT techniques start from the same MT assignment
(:func:`assign_mt`), which Fig. 4 draws as one replacement box; the
conventional technique then converts its fast set to embedded-switch
cells (:meth:`ConventionalSmtBuilder.convert`).
"""

from __future__ import annotations

import dataclasses

from repro.liberty.library import (
    Library,
    VARIANT_CMT,
    VARIANT_HVT,
    VARIANT_MT,
)
from repro.netlist.core import Netlist, PinDirection
from repro.netlist.transform import swap_variant
from repro.core.dual_vth import AssignmentResult, DualVthAssigner
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession


def assign_mt(session: TimingSession) -> AssignmentResult:
    """Vth assignment with MT-cells (without VGND ports) as the fast
    class: cells on critical paths stay MT, everything else becomes
    high-Vth.

    MT timing tables already include the virtual-ground derate, so the
    timing constraint holds for the final MT circuit of either
    Selective-MT technique.
    """
    return DualVthAssigner(session, fast_variant=VARIANT_MT,
                           slow_variant=VARIANT_HVT).run()


@dataclasses.dataclass
class ConventionalSmtResult:
    """Outcome of the conventional Selective-MT construction."""

    assignment: AssignmentResult
    mt_cell_names: list[str]

    @property
    def mt_count(self) -> int:
        return len(self.mt_cell_names)


class ConventionalSmtBuilder:
    """Builds a conventional Selective-MT circuit in place on
    ``netlist``."""

    def __init__(self, netlist: Netlist, library: Library):
        self.netlist = netlist
        self.library = library

    def convert(self, assignment: AssignmentResult) -> ConventionalSmtResult:
        """Swap the MT assignment's fast set to conventional MT-cells and
        hook up MTE.

        Runs after the assignment's last timing probe, so it edits the
        netlist directly.
        """
        # Ensure an MTE port exists.
        if "MTE" not in self.netlist.ports:
            self.netlist.add_input("MTE")
        mte_net = self.netlist.net("MTE")

        mt_names = []
        for name in assignment.fast_instances:
            inst = self.netlist.instances[name]
            cell = self.library.cell(inst.cell_name)
            if not self.library.has_variant(cell, VARIANT_CMT):
                continue  # sequential cells stay powered
            swap_variant(self.netlist, inst, self.library, VARIANT_CMT)
            mte_pin = inst.pins.get("MTE")
            if mte_pin is not None and mte_pin.net is None:
                self.netlist.connect(inst, "MTE", mte_net,
                                     PinDirection.INPUT)
            mt_names.append(name)
        return ConventionalSmtResult(assignment=assignment,
                                     mt_cell_names=mt_names)

    def run(self, constraints: Constraints) -> ConventionalSmtResult:
        """The MT assignment under ``constraints``, then :meth:`convert`."""
        session = TimingSession(self.netlist, self.library, constraints)
        return self.convert(assign_mt(session))
