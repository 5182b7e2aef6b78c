"""Conventional Selective-MT construction (Fig. 2).

Every cell the timing optimizer keeps "fast" becomes a conventional
MT-cell (Fig. 1(a)): low-Vth logic with an *embedded* high-Vth switch
transistor and built-in output holder.  Each such cell carries its own
switch — the area and leakage overhead the improved technique halves —
and its MTE pin connects to the sleep signal.
"""

from __future__ import annotations

import dataclasses

from repro.liberty.library import VARIANT_CMT, VARIANT_HVT, VARIANT_MT
from repro.netlist.core import PinDirection
from repro.core.dual_vth import AssignmentResult, DualVthAssigner
from repro.timing.session import TimingSession


@dataclasses.dataclass
class ConventionalSmtResult:
    """Outcome of the conventional Selective-MT construction."""

    assignment: AssignmentResult
    mt_cell_names: list[str]

    @property
    def mt_count(self) -> int:
        return len(self.mt_cell_names)


class ConventionalSmtBuilder:
    """Builds a conventional Selective-MT circuit in place (the
    session's netlist), reporting every edit to the session."""

    def __init__(self, session: TimingSession):
        self.session = session
        self.netlist = session.netlist
        self.library = session.library

    def run(self) -> ConventionalSmtResult:
        # Assignment with the MT variant as the fast class: cells on
        # critical paths stay MT, everything else becomes high-Vth.
        # (MT timing tables already include the virtual-ground derate,
        # so the timing constraint holds for the final MT circuit.)
        assignment = DualVthAssigner(self.session, fast_variant=VARIANT_MT,
                                     slow_variant=VARIANT_HVT).run()

        # Ensure an MTE port exists.
        if "MTE" not in self.netlist.ports:
            self.netlist.add_input("MTE")
        mte_net = self.netlist.net("MTE")

        # Swap the fast set to conventional MT-cells and hook up MTE.
        mt_names = []
        for name in assignment.fast_instances:
            inst = self.netlist.instances[name]
            cell = self.library.cell(inst.cell_name)
            if not self.library.has_variant(cell, VARIANT_CMT):
                continue  # sequential cells stay powered
            self.session.swap_variant(inst, VARIANT_CMT)
            mte_pin = inst.pins.get("MTE")
            if mte_pin is not None and mte_pin.net is None:
                self.netlist.connect(inst, "MTE", mte_net,
                                     PinDirection.INPUT)
            mt_names.append(name)
        if mt_names:
            # New MTE sinks reshape the dependency graph and MTE loading.
            self.session.touch_structural()
            self.session.touch_net(mte_net)
        return ConventionalSmtResult(assignment=assignment,
                                     mt_cell_names=mt_names)
