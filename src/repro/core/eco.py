"""Engineering-change-order (ECO) timing fixes.

The last Fig. 4 box: "ECO and timing analysis are performed for fixing
the hold violation and for verification".

* :class:`HoldFixer` — hold violations (early paths after CTS skew)
  are fixed with small high-Vth delay buffers before the violating
  flip-flop D pins.
* :class:`SetupFixer` — residual setup violations (post-route wire
  growth beyond the assignment guardband, e.g. the conventional SMT
  netlist bloating the die) are fixed by swapping slow-variant cells
  on violating paths back to the technique's fast class, via a
  technique-specific ``fast_swap`` callback supplied by the flow.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.liberty.library import VthClass
from repro.netlist.core import Instance
from repro.timing.paths import extract_path
from repro.timing.session import TimingSession
from repro.timing.sta import TimingReport

#: Setup-repair passes before the fixer gives up.
SETUP_MAX_PASSES = 16
#: Worst violating endpoints whose paths one setup pass repairs.
SETUP_ENDPOINTS_PER_PASS = 16


@dataclasses.dataclass
class EcoResult:
    """Outcome of the hold-fix ECO."""

    buffers_added: list[str]
    passes: int
    final_report: TimingReport

    @property
    def buffer_count(self) -> int:
        return len(self.buffers_added)


class HoldFixer:
    """Fixes hold violations by delay-buffer insertion.

    Buffers are inserted through the session, so each pass
    re-propagates only the padded cones.
    """

    def __init__(self, session: TimingSession,
                 buffer_cell: str = "BUF_X1_HVT",
                 max_passes: int = 3):
        self.session = session
        self.netlist = session.netlist
        self.library = session.library
        self.buffer_cell = buffer_cell
        self.max_passes = max_passes

    def _buffer_delay_estimate(self) -> float:
        """Nominal delay of one padding buffer (ns)."""
        cell = self.library.cell(self.buffer_cell)
        arc = cell.single_output().arc_from("A")
        if arc is None:
            return 0.02
        rise, fall = arc.delay(0.02, cell.single_output().capacitance
                               if cell.single_output().capacitance
                               else 0.002)
        return max(min(rise, fall), 1e-3)

    def run(self) -> EcoResult:
        buffers: list[str] = []
        passes = 0
        report = self.session.report()
        unit_delay = self._buffer_delay_estimate()
        while not report.hold_met and passes < self.max_passes:
            passes += 1
            fixed_any = False
            for check in report.endpoint_checks:
                if check.kind != "hold" or check.slack >= 0.0:
                    continue
                inst_name, pin_name = check.endpoint.split("/", 1)
                inst = self.netlist.instances.get(inst_name)
                if inst is None:
                    continue
                pin = inst.pins.get(pin_name)
                if pin is None or pin.net is None:
                    continue
                # Insert enough buffers in a chain to close the window.
                needed = min(int(-check.slack / unit_delay) + 1, 20)
                for _ in range(needed):
                    buffer_inst = self.session.insert_buffer(
                        pin.net, self.buffer_cell, sinks=[pin],
                        name_prefix="holdfix")
                    buffers.append(buffer_inst.name)
                fixed_any = True
            if not fixed_any:
                break
            report = self.session.report()
        return EcoResult(buffers_added=buffers, passes=passes,
                         final_report=report)


@dataclasses.dataclass
class SetupEcoResult:
    """Outcome of the setup-repair ECO."""

    swapped: list[str]
    passes: int
    final_report: TimingReport

    @property
    def swap_count(self) -> int:
        return len(self.swapped)


class SetupFixer:
    """Fixes setup violations by re-accelerating cells on bad paths.

    ``fast_swap(instance) -> bool`` performs the technique-specific
    swap (HVT -> LVT for Dual-Vth, HVT -> CMT for conventional SMT,
    HVT -> MTV + cluster join for improved SMT) and returns whether it
    changed the instance.  The callback edits the netlist itself, so it
    must report every edit to the session (swap through it, touch the
    nets it reloads).
    """

    def __init__(self, session: TimingSession,
                 fast_swap: Callable[[Instance], bool]):
        self.session = session
        self.netlist = session.netlist
        self.library = session.library
        self.fast_swap = fast_swap

    def run(self) -> SetupEcoResult:
        swapped: list[str] = []
        passes = 0
        report = self.session.report()
        while report.wns < 0.0 and passes < SETUP_MAX_PASSES:
            passes += 1
            changed = self._repair_pass(report, swapped)
            if not changed:
                break
            report = self.session.report()
        return SetupEcoResult(swapped=swapped, passes=passes,
                              final_report=report)

    def _repair_pass(self, report: TimingReport,
                     swapped: list[str]) -> bool:
        violating = sorted(
            (c for c in report.endpoint_checks
             if c.kind in ("setup", "output") and c.slack < 0.0),
            key=lambda c: c.slack)
        changed = False
        seen: set[str] = set()
        for check in violating[:SETUP_ENDPOINTS_PER_PASS]:
            path = extract_path(self.netlist, report, check.endpoint)
            if path is None or not path.instances():
                continue
            # Swap only about as many cells as the violation needs: a
            # fast swap recovers roughly a quarter of one stage delay.
            stage_delay = max(check.arrival / max(len(path.steps), 1), 1e-6)
            budget = int(-check.slack / (0.25 * stage_delay)) + 1
            # Start from the endpoint backwards — the tail of the path
            # is most likely shared across the violating endpoints.
            for inst_name in reversed(path.instances()):
                if budget <= 0:
                    break
                if inst_name in seen:
                    continue
                seen.add(inst_name)
                inst = self.netlist.instances.get(inst_name)
                if inst is None or inst.cell_name not in self.library:
                    continue
                cell = self.library.cell(inst.cell_name)
                if cell.vth_class != VthClass.HIGH or cell.is_sequential:
                    continue
                if self.fast_swap(inst):
                    swapped.append(inst_name)
                    changed = True
                    budget -= 1
        return changed
