"""Slack-driven Vth assignment.

This is both the Dual-Vth baseline [Wei et al., CICC 2000] and — run
with MT-cells as the fast class — the replacement step of the
Selective-MT flow, which the paper performs "by the method which is
similar to the way of generating the Dual-Vth circuit".

Algorithm (deterministic, STA-in-the-loop):

1. every candidate starts as the *fast* variant; STA must pass;
2. candidates are sorted by output slack (most slack first);
3. a bisection finds the largest slack-ordered prefix that can be
   swapped to the *slow* variant while the worst slack stays >= 0
   (each probe is a real STA run, so path reconvergence is handled
   exactly, not estimated); a probe swaps only the difference between
   the previous probe's prefix and its own, so a failed probe is not
   reverted whole before the next one.  Only the first round opens
   with the optimistic all-candidates probe: a later round exists only
   because that probe failed, and its own all-candidates state makes
   exactly the first round's candidates slow again — the netlist that
   probe failed on — so a later round bisects below it;
4. the prefix is committed, slacks are refreshed, and the process
   repeats for a few rounds to pick up cells whose slack grew.

Only combinational cells are candidates: flip-flops keep the variant
technology mapping gave them.

Every swap goes through the session.  A bisection probe asks only
:meth:`~repro.timing.session.TimingSession.wns` (arrivals alone); the
per-round slack sort and the final result read a full ``report()``.
Each round runs in an ``assign.round`` span (``candidates``,
``committed``) and each probe in an ``assign.probe`` span inside it
(``trial``: the prefix size probed, ``passed``, and ``evaluated``: the
instances the session forward-evaluated for it).
"""

from __future__ import annotations

import dataclasses

from repro.errors import FlowError
from repro.liberty.library import VARIANT_HVT, VARIANT_LVT
from repro.netlist.core import Instance
from repro.obs.spans import span
from repro.timing.session import TimingSession
from repro.timing.sta import TimingReport


@dataclasses.dataclass
class AssignmentResult:
    """Outcome of one assignment run."""

    fast_variant: str
    slow_variant: str
    fast_instances: list[str]
    slow_instances: list[str]
    final_report: TimingReport
    sta_runs: int

    @property
    def fast_count(self) -> int:
        return len(self.fast_instances)

    @property
    def slow_count(self) -> int:
        return len(self.slow_instances)

    @property
    def fast_fraction(self) -> float:
        total = self.fast_count + self.slow_count
        return self.fast_count / total if total else 0.0


class DualVthAssigner:
    """Assigns fast/slow variants of the session's netlist under the
    session's timing constraint."""

    def __init__(self, session: TimingSession,
                 fast_variant: str = VARIANT_LVT,
                 slow_variant: str = VARIANT_HVT,
                 rounds: int = 4):
        self.session = session
        self.netlist = session.netlist
        self.library = session.library
        self.constraints = session.constraints
        self.fast_variant = fast_variant
        self.slow_variant = slow_variant
        self.rounds = rounds
        self._sta_runs = 0
        self._depth_cache: dict[str, int] | None = None

    # --- helpers -------------------------------------------------------------

    def _sta(self) -> TimingReport:
        self._sta_runs += 1
        return self.session.report()

    def _wns(self) -> float:
        self._sta_runs += 1
        return self.session.wns()

    def _candidates(self) -> list[Instance]:
        """Instances eligible for slow assignment (currently fast)."""
        result = []
        for inst in self.netlist.instances.values():
            if inst.cell_name not in self.library:
                continue
            cell = self.library.cell(inst.cell_name)
            if cell.is_sequential:
                continue
            if cell.variant != self.fast_variant:
                continue
            if not self.library.has_variant(cell, self.slow_variant):
                continue
            result.append(inst)
        return result

    def _depth_of(self, inst: Instance) -> int:
        """Topological depth, used to keep slow conversions contiguous.

        Converting cells in depth order groups the slow cells into
        contiguous runs along each path, which minimizes MT-to-powered
        boundaries (and therefore output holders) in the SMT flows —
        mirroring the runs of MT-cells Fig. 3 depicts.  Depths are a
        max over fan-in, so the session's order serves as any other.
        """
        if self._depth_cache is None:
            is_seq = lambda i: (i.cell_name in self.library
                                and self.library.cell(i.cell_name).is_sequential)
            depth: dict[str, int] = {}
            for node in self.session.topological_order():
                if is_seq(node):
                    depth[node.name] = 0
                    continue
                best = 0
                for pin in node.input_pins():
                    if pin.net is not None and pin.net.driver is not None:
                        source = pin.net.driver.instance
                        if not is_seq(source):
                            best = max(best, depth.get(source.name, 0))
                depth[node.name] = best + 1
            self._depth_cache = depth
        return self._depth_cache.get(inst.name, 0)

    def _slack_of(self, inst: Instance, report: TimingReport) -> float:
        # Unobserved (dangling) cones have infinite slack; clamp so the
        # value stays sortable.
        worst = 10.0 * self.constraints.clock_period
        for pin in inst.output_pins():
            if pin.net is not None:
                worst = min(worst, report.slack_of_net(pin.net.name))
        return worst

    def _swap(self, instances: list[Instance], variant: str):
        for inst in instances:
            self.session.swap_variant(inst, variant)

    # --- main -----------------------------------------------------------------

    def prepare(self):
        """Force every candidate cell to the fast variant."""
        for inst in self.netlist.instances.values():
            if inst.cell_name not in self.library:
                continue
            cell = self.library.cell(inst.cell_name)
            if cell.kind.value in ("switch", "holder") or cell.is_sequential:
                continue
            if cell.variant != self.fast_variant \
                    and self.library.has_variant(cell, self.fast_variant):
                self.session.swap_variant(inst, self.fast_variant)

    def run(self) -> AssignmentResult:
        self.prepare()
        report = self._sta()
        if not report.setup_met:
            raise FlowError(
                f"timing infeasible even with all-{self.fast_variant} "
                f"cells: WNS {report.wns:.4f} ns at period "
                f"{self.constraints.clock_period:.3f} ns")

        slack_bucket = max(self.constraints.clock_period * 0.01, 1e-6)
        for index in range(self.rounds):
            candidates = self._candidates()
            if not candidates:
                break
            with span("assign.round", candidates=len(candidates)) as sp:
                # Most slack first; depth breaks ties so conversions
                # form contiguous runs along paths (fewer holder
                # boundaries).
                candidates.sort(key=lambda inst: (
                    -round(self._slack_of(inst, report) / slack_bucket),
                    self._depth_of(inst)))
                committed = self._bisect_prefix(candidates,
                                                optimistic=index == 0)
                sp.set(committed=committed)
            if committed == 0:
                break
            report = self._sta()

        final_report = self._sta()
        fast = []
        slow = []
        for inst in self.netlist.instances.values():
            if inst.cell_name not in self.library:
                continue
            variant = self.library.cell(inst.cell_name).variant
            if variant == self.fast_variant:
                fast.append(inst.name)
            elif variant == self.slow_variant:
                slow.append(inst.name)
        return AssignmentResult(
            fast_variant=self.fast_variant,
            slow_variant=self.slow_variant,
            fast_instances=fast,
            slow_instances=slow,
            final_report=final_report,
            sta_runs=self._sta_runs)

    def _bisect_prefix(self, candidates: list[Instance],
                       optimistic: bool) -> int:
        """Largest slack-ordered prefix swappable without violation.

        Invariant: candidates[:low] are known-safe as slow, and no
        prefix longer than candidates[:high] is.  Each probe sees
        exactly candidates[:mid] slow; it gets there from the previous
        probe's candidates[:slow] by swapping only the difference, and
        the loop ends with candidates[:low] slow.  ``optimistic`` opens
        with the all-candidates probe; otherwise that prefix is known
        to fail (see the module docstring, step 3).
        """
        low = 0
        high = len(candidates) if optimistic else len(candidates) - 1
        slow = 0
        while low < high:
            # An optimistic first probe tries all candidates at once;
            # every other probe bisects the remaining range.
            mid = high if optimistic else (low + high + 1) // 2
            optimistic = False
            with span("assign.probe", trial=mid) as sp:
                evaluated = self.session.stats.forward_instances
                self._move_to(candidates, slow, mid)
                slow = mid
                passed = self._wns() >= 0.0
                sp.set(passed=passed, evaluated=self.session.stats
                       .forward_instances - evaluated)
            if passed:
                low = mid
            else:
                high = mid - 1
        self._move_to(candidates, slow, low)
        return low

    def _move_to(self, candidates: list[Instance], slow: int, target: int):
        """From candidates[:slow] slow to candidates[:target] slow."""
        if target > slow:
            self._swap(candidates[slow:target], self.slow_variant)
        else:
            self._swap(candidates[target:slow], self.fast_variant)
