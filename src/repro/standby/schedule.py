"""Staged wake-up scheduling under a rush-current budget.

Enabling every cluster's MTE simultaneously dumps the sum of all
per-cluster rush currents into the ground grid at once — a di/dt and
electromigration hazard.  Enabling them one at a time (the serial
daisy-chain) is safe but slow.  The :class:`RushScheduler` finds the
middle ground deterministically:

1. **Greedy binning** (first-fit decreasing on peak rush current):
   clusters are packed into bins whose summed peaks fit the budget, so
   everything inside one bin may switch simultaneously.
2. **Bin ordering**: bins fire in descending order of their longest
   member settle latency, so the slowest-settling clusters start
   earliest (the makespan heuristic).
3. **Earliest feasible start**: each bin fires at the earliest instant
   at which the *residual* rush of everything already enabled — each
   cluster's exponentially decaying current, treated as zero once that
   cluster has settled — plus the bin's own peak fits the budget.  The
   residual is monotonically non-increasing, so the instant is found
   by deterministic bisection.

Because every bin could at worst wait for all previous clusters to
fully settle, the scheduled makespan is **never worse than the serial
daisy-chain** (the sum of all wake latencies) — an invariant the test
suite checks on every golden circuit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

from repro.errors import StandbyError
from repro.standby.transient import ClusterTransient

#: Bisection iterations for the earliest-feasible-start search (fixed
#: count => bit-deterministic schedules).
_BISECT_STEPS = 64

#: Default budget: this fraction of the all-at-once rush, floored at
#: the largest single-cluster peak (below which no schedule exists).
DEFAULT_BUDGET_FRACTION = 0.5


@dataclasses.dataclass(frozen=True)
class WakeupEvent:
    """One cluster's scheduled MTE enable."""

    cluster_index: int
    bin_index: int
    enable_ns: float
    settle_ns: float       # enable + the cluster's wake latency
    peak_rush_ma: float


@dataclasses.dataclass(frozen=True)
class WakeupSchedule:
    """The staged wake-up plan for one VGND network."""

    budget_ma: float
    events: tuple[WakeupEvent, ...]    # enable-time order
    bins: int
    total_latency_ns: float            # last settle
    serial_latency_ns: float           # daisy-chain reference
    peak_aggregate_ma: float           # worst instantaneous rush


def default_rush_budget_ma(
        transients: Sequence[ClusterTransient],
        fraction: float = DEFAULT_BUDGET_FRACTION) -> float:
    """The di/dt budget used when the designer does not set one.

    Half (by default) of the simultaneous-enable rush, floored at the
    largest single-cluster peak so a schedule always exists.
    """
    if not transients:
        return 0.0
    total = 0.0
    worst = 0.0
    for transient in transients:
        total += transient.peak_rush_ma
        worst = max(worst, transient.peak_rush_ma)
    return max(worst, fraction * total)


def _decayed_ma(event: WakeupEvent, tau_ns: float, t_ns: float) -> float:
    """Residual rush of one enabled cluster at time ``t``.

    Zero before its enable and after its settle (a settled cluster
    draws only residual leakage, which the budget does not count).
    """
    if t_ns < event.enable_ns or t_ns >= event.settle_ns:
        return 0.0
    if tau_ns <= 0.0:
        return 0.0
    return event.peak_rush_ma * math.exp(
        -(t_ns - event.enable_ns) / tau_ns)


def aggregate_rush_ma(transients: Iterable[ClusterTransient],
                      schedule: WakeupSchedule, t_ns: float) -> float:
    """Total instantaneous rush current of a schedule at time ``t``."""
    taus = {tr.cluster_index: tr.tau_wake_ns for tr in transients}
    return sum(_decayed_ma(event, taus[event.cluster_index], t_ns)
               for event in schedule.events)


class RushScheduler:
    """Builds the staged wake-up schedule for a set of transients."""

    def __init__(self, transients: Sequence[ClusterTransient],
                 budget_ma: float | None = None):
        self.transients = list(transients)
        self.budget_ma = default_rush_budget_ma(self.transients) \
            if budget_ma is None else float(budget_ma)
        if self.budget_ma < 0.0:
            raise StandbyError(
                f"rush budget must be non-negative, got {budget_ma!r}")

    # --- public -------------------------------------------------------------

    def schedule(self) -> WakeupSchedule:
        if not self.transients:
            return WakeupSchedule(budget_ma=self.budget_ma, events=(),
                                  bins=0, total_latency_ns=0.0,
                                  serial_latency_ns=0.0,
                                  peak_aggregate_ma=0.0)
        over = [tr for tr in self.transients
                if tr.peak_rush_ma > self.budget_ma]
        if over:
            worst = max(over, key=lambda tr: tr.peak_rush_ma)
            raise StandbyError(
                f"cluster {worst.cluster_index} alone rushes "
                f"{worst.peak_rush_ma:.3f} mA, above the "
                f"{self.budget_ma:.3f} mA budget; no wake-up order can "
                f"satisfy it")
        bins = self._pack_bins()
        return self._place_bins(bins)

    # --- internals -----------------------------------------------------------

    def _pack_bins(self) -> list[list[ClusterTransient]]:
        """First-fit decreasing on peak rush; deterministic ties."""
        ordered = sorted(self.transients,
                         key=lambda tr: (-tr.peak_rush_ma,
                                         tr.cluster_index))
        bins: list[list[ClusterTransient]] = []
        sums: list[float] = []
        for transient in ordered:
            for index, total in enumerate(sums):
                if total + transient.peak_rush_ma <= self.budget_ma:
                    bins[index].append(transient)
                    sums[index] = total + transient.peak_rush_ma
                    break
            else:
                bins.append([transient])
                sums.append(transient.peak_rush_ma)
        # Slowest-settling bins fire first (makespan heuristic).
        bins.sort(key=lambda members: (
            -max(tr.wake_latency_ns for tr in members),
            min(tr.cluster_index for tr in members)))
        return bins

    def _place_bins(self, bins: list[list[ClusterTransient]]
                    ) -> WakeupSchedule:
        events: list[WakeupEvent] = []
        taus: dict[int, float] = {}
        peak_aggregate = 0.0
        t_prev = 0.0
        for bin_index, members in enumerate(bins):
            bin_peak = sum(tr.peak_rush_ma for tr in members)
            start = self._earliest_start(events, taus, t_prev, bin_peak)
            for transient in sorted(members,
                                    key=lambda tr: tr.cluster_index):
                events.append(WakeupEvent(
                    cluster_index=transient.cluster_index,
                    bin_index=bin_index,
                    enable_ns=start,
                    settle_ns=start + transient.wake_latency_ns,
                    peak_rush_ma=transient.peak_rush_ma))
                taus[transient.cluster_index] = transient.tau_wake_ns
            aggregate = self._residual(events, taus, start)
            peak_aggregate = max(peak_aggregate, aggregate)
            t_prev = start
        total = max((event.settle_ns for event in events), default=0.0)
        serial = sum(tr.wake_latency_ns for tr in self.transients)
        return WakeupSchedule(
            budget_ma=self.budget_ma,
            events=tuple(events),
            bins=len(bins),
            total_latency_ns=total,
            serial_latency_ns=serial,
            peak_aggregate_ma=peak_aggregate)

    @staticmethod
    def _residual(events: list[WakeupEvent], taus: dict[int, float],
                  t_ns: float) -> float:
        return sum(_decayed_ma(event, taus[event.cluster_index], t_ns)
                   for event in events)

    def _earliest_start(self, events: list[WakeupEvent],
                        taus: dict[int, float], t_prev: float,
                        bin_peak: float) -> float:
        """Earliest ``t >= t_prev`` with residual + bin peak in budget."""
        headroom = self.budget_ma - bin_peak
        if self._residual(events, taus, t_prev) <= headroom:
            return t_prev
        # Past every settle the residual is exactly zero, so the upper
        # bracket is always feasible (bin_peak <= budget by packing).
        hi = max((event.settle_ns for event in events), default=t_prev)
        if hi <= t_prev:
            return t_prev
        lo = t_prev
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if self._residual(events, taus, mid) <= headroom:
                hi = mid
            else:
                lo = mid
        return hi
